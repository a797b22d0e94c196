"""Tests for the spec dataclasses and the CloudDatabase facade."""

import pytest

from repro.cloud import CloudDatabase
from repro.cloud.architectures import cdb3
from repro.cloud.specs import (
    ComputeAllocation,
    NetworkKind,
    NetworkSpec,
    RDMA_10G,
    TCP_10G,
)
from repro.cloud.workload_model import TxnClass, WorkloadMix, blend
from repro.core.workload import READ_ONLY


class TestNetworkSpec:
    def test_transfer_time_includes_latency_and_serialisation(self):
        spec = NetworkSpec(NetworkKind.TCP, bandwidth_gbps=10.0, latency_s=80e-6)
        small = spec.transfer_time(64)
        page = spec.transfer_time(8192)
        assert small == pytest.approx(80e-6 + 64 * 8 / 1e10)
        assert page > small

    def test_rdma_is_faster_per_message(self):
        assert RDMA_10G.transfer_time(8192) < TCP_10G.transfer_time(8192)


class TestComputeAllocation:
    def test_paused(self):
        assert ComputeAllocation(0, 0).is_paused
        assert not ComputeAllocation(0.25, 0.5).is_paused

    def test_scaled(self):
        assert ComputeAllocation(2, 8).scaled(0.5) == ComputeAllocation(1, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ComputeAllocation(-1, 0)


class TestWorkloadMixMath:
    def make(self, name, cpu, writes):
        cls = TxnClass(name, cpu_s=cpu, page_reads=1, page_writes=writes,
                       log_bytes=100 * writes)
        return WorkloadMix(name, ((cls, 1.0),), working_set_bytes=1e6)

    def test_blend_weighted_average(self):
        light = self.make("light", 1e-4, 0)
        heavy = self.make("heavy", 9e-4, 1)
        blended = blend("b", [(light, 3.0), (heavy, 1.0)])
        assert blended.cpu_s == pytest.approx(3e-4)
        assert blended.write_fraction == pytest.approx(0.25)

    def test_blend_takes_max_working_set(self):
        a = self.make("a", 1e-4, 0)
        big = WorkloadMix("big", a.classes, working_set_bytes=5e6)
        blended = blend("b", [(a, 1.0), (big, 1.0)])
        assert blended.working_set_bytes == 5e6

    def test_blend_validation(self):
        with pytest.raises(ValueError):
            blend("empty", [])
        a = self.make("a", 1e-4, 0)
        with pytest.raises(ValueError):
            blend("zero", [(a, 0.0)])

    def test_mix_validation(self):
        cls = TxnClass("t", cpu_s=1e-4, page_reads=1, page_writes=0, log_bytes=0)
        with pytest.raises(ValueError):
            WorkloadMix("m", (), working_set_bytes=1.0)
        with pytest.raises(ValueError):
            WorkloadMix("m", ((cls, 1.0),), working_set_bytes=1.0,
                        hot_fraction=0.5, hot_set_bytes=0.0)
        with pytest.raises(ValueError):
            TxnClass("bad", cpu_s=-1e-4, page_reads=1, page_writes=0, log_bytes=0)


class TestCloudDatabaseFacade:
    def test_accepts_name_or_architecture(self):
        by_name = CloudDatabase("cdb3")
        by_arch = CloudDatabase(cdb3())
        assert by_name.arch.name == by_arch.arch.name == "cdb3"
        assert by_name.display_name == "CDB3"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            CloudDatabase("not-a-db")

    def test_estimate_uses_current_allocation(self):
        db = CloudDatabase("cdb3")
        assert db.allocation == cdb3().instance.max_allocation
        assert db.estimate(READ_ONLY.to_workload_mix(1), 200).tps > 0
