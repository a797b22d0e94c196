"""Tests for the three multi-tenant scheduling models."""

import pytest

from repro.cloud.architectures import aws_rds, cdb1, cdb2, cdb3
from repro.cloud.mva_model import estimate_throughput
from repro.cloud.tenancy import TenantScheduler, _cold_slot_fraction
from repro.core.workload import READ_WRITE


def mix():
    return READ_WRITE.to_workload_mix(1)


class TestIsolated:
    def test_tenants_do_not_interfere(self):
        scheduler = TenantScheduler(cdb1(), mix(), n_tenants=3)
        result = scheduler.schedule_slot([200, 10, 10])
        light_alone = TenantScheduler(cdb1(), mix(), 1).schedule_slot([10])
        # light tenants get the same TPS as if deployed alone
        assert result.tenants[1].tps == pytest.approx(
            light_alone.tenants[0].tps, rel=1e-6
        )

    def test_heavy_tenant_capped_at_instance_capacity(self):
        scheduler = TenantScheduler(cdb1(), mix(), n_tenants=2)
        result = scheduler.schedule_slot([400, 400])
        single = result.tenants[0].tps
        assert result.total_tps == pytest.approx(2 * single, rel=1e-6)

    def test_idle_tenant_produces_zero(self):
        scheduler = TenantScheduler(aws_rds(), mix(), n_tenants=3)
        result = scheduler.schedule_slot([0, 0, 50])
        assert result.tenants[0].tps == 0.0
        assert result.tenants[2].tps > 0


class TestElasticPool:
    def test_single_active_tenant_borrows_whole_pool(self):
        pool = TenantScheduler(cdb2(), mix(), n_tenants=3)
        result = pool.schedule_slot([300, 0, 0])
        assert result.tenants[0].allocation.vcores == pytest.approx(12.0)

    def test_pool_beats_isolated_on_staggered_load(self):
        demand = [300, 0, 0]
        pool_tps = TenantScheduler(cdb2(), mix(), 3).schedule_slot(demand).total_tps
        iso_arch = cdb2()
        # same architecture but isolated scheduling for comparison
        object.__setattr__(iso_arch.tenancy, "kind", iso_arch.tenancy.kind)
        solo = TenantScheduler(cdb2(), mix(), 1)
        single_instance = solo._isolated([300])[0].tps
        assert pool_tps > single_instance * 1.5

    def test_overcommit_applies_penalty(self):
        pool = TenantScheduler(cdb2(), mix(), n_tenants=3)
        contended = pool.schedule_slot([300, 300, 300])
        # each tenant gets less than its share would serve unpenalised
        assert all(
            t.tps < estimate_throughput(cdb2(), mix(), t.demand, t.allocation).tps
            for t in contended.tenants
        )

    def test_contention_free_has_no_penalty(self):
        pool = TenantScheduler(cdb2(), mix(), n_tenants=3)
        relaxed = pool.schedule_slot([5, 5, 5])
        assert all(
            t.tps == estimate_throughput(cdb2(), mix(), t.demand, t.allocation).tps
            for t in relaxed.tenants
        )

    def test_shares_proportional_to_desire(self):
        pool = TenantScheduler(cdb2(), mix(), n_tenants=2)
        result = pool.schedule_slot([400, 20])
        assert result.tenants[0].allocation.vcores > result.tenants[1].allocation.vcores
        total = sum(t.allocation.vcores for t in result.tenants)
        assert total == pytest.approx(8.0)  # 2 tenants x 4 vCores pool


class TestBranches:
    def test_idle_branch_pauses_with_zero_allocation(self):
        scheduler = TenantScheduler(cdb3(), mix(), n_tenants=2)
        result = scheduler.schedule_slot([0, 50])
        assert result.tenants[0].allocation.vcores == 0.0
        assert result.tenants[1].tps > 0

    def test_branch_resumes_cold(self):
        scheduler = TenantScheduler(cdb3(), mix(), n_tenants=1, slot_seconds=60)
        scheduler.schedule_slot([0])            # pauses
        resumed = scheduler.schedule_slot([50])  # resumes cold
        warm = scheduler.schedule_slot([50])     # stays warm
        # the resumed slot pays the resume and the cold cache
        assert resumed.tenants[0].tps < warm.tenants[0].tps

    def test_branches_cannot_borrow(self):
        scheduler = TenantScheduler(cdb3(), mix(), n_tenants=3)
        result = scheduler.schedule_slot([500, 0, 0])
        max_vcores = cdb3().instance.max_allocation.vcores
        assert result.tenants[0].allocation.vcores == max_vcores


class TestSchedulerGeneral:
    def test_run_slots_matrix(self):
        scheduler = TenantScheduler(aws_rds(), mix(), n_tenants=2)
        results = scheduler.run_slots([[10, 0], [0, 10]])
        assert len(results) == 2
        assert results[0].tenants[0].tps > 0
        assert results[0].tenants[1].tps == 0

    def test_ragged_matrix_rejected(self):
        scheduler = TenantScheduler(aws_rds(), mix(), n_tenants=2)
        with pytest.raises(ValueError):
            scheduler.run_slots([[10, 0], [0]])

    def test_wrong_demand_count_rejected(self):
        scheduler = TenantScheduler(aws_rds(), mix(), n_tenants=2)
        with pytest.raises(ValueError):
            scheduler.schedule_slot([1, 2, 3])

    def test_zero_tenants_rejected(self):
        with pytest.raises(ValueError):
            TenantScheduler(aws_rds(), mix(), n_tenants=0)


def test_cold_slot_fraction_bounds():
    assert _cold_slot_fraction(0.0, 60.0) == 1.0
    assert 0.0 < _cold_slot_fraction(20.0, 60.0) < 1.0
    # longer slots absorb the cold start better
    assert _cold_slot_fraction(10.0, 120.0) > _cold_slot_fraction(10.0, 30.0)
