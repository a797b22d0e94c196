"""Tests for the SUT registry and architecture invariants."""

import pytest

from repro.cloud.architectures import (
    all_architectures,
    aws_rds,
    cdb1,
    cdb2,
    cdb3,
    cdb4,
    get,
    register,
)
from repro.cloud.specs import (
    ComputeAllocation,
    NetworkKind,
    ScalingKind,
    StorageKind,
    TenancyKind,
)


def test_registry_has_all_five_suts():
    names = [arch.name for arch in all_architectures()]
    assert names[:5] == ["aws_rds", "cdb1", "cdb2", "cdb3", "cdb4"]


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("not-a-db")


def test_register_new_architecture():
    custom = aws_rds()
    register("custom_test", lambda: custom)
    try:
        assert get("custom_test") is custom
        assert any(arch.name == "aws_rds" for arch in all_architectures())
    finally:
        from repro.cloud.architectures import _REGISTRY
        _REGISTRY.pop("custom_test", None)


def test_table_iv_configurations():
    """Spot-check the paper's Table IV rows."""
    rds = aws_rds()
    assert rds.engine == "PostgreSQL 15"
    assert rds.buffer_bytes == 128 * 2**20
    assert not rds.instance.serverless
    assert rds.storage.kind is StorageKind.LOCAL

    c2 = cdb2()
    assert c2.engine == "SQL Server 12"
    assert c2.buffer_bytes == 44 * 2**20
    assert c2.instance.min_allocation.vcores == 0.5
    assert c2.storage.kind is StorageKind.LOG_PAGE

    c3 = cdb3()
    assert c3.instance.min_allocation.vcores == 0.25  # 0.25 CU
    assert c3.scaling.kind is ScalingKind.CU_PAUSE_RESUME
    assert c3.storage.replay_parallelism > 1

    c4 = cdb4()
    assert c4.engine == "MySQL 8"
    assert c4.buffer_bytes == 10 * 2**30
    assert c4.remote_buffer_bytes == 24 * 2**30
    assert c4.network.kind is NetworkKind.RDMA
    assert not c4.instance.serverless


def test_architectural_narrative_flags():
    assert cdb1().storage.redo_pushdown            # Aurora: redo at storage
    assert aws_rds().flush_coeff > 0               # ARIES flushing
    assert cdb1().flush_coeff == 0                 # no dirty flushing
    assert cdb4().recovery.remote_buffer_survives
    assert cdb2().tenancy.kind is TenancyKind.ELASTIC_POOL
    assert cdb3().tenancy.kind is TenancyKind.BRANCH
    assert aws_rds().tenancy.kind is TenancyKind.ISOLATED


def test_scaling_policies_match_paper():
    assert aws_rds().scaling.kind is ScalingKind.FIXED
    assert cdb4().scaling.kind is ScalingKind.FIXED
    assert cdb1().scaling.kind is ScalingKind.THRESHOLD_GRADUAL
    assert cdb2().scaling.kind is ScalingKind.ON_DEMAND


def test_buffer_scales_with_serverless_memory():
    arch = cdb1()
    full = arch.buffer_bytes_at(arch.instance.max_allocation)
    half = arch.buffer_bytes_at(ComputeAllocation(2, arch.instance.max_allocation.memory_gb / 2))
    assert full == arch.buffer_bytes
    assert 0 < half < full


def test_fixed_instance_buffer_does_not_scale():
    arch = aws_rds()
    small = arch.buffer_bytes_at(ComputeAllocation(1, 1))
    assert small == arch.buffer_bytes


def test_provisioned_packages_match_table_v():
    expect = {
        "aws_rds": (4, 16, 42, 1000, 10),
        "cdb1": (4, 32, 126, 1000, 10),
        "cdb2": (4, 20, 63, 327_680, 10),
        "cdb3": (4, 16, 63, 1000, 10),
        "cdb4": (4, 40, 63, 84_000, 10),
    }
    for arch in all_architectures():
        package = arch.provisioned
        assert (
            package.vcores, package.memory_gb, package.storage_gb,
            package.iops, package.network_gbps,
        ) == expect[arch.name]


def test_instance_clamp():
    spec = cdb2().instance
    low = spec.clamp(ComputeAllocation(0.1, 0.1))
    assert low.vcores == 0.5
    high = spec.clamp(ComputeAllocation(100, 100))
    assert high.vcores == 4
