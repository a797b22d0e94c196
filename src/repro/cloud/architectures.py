"""The five systems-under-test, as parameter bundles.

Each factory mirrors one row of the paper's Table IV plus the
architectural narrative of Section III-A:

* ``aws_rds`` -- coupled compute/storage, local NVMe, ARIES restart
  recovery, dirty-page flushing and checkpointing, no autoscaling.
* ``cdb1``    -- storage disaggregation with redo pushdown (Aurora
  lineage): fast threshold scale-up, *gradual* scale-down, six-way
  replicated storage, sequential log replay on replicas.
* ``cdb2``    -- separated log service and page service on a SQL Server
  engine (Socrates/HyperScale lineage): tiny 44 MB buffer, elastic-pool
  multi-tenancy, on-demand scaling with a 0.5 vCore floor.
* ``cdb3``    -- compute/log/storage disaggregation on PostgreSQL (Neon
  lineage): safekeepers, parallel log replay, a Local File Cache,
  CU-granular scaling with pause-and-resume, branch tenancy.
* ``cdb4``    -- memory disaggregation (PolarDB-MP lineage): 10 GB local
  plus 24 GB remote buffer over RDMA, cache invalidation, fast
  switch-over; fixed provisioning.

Registering a new SUT is one :func:`register` call, mirroring the
paper's extensibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.cloud.specs import (
    GIB,
    MIB,
    ComputeAllocation,
    InstanceSpec,
    NetworkKind,
    NetworkSpec,
    PricingModel,
    ProvisionedPackage,
    RDMA_10G,
    RecoveryProfile,
    ScalingKind,
    ScalingPolicySpec,
    StorageKind,
    StorageProfile,
    TCP_10G,
    TenancyKind,
    TenancySpec,
)


@dataclass(frozen=True)
class Architecture:
    """Complete parameter bundle for one system-under-test."""

    name: str
    display_name: str
    engine: str
    #: relative CPU efficiency of the engine + service path (1.0 = reference)
    cpu_efficiency: float
    #: extra CPU seconds burned per buffer miss (read path, network stack)
    miss_cpu_s: float
    #: default local buffer pool size, bytes (Table IV)
    buffer_bytes: int
    #: extra fraction of instance RAM acting as a second-level page cache
    #: (OS page cache for local storage; the Local File Cache for CDB3)
    second_cache_fraction: float
    #: remote shared buffer pool, bytes (CDB4's memory disaggregation)
    remote_buffer_bytes: int
    #: dirty-flush amplification coefficient (0 when redo is pushed down)
    flush_coeff: float
    #: checkpoint cadence of ARIES-style engines, seconds
    checkpoint_interval_s: float
    instance: InstanceSpec
    network: NetworkSpec
    storage: StorageProfile
    recovery: RecoveryProfile
    scaling: ScalingPolicySpec
    tenancy: TenancySpec
    pricing: PricingModel
    provisioned: ProvisionedPackage
    #: fetch latency of the second-level cache (OS cache / SSD / LFC)
    second_cache_fetch_s: float = 5e-6
    #: CPU-equivalent overhead per in-place row update: cache invalidation
    #: round trips (CDB4), quorum acknowledgement (CDB1), page-service
    #: update propagation (CDB2/CDB3); near zero for a coupled engine
    update_overhead_s: float = 0.0
    #: extra overhead per updated row whose page misses the cache: the
    #: page must be fetched from disaggregated storage before the
    #: in-place update (read-modify-write on the critical path).  This
    #: is what makes CDB1's throughput so sensitive to its buffer size
    #: in the paper's Figure 8.
    update_miss_overhead_s: float = 0.0
    #: read-throughput gained per added RO node relative to one node's
    #: read capacity (E2 scale-out; replicas of disaggregated systems
    #: contend on shared page services, RDS replicas own a full copy)
    replica_efficiency: float = 1.0

    def buffer_bytes_at(self, allocation: ComputeAllocation) -> int:
        """Local buffer size when ``allocation`` is provisioned.

        Serverless instances shrink the buffer proportionally with
        memory; fixed instances keep the configured size.
        """
        max_memory = self.instance.max_allocation.memory_gb
        if not self.instance.serverless or max_memory == 0:
            return self.buffer_bytes
        fraction = min(1.0, allocation.memory_gb / max_memory)
        return max(int(self.buffer_bytes * fraction), 8 * MIB)

    def second_cache_bytes_at(self, allocation: ComputeAllocation) -> int:
        return int(allocation.memory_gb * GIB * self.second_cache_fraction)


_REGISTRY: Dict[str, Callable[[], Architecture]] = {}


def register(name: str, factory: Callable[[], Architecture]) -> None:
    """Add (or replace) an architecture factory under ``name``."""
    _REGISTRY[name] = factory


def get(name: str) -> Architecture:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_architectures() -> List[Architecture]:
    """All registered SUTs in the paper's presentation order."""
    order = ["aws_rds", "cdb1", "cdb2", "cdb3", "cdb4"]
    names = order + sorted(set(_REGISTRY) - set(order))
    return [get(name) for name in names if name in _REGISTRY]


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def aws_rds() -> Architecture:
    """AWS RDS representative: PostgreSQL 15 on local NVMe, fixed size."""
    return Architecture(
        name="aws_rds",
        display_name="AWS RDS",
        engine="PostgreSQL 15",
        cpu_efficiency=1.0,
        miss_cpu_s=40e-6,
        buffer_bytes=128 * MIB,
        # PostgreSQL leans on the OS page cache for everything beyond
        # shared_buffers; roughly half the RAM is file cache in steady state.
        second_cache_fraction=0.5,
        remote_buffer_bytes=0,
        # Coupled ARIES engine: dirty-page flushing + checkpointing cost
        # grows once the working set exceeds the cache.
        flush_coeff=0.9,
        checkpoint_interval_s=30.0,
        instance=InstanceSpec(
            min_allocation=ComputeAllocation(4, 16),
            max_allocation=ComputeAllocation(4, 16),
            serverless=False,
        ),
        network=TCP_10G,
        storage=StorageProfile(
            kind=StorageKind.LOCAL,
            page_fetch_s=110e-6,       # local NVMe read
            fetch_channels=16,
            log_write_s=60e-6,         # local fsync with group commit
            log_channels=4,
            redo_pushdown=False,
            replay_parallelism=1,
            replay_service_s={"insert": 90e-6, "update": 90e-6, "delete": 45e-6},
            ship_hops=1,
            replay_batch_interval_s=0.02,
            commit_delay_s=1.2e-3,     # fsync + synchronous standby ack
        ),
        recovery=RecoveryProfile(
            heartbeat_s=4.0,
            prepare_s=2.0,
            promote_s=6.0,
            restart_s=12.0,
            redo_rate_records_s=60_000,
            undo_rate_txns_s=100,
            remote_buffer_survives=False,
            warmup_tau_rw_s=7.0,
            warmup_tau_ro_s=11.0,
            ro_restart_s=2.0,          # replica process restart, no ARIES
        ),
        scaling=ScalingPolicySpec(kind=ScalingKind.FIXED),
        tenancy=TenancySpec(kind=TenancyKind.ISOLATED),
        pricing=PricingModel(
            # On-demand list prices: roughly 2x the reserved/RUC level,
            # and the instance bills at least ten minutes per run.  This
            # is what drives RDS to the bottom of the starred scores.
            vcore_hour=0.46,
            memory_gb_hour=0.027,
            storage_gb_hour=0.00025,
            iops_100_hour=0.0120,
            network_gbps_hour=0.21,
            min_billing_s=600.0,       # bills at least ten minutes
        ),
        provisioned=ProvisionedPackage(
            vcores=4, memory_gb=16, storage_gb=42, iops=1000,
            network_gbps=10, network_kind=NetworkKind.TCP,
        ),
        second_cache_fetch_s=3e-6,     # OS page cache: memory copy
        update_overhead_s=60e-6,       # local page update, no coherence work
        replica_efficiency=1.40,       # replica has its own local SSD copy
    )


def cdb1() -> Architecture:
    """Storage disaggregation with redo pushdown (Aurora lineage)."""
    return Architecture(
        name="cdb1",
        display_name="CDB1",
        engine="PostgreSQL 15",
        cpu_efficiency=1.10,           # lean read path; writes pay the quorum
        miss_cpu_s=35e-6,              # misses traverse the network stack
        buffer_bytes=128 * MIB,
        second_cache_fraction=0.0,     # direct I/O to shared storage
        remote_buffer_bytes=0,
        flush_coeff=0.0,               # redo pushed down: no dirty flushing
        checkpoint_interval_s=0.0,
        instance=InstanceSpec(
            # CPU:memory stays at the 1:8 ratio the paper bills (Table V:
            # 4 vCores / 32 GB), which is what makes CDB1's elastic cost high.
            min_allocation=ComputeAllocation(1, 8),
            max_allocation=ComputeAllocation(4, 32),
            serverless=True,
            vcore_step=0.5,
        ),
        network=TCP_10G,
        storage=StorageProfile(
            kind=StorageKind.DISAGGREGATED,
            page_fetch_s=300e-6,       # storage-node page materialisation
            fetch_channels=12,
            log_write_s=220e-6,        # quorum log write over the network
            log_channels=2,
            redo_pushdown=True,
            replay_parallelism=1,      # sequential replay on replicas
            replay_service_s={"insert": 900e-6, "update": 450e-6, "delete": 120e-6},
            ship_hops=1,
            replay_batch_interval_s=0.15,
            commit_delay_s=4.0e-3,     # six-way quorum acknowledgement
        ),
        recovery=RecoveryProfile(
            heartbeat_s=2.0,
            prepare_s=1.0,
            promote_s=2.0,
            restart_s=2.0,
            redo_rate_records_s=400_000,  # storage already materialised pages
            undo_rate_txns_s=1_000,
            remote_buffer_survives=False,
            warmup_tau_rw_s=6.0,
            warmup_tau_ro_s=0.5,       # replicas page in from storage fast
            ro_restart_s=4.0,
        ),
        scaling=ScalingPolicySpec(
            kind=ScalingKind.THRESHOLD_GRADUAL,
            reaction_s=10.0,
            up_threshold=0.75,
            gradual_step_s=120.0,      # one step down every two minutes
            scaling_warm_tau_s=45.0,   # slow buffer refill from shared storage
        ),
        tenancy=TenancySpec(kind=TenancyKind.ISOLATED),
        pricing=PricingModel(
            vcore_hour=0.18,
            memory_gb_hour=0.02,
            storage_gb_hour=0.000138,
            iops_100_hour=0.0048,
            network_gbps_hour=0.08,
            min_billing_s=60.0,
        ),
        provisioned=ProvisionedPackage(
            vcores=4, memory_gb=32, storage_gb=126, iops=1000,
            network_gbps=10, network_kind=NetworkKind.TCP,
        ),
        update_overhead_s=700e-6,      # six-way quorum acknowledgement path
        update_miss_overhead_s=3200e-6,  # read-modify-write page fetch
        replica_efficiency=0.46,       # replicas share the storage fleet
    )


def cdb2() -> Architecture:
    """Separated log and page services (Socrates/HyperScale lineage)."""
    return Architecture(
        name="cdb2",
        display_name="CDB2",
        engine="SQL Server 12",
        cpu_efficiency=0.63,
        miss_cpu_s=90e-6,
        buffer_bytes=44 * MIB,         # the paper calls this the bottleneck
        second_cache_fraction=0.05,    # thin resilient SSD cache slice
        remote_buffer_bytes=0,
        flush_coeff=0.0,               # pages regenerated by the page service
        checkpoint_interval_s=0.0,
        instance=InstanceSpec(
            min_allocation=ComputeAllocation(0.5, 2),
            max_allocation=ComputeAllocation(4, 12),
            serverless=True,
            vcore_step=0.5,
        ),
        network=TCP_10G,
        storage=StorageProfile(
            kind=StorageKind.LOG_PAGE,
            page_fetch_s=380e-6,       # page-service fetch (general device)
            fetch_channels=10,
            log_write_s=120e-6,        # log service on fast storage
            log_channels=1,
            redo_pushdown=True,
            replay_parallelism=1,
            replay_service_s={"insert": 1.4e-3, "update": 1.6e-3, "delete": 300e-6},
            ship_hops=2,               # log service -> page service -> replica
            replay_batch_interval_s=1.0,
            commit_delay_s=2.5e-3,     # log-service hop on the commit path
        ),
        recovery=RecoveryProfile(
            heartbeat_s=2.0,
            prepare_s=1.0,
            promote_s=2.0,
            restart_s=2.0,
            redo_rate_records_s=150_000,
            undo_rate_txns_s=800,
            remote_buffer_survives=False,
            warmup_tau_rw_s=12.0,      # 44 MB buffer refills via page service
            warmup_tau_ro_s=6.5,
            ro_restart_s=4.0,
        ),
        scaling=ScalingPolicySpec(
            kind=ScalingKind.ON_DEMAND,
            reaction_s=30.0,           # re-fits allocation roughly every 30 s
            up_threshold=0.75,
            scaling_warm_tau_s=10.0,   # tiny buffer refills quickly
        ),
        tenancy=TenancySpec(
            kind=TenancyKind.ELASTIC_POOL,
            overcommit_penalty=0.45,
        ),
        pricing=PricingModel(
            vcore_hour=0.42,
            memory_gb_hour=0.011,
            storage_gb_hour=0.00016,
            iops_100_hour=0.0001,
            network_gbps_hour=0.08,
            min_billing_s=3600.0,      # the elastic pool bills hourly
        ),
        provisioned=ProvisionedPackage(
            vcores=4, memory_gb=20, storage_gb=63, iops=327_680,
            network_gbps=10, network_kind=NetworkKind.TCP,
        ),
        second_cache_fetch_s=60e-6,    # resilient SSD cache read
        update_overhead_s=1300e-6,     # update propagation through log+page services
        replica_efficiency=1.48,       # named replicas get their own SSD cache
    )


def cdb3() -> Architecture:
    """Compute/log/storage disaggregation with pause-and-resume (Neon lineage)."""
    return Architecture(
        name="cdb3",
        display_name="CDB3",
        engine="PostgreSQL 15",
        cpu_efficiency=0.92,
        miss_cpu_s=70e-6,
        buffer_bytes=128 * MIB,
        second_cache_fraction=0.70,    # Local File Cache over most of RAM
        remote_buffer_bytes=0,
        flush_coeff=0.0,               # pageservers replay WAL into pages
        checkpoint_interval_s=0.0,
        instance=InstanceSpec(
            min_allocation=ComputeAllocation(0.25, 0.5),  # 0.25 CU minimum
            max_allocation=ComputeAllocation(4, 16),
            serverless=True,
            vcore_step=0.25,
        ),
        network=TCP_10G,
        storage=StorageProfile(
            kind=StorageKind.COMPUTE_LOG_STORAGE,
            page_fetch_s=260e-6,       # pageserver materialised fetch
            fetch_channels=12,
            log_write_s=140e-6,        # safekeeper quorum append
            log_channels=2,
            redo_pushdown=True,
            replay_parallelism=8,      # parallel log replay
            replay_service_s={"insert": 220e-6, "update": 420e-6, "delete": 90e-6},
            ship_hops=2,               # safekeeper -> pageserver -> replica
            replay_batch_interval_s=0.012,
            cold_fetch_s=2.5e-3,       # cloud object storage
            cold_fraction=0.05,
            commit_delay_s=2.0e-3,     # safekeeper quorum acknowledgement
        ),
        recovery=RecoveryProfile(
            heartbeat_s=3.0,
            prepare_s=1.0,
            promote_s=7.0,             # Kubernetes reschedule on the path
            restart_s=4.0,
            redo_rate_records_s=500_000,
            undo_rate_txns_s=1_000,
            remote_buffer_survives=False,
            warmup_tau_rw_s=10.0,
            warmup_tau_ro_s=2.0,
            ro_restart_s=3.0,
        ),
        scaling=ScalingPolicySpec(
            kind=ScalingKind.CU_PAUSE_RESUME,
            reaction_s=60.0,           # CU adaptation granularity
            up_threshold=0.75,
            pause_after_s=55.0,
            resume_s=4.0,
            scaling_warm_tau_s=12.0,   # LFC re-primes from the pageservers
        ),
        tenancy=TenancySpec(kind=TenancyKind.BRANCH),
        pricing=PricingModel(
            vcore_hour=0.16,           # startup pricing, cheapest CPU
            memory_gb_hour=0.008,
            storage_gb_hour=0.000105,
            iops_100_hour=0.0001,
            network_gbps_hour=0.05,
            min_billing_s=1.0,         # per-second billing
        ),
        provisioned=ProvisionedPackage(
            vcores=4, memory_gb=16, storage_gb=63, iops=1000,
            network_gbps=10, network_kind=NetworkKind.TCP,
        ),
        second_cache_fetch_s=75e-6,    # Local File Cache on instance SSD
        update_overhead_s=1000e-6,     # safekeeper quorum + pageserver propagation
        replica_efficiency=0.59,       # replicas contend on the pageservers
    )


def cdb4() -> Architecture:
    """Memory disaggregation with a remote RDMA buffer pool."""
    return Architecture(
        name="cdb4",
        display_name="CDB4",
        engine="MySQL 8",
        cpu_efficiency=1.80,
        miss_cpu_s=15e-6,              # RDMA one-sided reads bypass the kernel
        buffer_bytes=10 * GIB,
        second_cache_fraction=0.0,
        remote_buffer_bytes=24 * GIB,
        # ARIES-style with a remote buffer pool: flushes ride RDMA and are
        # cheap but not free.
        flush_coeff=0.12,
        checkpoint_interval_s=60.0,
        instance=InstanceSpec(
            min_allocation=ComputeAllocation(4, 16),
            max_allocation=ComputeAllocation(4, 16),
            serverless=False,
        ),
        network=RDMA_10G,
        storage=StorageProfile(
            kind=StorageKind.MEMORY_DISAGGREGATED,
            page_fetch_s=19e-6,        # remote buffer hit over RDMA
            fetch_channels=32,
            log_write_s=25e-6,         # RDMA log shipping
            log_channels=8,
            redo_pushdown=False,
            replay_parallelism=8,
            replay_service_s={"insert": 30e-6, "update": 30e-6, "delete": 15e-6},
            ship_hops=1,
            replay_batch_interval_s=0.0012,
            backing_fetch_s=320e-6,    # distributed storage behind the pool
            backing_channels=12,
            commit_delay_s=0.3e-3,     # RDMA commit acknowledgement
        ),
        recovery=RecoveryProfile(
            heartbeat_s=1.0,
            prepare_s=1.0,             # notify + collect LSNs (Figure 7)
            promote_s=2.0,             # RO -> RW switch-over
            restart_s=1.0,
            redo_rate_records_s=2_000_000,
            undo_rate_txns_s=50,       # 150 active txns rolled back in ~3 s
            remote_buffer_survives=True,
            warmup_tau_rw_s=1.2,
            warmup_tau_ro_s=1.5,
            ro_restart_s=1.0,
        ),
        scaling=ScalingPolicySpec(kind=ScalingKind.FIXED),
        tenancy=TenancySpec(kind=TenancyKind.ISOLATED),
        pricing=PricingModel(
            vcore_hour=0.95,           # flagship tier, no serverless discount
            memory_gb_hour=0.046,      # includes the remote pool lease
            storage_gb_hour=0.00015,
            iops_100_hour=0.00012,
            network_gbps_hour=1.10,    # RDMA fabric premium
            min_billing_s=60.0,
        ),
        provisioned=ProvisionedPackage(
            vcores=4, memory_gb=40, storage_gb=63, iops=84_000,
            network_gbps=10, network_kind=NetworkKind.RDMA,
        ),
        update_overhead_s=1500e-6,     # remote-cache invalidation + timestamp fetch
        replica_efficiency=0.90,       # shared remote buffer serves replicas fast
    )


register("aws_rds", aws_rds)
register("cdb1", cdb1)
register("cdb2", cdb2)
register("cdb3", cdb3)
register("cdb4", cdb4)
