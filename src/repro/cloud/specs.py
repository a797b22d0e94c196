"""Parameter dataclasses describing a cloud database architecture.

Everything the simulator knows about a system-under-test is captured in
these specs; :mod:`repro.cloud.architectures` instantiates one bundle
per SUT.  No evaluator reads paper numbers -- they read these physical
parameters and measure the consequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

GIB = 2**30
MIB = 2**20


class NetworkKind(enum.Enum):
    TCP = "tcp"
    RDMA = "rdma"


@dataclass(frozen=True)
class NetworkSpec:
    """The compute<->storage interconnect."""

    kind: NetworkKind
    bandwidth_gbps: float
    #: one-way latency of a small message, seconds
    latency_s: float

    def transfer_time(self, size_bytes: int) -> float:
        """Latency + serialisation delay for one message of ``size_bytes``."""
        return self.latency_s + size_bytes * 8 / (self.bandwidth_gbps * 1e9)


#: 10 Gbps intra-VPC TCP: ~80 microseconds one way.
TCP_10G = NetworkSpec(NetworkKind.TCP, bandwidth_gbps=10.0, latency_s=80e-6)
#: 10 Gbps RDMA: ~8 microseconds one way.
RDMA_10G = NetworkSpec(NetworkKind.RDMA, bandwidth_gbps=10.0, latency_s=8e-6)


@dataclass(frozen=True)
class ComputeAllocation:
    """A point-in-time compute allocation (what autoscalers move)."""

    vcores: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.vcores < 0 or self.memory_gb < 0:
            raise ValueError("allocations cannot be negative")

    @property
    def is_paused(self) -> bool:
        return self.vcores == 0

    def scaled(self, factor: float) -> "ComputeAllocation":
        return ComputeAllocation(self.vcores * factor, self.memory_gb * factor)


@dataclass(frozen=True)
class InstanceSpec:
    """Provisionable compute range of one instance."""

    min_allocation: ComputeAllocation
    max_allocation: ComputeAllocation
    serverless: bool = False
    #: smallest scaling step in vCores (CDB3's 0.25 CU = 0.25 vCore)
    vcore_step: float = 1.0

    def clamp(self, allocation: ComputeAllocation) -> ComputeAllocation:
        vcores = min(max(allocation.vcores, self.min_allocation.vcores),
                     self.max_allocation.vcores)
        memory = min(max(allocation.memory_gb, self.min_allocation.memory_gb),
                     self.max_allocation.memory_gb)
        return ComputeAllocation(vcores, memory)


class StorageKind(enum.Enum):
    """The five storage organisations in the paper's SUT inventory."""

    LOCAL = "local"                # RDS: coupled compute + local NVMe
    DISAGGREGATED = "disaggregated"  # CDB1: shared storage, redo pushdown
    LOG_PAGE = "log_page"          # CDB2: split log service / page service
    COMPUTE_LOG_STORAGE = "compute_log_storage"  # CDB3: safekeepers + pageservers
    MEMORY_DISAGGREGATED = "memory_disaggregated"  # CDB4: remote buffer pool


@dataclass(frozen=True)
class StorageProfile:
    """Storage-side behaviour of an architecture."""

    kind: StorageKind
    #: service time of one page fetch at the storage/page server, seconds
    page_fetch_s: float
    #: concurrent fetch channels at the storage service
    fetch_channels: int
    #: commit-path log write service time, seconds
    log_write_s: float
    #: concurrent log append channels (group commit width)
    log_channels: int
    #: True when redo is pushed to storage: compute never flushes dirty pages
    redo_pushdown: bool
    #: parallel replay workers on a read replica
    replay_parallelism: int
    #: per-record replay service time on the replica, by record kind
    replay_service_s: Dict[str, float]
    #: extra one-way hops on the replication path (log svc -> page svc ...)
    ship_hops: int = 1
    #: how often shipped log is handed to the replayer (batching cadence)
    replay_batch_interval_s: float = 0.01
    #: fetch latency of cold data from object storage (CDB3), seconds
    cold_fetch_s: Optional[float] = None
    #: fraction of the working set living in the cold tier (CDB3)
    cold_fraction: float = 0.0
    #: backing-store fetch behind a remote buffer pool (CDB4), seconds
    backing_fetch_s: float = 0.0
    #: concurrent channels into that backing store
    backing_channels: int = 8
    #: end-to-end commit acknowledgement latency seen by the client
    #: (quorum round trips, log-service hop); pure delay, not occupancy
    commit_delay_s: float = 0.0


@dataclass(frozen=True)
class RecoveryProfile:
    """Fail-over behaviour (Table VIII / Figure 7)."""

    #: heartbeat interval -> failure detection time, seconds
    heartbeat_s: float
    #: notify-and-freeze time in the prepare phase, seconds
    prepare_s: float
    #: promoting an RO node to RW (switch-over), seconds
    promote_s: float
    #: restarting a failed node's process, seconds
    restart_s: float
    #: log records replayed per second during recovery redo
    redo_rate_records_s: float
    #: undo scan rate: active transactions rolled back per second
    undo_rate_txns_s: float
    #: does a warm remote buffer survive the failure? (CDB4)
    remote_buffer_survives: bool = False
    #: cache warm-up time constant after an RW fail-over, seconds
    warmup_tau_rw_s: float = 10.0
    #: cache warm-up time constant after an RO restart, seconds
    warmup_tau_ro_s: float = 10.0
    #: restart time of a failed RO replica (usually shorter than the
    #: primary's: no ARIES pass, just reattach and catch up)
    ro_restart_s: float = 4.0


class ScalingKind(enum.Enum):
    FIXED = "fixed"
    THRESHOLD_GRADUAL = "threshold_gradual"   # CDB1: fast up, gradual down
    ON_DEMAND = "on_demand"                   # CDB2: periodic re-fit both ways
    CU_PAUSE_RESUME = "cu_pause_resume"       # CDB3: CU steps + scale-to-zero
    PROACTIVE = "proactive"                   # Moneyball/Seagull-style forecasting


@dataclass(frozen=True)
class ScalingPolicySpec:
    kind: ScalingKind
    #: how long after a demand change the scaler reacts, seconds
    reaction_s: float = 30.0
    #: utilisation above which the policy scales up
    up_threshold: float = 0.8
    #: gradual scale-down: one step every this many seconds (CDB1)
    gradual_step_s: float = 120.0
    #: idle time before pausing to zero (CDB3)
    pause_after_s: float = 60.0
    #: cold resume penalty when un-pausing, seconds
    resume_s: float = 5.0
    #: how far ahead a proactive policy pre-scales, seconds
    lead_s: float = 20.0
    #: cache warm-up time constant after a scale-up event, seconds.
    #: Serverless scale-ups move the instance to a bigger footprint with
    #: a cold(er) buffer, which is why the paper measures 32%-82% lower
    #: throughput with serverless enabled.
    scaling_warm_tau_s: float = 0.0


class TenancyKind(enum.Enum):
    ISOLATED = "isolated"        # instance per tenant (RDS, CDB1, CDB4)
    ELASTIC_POOL = "elastic_pool"  # shared vcores/memory/log (CDB2)
    BRANCH = "branch"            # copy-on-write branches (CDB3)


@dataclass(frozen=True)
class TenancySpec:
    kind: TenancyKind
    #: throughput efficiency lost per 100% overcommit in a shared pool
    overcommit_penalty: float = 0.0


@dataclass(frozen=True)
class PricingModel:
    """Vendor *actual* pricing (the starred scores in Table IX)."""

    vcore_hour: float
    memory_gb_hour: float
    storage_gb_hour: float
    iops_100_hour: float
    network_gbps_hour: float
    #: minimum billing granularity, seconds (RDS bills >= 10 minutes)
    min_billing_s: float = 1.0


@dataclass(frozen=True)
class ProvisionedPackage:
    """The resource bundle billed for a steady-state deployment."""

    vcores: float
    memory_gb: float
    storage_gb: float
    iops: float
    network_gbps: float
    network_kind: NetworkKind
