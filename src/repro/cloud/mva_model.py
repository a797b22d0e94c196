"""Analytical steady-state throughput model for one database instance.

The instance under ``N`` concurrent clients is a closed queueing
network.  Service demands are derived from the architecture and the
workload:

* **cpu** -- per-transaction CPU plus per-miss CPU (network stack,
  buffer manager) plus flushing CPU, divided by the engine efficiency;
  ``vcores`` servers.
* **storage** -- page fetches that miss every cache level, served by
  the storage/page service with ``fetch_channels`` parallel channels;
  ARIES engines add dirty-page flush traffic here.
* **remote_buffer** -- fetches that hit the RDMA remote buffer pool
  (memory-disaggregated architectures only).
* **log** -- the commit path (group-commit channels).
* **net** -- bytes moved over the compute<->storage interconnect
  (bandwidth as a queueing centre, round-trip latencies as a delay
  centre).
* **contention** -- a delay centre modelling row-lock waits on skewed
  (hot-key) workloads.

The cache hierarchy is modelled by stacking capacities: local buffer,
second-level cache (OS page cache, SSD cache, or CDB3's Local File
Cache), remote buffer pool, then storage.  Hit ratios come from a
hot/cold working-set model, so buffer size, scale factor, and access
skew all move throughput the way they do in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cloud.architectures import Architecture
from repro.cloud.specs import ComputeAllocation, StorageKind
from repro.cloud.workload_model import WorkloadMix
from repro.sim.mva import Center, ClosedNetwork

PAGE_BYTES = 8192.0
#: client<->server round trip inside one VPC, per SQL statement
CLIENT_RTT_S = 0.35e-3
#: client-side processing between transactions in the closed loop.
#: This is what makes saturation land around ~110 clients on a 4-vCore
#: instance, as in the paper's tau probe.
THINK_TIME_S = 5e-3


def hit_ratio(
    cache_bytes: float,
    working_set_bytes: float,
    hot_fraction: float = 0.0,
    hot_set_bytes: float = 0.0,
) -> float:
    """Fraction of page accesses served by a cache of ``cache_bytes``.

    Hot pages are cached preferentially: the hot set fills the cache
    first, the remainder caches a proportional slice of the cold set.
    With ``hot_fraction == 0`` this collapses to the uniform model
    ``min(1, cache / working_set)``.
    """
    if working_set_bytes <= 0:
        return 1.0
    if cache_bytes <= 0:
        return 0.0
    if hot_fraction <= 0 or hot_set_bytes <= 0:
        return min(1.0, cache_bytes / working_set_bytes)
    hot_hit = min(1.0, cache_bytes / hot_set_bytes)
    spare = max(0.0, cache_bytes - hot_set_bytes)
    cold_bytes = max(0.0, working_set_bytes - hot_set_bytes)
    cold_hit = min(1.0, spare / cold_bytes) if cold_bytes > 0 else 1.0
    return hot_fraction * hot_hit + (1.0 - hot_fraction) * cold_hit


@dataclass
class CacheBreakdown:
    """Where each page access lands, as fractions summing to 1."""

    local: float
    second: float
    remote: float
    storage: float

    @property
    def combined_hit(self) -> float:
        return self.local + self.second + self.remote


@dataclass
class ThroughputEstimate:
    """Everything the evaluators need about one operating point."""

    tps: float
    latency_s: float
    concurrency: int
    utilizations: Dict[str, float] = field(default_factory=dict)
    bottleneck: str = ""


def cache_breakdown(
    arch: Architecture,
    workload: WorkloadMix,
    allocation: ComputeAllocation,
    buffer_bytes: Optional[int] = None,
) -> CacheBreakdown:
    """Stacked hit ratios across the architecture's cache hierarchy."""
    local = (buffer_bytes if buffer_bytes is not None
             else arch.buffer_bytes_at(allocation))
    second = arch.second_cache_bytes_at(allocation)
    remote = arch.remote_buffer_bytes
    ws = workload.working_set_bytes
    hot_f, hot_b = workload.hot_fraction, workload.hot_set_bytes
    h_local = hit_ratio(local, ws, hot_f, hot_b)
    h_second = hit_ratio(local + second, ws, hot_f, hot_b)
    h_remote = hit_ratio(local + second + remote, ws, hot_f, hot_b)
    return CacheBreakdown(
        local=h_local,
        second=max(0.0, h_second - h_local),
        remote=max(0.0, h_remote - h_second),
        storage=max(0.0, 1.0 - h_remote),
    )


def _flush_pages_per_txn(
    arch: Architecture,
    workload: WorkloadMix,
    cache_bytes: float,
    concurrency: int = 1,
) -> float:
    """Dirty pages written back per transaction (ARIES engines only).

    When the working set fits the cache, writes coalesce and roughly
    one flush happens per dirtied page; as the working set outgrows the
    cache, eviction pressure and checkpointing amplify write-back
    traffic -- this is the paper's 'dirty page flushing and
    checkpointing incur larger overhead' effect at SF100.  High
    concurrency steepens the effect (more dirty pages in flight between
    checkpoints), which is why AWS RDS falls off beyond ~150 clients on
    the larger scale factors.
    """
    if arch.flush_coeff <= 0 or workload.page_writes <= 0:
        return 0.0
    if cache_bytes <= 0:
        pressure = 5.0
    else:
        pressure = min(5.0, workload.working_set_bytes / cache_bytes)
    crowd = 1.0 + 0.8 * max(0.0, (concurrency - 100) / 100.0)
    return workload.page_writes * (1.0 + arch.flush_coeff * pressure * crowd)


def estimate_throughput(
    arch: Architecture,
    workload: WorkloadMix,
    concurrency: int,
    allocation: Optional[ComputeAllocation] = None,
    efficiency_factor: float = 1.0,
    buffer_bytes: Optional[int] = None,
) -> ThroughputEstimate:
    """Solve the closed network for ``concurrency`` clients.

    ``allocation`` defaults to the instance's maximum.
    ``efficiency_factor`` < 1 models shared-pool scheduling overhead in
    multi-tenant overcommit.  ``buffer_bytes`` overrides the local
    buffer (the Figure 8 sweep).
    """
    if concurrency < 0:
        raise ValueError("concurrency must be >= 0")
    if allocation is None:
        allocation = arch.instance.max_allocation
    cache = cache_breakdown(arch, workload, allocation, buffer_bytes=buffer_bytes)
    if concurrency == 0 or allocation.is_paused:
        return ThroughputEstimate(tps=0.0, latency_s=0.0, concurrency=concurrency)

    storage = arch.storage
    misses = workload.page_reads * cache.storage
    second_hits = workload.page_reads * cache.second
    remote_hits = workload.page_reads * cache.remote
    local_bytes = (buffer_bytes if buffer_bytes is not None
                   else arch.buffer_bytes_at(allocation))
    total_cache = (local_bytes + arch.second_cache_bytes_at(allocation)
                   + arch.remote_buffer_bytes)
    flush_pages = _flush_pages_per_txn(arch, workload, total_cache, concurrency)

    # -- CPU centre ---------------------------------------------------------
    miss_like = misses + remote_hits
    cpu_raw = (
        workload.cpu_s
        + workload.rows_updated * arch.update_overhead_s
        + workload.rows_updated * (1.0 - cache.combined_hit) * arch.update_miss_overhead_s
        + miss_like * arch.miss_cpu_s
        + second_hits * arch.miss_cpu_s * 0.25
        + flush_pages * arch.miss_cpu_s * 0.5
    )
    cpu_demand = cpu_raw / (arch.cpu_efficiency * efficiency_factor)
    centers = [Center("cpu", cpu_demand, "queue", servers=allocation.vcores)]

    # -- storage fetch centre ------------------------------------------------
    fetch_s = storage.page_fetch_s
    if storage.kind is StorageKind.MEMORY_DISAGGREGATED:
        # page_fetch_s is the remote-buffer hit; real misses go to the
        # backing distributed store.
        if remote_hits > 0:
            centers.append(
                Center("remote_buffer", remote_hits * storage.page_fetch_s,
                       "queue", servers=storage.fetch_channels)
            )
        fetch_s = storage.backing_fetch_s or storage.page_fetch_s
        channels = storage.backing_channels
    else:
        channels = storage.fetch_channels
    cold = storage.cold_fraction if storage.cold_fetch_s else 0.0
    storage_demand = misses * (
        (1.0 - cold) * fetch_s + cold * (storage.cold_fetch_s or 0.0)
    )
    storage_demand += flush_pages * fetch_s
    if storage_demand > 0:
        centers.append(Center("storage", storage_demand, "queue", servers=channels))

    # -- client round trips (one per SQL statement) -------------------------------
    if workload.statements > 0:
        centers.append(
            Center("client_rtt", workload.statements * CLIENT_RTT_S, "delay")
        )

    # -- second-level cache fetches (pure latency) ------------------------------
    if second_hits > 0 and arch.second_cache_fetch_s > 0:
        centers.append(
            Center("second_cache", second_hits * arch.second_cache_fetch_s, "delay")
        )

    # -- commit / log centre ------------------------------------------------------
    if workload.write_fraction > 0:
        log_demand = workload.write_fraction * storage.log_write_s
        centers.append(
            Center("log", log_demand, "queue", servers=storage.log_channels)
        )
        if storage.commit_delay_s > 0:
            centers.append(
                Center(
                    "commit_ack",
                    workload.write_fraction * storage.commit_delay_s,
                    "delay",
                )
            )

    # -- network ------------------------------------------------------------------
    if storage.kind is not StorageKind.LOCAL:
        wire_bytes = (misses + remote_hits) * PAGE_BYTES
        wire_bytes += workload.write_fraction * (workload.log_bytes + 64)
        bandwidth_demand = wire_bytes * 8.0 / (arch.network.bandwidth_gbps * 1e9)
        if bandwidth_demand > 0:
            centers.append(Center("net", bandwidth_demand, "queue", servers=4))
        round_trips = misses + remote_hits + workload.write_fraction
        latency_demand = round_trips * 2.0 * arch.network.latency_s
        if latency_demand > 0:
            centers.append(Center("net_latency", latency_demand, "delay"))

    # -- lock contention on hot keys -------------------------------------------------
    if workload.hot_fraction > 0 and workload.rows_written > 0 and workload.hot_set_bytes > 0:
        hot_rows = max(1.0, workload.hot_set_bytes / 256.0)
        collision = min(
            1.0, (concurrency - 1) * workload.rows_written / hot_rows
        )
        hold_s = cpu_demand + storage.log_write_s
        contention_demand = collision * workload.rows_written * hold_s
        if workload.mvcc:
            # Snapshot reads bypass the lock manager entirely: only the
            # writing fraction of transactions can collide on hot rows.
            contention_demand *= workload.write_fraction
        if contention_demand > 0:
            centers.append(Center("contention", contention_demand, "delay"))

    network = ClosedNetwork(centers, think_time=THINK_TIME_S)
    solution = network.solve(concurrency)
    return ThroughputEstimate(
        tps=solution.throughput,
        latency_s=solution.response_time,
        concurrency=concurrency,
        utilizations=solution.utilizations,
        bottleneck=solution.bottleneck(),
    )


def required_vcores(
    arch: Architecture,
    workload: WorkloadMix,
    concurrency: int,
    target_utilization: float = 0.7,
    max_vcores: Optional[float] = None,
) -> float:
    """Smallest vCore allocation keeping CPU below ``target_utilization``.

    This is what demand-tracking autoscalers compute each control tick.
    ``max_vcores`` overrides the instance ceiling (an elastic pool can
    hand one tenant more than a single instance's worth).
    """
    if concurrency <= 0:
        return 0.0
    spec = arch.instance
    step = spec.vcore_step
    candidate = spec.min_allocation.vcores
    ceiling = max_vcores if max_vcores is not None else spec.max_allocation.vcores
    reference = spec.max_allocation.vcores or 1.0
    mem_per_core = spec.max_allocation.memory_gb / reference
    while candidate < ceiling:
        allocation = ComputeAllocation(candidate, candidate * mem_per_core)
        estimate = estimate_throughput(arch, workload, concurrency, allocation)
        if estimate.utilizations.get("cpu", 0.0) <= target_utilization:
            return candidate
        candidate = min(ceiling, candidate + step)
    return ceiling
