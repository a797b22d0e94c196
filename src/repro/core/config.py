"""Benchmark configuration (the paper's *props* file).

A :class:`BenchConfig` drives the whole testbed.  It can be built in
code, from a dict, or from a TOML props file::

    [workload]
    scale_factors = [1, 10, 100]
    concurrencies = [50, 100, 150, 200]
    distribution = "uniform"

    [elasticity]
    elastic_test_time = 3          # slots per pattern
    modes = ["RO", "RW", "WO"]

    [elasticity.custom_patterns]   # extensibility: add new patterns
    double_peak = [0.0, 1.0, 0.2, 1.0, 0.0]

Unknown keys raise immediately -- a benchmark that silently ignores a
typoed knob measures the wrong thing.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_ARCHITECTURES = ["aws_rds", "cdb1", "cdb2", "cdb3", "cdb4"]

#: accepted values for the ``isolation`` knob
ISOLATION_NAMES = ("read_committed", "repeatable_read", "snapshot", "serializable")


def spelled(choices) -> str:
    """A choice set as error messages spell it: ``'a', 'b' or 'c'``."""
    *head, last = map(repr, choices)
    return f"{', '.join(head)} or {last}" if head else last


@dataclass
class BenchConfig:
    """All knobs of the CloudyBench testbed."""

    # -- systems under test
    architectures: List[str] = field(default_factory=lambda: list(DEFAULT_ARCHITECTURES))

    # -- workload
    scale_factors: List[int] = field(default_factory=lambda: [1, 10, 100])
    concurrencies: List[int] = field(default_factory=lambda: [50, 100, 150, 200])
    modes: List[str] = field(default_factory=lambda: ["RO", "RW", "WO"])
    distribution: str = "uniform"
    latest_k: int = 10
    seed: int = 42
    #: engine isolation level for the functional evaluators and the
    #: analytic contention model: "read_committed" (the seed behavior),
    #: "repeatable_read"/"snapshot" (MVCC; what the paper's PostgreSQL-
    #: backed CDBs default to), or "serializable" (strict 2PL).
    isolation: str = "read_committed"

    # -- functional data loading
    row_scale: float = 0.002

    # -- elasticity
    elastic_test_time: int = 3            # slots per pattern
    slot_seconds: float = 60.0
    measure_window_s: float = 600.0
    elastic_modes: List[str] = field(default_factory=lambda: ["RO", "RW", "WO"])
    elastic_tau: Optional[int] = None     # None -> probe saturation, take max
    custom_patterns: Dict[str, List[float]] = field(default_factory=dict)

    # -- multi-tenancy
    tenants: int = 3
    tenant_slots: int = 3
    tenancy_tau_high: Optional[int] = None
    tenancy_tau_low: Optional[int] = None

    # -- fail-over
    failover_concurrency: int = 150
    recovery_threshold: float = 0.95

    # -- replication lag
    lag_concurrency: int = 8
    lag_transactions: int = 240
    lag_replicas: int = 1

    # -- overload / qos
    qos_enabled: bool = True
    overload_multiples: List[float] = field(
        default_factory=lambda: [0.5, 1.0, 1.5, 2.0, 3.0]
    )
    overload_capacity_rps: float = 200.0
    overload_deadline_s: float = 0.6
    overload_duration_s: float = 6.0

    # -- sharding / real scale-out
    shard_counts: List[int] = field(default_factory=lambda: [1, 2, 4])
    shard_cross_ratio: float = 0.1
    shard_txns: int = 300
    shard_driver: str = "inline"

    # -- chaos / availability
    chaos_faults: int = 4
    chaos_duration_s: float = 40.0
    chaos_clients: int = 6
    chaos_replicas: int = 1
    chaos_slo: float = 0.9

    # -- serving tier (SQL over sockets)
    serve_connections: List[int] = field(default_factory=lambda: [8, 32, 128])
    serve_txns_per_conn: int = 16
    serve_shards: int = 2
    serve_qos: bool = True
    serve_deadline_s: Optional[float] = None
    serve_max_connections: int = 2048
    serve_max_queue: int = 64
    serve_arrival: str = "closed"
    serve_persona: str = "payment"

    # -- shard HA / replication (the R-Score run)
    ha_shards: int = 2
    ha_pairs: int = 6
    ha_txns: int = 240
    ha_ack_mode: str = "sync"
    ha_lease_s: float = 0.5
    ha_heartbeat_s: float = 0.1

    # -- disaster recovery (the DR-Score run)
    dr_shards: int = 2
    dr_txns: int = 160
    dr_pairs: int = 4
    dr_archive_mode: str = "sync"

    def __post_init__(self) -> None:
        if not self.architectures:
            raise ValueError("configure at least one architecture")
        if any(sf < 1 for sf in self.scale_factors):
            raise ValueError("scale factors must be >= 1")
        if any(con < 1 for con in self.concurrencies):
            raise ValueError("concurrencies must be >= 1")
        bad_modes = set(self.modes) | set(self.elastic_modes)
        if bad_modes - {"RO", "RW", "WO"}:
            raise ValueError(f"modes must be RO/RW/WO, got {sorted(bad_modes)}")
        if self.elastic_test_time < 1:
            raise ValueError("elastic_test_time must be >= 1 slot")
        if self.tenants < 1 or self.tenant_slots < 1:
            raise ValueError("tenants and tenant_slots must be >= 1")
        if self.chaos_faults < 0 or self.chaos_duration_s <= 0:
            raise ValueError("chaos needs >= 0 faults over a positive duration")
        if self.chaos_clients < 1 or self.chaos_replicas < 1:
            raise ValueError("chaos needs >= 1 client and replica")
        if not 0.0 < self.chaos_slo < 1.0:
            raise ValueError("chaos_slo must be in (0, 1)")
        if not self.overload_multiples or any(
            m <= 0 for m in self.overload_multiples
        ):
            raise ValueError("overload_multiples must be positive load multiples")
        if (
            self.overload_capacity_rps <= 0
            or self.overload_deadline_s <= 0
            or self.overload_duration_s <= 0
        ):
            raise ValueError("overload capacity, deadline and duration must be positive")
        if not 0.0 <= self.shard_cross_ratio <= 1.0:
            raise ValueError("shard_cross_ratio must be in [0, 1]")
        if self.serve_shards < 1:
            raise ValueError("serve_shards must be >= 1")
        if self.serve_max_connections < 1 or self.serve_max_queue < 1:
            raise ValueError(
                "serve_max_connections and serve_max_queue must be >= 1"
            )
        if self.ha_shards < 2:
            raise ValueError("ha_shards must be >= 2 (transfers are cross-shard)")
        if self.ha_pairs < 1 or self.ha_txns < 1:
            raise ValueError("ha_pairs and ha_txns must be >= 1")
        if not 0.0 < self.ha_heartbeat_s < self.ha_lease_s:
            raise ValueError("need 0 < ha_heartbeat_s < ha_lease_s")
        if self.dr_shards < 2:
            raise ValueError("dr_shards must be >= 2 (transfers are cross-shard)")
        if self.dr_pairs < 1 or self.dr_txns < 1:
            raise ValueError("dr_pairs and dr_txns must be >= 1")
        if self.isolation not in ISOLATION_NAMES:
            raise ValueError(
                f"isolation must be one of {sorted(ISOLATION_NAMES)}, "
                f"got {self.isolation!r}"
            )
        # A field that is an evaluator option's default is checked by that
        # option's parser, so a props file and ``--opt`` meet one rule.
        # (The options import this module, hence the late import.)
        from repro.core.evalapi import evaluator_specs

        for spec in evaluator_specs():
            for option in spec.options:
                value = getattr(self, option.config) if option.config else None
                if value is not None:
                    try:
                        option.type(value)
                    except (TypeError, ValueError) as error:
                        raise ValueError(f"{option.config} {error}") from None

    @property
    def uses_mvcc(self) -> bool:
        """True when the configured isolation reads through snapshots."""
        return self.isolation in ("repeatable_read", "snapshot")

    def isolation_level(self):
        """The configured :class:`~repro.engine.txn.IsolationLevel`."""
        from repro.engine.txn import IsolationLevel

        return {
            "read_committed": IsolationLevel.READ_COMMITTED,
            "repeatable_read": IsolationLevel.REPEATABLE_READ,
            "snapshot": IsolationLevel.SNAPSHOT,
            "serializable": IsolationLevel.SERIALIZABLE,
        }[self.isolation]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "BenchConfig":
        """Build from a (possibly nested) mapping; unknown keys raise."""
        flat: Dict[str, Any] = {}
        known = {f.name for f in fields(cls)}

        def absorb(mapping: Dict[str, Any], path: str = "") -> None:
            for key, value in mapping.items():
                if isinstance(value, dict) and key not in known:
                    absorb(value, f"{path}{key}.")
                elif key in known:
                    flat[key] = value
                else:
                    raise KeyError(f"unknown config key {path}{key!r}")

        absorb(raw)
        return cls(**flat)

    @classmethod
    def from_toml(cls, path: Path | str) -> "BenchConfig":
        with open(path, "rb") as handle:
            return cls.from_dict(tomllib.load(handle))

    # -- convenience presets -----------------------------------------------------

    @classmethod
    def quick(cls) -> "BenchConfig":
        """A fast preset for tests and smoke runs."""
        return cls(
            scale_factors=[1],
            concurrencies=[50, 100],
            elastic_modes=["RW"],
            measure_window_s=180.0,
            lag_transactions=60,
            row_scale=0.001,
            chaos_duration_s=20.0,
            chaos_clients=4,
            overload_multiples=[0.5, 1.0, 2.0],
            overload_duration_s=3.0,
            shard_counts=[1, 2],
            shard_txns=120,
            serve_connections=[4, 8],
            serve_txns_per_conn=8,
            ha_txns=80,
            ha_pairs=4,
            dr_txns=80,
            dr_pairs=3,
        )
