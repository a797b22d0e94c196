"""The CloudyBench testbed orchestrator (paper Figure 1).

``CloudyBench`` holds what every evaluator shares -- the config, the
systems under test, one observer and the workload plumbing -- and runs
the registered evaluators (:mod:`repro.core.evaluators`) through
:meth:`CloudyBench.run`, memoising each outcome.  Every benchmark in
``benchmarks/`` is a thin wrapper over one ``run`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import FaultPlan
from repro.cloud.architectures import Architecture, get as get_architecture
from repro.cloud.replication import ReplicationPipeline
from repro.cloud.workload_model import WorkloadMix
from repro.core.config import BenchConfig
from repro.core.elasticity import ElasticityEvaluator
from repro.core.evalapi import EvalOutcome, get_evaluator
from repro.core.workload import THROUGHPUT_PATTERNS, TransactionMix
from repro.obs import Observer

@dataclass
class PScoreRow:
    """One row of Table V."""

    arch_name: str
    cost_breakdown: Dict[str, float]
    total_cost_per_minute: float
    tps_by_mode: Dict[str, float]
    p_by_mode: Dict[str, float]

    @property
    def p_avg(self) -> float:
        values = list(self.p_by_mode.values())
        return sum(values) / len(values) if values else 0.0


class CloudyBench:
    """End-to-end testbed over the configured architectures."""

    def __init__(self, config: Optional[BenchConfig] = None):
        self.config = config or BenchConfig()
        #: one observer spans the whole bench run: engine, DES and client
        #: events land in a single timeline/metrics registry, and
        #: :meth:`snapshot` / the CLI exporters read it back out.
        self.observer = Observer()
        self.architectures: List[Architecture] = [
            get_architecture(name) for name in self.config.architectures
        ]
        #: every outcome computed so far, by (evaluator name, validated opts)
        self._memo: Dict[Tuple, EvalOutcome] = {}

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time observability snapshot (metrics + trace stats)."""
        return self.observer.snapshot()

    # -- the unified evaluator entry point ---------------------------------------

    def run(self, eval_name: str, **opts) -> EvalOutcome:
        """Run one registered evaluator and return its :class:`EvalOutcome`.

        ``eval_name`` is any name from the evaluator registry
        (:func:`repro.core.evalapi.evaluator_names`); ``opts`` are
        checked, coerced and completed from the config by
        :meth:`~repro.core.evalapi.EvaluatorSpec.validate`.  Outcomes are
        memoised per ``(name, validated opts)``, so a repeated run
        returns the same rows and payload; ``obs`` is a fresh snapshot
        of the shared observer on every call.
        """
        spec = get_evaluator(eval_name)
        validated = spec.validate(opts, self.config)
        key = (spec.name, tuple(validated.items()))
        outcome = self._memo.get(key)
        if outcome is None:
            outcome = spec.runner(self, **validated)
            outcome.name = spec.name
            outcome.title = outcome.title or spec.title
            if spec.memoise:
                self._memo[key] = outcome
        return replace(outcome, obs=self.snapshot())

    def memoised(self, eval_name: str) -> Optional[EvalOutcome]:
        """An outcome of ``eval_name`` that already ran, or ``None``.

        Never runs anything: the score card uses it to annotate Table IX
        with scores whose evaluation it should not force.  The run with
        the config's default options wins over any other.
        """
        defaults = get_evaluator(eval_name).validate({}, self.config)
        outcome = self._memo.get((eval_name, tuple(defaults.items())))
        if outcome is None:
            outcome = next(
                (found for (name, _opts), found in self._memo.items()
                 if name == eval_name),
                None,
            )
        return outcome

    # -- workload plumbing -------------------------------------------------------

    def mix_for(self, mode: str) -> TransactionMix:
        try:
            return THROUGHPUT_PATTERNS[mode]
        except KeyError:
            raise KeyError(f"unknown mode {mode!r}; use RO/RW/WO") from None

    def workload_mix(self, mode: str, scale_factor: int) -> WorkloadMix:
        return self.mix_for(mode).to_workload_mix(
            scale_factor,
            distribution=self.config.distribution,
            latest_k=self.config.latest_k,
            mvcc=self.config.uses_mvcc,
        )

    # -- saturation probe (the tau of Sections II-C/II-D) ------------------------------

    def saturation_concurrency(self, arch: Architecture, mode: str = "RW") -> int:
        workload = self.workload_mix(mode, min(self.config.scale_factors))
        evaluator = ElasticityEvaluator(arch, workload)
        return evaluator.saturation_concurrency()

    def elastic_tau(self, mode: str = "RW") -> int:
        """The paper's tau: maximum saturation concurrency across SUTs.

        Computed per workload mode -- read-only mixes saturate far later
        than write-heavy ones.
        """
        if self.config.elastic_tau is not None:
            return self.config.elastic_tau
        return max(
            self.saturation_concurrency(arch, mode) for arch in self.architectures
        )

    def tenancy_taus(self) -> Tuple[int, int]:
        """(tau_high, tau_low) for the contention patterns.

        The deployment spans ``tenants`` instances, so the high-contention
        tau is the per-instance saturation times the tenant count (the
        paper's tau=330 for three tenants at tau~110), while the low
        patterns use the weakest SUT's single-instance saturation.
        """
        high = self.config.tenancy_tau_high
        low = self.config.tenancy_tau_low
        if high is None or low is None:
            saturations = [
                self.saturation_concurrency(arch, "RW") for arch in self.architectures
            ]
            high = high or max(saturations) * self.config.tenants
            low = low or min(saturations)
        return high, low

    def chaos_plan(self) -> FaultPlan:
        """The seeded fault plan every SUT is scored against.

        One plan for all architectures: A-Scores are only comparable
        when every SUT survives the *same* fault schedule, and the
        config seed pins that schedule exactly.
        """
        targets = ["primary"] + [
            ReplicationPipeline.replica_target(index)
            for index in range(self.config.chaos_replicas)
        ]
        return FaultPlan.generate(
            seed=self.config.seed,
            duration_s=self.config.chaos_duration_s,
            targets=targets,
            n_faults=self.config.chaos_faults,
            name="bench",
        )
