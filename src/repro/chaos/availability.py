"""Availability under chaos: the A-Score evaluator.

Closes the loop between the three injection layers: real transactions
run against a real primary engine database, replication to real replica
databases travels the chaotic DES network, and every request goes
through the client resilience stack
(:class:`~repro.core.resilience.ResilientSession`).  The A-Score is
what an SLO dashboard would show for the run:

* **goodput** -- fraction of client requests that succeeded end to end
  (after retries, failover and circuit breaking);
* **error-budget burn** -- ``(1 - goodput) / (1 - slo)``: 1.0 means the
  fault schedule consumed exactly the SLO's error budget, above 1.0 the
  SLO was violated.

Determinism contract: the evaluator derives every RNG from the plan
seed via named streams and runs entirely in virtual time, so one
``(architecture, plan)`` pair always produces the identical A-Score and
the plan's fingerprint pins the fault schedule byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan
from repro.cloud.architectures import Architecture
from repro.cloud.replication import ReplicationPipeline
from repro.core.datagen import load_sales_database
from repro.core.resilience import AttemptResult, ResilientSession, RetryPolicy
from repro.core.workload import READ_WRITE, SalesWorkload
from repro.engine.errors import NodeUnavailableError, RequestTimeout
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.metrics import Histogram
from repro.perf.openloop import parse_arrival, replay_closed_run
from repro.sim.events import Environment
from repro.sim.rng import RngRegistry

#: mean think time between one client's requests
REQUEST_INTERVAL_S = 0.05
#: the timeout budget of one request, retries included
BUDGET_S = 2.0
#: how long one attempt may take before the client gives up on it
ATTEMPT_TIMEOUT_S = 0.25


@dataclass
class AScore:
    """Availability scorecard of one chaos run."""

    arch_name: str
    plan_fingerprint: str
    slo: float
    duration_s: float
    requests: int = 0
    succeeded: int = 0
    failed: int = 0
    breaker_opened: int = 0
    breaker_reclosed: int = 0
    #: (request start, succeeded?) per request, in completion order
    samples: List[Tuple[float, bool]] = field(default_factory=list)
    #: client arrival process the run was driven under
    arrival: str = "closed"
    #: CO-free sojourn percentiles in virtual ms (open arrivals only):
    #: the closed run's calls replayed from *scheduled* starts, so a
    #: fault window that stalls clients shows up in the tail instead of
    #: being omitted
    openloop_latency_ms: dict = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Fraction of requests that succeeded end to end."""
        return self.succeeded / self.requests if self.requests else 1.0

    @property
    def error_budget_burn(self) -> float:
        """How much of the SLO's error budget the run consumed."""
        budget = 1.0 - self.slo
        if budget <= 0:
            return 0.0 if self.failed == 0 else float("inf")
        return (1.0 - self.goodput) / budget

    def goodput_between(self, start_s: float, end_s: float) -> float:
        """Goodput restricted to requests started in ``[start_s, end_s)``.
        Unused by the evaluator: the probe the chaos tests and the verify
        skill read a fault window's dip with."""
        window = [ok for at, ok in self.samples if start_s <= at < end_s]
        if not window:
            return 1.0
        return sum(window) / len(window)


class AvailabilityEvaluator:
    """Runs one architecture through one fault plan and scores goodput.

    Clients issue the sales workload: reads prefer the replicas and
    fail over to the primary, writes go to the primary only.  The
    injector decides per attempt whether the chosen endpoint is
    reachable and how slow it is; the session's retry/backoff/breaker
    machinery then earns (or fails to earn) the goodput.
    """

    def __init__(
        self,
        arch: Architecture,
        plan: FaultPlan,
        slo: float = 0.9,
        n_clients: int = 6,
        n_replicas: int = 1,
        duration_s: Optional[float] = None,
        row_scale: float = 0.001,
        observer: Optional[Observer] = None,
        arrival: str = "closed",
    ):
        if not 0.0 < slo < 1.0:
            raise ValueError("slo must be in (0, 1)")
        if n_clients < 1 or n_replicas < 1:
            raise ValueError("need at least one client and one replica")
        self.arrival = parse_arrival(arrival)
        self.arch = arch
        self.plan = plan
        self.obs = observer or NULL_OBSERVER
        self.injector = ChaosInjector(plan, observer=self.obs)
        self.slo = slo
        self.n_clients = n_clients
        self.n_replicas = n_replicas
        #: cool-down past the last fault lets breakers re-close on heal
        self.duration_s = duration_s or max(30.0, plan.horizon_s + 10.0)
        # Healthy request latency: a fixed server-side floor plus one
        # round trip on this architecture's network.
        self.base_latency_s = 0.002 + 2.0 * arch.network.transfer_time(2048)
        self.row_scale = row_scale
        self.rngs = RngRegistry(plan.seed)

    # -- fault-aware endpoint model -------------------------------------------

    def _down(self, endpoint: str, now: float) -> bool:
        """Unreachable: partitioned away, or inside a CRASH window."""
        if self.injector.partitioned(endpoint, now):
            return True
        return bool(self.plan.active(now, kind=FaultKind.CRASH, target=endpoint))

    def _latency_s(self, endpoint: str, now: float) -> float:
        return (
            self.base_latency_s
            * self.injector.slowdown(endpoint, now)
            * self.injector.delay_factor(endpoint, now)
        )

    def _db_for(self, endpoint: str):
        if endpoint == "primary":
            return self._primary
        index = int(endpoint.split(":", 1)[1])
        return self._pipeline.replicas[index]

    def _attempt(self, endpoint: str, task: str) -> AttemptResult:
        now = self._env.now
        if self._down(endpoint, now):
            error = NodeUnavailableError(f"{endpoint} unreachable at t={now:.3f}")
            error.latency_s = self.base_latency_s
            raise error
        latency = self._latency_s(endpoint, now)
        if latency > ATTEMPT_TIMEOUT_S:
            error = RequestTimeout(
                f"{endpoint} needed {latency:.3f}s > {ATTEMPT_TIMEOUT_S:.3f}s"
            )
            error.latency_s = ATTEMPT_TIMEOUT_S
            raise error
        if task == "T3":
            value = self._workload.run_t3(self._db_for(endpoint))
        else:
            # Writes only ever run on the primary; retryable engine
            # aborts (lock conflict, write conflict) propagate to the
            # session, which replays them.
            value = self._workload.bodies[task]()
        return AttemptResult(ok=True, value=value, latency_s=latency)

    # -- clients ---------------------------------------------------------------

    def _client(self, client_id: int, score: AScore, service_s: List[float]):
        env = self._env
        rng = self.rngs.stream(f"chaos.client.{client_id}")
        yield env.timeout(REQUEST_INTERVAL_S * client_id / self.n_clients)
        while env.now < self.duration_s:
            task = self._workload.next_task()
            session = self._reads if task == "T3" else self._writes
            started = env.now
            outcome = yield env.process(
                session.call_in(
                    env,
                    lambda endpoint, chosen=task: self._attempt(endpoint, chosen),
                    timeout_budget_s=BUDGET_S,
                )
            )
            service_s.append(env.now - started)
            score.requests += 1
            if outcome.ok:
                score.succeeded += 1
            else:
                score.failed += 1
            score.samples.append((started, outcome.ok))
            yield env.timeout(REQUEST_INTERVAL_S * (0.5 + rng.random()))

    def _open_view(self, service: List[List[float]]) -> dict:
        """CO-free percentiles of the closed run: each client's calls
        replayed against its own share of the arrival process."""
        spec = self.arrival
        if spec.rate is not None:  # RATE is the offered load of all clients
            spec = replace(spec, rate=spec.rate / self.n_clients)
        sojourn = Histogram("chaos.openloop.latency_s")
        for client_id, service_s in enumerate(service):
            sojourn.merge(replay_closed_run(
                spec, service_s, self.duration_s,
                self.rngs.stream(f"chaos.arrival.{client_id}"),
            ).histogram)
        return sojourn.latency_summary_ms()

    # -- the run ----------------------------------------------------------------

    def run(self) -> AScore:
        self._env = Environment()
        # The whole run lives in virtual time, including engine spans.
        self.obs.bind_clock(lambda: self._env.now)
        self._primary, _data = load_sales_database(
            "primary",
            row_scale=self.row_scale,
            seed=self.plan.seed,
            observer=self.obs,
        )
        self._pipeline = ReplicationPipeline(
            self._env, self.arch, self._primary,
            n_replicas=self.n_replicas, chaos=self.injector,
            observer=self.obs,
        )
        self._workload = SalesWorkload(
            self._primary, READ_WRITE, seed=self.plan.seed
        )
        replicas = [
            ReplicationPipeline.replica_target(index)
            for index in range(self.n_replicas)
        ]
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.02, max_backoff_s=0.5)
        self._reads = ResilientSession(
            replicas + ["primary"],
            policy=policy,
            rng=self.rngs.stream("chaos.retry.read"),
            breaker_reset_s=1.0,
            observer=self.obs,
        )
        self._writes = ResilientSession(
            ["primary"],
            policy=policy,
            rng=self.rngs.stream("chaos.retry.write"),
            breaker_reset_s=1.0,
            observer=self.obs,
        )
        score = AScore(
            arch_name=self.arch.name,
            plan_fingerprint=self.plan.fingerprint(),
            slo=self.slo,
            duration_s=self.duration_s,
            arrival=self.arrival.describe(),
        )
        service: List[List[float]] = [[] for _ in range(self.n_clients)]
        for client_id in range(self.n_clients):
            self._env.process(self._client(client_id, score, service[client_id]))
        self._env.run(until=self.duration_s + BUDGET_S)
        if self.arrival.is_open:
            score.openloop_latency_ms = self._open_view(service)
        score.breaker_opened = (
            self._reads.breaker_opens() + self._writes.breaker_opens()
        )
        score.breaker_reclosed = (
            self._reads.breaker_recloses() + self._writes.breaker_recloses()
        )
        return score
