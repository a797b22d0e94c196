"""``repro.qos``: end-to-end overload protection.

Four cooperating pieces (see ``docs/robustness.md``):

* :mod:`repro.qos.admission` -- bounded priority queues + an AIMD
  adaptive concurrency limit, shedding with a retryable ``OverloadError``;
* :mod:`repro.qos.deadline` -- per-request deadlines that propagate into
  the engine's cancellation points (lock wait, WAL append);
* :mod:`repro.qos.budget` -- retry budgets so client retries cannot
  amplify an overload into a retry storm;
* :mod:`repro.qos.overload` -- the ``--eval overload`` evaluator: sweeps
  offered load past saturation and scores graceful degradation
  (the **D-Score**).

The evaluator names are exported lazily (PEP 562): ``overload`` imports
:mod:`repro.core.resilience`, which imports this package's siblings, so
an eager import here would create a cycle.
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionPolicy,
    Ticket,
)
from repro.qos.budget import RetryBudget
from repro.qos.deadline import Deadline, DeadlineExceededError

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Deadline",
    "DeadlineExceededError",
    "RetryBudget",
    "Ticket",
    # lazy (resolved via __getattr__):
    "OverloadEvaluator",
    "OverloadPoint",
    "OverloadResult",
    "d_score",
]

_LAZY = {"OverloadEvaluator", "OverloadPoint", "OverloadResult", "d_score"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.qos import overload

        return getattr(overload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
