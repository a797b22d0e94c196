"""The unified evaluator surface: ``EvalOutcome`` plus the registry.

Every evaluation the testbed can run — throughput, P-Score, elasticity,
multi-tenancy, fail-over, replication lag, chaos, the instrumented OLTP
run and the Table IX score card — is registered here as an
:class:`EvaluatorSpec` and produces the *same* result shape, an
:class:`EvalOutcome`.  ``CloudyBench.run(name, **opts)`` dispatches
through the registry; the CLI, the markdown report and the exporters
consume only outcomes, never per-evaluator result types.

The per-evaluator result objects still exist (they are rich and typed)
— an outcome carries them in :attr:`EvalOutcome.payload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "EvalOption",
    "EvalOutcome",
    "EvaluatorSpec",
    "evaluator",
    "get_evaluator",
    "evaluator_names",
    "evaluator_specs",
    "parse_bool",
]


def parse_bool(value: Any) -> bool:
    """Parse a boolean option value; ``bool("false")`` is a foot-gun.

    Accepts actual booleans (programmatic callers) and the usual
    spellings from the CLI; anything else raises ``ValueError`` so the
    caller can report which option was malformed.
    """
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be a boolean (true/false), got {value!r}")


@dataclass(frozen=True)
class EvalOption:
    """One option an evaluator accepts.

    ``type`` parses and range-checks a value (a CLI string or a
    programmatic one); a caller that leaves the option out gets the
    :class:`~repro.core.config.BenchConfig` field named by ``config``
    if there is one, else ``default``.
    """

    name: str
    type: Callable[[Any], Any]
    default: Any = None
    help: str = ""
    config: Optional[str] = None


@dataclass
class EvalOutcome:
    """What every evaluator returns.

    * ``headers``/``rows`` — the paper-style table, ready to render.
    * ``scores`` — flat ``metric.arch -> value`` summary numbers.
    * ``events`` — ``(time_s, message)`` timeline annotations (scaling
      decisions, fault injections, ...), possibly empty.
    * ``obs`` — the shared observer's metrics/trace snapshot taken when
      the evaluation finished.
    * ``payload`` — the evaluator's native result object.
    * ``notes`` — free-form preamble text (e.g. the chaos fault plan).
    """

    name: str
    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    scores: Dict[str, float] = field(default_factory=dict)
    events: List[Tuple[float, str]] = field(default_factory=list)
    obs: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (drops the native payload)."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "scores": dict(self.scores),
            "events": [
                {"time_s": time_s, "message": message}
                for time_s, message in self.events
            ],
            "notes": self.notes,
        }


@dataclass(frozen=True)
class EvaluatorSpec:
    """A registered evaluator: its name, option schema, and runner."""

    name: str
    title: str
    summary: str
    options: Tuple[EvalOption, ...]
    runner: Callable[..., EvalOutcome]
    #: False for an evaluator that reads other evaluators' memoised
    #: outcomes, so its own result changes as more of them have run
    memoise: bool = True

    def validate(self, opts: Dict[str, Any], config: Any = None) -> Dict[str, Any]:
        """The fully resolved options of one run, in declaration order.

        The one place option values are checked, for the CLI and for
        programmatic callers alike: unknown names raise ``TypeError``;
        a missing (or ``None``) value falls back to the ``config`` field
        the option names, else to its default; every value then goes
        through the option's parser, whose rejection is re-raised as a
        ``ValueError`` naming the option.  The result is hashable (list
        parsers return tuples) -- it is the memo key of the run.
        """
        known = [option.name for option in self.options]
        unknown = sorted(set(opts) - set(known))
        if unknown:
            raise TypeError(
                f"evaluator {self.name!r} accepts {sorted(known) or 'no options'}, "
                f"got unknown option(s) {unknown}"
            )
        resolved = {}
        for option in self.options:
            value = opts.get(option.name)
            if value is None:
                value = (
                    getattr(config, option.config)
                    if option.config and config is not None else option.default
                )
            if value is not None:
                try:
                    value = option.type(value)
                except (TypeError, ValueError) as error:
                    raise ValueError(f"{option.name}: {error}") from None
            resolved[option.name] = value
        return resolved


_REGISTRY: Dict[str, EvaluatorSpec] = {}


def evaluator(
    name: str,
    title: str,
    summary: str,
    options: Tuple[EvalOption, ...] = (),
    memoise: bool = True,
) -> Callable[[Callable[..., EvalOutcome]], Callable[..., EvalOutcome]]:
    """Decorator registering ``runner(bench, **validated_opts)``.

    The runner leaves ``name`` and ``obs`` to ``CloudyBench.run``, and
    ``title`` too unless the run's options change it.
    """

    def decorate(runner: Callable[..., EvalOutcome]) -> Callable[..., EvalOutcome]:
        if name in _REGISTRY:
            raise ValueError(f"evaluator {name!r} already registered")
        _REGISTRY[name] = EvaluatorSpec(
            name=name, title=title, summary=summary,
            options=options, runner=runner, memoise=memoise,
        )
        return runner

    return decorate


def get_evaluator(name: str) -> EvaluatorSpec:
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown evaluator {name!r}; known: {', '.join(evaluator_names())}"
        ) from None


def evaluator_names() -> Tuple[str, ...]:
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def evaluator_specs() -> Iterator[EvaluatorSpec]:
    _ensure_registered()
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


def _ensure_registered() -> None:
    # The registrations live beside the runners; importing the module is
    # what populates the registry (idempotent thanks to sys.modules).
    from repro.core import evaluators  # noqa: F401
