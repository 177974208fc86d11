"""One validated place for every knob of a verification session.

Before this module existed, solver/strategy/engine configuration was
threaded as loose keyword arguments through five separate entry points.
:class:`VerificationOptions` gathers all of it: a frozen, hashable
dataclass validated at construction, with a lossless ``to_dict`` /
``from_dict`` pair (used to ship options to worker processes and to stamp
the options snapshot into every report) and a ``cache_snapshot`` that
names exactly the fields allowed to key cached verdicts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Partition-search strategies for LayeredTermination.
STRATEGIES = ("auto", "hint", "single", "scc", "smt")
#: Constraint-solver theory backends.
THEORIES = ("auto", "scipy", "exact")
#: StrongConsensus solving strategies.
CONSENSUS_STRATEGIES = ("auto", "patterns", "monolithic")


def _default_retry():
    """The service-tier retry/timeout policy (see :mod:`repro.engine.retry`).

    Imported lazily: ``repro.engine`` itself imports this module at package
    init, so a top-level import would be circular.
    """
    from repro.engine.retry import DEFAULT_RETRY

    return DEFAULT_RETRY


@dataclass(frozen=True)
class VerificationOptions:
    """Configuration of a :class:`~repro.api.verifier.Verifier` session.

    Parameters
    ----------
    strategy:
        Partition-search strategy for LayeredTermination.
    theory:
        Theory-solver preference inside a backend (``"auto"``, ``"scipy"``,
        ``"exact"``).
    backend:
        Solver backend from the registry
        (:func:`repro.constraints.backends.available_backends`):
        ``"smtlite"`` (DPLL(T), the default), or ``"z3"`` when the optional
        z3 package is installed.
    max_layers:
        Layer bound of the exact SMT partition search (``None`` = default).
    materialize_rankings:
        Materialise per-layer ranking functions in LT certificates.
    check_consensus_first:
        Run StrongConsensus before LayeredTermination in the WS³ check.
    consensus_strategy:
        ``"auto"``, ``"patterns"`` or ``"monolithic"`` for StrongConsensus.
    max_refinements:
        Bound on CEGAR trap/siphon refinement iterations.
    max_pattern_pairs:
        Pattern-pair budget above which ``"auto"`` falls back to the
        monolithic StrongConsensus encoding.
    explicit_max_size:
        Input-population bound of the ``"explicit"`` property (the
        explicit-state baseline sweeps all inputs up to this size).
    explicit_max_configurations:
        Reachability-graph size bound of the explicit-state baseline.
    jobs:
        Worker processes of a batch (``check_many``, batch service jobs):
        how many protocols are verified in parallel, one per worker.  A
        single check always runs serially in the calling process.
    retry:
        A :class:`~repro.engine.retry.RetryPolicy`: how lost subproblems
        (worker deaths, per-subproblem deadlines) are retried and what the
        whole-job wall-clock budget is.  Accepts a plain dictionary (the
        ``to_dict`` form) for convenience.  Execution-only — excluded from
        cache keys like ``jobs``.
    cache_dir:
        Directory of the content-addressed result cache used by
        ``check_many`` (``None`` disables caching).
    trace:
        Collect hierarchical trace spans (job → property → CEGAR iteration
        → solver check) and embed them under ``report.statistics["trace"]``
        (a batch embeds one tree, batch → engine wave → subproblem → job,
        under ``batch.statistics["trace"]``); the CLI ``--trace out.json`` flag
        turns them into a Chrome-trace file.  Execution-only — a traced run
        returns the same verdicts and artifacts, so the flag is excluded
        from cache keys like ``jobs``.
    profile:
        Capture per-job phase timing (wall/CPU per property) plus a
        ``cProfile`` run of the coordinating thread under
        ``report.statistics["profile"]``.  Execution-only, excluded from
        cache keys.
    """

    strategy: str = "auto"
    theory: str = "auto"
    backend: str = "smtlite"
    max_layers: int | None = None
    materialize_rankings: bool = False
    check_consensus_first: bool = False
    consensus_strategy: str = "auto"
    max_refinements: int = 10_000
    max_pattern_pairs: int = 250_000
    explicit_max_size: int = 4
    explicit_max_configurations: int = 200_000
    jobs: int = 1
    retry: object = field(default_factory=_default_retry)
    cache_dir: str | None = None
    trace: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.engine.retry import RetryPolicy

        if isinstance(self.retry, dict):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy (or its dict form), got {self.retry!r}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {self.theory!r}")
        from repro.constraints.backends import available_backends

        if self.backend not in available_backends():
            raise ValueError(
                f"backend must be one of {available_backends()}, got {self.backend!r}"
            )
        if self.consensus_strategy not in CONSENSUS_STRATEGIES:
            raise ValueError(
                f"consensus_strategy must be one of {CONSENSUS_STRATEGIES}, "
                f"got {self.consensus_strategy!r}"
            )
        if self.max_layers is not None and self.max_layers < 1:
            raise ValueError(f"max_layers must be >= 1 or None, got {self.max_layers}")
        if self.max_refinements < 1:
            raise ValueError(f"max_refinements must be >= 1, got {self.max_refinements}")
        if self.max_pattern_pairs < 1:
            raise ValueError(f"max_pattern_pairs must be >= 1, got {self.max_pattern_pairs}")
        if self.explicit_max_size < 2:
            raise ValueError(f"explicit_max_size must be >= 2, got {self.explicit_max_size}")
        if self.explicit_max_configurations < 1:
            raise ValueError(
                f"explicit_max_configurations must be >= 1, got {self.explicit_max_configurations}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not isinstance(self.trace, bool):
            raise ValueError(f"trace must be a bool, got {self.trace!r}")
        if not isinstance(self.profile, bool):
            raise ValueError(f"profile must be a bool, got {self.profile!r}")
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", str(self.cache_dir))

    def replace(self, **overrides) -> "VerificationOptions":
        """A copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        """Lossless plain-dictionary form (JSON-clean)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown verification options: {sorted(unknown)}")
        return cls(**data)

    def cache_snapshot(self) -> dict:
        """The fields that may affect verdicts or artifacts.

        Execution-only knobs — worker count, cache location — are excluded:
        a serial and a parallel run of the same check must share cache
        entries (their verdicts and counterexamples are identical).
        """
        snapshot = self.to_dict()
        snapshot.pop("jobs")
        snapshot.pop("retry")
        snapshot.pop("cache_dir")
        snapshot.pop("trace")
        snapshot.pop("profile")
        return snapshot
