"""The latency tail statistic and the per-layer metrics derived from trace sums."""

from __future__ import annotations


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 samples above it.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead (as percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(raw: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the workload's job list.

    ``*_s`` metrics of a span are its self time; ``theory.core_s`` is the
    whole time of theory checks that returned unsat.
    """

    def per(key: str) -> float:
        return raw.get(key, 0.0) / passes

    def calls(span: str) -> float:
        return per(f"{span}.count")

    def self_s(span: str) -> float:
        return per(f"{span}.self_s")

    verify_s = per("trace.verify_s")
    theory_highs = self_s("theory.check") + self_s("highs.milp") + self_s("highs.lp")
    return {
        "theory.check_calls": calls("theory.check"),
        "theory.unsat_calls": per("theory.unsat_calls"),
        "theory.check_s": self_s("theory.check"),
        "theory.core_s": per("theory.core_s"),
        "theory.core_probes": per("theory.core_probes"),
        "theory.core_probe_yield": _ratio(raw.get("theory.core_probes_proven", 0), raw.get("theory.core_probes", 0)),
        "theory.core_rows_in": per("theory.core_rows_in"),
        "theory.core_rows_out": per("theory.core_rows_out"),
        "highs.milp_calls": calls("highs.milp"),
        "highs.milp_s": self_s("highs.milp"),
        "highs.lp_calls": calls("highs.lp"),
        "highs.lp_s": self_s("highs.lp"),
        "sat.solve_calls": calls("sat.solve"),
        "sat.solve_s": self_s("sat.solve"),
        "solver.check_calls": calls("solver.check"),
        "solver.check_s": self_s("solver.check"),
        "solver.theory_cache_hit_ratio": _ratio(
            raw.get("solver.theory_cache_hits", 0),
            raw.get("solver.theory_cache_hits", 0) + raw.get("solver.theory_cache_misses", 0),
        ),
        "solver.conjunction_calls": calls("solver.conjunction"),
        "solver.conjunction_s": self_s("solver.conjunction"),
        "refine.calls": calls("refine"),
        "refine.s": self_s("refine"),
        "refine.yield": _ratio(raw.get("refine.found", 0), raw.get("refine.count", 0)),
        "consensus.s": self_s("consensus"),
        "consensus.iterations": per("consensus.iterations"),
        "consensus.refinements": per("consensus.refinements"),
        "consensus.pattern_pairs": per("consensus.pattern_pairs"),
        "consensus.pruned_pairs": per("consensus.pruned_pairs"),
        "consensus.trail_mismatches": raw.get("consensus.trail_mismatches", 0),
        "ir.delta_s": self_s("ir.delta"),
        "ir.delta_in": per("ir.delta_in"),
        "ir.delta_kept": per("ir.delta_kept"),
        "ir.build_s": self_s("ir.build"),
        "context.patterns_s": self_s("context.patterns"),
        "context.patterns": per("context.patterns"),
        "termination.s": self_s("termination"),
        "termination.partition_search_s": self_s("termination.partition_search"),
        "correctness.s": self_s("correctness"),
        "correctness.iterations": per("correctness.iterations"),
        "engine.waves": calls("engine.wave"),
        "engine.subproblems": per("engine.subproblems"),
        "engine.wave_s": self_s("engine.wave"),
        "engine.envelope_bytes": per("engine.envelope_bytes"),
        "service.queue_wait_s": per("service.queue_wait_s"),
        "service.run_s": per("service.run_s"),
        "wire.submit_s": per("wire.submit_s"),
        "wire.result_s": per("wire.result_s"),
        "wire.overhead_s": per("wire.overhead_s"),
        "wire.result_bytes": per("wire.result_bytes"),
        "report.decode_s": per("report.decode_s"),
        "cache.hit_ratio": _ratio(raw.get("cache.hits", 0), raw.get("cache.hits", 0) + raw.get("cache.misses", 0)),
        "cache.stores": per("cache.stores"),
        "journal.records": per("journal.records"),
        "trace.verify_s": verify_s,
        "trace.spans": per("trace.spans"),
        "trace.theory_highs_share": _ratio(theory_highs, verify_s),
    }
