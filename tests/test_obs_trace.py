"""Tests of the trace-span subsystem (:mod:`repro.obs.trace`).

The load-bearing property is the *single rooted tree*: a traced run with a
process pool must produce one connected span tree — worker-side spans ship
home in result envelopes and are re-parented under the coordinator's span
at harvest.  The cross-process test drives a real ``jobs=2`` batch
(``check_many``, one protocol per worker) through the public API and
asserts exactly that.
"""

from __future__ import annotations

import pytest

from repro.api import VerificationOptions, Verifier
from repro.io.loading import resolve_protocol_spec
from repro.obs import trace


def _tree_ids(spans):
    return {span["span_id"] for span in spans}


def _roots(spans):
    ids = _tree_ids(spans)
    return [span for span in spans if span.get("parent_id") not in ids]


class TestSpanBasics:
    def test_span_without_sink_is_a_noop(self):
        with trace.span("orphan") as opened:
            assert opened is None
        assert not trace.tracing_active()

    def test_nesting_parents(self):
        sink = trace.TraceSink()
        with trace.collect(sink):
            with trace.span("outer") as outer:
                with trace.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                    assert trace.current_span_id() == inner.span_id
        spans = sink.spans()
        assert [span["name"] for span in spans] == ["inner", "outer"]  # close order
        assert spans[1]["parent_id"] is None

    def test_late_attributes_are_recorded(self):
        sink = trace.TraceSink()
        with trace.collect(sink):
            with trace.span("check", backend="smtlite") as opened:
                opened.attrs["status"] = "UNSAT"
        assert sink.spans()[0]["attrs"] == {"backend": "smtlite", "status": "UNSAT"}

    def test_ring_buffer_drops_oldest_and_counts(self):
        sink = trace.TraceSink(limit=3)
        with trace.collect(sink):
            for index in range(5):
                with trace.span(f"s{index}"):
                    pass
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [span["name"] for span in sink.spans()] == ["s2", "s3", "s4"]

    def test_collect_installs_a_fresh_root(self):
        outer_sink = trace.TraceSink()
        inner_sink = trace.TraceSink()
        with trace.collect(outer_sink):
            with trace.span("outer"):
                with trace.collect(inner_sink):
                    with trace.span("inner"):
                        pass
        assert inner_sink.spans()[0]["parent_id"] is None
        assert [span["name"] for span in outer_sink.spans()] == ["outer"]


class TestAdoption:
    def test_adopt_reparents_foreign_roots_only(self):
        worker = trace.TraceSink()
        with trace.collect(worker):
            with trace.span("sub"):
                with trace.span("solver.check"):
                    pass
        shipped = worker.spans()

        sink = trace.TraceSink()
        with trace.collect(sink):
            with trace.span("wave") as wave:
                trace.adopt_spans(shipped)
        spans = sink.spans()
        by_name = {span["name"]: span for span in spans}
        assert by_name["sub"]["parent_id"] == wave.span_id
        # The child kept its in-worker parent — only roots are re-parented.
        assert by_name["solver.check"]["parent_id"] == by_name["sub"]["span_id"]
        assert len(_roots(spans)) == 1

    def test_adopt_without_sink_is_a_noop(self):
        trace.adopt_spans([{"span_id": "x-1", "parent_id": None, "name": "s", "start": 0.0}])


class TestChromeTrace:
    def test_round_trip(self):
        sink = trace.TraceSink()
        with trace.collect(sink):
            with trace.span("job", protocol="majority"):
                with trace.span("property", property="ws3"):
                    pass
        spans = sink.spans()
        payload = trace.chrome_trace(spans)
        assert payload["traceEvents"][0]["ph"] == "X"
        recovered = trace.spans_from_chrome_trace(payload)
        assert {span["span_id"] for span in recovered} == _tree_ids(spans)
        assert {span["name"] for span in recovered} == {"job", "property"}
        by_name = {span["name"]: span for span in recovered}
        assert by_name["property"]["parent_id"] == by_name["job"]["span_id"]
        assert by_name["job"]["attrs"] == {"protocol": "majority"}

    def test_foreign_events_are_tolerated(self):
        payload = {"traceEvents": [{"ph": "M", "name": "metadata"}, {"ph": "X", "args": {}}]}
        assert trace.spans_from_chrome_trace(payload) == []

    def test_self_times_subtract_direct_children(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "p", "start": 0.0, "end": 10.0},
            {"span_id": "b", "parent_id": "a", "name": "c", "start": 1.0, "end": 4.0},
            {"span_id": "c", "parent_id": "a", "name": "c", "start": 5.0, "end": 9.0},
        ]
        self_time = trace.self_times(spans)
        assert self_time["a"] == pytest.approx(3.0)
        assert self_time["b"] == pytest.approx(3.0)
        assert self_time["c"] == pytest.approx(4.0)


class TestCrossProcessTree:
    def test_parallel_run_yields_one_connected_tree(self):
        """A jobs=2 traced batch ⇒ a single rooted tree with worker-side spans."""
        protocols = [resolve_protocol_spec("majority"), resolve_protocol_spec("broadcast")]
        options = VerificationOptions(jobs=2, trace=True)
        with Verifier(options) as verifier:
            batch = verifier.check_many(protocols, properties=["ws3"])
        assert batch.all_ok
        spans = batch.statistics["trace"]
        assert spans, "a traced batch must embed its span tree"
        ids = _tree_ids(spans)
        assert len(ids) == len(spans)  # pid-seq ids are unique across the pool

        roots = _roots(spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "batch"
        # No orphans: every non-root parent id resolves within the tree.
        for span in spans:
            if span is not roots[0]:
                assert span["parent_id"] in ids

        # Worker spans actually crossed the process boundary: the wave is
        # the coordinator's, the subproblems are the workers'.
        names = {span["name"] for span in spans}
        assert {"batch", "engine.wave", "subproblem", "job", "property"} <= names
        engine_pids = {
            span["pid"] for span in spans if span["name"] in ("engine.wave", "subproblem")
        }
        assert len(engine_pids) >= 2, f"expected worker pids in the tree, got {engine_pids}"
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if span["name"] == "subproblem":
                assert by_id[span["parent_id"]]["name"] == "engine.wave"
        # The per-protocol reports do not repeat the spans the batch holds.
        assert all("trace" not in item.report.statistics for item in batch)

        # Within one worker, spans are recorded in close order: end
        # timestamps are monotone per (pid, tid) lane.
        lanes: dict = {}
        for span in spans:
            lanes.setdefault((span["pid"], span["tid"]), []).append(span["end"])
        for lane, ends in lanes.items():
            assert ends == sorted(ends), f"non-monotone close order in lane {lane}"

        # Every span closed after it opened.
        for span in spans:
            assert span["end"] >= span["start"]

    def test_untraced_run_embeds_nothing(self):
        protocol = resolve_protocol_spec("majority")
        with Verifier(VerificationOptions()) as verifier:
            report = verifier.check(protocol, properties=["layered_termination"])
        assert "trace" not in report.statistics
        assert "profile" not in report.statistics

    def test_profile_embeds_phases_and_hot_functions(self):
        protocol = resolve_protocol_spec("majority")
        with Verifier(VerificationOptions(profile=True)) as verifier:
            report = verifier.check(protocol, properties=["layered_termination"])
        profile = report.statistics["profile"]
        assert "layered_termination" in profile["phases"]
        phase = profile["phases"]["layered_termination"]
        assert phase["wall_seconds"] >= 0.0
        assert phase["calls"] == 1
        assert profile["top_functions"], "cProfile rows must be present"
