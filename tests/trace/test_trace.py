"""Unit tests for the tracing subsystem: ids, runtime, journals, exports.

Everything here is single-process; the cross-process propagation story
(fleet workers, SIGKILL survival, restart identity) lives in
``tests/service/test_trace_fleet.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import trace
from repro.trace import (
    Span,
    TraceRuntime,
    chrome_trace,
    mint_context,
    parse_context,
    read_trace_dir,
    render_tree,
    slowest_spans,
    valid_encoded,
)


@pytest.fixture
def runtime(tmp_path):
    """An installed runtime journaling into ``tmp_path``; auto-uninstalled."""
    installed = trace.install(TraceRuntime(tmp_path, "test-proc"))
    yield installed
    trace.uninstall()


# ----------------------------------------------------------------------
class TestContext:
    def test_mint_encode_parse_round_trip(self):
        context = mint_context()
        assert parse_context(context.encode()) == context

    def test_bare_trace_id_mints_a_span_id(self):
        context = parse_context("deadbeefdeadbeef")
        assert context.trace_id == "deadbeefdeadbeef"
        assert valid_encoded(context.encode())

    def test_child_keeps_trace_id(self):
        parent = mint_context()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "xyz",
            "DEADBEEFDEADBEEF",  # uppercase
            "abc",  # too short
            "a" * 33,  # too long
            "deadbeefdeadbeef:",
            "deadbeefdeadbeef:XYZ",
            ":deadbeef",
            "deadbeefdeadbeef:aaaa:bbbb",
        ],
    )
    def test_malformed_rejected(self, bad):
        assert not valid_encoded(bad)
        with pytest.raises(ValueError):
            parse_context(bad)

    def test_valid_encoded_rejects_non_strings(self):
        assert not valid_encoded(None)
        assert not valid_encoded(12345678)


# ----------------------------------------------------------------------
class TestRuntime:
    def test_helpers_are_noops_when_inactive(self, tmp_path):
        # No runtime installed at all: nothing raises, nothing is written.
        with trace.span("unseen") as context:
            assert context is None
        trace.record_span("unseen", start=0.0, duration=1.0)
        trace.event("unseen")
        trace.progress(objective=1.0, bound=0.5)
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_span_requires_active_context(self, runtime, tmp_path):
        with trace.span("orphan"):
            pass
        assert read_trace_dir(tmp_path) == []

    def test_nested_spans_parent_correctly(self, runtime, tmp_path):
        root = mint_context()
        with trace.activate(root):
            with trace.span("outer") as outer:
                with trace.span("inner") as inner:
                    pass
        records = read_trace_dir(tmp_path, root.trace_id)
        by_name = {record["name"]: record for record in records}
        assert by_name["outer"]["parent"] == root.span_id
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["inner"]["span"] == inner.span_id
        assert all(record["trace"] == root.trace_id for record in records)

    def test_annotate_adds_attrs_to_the_innermost_open_span(
        self, runtime, tmp_path
    ):
        trace.annotate(ignored=True)  # no open span: a no-op
        root = mint_context()
        with trace.activate(root):
            with trace.span("outer", kind="stage"):
                with trace.span("inner"):
                    trace.annotate(status="optimal")
                trace.annotate(backend="highs")
        records = read_trace_dir(tmp_path, root.trace_id)
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["attrs"] == {"status": "optimal"}
        assert by_name["outer"]["attrs"] == {"kind": "stage", "backend": "highs"}

    def test_record_span_parents_to_explicit_context(self, runtime, tmp_path):
        context = mint_context()
        trace.record_span(
            "queue", context, start=100.0, duration=2.5, job="job-1"
        )
        (record,) = read_trace_dir(tmp_path, context.trace_id)
        assert record["parent"] == context.span_id
        assert record["span"] != context.span_id
        assert record["dur"] == 2.5
        assert record["attrs"]["job"] == "job-1"

    def test_progress_updates_gauge_and_journals_event(self, runtime, tmp_path):
        context = mint_context()
        with trace.activate(context, "job-7"):
            trace.progress("incumbent", objective=10.0, bound=8.0, nodes=3)
        progress = runtime.progress_for("job-7")
        assert progress["objective"] == 10.0
        assert progress["gap"] == pytest.approx(0.2)
        (record,) = read_trace_dir(tmp_path, context.trace_id)
        assert record["kind"] == "event"
        assert record["attrs"]["gap"] == pytest.approx(0.2)
        runtime.clear_progress("job-7")
        assert runtime.progress_for("job-7") is None

    def test_progress_observer_sees_updates(self, runtime):
        """Worker heartbeats observe progress: they carry the runtime's
        latest update to the daemon's gap gauge."""
        from repro.service.worker import _heartbeat_message

        with trace.activate(mint_context(), "job-9"):
            trace.progress(bound=4.0)
        message = _heartbeat_message("job-9", "worker-0", runtime)
        assert message["progress"]["bound"] == 4.0

    def test_slow_span_watchdog_counts(self, tmp_path):
        runtime = trace.install(
            TraceRuntime(tmp_path, "slowproc", slow_span_threshold=0.5)
        )
        try:
            context = mint_context()
            trace.record_span("fast", context, start=0.0, duration=0.1)
            trace.record_span("slow", context, start=0.0, duration=0.9)
            trace.record_span("slower", context, start=0.0, duration=2.0)
            assert runtime.slow_spans == 2
        finally:
            trace.uninstall()


# ----------------------------------------------------------------------
def _span_record(trace_id, span_id, name, start, dur, parent=None):
    span = Span(
        trace_id=trace_id,
        span_id=span_id,
        name=name,
        start=start,
        duration=dur,
        parent_id=parent,
        process="proc-1",
    )
    return span.payload()


class TestJournal:
    def test_read_trace_dir_filters_by_trace_id(self, tmp_path, runtime):
        mine, other = mint_context(), mint_context()
        trace.record_span("mine", mine, start=1.0, duration=0.1)
        trace.record_span("other", other, start=1.0, duration=0.1)
        runtime.flush()
        records = read_trace_dir(tmp_path, mine.trace_id)
        assert [record["name"] for record in records] == ["mine"]


# ----------------------------------------------------------------------
class TestExport:
    def _records(self):
        records = [
            _span_record("t1", "root", "job", 0.0, 10.0),
            _span_record("t1", "q1", "queue", 0.5, 2.0, parent="root"),
            _span_record("t1", "w1", "worker-solve", 3.0, 6.0, parent="root"),
        ]
        records.append(
            {
                "format": 1,
                "kind": "event",
                "trace": "t1",
                "span": "w1",
                "name": "incumbent",
                "ts": 4.0,
                "proc": "proc-2",
                "attrs": {"objective": 7.0},
            }
        )
        return records

    def test_render_tree_nests_children(self):
        tree = render_tree(self._records())
        lines = tree.splitlines()
        assert lines[0] == "trace t1"
        job_indent = next(l for l in lines if "job" in l)
        queue_indent = next(l for l in lines if "queue" in l)
        assert len(queue_indent) - len(queue_indent.lstrip()) > len(
            job_indent
        ) - len(job_indent.lstrip())
        assert any("* incumbent" in line for line in lines)

    def test_chrome_trace_is_valid_json_with_all_kinds(self):
        chrome = chrome_trace(self._records())
        reparsed = json.loads(json.dumps(chrome))
        phases = {event["ph"] for event in reparsed["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        complete = [e for e in reparsed["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        job = next(e for e in complete if e["name"] == "job")
        assert job["dur"] == pytest.approx(10.0 * 1e6)

    def test_slowest_spans_orders_by_duration(self):
        slowest = slowest_spans(self._records(), 2)
        assert [span.name for span in slowest] == ["job", "worker-solve"]

    def test_render_tree_handles_junk_records(self):
        records = self._records() + [{"format": 99}, {"not": "a record"}]
        assert "job" in render_tree(records)
