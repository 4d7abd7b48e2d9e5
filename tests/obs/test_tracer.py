"""Unit tests for the span tracer."""

import pytest

from repro.obs.tracer import SpanTracer


class TestSpans:
    def test_begin_end_duration(self):
        tracer = SpanTracer()
        span = tracer.begin("dma", "transfer", 100, length=64)
        tracer.end(span, 250, status="ok")
        assert span.duration == 150
        assert span.args == {"length": 64, "status": "ok"}

    def test_nesting_assigns_parent(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "reconfig", 0)
        inner = tracer.begin("driver", "decision", 5)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        tracer.end(inner, 10)
        sibling = tracer.begin("driver", "decouple", 10)
        assert sibling.parent_id == outer.span_id
        tracer.end(sibling, 15)
        tracer.end(outer, 20)
        assert tracer.children(outer) == [inner, sibling]

    def test_out_of_order_end_keeps_later_spans_open(self):
        # two interrupts pending on one track, claimed oldest first
        tracer = SpanTracer()
        older = tracer.begin("plic", "irq5", 0)
        newer = tracer.begin("plic", "irq6", 2)
        tracer.end(older, 4)
        assert tracer.open_span("plic") is newer
        again = tracer.begin("plic", "irq5", 6)
        assert again.parent_id == newer.span_id
        tracer.end(newer, 7)
        tracer.end(again, 8)
        assert tracer.open_span("plic") is None

    def test_tracks_are_independent(self):
        tracer = SpanTracer()
        a = tracer.begin("dma", "transfer", 0)
        b = tracer.begin("icap", "session", 3)
        assert b.parent_id is None
        assert a.parent_id is None

    def test_end_before_start_rejected(self):
        tracer = SpanTracer()
        span = tracer.begin("t", "s", 100)
        with pytest.raises(ValueError):
            tracer.end(span, 99)

    def test_double_end_rejected(self):
        tracer = SpanTracer()
        span = tracer.begin("t", "s", 0)
        tracer.end(span, 1)
        with pytest.raises(ValueError):
            tracer.end(span, 2)

    def test_duration_of_open_span_rejected(self):
        tracer = SpanTracer()
        span = tracer.begin("t", "s", 0)
        with pytest.raises(ValueError):
            _ = span.duration

    def test_open_span_and_end_open(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "reconfig", 0)
        inner = tracer.begin("driver", "transfer", 5)
        assert tracer.open_span("driver") is inner
        closed = tracer.end_open("driver", 42, status="error")
        assert closed == 2
        assert inner.end_cycle == 42 and outer.end_cycle == 42
        assert inner.args["status"] == "error"
        assert tracer.open_span("driver") is None

    def test_end_open_idle_track_is_noop(self):
        tracer = SpanTracer()
        assert tracer.end_open("nothing", 10) == 0

    def test_find_and_last(self):
        tracer = SpanTracer()
        s1 = tracer.begin("t", "s", 0)
        tracer.end(s1, 1)
        s2 = tracer.begin("t", "s", 2)
        tracer.end(s2, 3)
        assert tracer.find("t", "s") == [s1, s2]
        assert tracer.last("t", "s") is s2
        assert tracer.last("t", "missing") is None


class TestInstantsCountersSignals:
    def test_instant_events(self):
        tracer = SpanTracer()
        tracer.instant("dma", "error", 123, code=5)
        event = tracer.instants[0]
        assert (event.cycle, event.track, event.name) == (123, "dma", "error")
        assert event.args == {"code": 5}

    def test_counter_samples(self):
        tracer = SpanTracer()
        tracer.count("bytes", 10, 64)
        tracer.count("bytes", 20, 128)
        assert tracer.counter_samples == [(10, "bytes", 64),
                                          (20, "bytes", 128)]

    def test_signal_changes_deduplicated(self):
        tracer = SpanTracer()
        tracer.signal("busy", 0, 0)
        tracer.signal("busy", 5, 1)
        tracer.signal("busy", 7, 1)  # same value: dropped
        tracer.signal("busy", 9, 0)
        assert tracer.signals["busy"] == [(0, 0), (5, 1), (9, 0)]

    def test_mirrored_signal_follows_its_spans(self):
        tracer = SpanTracer()
        tracer.mirror("busy", "dma", "transfer")
        first = tracer.begin("dma", "transfer", 5)
        tracer.end(first, 9)
        tracer.begin("dma", "transfer", 9)  # still open
        tracer.begin("dma", "other", 10)  # not mirrored
        assert tracer.signals == {"busy": [(5, 1), (9, 0), (9, 1)]}
        # the declaration outlives the records it derives from
        tracer.clear()
        assert tracer.signals == {}
        tracer.begin("dma", "transfer", 3)
        assert tracer.signals == {"busy": [(3, 1)]}

    def test_tracks_lists_first_appearance_order(self):
        tracer = SpanTracer()
        tracer.begin("b", "s", 0)
        tracer.begin("a", "s", 1)
        tracer.instant("c", "i", 2)
        assert tracer.tracks == ["b", "a", "c"]

    def test_clear(self):
        tracer = SpanTracer()
        tracer.begin("t", "s", 0)
        tracer.instant("t", "i", 1)
        tracer.count("c", 2, 3)
        tracer.signal("w", 3, 1)
        tracer.clear()
        assert not tracer.spans and not tracer.instants
        assert not tracer.counter_samples and not tracer.signals
        assert tracer.open_span("t") is None


class TestEdgeCases:
    """Deterministic behavior on the awkward paths (PR-9 hardening)."""

    def test_end_open_strict_raises_on_idle_track(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError, match="no open span"):
            tracer.end_open("driver", 10, strict=True)

    def test_end_open_strict_closes_when_spans_exist(self):
        tracer = SpanTracer()
        tracer.begin("driver", "reconfig", 0)
        assert tracer.end_open("driver", 5, strict=True) == 1

    def test_end_open_closes_innermost_first(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "outer", 0)
        inner = tracer.begin("driver", "inner", 1)
        tracer.end_open("driver", 10)
        # both closed at the same cycle; nesting stays well-formed
        assert inner.end_cycle == outer.end_cycle == 10
        assert inner.parent_id == outer.span_id

    def test_children_of_open_span_raises(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "outer", 0)
        child = tracer.begin("driver", "child", 1)
        tracer.end(child, 2)
        with pytest.raises(ValueError, match="still open"):
            tracer.children(outer)

    def test_children_allow_open_inspects_in_flight_span(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "outer", 0)
        child = tracer.begin("driver", "child", 1)
        tracer.end(child, 2)
        assert tracer.children(outer, allow_open=True) == [child]

    def test_children_sorted_by_start_then_id(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "outer", 0)
        late = tracer.begin("driver", "late", 9)
        tracer.end(late, 10)
        early = tracer.begin("driver", "early", 1)
        tracer.end(early, 2)
        # two children starting at the same cycle tie-break on span id
        tie = tracer.begin("driver", "tie", 1)
        tracer.end(tie, 3)
        tracer.end(outer, 20)
        assert tracer.children(outer) == [early, tie, late]

    def test_children_are_direct_only(self):
        tracer = SpanTracer()
        outer = tracer.begin("driver", "outer", 0)
        mid = tracer.begin("driver", "mid", 1)
        leaf = tracer.begin("driver", "leaf", 2)
        tracer.end(leaf, 3)
        tracer.end(mid, 4)
        tracer.end(outer, 5)
        assert tracer.children(outer) == [mid]
        assert tracer.children(mid) == [leaf]
