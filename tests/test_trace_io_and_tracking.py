"""Tests for the Tracer's record API."""

from repro.sim import Tracer


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.emit(0.0, "spe", "x", "ev")
        assert t.records == []

    def test_filter_by_fields(self):
        t = Tracer(enabled=True)
        t.emit(0.0, "spe", "a", "start")
        t.emit(1.0, "spe", "b", "start")
        t.emit(2.0, "ppe", "a", "stop")
        assert len(t.filter(category="spe")) == 2
        assert len(t.filter(actor="a")) == 2
        assert len(t.filter(event="start", actor="a")) == 1

    def test_record_payload_access(self):
        t = Tracer(enabled=True)
        t.emit(0.0, "c", "a", "e", value=42, name="x")
        rec = t.records[0]
        assert rec.get("value") == 42
        assert rec.get("missing", "dflt") == "dflt"

    def test_clear(self):
        t = Tracer(enabled=True)
        t.emit(0.0, "c", "a", "e")
        t.clear()
        assert t.records == []
