"""Unit tests for the repro.telemetry instrumentation registry."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import NULL_TELEMETRY, SCHEMA_VERSION, Telemetry


class TestSpans:
    def test_span_records_wall_and_cpu(self):
        tel = Telemetry()
        with tel.span("work"):
            time.sleep(0.01)
        stats = tel.spans["work"]
        assert stats.count == 1
        assert stats.wall_seconds >= 0.01
        assert stats.cpu_seconds >= 0.0

    def test_repeat_activations_aggregate(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("work"):
                pass
        assert tel.spans["work"].count == 3

    def test_nested_spans_get_dot_joined_paths(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        assert set(tel.spans) == {"outer", "outer/inner"}
        assert tel.spans["outer/inner"].name == "inner"

    def test_sibling_threads_do_not_nest(self):
        """A span opened in a worker thread does not inherit a parent
        stack from another thread."""
        tel = Telemetry()
        with tel.span("parent"):
            # open/close the child span entirely inside the worker thread
            def child():
                with tel.span("child"):
                    pass

            worker = threading.Thread(target=child)
            worker.start()
            worker.join()
        assert "child" in tel.spans  # not "parent/child"
        assert "parent/child" not in tel.spans

    def test_exception_still_records_and_unwinds(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("outer"):
                raise ValueError("boom")
        with tel.span("after"):
            pass
        assert tel.spans["outer"].count == 1
        assert "after" in tel.spans  # stack unwound; no "outer/after"


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        tel = Telemetry()
        tel.count("events")
        tel.count("events", 4)
        assert tel.counter("events") == 5
        assert tel.counter("never") == 0

    def test_counters_are_exact_under_threads(self):
        tel = Telemetry()

        def bump():
            for _ in range(1000):
                tel.count("races")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counter("races") == 8000

    def test_gauge_last_value_wins(self):
        tel = Telemetry()
        tel.gauge("depth", 3)
        tel.gauge("depth", 1)
        assert tel.gauges["depth"] == 1.0

    def test_gauge_max_keeps_running_max(self):
        tel = Telemetry()
        tel.gauge_max("occupancy", 2)
        tel.gauge_max("occupancy", 5)
        tel.gauge_max("occupancy", 3)
        assert tel.gauges["occupancy"] == 5.0

    def test_reset_clears_everything(self):
        tel = Telemetry()
        tel.count("a")
        tel.gauge("b", 1)
        with tel.span("c"):
            pass
        tel.reset()
        assert tel.counters == {}
        assert tel.gauges == {}
        assert tel.spans == {}


class TestDisabledRegistry:
    def test_null_registry_records_nothing(self):
        with NULL_TELEMETRY.span("work"):
            pass
        NULL_TELEMETRY.count("events")
        NULL_TELEMETRY.gauge("depth", 1)
        assert NULL_TELEMETRY.spans == {}
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.gauges == {}

    def test_disabled_span_is_shared_noop(self):
        tel = Telemetry(enabled=False)
        assert tel.span("a") is tel.span("b")

    def test_default_registry_is_noop(self):
        assert telemetry.current() is NULL_TELEMETRY
        assert not telemetry.current().enabled


class TestRegistry:
    def test_activate_scopes_and_restores(self):
        before = telemetry.current()
        with telemetry.activate() as tel:
            assert telemetry.current() is tel
            tel.count("inside")
        assert telemetry.current() is before

    def test_activate_accepts_existing_instance(self):
        mine = Telemetry()
        with telemetry.activate(mine) as tel:
            assert tel is mine


class TestMetricsDocument:
    def test_as_dict_schema(self):
        tel = Telemetry()
        with tel.span("outer"):
            tel.count("hits", 2)
        tel.gauge("depth", 1.5)
        doc = tel.as_dict()
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["spans"]["outer"]["count"] == 1
        assert set(doc["spans"]["outer"]) == {
            "count",
            "wall_seconds",
            "cpu_seconds",
        }
        assert doc["counters"] == {"hits": 2}
        assert doc["gauges"] == {"depth": 1.5}

    def test_to_json_is_canonical(self):
        tel = Telemetry()
        tel.count("b")
        tel.count("a")
        text = tel.to_json()
        parsed = json.loads(text)
        assert list(parsed["counters"]) == ["a", "b"]  # sorted keys
        assert json.dumps(parsed, sort_keys=True, indent=2) == text

    def test_write_json_creates_parents(self, tmp_path):
        tel = Telemetry()
        tel.count("x")
        target = tel.write_json(tmp_path / "deep" / "dir" / "m.json")
        assert target.exists()
        assert json.loads(target.read_text())["counters"] == {"x": 1}
        assert target.read_text().endswith("\n")

    def test_key_structure_stable_across_runs(self):
        """Two identical runs produce documents differing only in the
        recorded timing values — the diffable-document property."""

        def run() -> dict:
            tel = Telemetry()
            with tel.span("stage"):
                tel.count("sources", 5)
            return tel.as_dict()

        a, b = run(), run()
        assert list(a["spans"]) == list(b["spans"])
        assert a["counters"] == b["counters"]
