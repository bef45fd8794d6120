"""Sinks, the sink registry, the session scope, and the zero-overhead-off
contract on the instrumented runtime."""

import json

import pytest

from repro.runtime import VectorizedStreamingSystem, bank_factory
from repro.spec import ExperimentSpec, TopologySpec
from repro.telemetry import (
    NULL,
    JsonlSink,
    MemorySink,
    build_sink,
    get_telemetry,
    parse_sink_reference,
    session,
    sink_names,
    validate_snapshot,
)


def small_system():
    spec = ExperimentSpec(topology=TopologySpec(
        num_peers=40, num_helpers=4, num_channels=1, channel_bitrates=100.0
    ))
    return VectorizedStreamingSystem(spec, bank_factory("r2hs"), rng=0)


class TestSinkRegistry:
    def test_registered_names(self):
        assert {"memory", "console", "jsonl"} <= set(sink_names())

    def test_unknown_sink_lists_the_menu(self):
        with pytest.raises(ValueError) as excinfo:
            parse_sink_reference("nope")
        message = str(excinfo.value)
        assert "nope" in message and "jsonl" in message

    def test_jsonl_without_path_rejected(self):
        with pytest.raises(ValueError):
            build_sink("jsonl")


class TestJsonlGoldenSchema:
    def test_emitted_records_round_trip_and_validate(self, tmp_path):
        """The golden JSONL contract: every record a profile run emits
        must reparse and pass validate_snapshot unchanged."""
        path = tmp_path / "telemetry.jsonl"
        with session(enabled=True, sinks=[f"jsonl:{path}"]) as tel:
            system = small_system()
            system.run(6)
            tel.flush()
            system.run(6)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2  # explicit flush + final close flush
        seqs = []
        for line in lines:
            record = json.loads(line)
            assert validate_snapshot(record) == []
            seqs.append(record["seq"])
        assert seqs == sorted(seqs)
        final = json.loads(lines[-1])
        assert final["phases"]["round.total"]["count"] == 12
        assert final["counters"]["round.count"] == 12

    def test_jsonl_sink_appends_across_sessions(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        for _ in range(2):
            with session(enabled=True, sinks=[JsonlSink(str(path))]):
                small_system().run(2)
        assert len(path.read_text().splitlines()) == 2


class TestSessionScope:
    def test_session_restores_previous_registry(self):
        before = get_telemetry()
        with session(enabled=True) as tel:
            assert get_telemetry() is tel
            assert tel is not before
        assert get_telemetry() is before

    def test_session_restores_on_error(self):
        before = get_telemetry()
        with pytest.raises(RuntimeError):
            with session(enabled=True):
                raise RuntimeError("boom")
        assert get_telemetry() is before

    def test_sinks_closed_on_exit(self):
        sink = MemorySink()
        with session(enabled=True, sinks=[sink]):
            small_system().run(2)
        assert sink.closed
        assert sink.snapshots  # final flush delivered the snapshot
        assert sink.last["phases"]["round.total"]["count"] == 2


class TestZeroOverheadOff:
    def test_disabled_session_binds_null_into_the_system(self):
        with session(enabled=False):
            system = small_system()
            assert system._ph_total is NULL
            assert system._ph_act is NULL
            assert system._ctr_rounds is NULL
            system.run(3)

    def test_disabled_session_delivers_nothing_to_sinks(self):
        sink = MemorySink()
        with session(enabled=False, sinks=[sink]) as tel:
            small_system().run(3)
            tel.flush()
        assert sink.snapshots == []

    def test_default_registry_is_disabled(self):
        # No session active: systems bind NULL and record nothing.
        system = small_system()
        assert system._ph_total is NULL
        system.run(2)

    def test_enabled_and_disabled_runs_are_trace_identical(self):
        import numpy as np

        baseline = small_system().run(8)
        with session(enabled=True):
            instrumented = small_system().run(8)
        assert np.array_equal(baseline.welfare, instrumented.welfare)
        assert np.array_equal(baseline.loads, instrumented.loads)
