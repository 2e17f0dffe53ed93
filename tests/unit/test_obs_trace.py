"""Unit tests for the JSONL trace codec and archiving."""

import json

from repro.cluster.scenarios import ElectionScenario
from repro.obs.trace import (
    TRACE_MANIFEST_SCHEMA,
    archive_election_traces,
    read_trace_jsonl,
    record_from_json,
    record_to_json,
    write_trace_jsonl,
)
from repro.sim.tracing import TraceRecord


def _records(count=5, category="election.start"):
    return [
        TraceRecord(time_ms=float(index), category=category, node=index % 2, detail={"i": index})
        for index in range(count)
    ]


class TestRecordJson:
    def test_round_trips_including_none_node(self):
        record = TraceRecord(time_ms=12.5, category="net.drop", node=None, detail={"k": [1, 2]})
        assert record_from_json(record_to_json(record)) == record

    def test_survives_an_actual_json_encode(self):
        record = _records(1)[0]
        assert record_from_json(json.loads(json.dumps(record_to_json(record)))) == record


class TestJsonl:
    def test_write_then_read_round_trips_losslessly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = _records(4)
        assert write_trace_jsonl(path, records) == 4
        assert read_trace_jsonl(path) == records

    def test_write_consumes_any_iterable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(path, (record for record in _records(3))) == 3
        assert read_trace_jsonl(path) == _records(3)

    def test_no_records_make_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(path, []) == 0
        assert path.read_text(encoding="utf-8") == ""
        assert read_trace_jsonl(path) == []

    def test_each_line_is_one_object_with_sorted_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, [TraceRecord(2.0, "net.drop", None, {"b": 1, "a": 2})])
        assert path.read_text(encoding="utf-8") == (
            '{"cat": "net.drop", "detail": {"a": 2, "b": 1}, "node": null, "t": 2.0}\n'
        )

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, _records(2))
        path.write_text("\n" + path.read_text(encoding="utf-8") + "\n  \n", encoding="utf-8")
        assert read_trace_jsonl(path) == _records(2)


class TestArchive:
    def test_archives_one_traced_episode_per_label(self, tmp_path):
        scenarios = {
            "raft@3": ElectionScenario(protocol="raft", cluster_size=3),
            "escape@3": ElectionScenario(protocol="escape", cluster_size=3),
        }
        manifest = archive_election_traces(scenarios, seed=7, directory=tmp_path)
        assert manifest["schema"] == TRACE_MANIFEST_SCHEMA
        assert manifest["seed"] == 7
        assert manifest["filter"] is None
        assert set(manifest["labels"]) == set(scenarios)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        for label, entry in manifest["labels"].items():
            records = read_trace_jsonl(tmp_path / entry["file"])
            assert len(records) == entry["records"] > 0
            assert entry["filtered_out"] == 0
        # Scenario telemetry rides along into telemetry.json.
        telemetry = json.loads((tmp_path / "telemetry.json").read_text())
        assert set(telemetry["labels"]) == set(scenarios)
        for state in telemetry["labels"].values():
            assert state["counters"]["node.elections_won"] >= 1
        assert manifest["telemetry"] == "telemetry.json"

    def test_a_label_with_a_slash_lands_flat_in_the_directory(self, tmp_path):
        scenarios = {"raft/closed-loop": ElectionScenario(protocol="raft", cluster_size=3)}
        manifest = archive_election_traces(scenarios, seed=3, directory=tmp_path)
        entry = manifest["labels"]["raft/closed-loop"]
        assert entry["file"] == "raft--closed-loop.jsonl"
        assert len(read_trace_jsonl(tmp_path / entry["file"])) == entry["records"]

    def test_archived_episode_matches_the_sweep_seed_derivation(self, tmp_path):
        from repro.common.rng import paired_seeds

        scenarios = {"raft@3": ElectionScenario(protocol="raft", cluster_size=3)}
        manifest = archive_election_traces(scenarios, seed=42, directory=tmp_path)
        expected = paired_seeds(1, 42, "raft@3")[0]
        assert manifest["labels"]["raft@3"]["episode_seed"] == expected
