"""The one record codec behind every episode archive.

``repro.experiments.export`` holds no per-record-type code: the lossless JSON
state, its reader and the flat CSV row are all driven by
:func:`dataclasses.fields`.  One suite therefore runs over every measurement
dataclass a collecting sweep archives; a new one joins ``RECORDS`` and is
covered.  (That ``save_run`` -> ``load_run`` is the identity for every
registered experiment is the contract suite's,
``test_experiments_structure.py``.)
"""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.redis_cluster import FailoverMeasurement, FailoverSet
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ConfigurationError
from repro.experiments.export import (
    load_run,
    record_from_state,
    record_row,
    record_state,
    write_measurements_csv,
    write_measurements_json,
)
from repro.metrics.records import (
    AvailabilityMeasurement,
    AvailabilitySet,
    ElectionMeasurement,
    MeasurementSet,
)
from repro.obs.telemetry import TelemetrySnapshot

REPO_ROOT = Path(__file__).resolve().parents[2]

ms = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
count = st.integers(min_value=0, max_value=10_000)
name = st.text(max_size=8)

#: What a harness may leave in ``extra``: JSON scalars, nested tuples, mappings.
payload = st.recursive(
    st.none() | st.booleans() | count | ms | name,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(name, inner, max_size=3),
    max_leaves=8,
)
extra = st.dictionaries(name, payload, max_size=3)


@st.composite
def election_measurements(draw):
    converged = draw(st.booleans())
    winner = st.integers(min_value=1, max_value=1024)
    return ElectionMeasurement(
        protocol=draw(name),
        cluster_size=draw(count),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        converged=converged,
        crash_time_ms=draw(ms),
        detection_ms=draw(ms),
        election_ms=draw(ms),
        total_ms=draw(ms),
        campaign_count=draw(count),
        split_vote=draw(st.booleans()),
        winner_id=draw(winner if converged else st.none() | winner),
        winner_term=draw(st.none() | winner),
        extra=draw(extra),
    )


@st.composite
def availability_measurements(draw):
    intervals = tuple(draw(st.lists(st.tuples(ms, ms), max_size=4)))
    return AvailabilityMeasurement(
        protocol=draw(name),
        cluster_size=draw(count),
        seed=draw(count),
        plan=draw(name),
        start_ms=draw(ms),
        end_ms=draw(ms),
        available_ms=draw(ms),
        leaderless_ms=draw(ms),
        unavailability=draw(st.floats(min_value=0.0, max_value=1.0)),
        disruption_count=draw(count),
        skipped_disruptions=draw(count),
        outage_count=len(intervals),
        recovery_ms=tuple(draw(st.lists(ms, max_size=4))),
        proposals_proposed=draw(count),
        proposals_dropped=draw(count),
        leaderless_intervals=intervals,
        extra=draw(extra),
    )


failover_measurements = st.builds(
    FailoverMeasurement,
    variant=name,
    promoted_replica=st.none() | count,
    failover_ms=ms,
    attempts=count,
    epoch_collisions=count,
    converged=st.booleans(),
    extra=extra,
)

NESTED = {"committed_entries": 180, "path": ((1, "S2"), (2.5, None)), "flags": {"a": (True,)}}


def election_record(**overrides):
    values = dict(
        protocol="escape",
        cluster_size=8,
        seed=1,
        converged=True,
        crash_time_ms=100.0,
        detection_ms=1600.00049,
        election_ms=400.0,
        total_ms=2000.0,
        campaign_count=1,
        split_vote=False,
        winner_id=3,
        winner_term=7,
        extra=NESTED,
    )
    return ElectionMeasurement(**dict(values, **overrides))


def availability_record(**overrides):
    intervals = ((10_000.0, 11_500.0), (20_000.0, 21_500.0))
    values = dict(
        protocol="raft",
        cluster_size=5,
        seed=1,
        plan="repeated-leader-kill",
        start_ms=5_000.0,
        end_ms=65_000.0,
        available_ms=57_000.0,
        leaderless_ms=3_000.0,
        unavailability=0.12345678,
        disruption_count=2,
        skipped_disruptions=0,
        outage_count=2,
        recovery_ms=(1_500.0, 1_500.0),
        proposals_proposed=200,
        proposals_dropped=12,
        leaderless_intervals=intervals,
        extra=NESTED,
    )
    return AvailabilityMeasurement(**dict(values, **overrides))


#: record class -> (strategy, the collecting set that archives it, a sample,
#: the CSV header: ``label``, then the scalar fields in declaration order).
RECORDS = {
    ElectionMeasurement: (
        election_measurements(),
        MeasurementSet,
        election_record(),
        "label,protocol,cluster_size,seed,converged,crash_time_ms,detection_ms,"
        "election_ms,total_ms,campaign_count,split_vote,winner_id,winner_term",
    ),
    AvailabilityMeasurement: (
        availability_measurements(),
        AvailabilitySet,
        availability_record(),
        "label,protocol,cluster_size,seed,plan,start_ms,end_ms,available_ms,"
        "leaderless_ms,unavailability,disruption_count,skipped_disruptions,"
        "outage_count,proposals_proposed,proposals_dropped",
    ),
    FailoverMeasurement: (
        failover_measurements,
        FailoverSet,
        FailoverMeasurement("redis", None, 2650.0, 20, 3, False, NESTED),
        "label,variant,promoted_replica,failover_ms,attempts,epoch_collisions,converged",
    ),
}


def through_json(record):
    return record_from_state(
        type(record), json.loads(json.dumps(record_state(record)))
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordCodec:
    def test_every_record_survives_json(self, cls):
        @settings(max_examples=60, deadline=None)
        @given(RECORDS[cls][0])
        def check(record):
            assert through_json(record) == record

        check()

    def test_the_collecting_set_names_the_record_class(self, cls):
        assert RECORDS[cls][1].record_type is cls

    def test_the_state_is_every_field_and_shares_the_nested_payload(self, cls):
        record = RECORDS[cls][2]
        state = record_state(record)
        assert list(state) == [field.name for field in fields(cls)]
        # Not dataclasses.asdict: a telemetry state is not deep-copied.
        assert state["extra"] is record.extra

    def test_the_csv_header_is_label_then_the_scalar_fields_in_order(
        self, cls, tmp_path
    ):
        header = RECORDS[cls][3].split(",")
        declared = [field.name for field in fields(cls)]
        assert header[1:] == [name for name in declared if name in header]

        @settings(max_examples=20, deadline=None)
        @given(RECORDS[cls][0])
        def check(record):
            assert list(record_row(record, "cell")) == header

        check()
        record = RECORDS[cls][2]
        path = write_measurements_csv(
            tmp_path / "nested" / "runs.csv", {"a": [record, record], "b": (record,)}
        )
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["label"] for row in rows] == ["a", "a", "b"]
        assert list(rows[0]) == header

    def test_sets_and_plain_tuples_write_the_same_json(self, cls, tmp_path):
        """``bench/measure.py`` passes ``label -> tuple of records``."""
        record = RECORDS[cls][2]
        as_set = {"cell": RECORDS[cls][1]([record, record], label="cell")}
        first = write_measurements_json(tmp_path / "set.json", as_set, {"runs": 2})
        second = write_measurements_json(
            tmp_path / "tuple.json", {"cell": (record, record)}, metadata={"runs": 2}
        )
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text(encoding="utf-8"))
        assert document["metadata"] == {"runs": 2}
        restored = [record_from_state(cls, entry) for entry in document["cells"]["cell"]]
        assert restored == [record, record]


class TestRows:
    def test_durations_round_to_three_places_other_floats_to_six(self):
        assert record_row(election_record())["detection_ms"] == 1600.0
        row = record_row(availability_record(), "raft")
        assert row["unavailability"] == 0.123457
        assert "recovery_ms" not in row and "leaderless_intervals" not in row

    def test_an_undefined_winner_is_an_empty_cell(self, tmp_path):
        lost = election_record(converged=False, winner_id=None, winner_term=None)
        path = write_measurements_csv(tmp_path / "runs.csv", {"raft@8": [lost]})
        with path.open(newline="", encoding="utf-8") as handle:
            (row,) = csv.DictReader(handle)
        assert row["winner_id"] == "" and row["converged"] == "False"
        assert through_json(lost) == lost

    def test_an_outage_free_window_round_trips_its_empty_tuples(self):
        clean = availability_record(
            outage_count=0, recovery_ms=(), leaderless_intervals=()
        )
        assert through_json(clean) == clean


class TestTelemetryState:
    def test_a_real_telemetry_state_survives_the_json_export(self):
        measurement = ElectionScenario(
            protocol="raft", cluster_size=3, telemetry=True
        ).run(0)
        restored = through_json(measurement)
        # Arrays come back as tuples; from_state normalises both spellings to
        # the same snapshot, and every other field is equal as it is.
        assert TelemetrySnapshot.from_state(
            restored.extra["telemetry"]
        ) == TelemetrySnapshot.from_state(measurement.extra["telemetry"])
        assert record_state(restored) | {"extra": None} == record_state(
            measurement
        ) | {"extra": None}


class TestArchiveFiles:
    def test_a_missing_archive_fails_naming_the_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such results file") as info:
            load_run("fig3", tmp_path)
        assert str(tmp_path / "fig3.json") in str(info.value)

    def test_an_archive_of_another_kind_is_refused(self, tmp_path):
        # Archives written before the codec carried per-type kinds.
        (tmp_path / "fig3.json").write_text(
            json.dumps({"metadata": {"export_kind": "election"}, "cells": {}})
        )
        with pytest.raises(ConfigurationError, match="export kind 'election'"):
            load_run("fig3", tmp_path)

    def test_an_archive_reads_the_same_under_a_non_utf8_locale(self, tmp_path):
        """Titles carry an em dash and fig11's headers a Greek delta."""
        script = (
            "import sys\n"
            "from repro.experiments import run_experiment\n"
            "from repro.experiments.export import load_run, save_run\n"
            "run = run_experiment('fig11', runs=1, quick=True, loss_rates=(0.1,),\n"
            "                     protocols=('escape',))\n"
            "paths = save_run(run, sys.argv[1])\n"
            "metadata, sets = load_run('fig11', sys.argv[1])\n"
            "assert list(sets) == list(run.result.by_label)\n"
            "assert paths['report'].read_bytes() == (run.report + '\\n').encode('utf-8')\n"
        )
        environment = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            LC_ALL="POSIX",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = (tmp_path / "fig11.report.txt").read_bytes().decode("utf-8")
        assert "—" in report and "Δ" in report
