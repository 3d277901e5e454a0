"""The committed perf trajectory: one entry per perf change.

``benchmarks/trajectory.json`` holds, per perf change, what the
end-to-end benchmark read for the change and its parent on one host.
This checks its shape, that the newest entry names every workload
``BENCHMARK.json`` declares, and that no entry is skipped.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = json.loads((ROOT / "benchmarks" / "trajectory.json").read_text())
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SHA = re.compile(r"^[0-9a-f]{7,40}$")


def check_summary(summary):
    assert set(summary) == {"median", "q1", "q3", "n"}, summary
    assert summary["q1"] <= summary["median"] <= summary["q3"], summary
    assert isinstance(summary["n"], int) and summary["n"] >= 1


def check_workload(reading):
    assert {"seed", "wall_ref_s", "parent_wall_ref_s", "pairs",
            "pairs_won"} <= set(reading), reading
    assert set(reading) <= {"seed", "wall_ref_s", "parent_wall_ref_s", "pairs",
                            "pairs_won", "setup_s", "peak_rss_mb"}, reading
    assert isinstance(reading["seed"], int)
    check_summary(reading["wall_ref_s"])
    check_summary(reading["parent_wall_ref_s"])
    assert 0 <= reading["pairs_won"] <= reading["pairs"]
    assert reading["wall_ref_s"]["n"] == reading["pairs"]
    for optional in ("setup_s", "peak_rss_mb"):
        if optional in reading:
            assert reading[optional] > 0


def test_entries_have_the_schema():
    entries = TRAJECTORY["entries"]
    assert entries
    for index, entry in enumerate(entries):
        newest = index == len(entries) - 1
        assert {"pr", "sha", "parent", "host", "workloads"} <= set(entry)
        assert set(entry) <= {"pr", "sha", "parent", "since", "host", "workloads",
                              "replications", "floors", "paper_scale"}
        assert isinstance(entry["pr"], int)
        # The newest entry's sha is the commit that adds it, unknown
        # inside that commit; the next perf change fills it in.
        assert (entry["sha"] is None and newest) or SHA.match(entry["sha"])
        assert SHA.match(entry["parent"])
        assert SHA.match(entry.get("since", entry["parent"]))
        assert entry["host"]
        for name, reading in entry["workloads"].items():
            assert name in WORKLOADS, name
            check_workload(reading)
        for reading in entry.get("replications", []):
            reading = dict(reading)
            assert reading.pop("workload") in WORKLOADS
            check_workload(reading)
    prs = [entry["pr"] for entry in entries]
    assert prs == sorted(set(prs))


def test_the_newest_entry_names_every_workload():
    assert sorted(TRAJECTORY["entries"][-1]["workloads"]) == sorted(WORKLOADS)


def test_each_entry_names_the_previous_entry_as_its_parent():
    """An entry's parent is the previous entry's sha, or, when changes
    that claimed no gain landed in between, ``since`` names it."""
    entries = TRAJECTORY["entries"]
    for previous, entry in zip(entries, entries[1:]):
        assert entry.get("since", entry["parent"]) == previous["sha"], entry["pr"]
