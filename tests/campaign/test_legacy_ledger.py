"""A single-file ledger from before the shard layout: read, resumed, migrated.

``legacy/legacy_ledger.jsonl`` was written by ``campaign run`` when the
store was one JSONL file: two passes over ``legacy_spec.json`` (seeds 0
and 1, then all three with ``--timeout 0.1 --retries 1``) left
lint-rejected ``failed`` records (two of them rejected twice), two
``ok`` runs, and a ``retried`` timeout whose final ``failed`` record was
then cut mid-line, as a parent killed mid-append leaves it.  The
``legacy_*`` output files are what that version's ``campaign status
--json`` and ``campaign report`` printed for the ledger.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import ResultStore
from repro.cli import main

FIXTURE = Path(__file__).with_name("legacy")
SPEC = "legacy_spec.json"
LEDGER = "legacy_ledger.jsonl"

#: Expected-output file -> (campaign subcommand args, exit code).
COMMANDS = {
    "legacy_status.json": (["status", "--json"], 0),
    "legacy_report.txt": (["report"], 1),
    "legacy_report.json": (["report", "--json"], 1),
}


@pytest.fixture
def legacy(tmp_path, monkeypatch):
    for name in (SPEC, LEDGER):
        shutil.copy(FIXTURE / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)  # the outputs name the store relatively
    return tmp_path


def outputs(capsys):
    out = {}
    for name, (args, _code) in COMMANDS.items():
        code = main(["campaign", args[0], SPEC, "--store", LEDGER, *args[1:]])
        out[name] = (code, capsys.readouterr().out)
    return out


def expected_outputs():
    return {name: (code, (FIXTURE / name).read_text())
            for name, (_args, code) in COMMANDS.items()}


def test_status_and_report_match_the_single_file_era(legacy, capsys):
    assert outputs(capsys) == expected_outputs()
    # Reading writes nothing: no layout appears beside the ledger.
    assert sorted(p.name for p in legacy.iterdir()) == [LEDGER, SPEC]
    # Migrated into shards, the ledger still reports the same bytes.
    result = ResultStore(LEDGER).compact()
    assert result == {"kept": 6, "archived": 3, "migrated": 9,
                      "generation": 1}
    assert not Path(LEDGER).exists()
    assert outputs(capsys) == expected_outputs()


def test_compaction_archives_the_superseded_and_the_torn(legacy):
    store = ResultStore(LEDGER, shards=4)
    before = store.completed_ids(), store.latest_by_run()
    store.compact()
    (parked,) = store.archive_dir.glob(f"legacy-0001-{LEDGER}")
    assert parked.read_bytes() == (FIXTURE / LEDGER).read_bytes() + b"\n"
    audit = (store.archive_dir / "compact-0001.jsonl").read_text()
    statuses = []
    for line in audit.splitlines():
        try:
            statuses.append(json.loads(line)["status"])
        except json.JSONDecodeError:
            statuses.append("torn")
    assert sorted(statuses) == ["failed", "failed", "torn"]
    reopened = ResultStore(LEDGER)
    assert (reopened.completed_ids(), reopened.latest_by_run()) == before
    assert reopened.stats()["superseded"] == 0


def test_resume_runs_only_what_the_ledger_lacks(legacy, capsys):
    assert main(["campaign", "run", SPEC, "--store", LEDGER,
                 "--workers", "1", "--quiet", "--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    # Two ok runs skip; the torn run re-runs and the three lint-rejected
    # cells are rejected again.
    assert summary["skipped"] == 2
    assert summary["succeeded"] == 1
    assert summary["lint_rejected"] == summary["failed"] == 3
    # New records go to the shards; the legacy file is left as it was.
    assert Path(LEDGER).read_bytes() == (FIXTURE / LEDGER).read_bytes()
    assert main(["campaign", "status", SPEC, "--store", LEDGER,
                 "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert (status["completed"], status["pending"]) == (3, 3)
    assert {entry["label"].split("/")[1]
            for entry in status["pending_runs"]} == {"blackhole"}
