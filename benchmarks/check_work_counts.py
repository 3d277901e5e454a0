"""Check each benchmark workload's traced work counts against their pins.

Usage, from the repository root::

    python3 benchmarks/check_work_counts.py [WORKLOAD ...]

For each workload (all four by default) this runs
``python3 benchmarks/suite/run.py --workload W --seconds 1 --trace 1`` at
the workload's pinned seed, requires ``correct: true``, and compares the
counts pinned in ``benchmarks/work_counts.json``.  At a pinned seed those
counts are exact on any host, so any difference is a change in the work
the program does.  A fall fails as well as a rise: left unpinned, a fall
would let a later rise back to the old value pass unnoticed.  Exits 1
naming every count that differs and whether it rose or fell; re-pin a
count that moved on purpose and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().with_name("work_counts.json")


def traced_counts(workload: str) -> Dict:
    """The last stdout line of one traced run of ``workload``."""
    completed = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def differences(workload: str, pinned: Dict[str, int], result: Dict) -> List[str]:
    """One line per problem with ``result`` against the ``pinned`` counts."""
    if result.get("correct") is not True:
        return [f"{workload}: outputs do not match the pinned digest"]
    problems = []
    for name, pin in pinned.items():
        value = result["metrics"][name]["value"]
        if value != pin:
            way = "rose" if value > pin else "fell"
            problems.append(f"{workload}: {name} {way} from {pin:,} to {value:,}")
    return problems


def main(argv: List[str]) -> int:
    pins = json.loads(PINS.read_text())["counts"]
    workloads = argv or list(pins)
    problems = []
    for workload in workloads:
        found = differences(workload, pins[workload], traced_counts(workload))
        print("\n".join(found) or f"{workload}: every count matches its pin")
        problems += found
    if problems:
        print(f"{len(problems)} count(s) differ from benchmarks/work_counts.json",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
