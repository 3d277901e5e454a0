"""Every example prints exactly the output committed beside it.

Each ``examples/*.py`` runs in a fresh interpreter from the repository
root, two interpreters at a time, and its stdout must equal
``examples/expected/<name>.txt`` byte for byte.  A change that alters
an example's output on purpose regenerates that file::

    PYTHONPATH=src python examples/<name>.py > examples/expected/<name>.txt
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
EXPECTED = REPO_ROOT / "examples" / "expected"


def _run(example: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, str(example.relative_to(REPO_ROOT))],
        cwd=REPO_ROOT, env=env, capture_output=True, check=False, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(
            f"{example.name} exited {done.returncode}:\n"
            f"{done.stderr.decode(errors='replace')}")
    return done.stdout


@pytest.fixture(scope="module")
def outputs() -> Dict[str, bytes]:
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip((e.stem for e in EXAMPLES), pool.map(_run, EXAMPLES)))


def test_every_example_has_expected_output():
    assert EXAMPLES
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [e.stem for e in EXAMPLES]


@pytest.mark.parametrize("name", [e.stem for e in EXAMPLES])
def test_example_prints_its_expected_output(outputs, name):
    expected = (EXPECTED / f"{name}.txt").read_bytes()
    assert outputs[name].decode() == expected.decode()
