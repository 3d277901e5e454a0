"""Golden corpus: sha256 digests of what fixed cells output.

Each cell is one campaign run descriptor.  ``digests.json`` pins two
sha256 hex digests per golden entry:

* ``trace`` — the cell's trace JSONL export;
* ``record`` — the canonical JSON (sorted keys, no whitespace) of the
  cell's metrics record without :data:`EXECUTION_KEYS`, the host-timing
  and execution-shape keys that legitimately differ between runs.

A cell must reproduce its digests in every execution order:

* ``fresh`` — each cell first in a fresh interpreter;
* ``sequential`` — every cell back to back in this process, with
  nothing reset between them;
* ``campaign`` — every cell through one reused campaign worker process,
  traced.

The two fabric UDP cells and the two table-overflow cells (1 and 2
shards each) share one golden entry per pair.

From the repository root::

    PYTHONPATH=src python -m tests.golden.corpus --check
    PYTHONPATH=src python -m tests.golden.corpus --check --order fresh
    PYTHONPATH=src python -m tests.golden.corpus --write

``--check`` exits non-zero on any mismatch and needs neither pytest nor
hypothesis.  ``--write`` recomputes every digest in fresh interpreters,
rewrites ``digests.json`` and names the entries that changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

DIGESTS_PATH = Path(__file__).with_name("digests.json")
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Record keys dropped before hashing: host timing, CPU accounting and
#: how the run was executed (shard count, exchange wire counters).
EXECUTION_KEYS = (
    "shards", "wall_s", "wall_packets_per_sec", "capacity_packets_per_sec",
    "coordinator_cpu_s", "worker_cpu_s", "exchange_bytes", "exchange_blobs",
)

ORDERS = ("fresh", "sequential", "campaign")

Digests = Dict[str, str]


@dataclass(frozen=True)
class Cell:
    name: str
    golden: str
    experiment: str
    controller: str
    attack: Optional[str] = None
    fail_mode: str = "secure"
    seed: int = 0
    topology: str = "enterprise"
    params: Optional[dict] = None

    def spec(self):
        """A one-run campaign spec for this cell."""
        from repro.campaign import CampaignSpec

        return CampaignSpec(
            name=self.name, experiment=self.experiment,
            attacks=[self.attack], controllers=[self.controller],
            topologies=[self.topology], fail_modes=[self.fail_mode],
            seeds=[self.seed], params=dict(self.params or {}), baseline=None,
        )

    def descriptor(self):
        (descriptor,) = self.spec().expand()
        return descriptor


_FIG11 = {"ping_trials": 3, "iperf_trials": 1, "iperf_duration_s": 0.5,
          "iperf_gap_s": 0.5, "warmup_s": 2}
_UDP = {"pairs": 4, "packets": 10}
_OVERFLOW = {
    "workload": "table-overflow", "table_capacity": 16,
    "table_eviction": "lru", "detectors": "pktin-rate", "horizon_s": 0.5,
    "workload_params": {"schedule": "constant:1000", "keys": 128,
                        "senders": 4, "duration_s": 0.1},
}


def _cells() -> List[Cell]:
    cells = []
    for controller in ("pox", "floodlight", "ryu"):
        for attack, tag in ((None, "baseline"), ("flow-mod-suppression", "attacked")):
            name = f"fig11-{controller}-{tag}"
            cells.append(Cell(name, name, "suppression", controller,
                              attack=attack, params=_FIG11))
    for controller in ("pox", "floodlight", "ryu"):
        for fail_mode in ("secure", "standalone"):
            name = f"table2-{controller}-{fail_mode}"
            cells.append(Cell(name, name, "interruption", controller,
                              attack="connection-interruption",
                              fail_mode=fail_mode,
                              params={"time_scale": 0.5}))
    for shards in (1, 2):
        cells.append(Cell(f"fabric-udp-k4-shards{shards}", "fabric-udp-k4",
                          "fabric", "none", topology="fat-tree-k4",
                          params=dict(_UDP, shards=shards)))
    cells.append(Cell("table-overflow-k4", "table-overflow-k4", "workload",
                      "floodlight", seed=1, topology="fat-tree-k4",
                      params=_OVERFLOW))
    cells.append(Cell("table-overflow-k4-shards2", "table-overflow-k4",
                      "workload", "floodlight", seed=1, topology="fat-tree-k4",
                      params=dict(_OVERFLOW, shards=2)))
    return cells


CELLS: List[Cell] = _cells()
CELLS_BY_NAME: Dict[str, Cell] = {cell.name: cell for cell in CELLS}


# --------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------- #

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(trace_jsonl: str, record: dict) -> Digests:
    kept = {key: value for key, value in record.items()
            if key not in EXECUTION_KEYS}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return {"trace": _sha256(trace_jsonl), "record": _sha256(canonical)}


def run_in_process(cell: Cell) -> Digests:
    """Run ``cell`` here.  Nothing is reset first: a run draws every
    sequence from its own engine, so what ran before cannot leak in."""
    from repro.campaign.executors import execute_descriptor
    from repro.obs import TraceCollector

    tracer = TraceCollector()
    record = execute_descriptor(cell.descriptor().identity(), tracer=tracer)
    return digest(tracer.to_jsonl(), record)


def run_fresh(cells: List[Cell]) -> Dict[str, Digests]:
    """Each cell in its own new interpreter, two interpreters at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def run(cell: Cell) -> Digests:
        done = subprocess.run(
            [sys.executable, "-m", "tests.golden.corpus", "--cell", cell.name],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            check=False, timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cell {cell.name} failed:\n{done.stderr}")
        return json.loads(done.stdout.splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip((cell.name for cell in cells), pool.map(run, cells)))


def run_sequential(cells: List[Cell]) -> Dict[str, Digests]:
    """Every cell back to back in this process."""
    return {cell.name: run_in_process(cell) for cell in cells}


def run_campaign(cells: List[Cell]) -> Dict[str, Digests]:
    """Every cell through one reused, traced campaign worker."""
    from repro.campaign import CampaignScheduler, ResultStore

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "golden.jsonl")
        scheduler = CampaignScheduler(store, workers=1, trace=True)
        try:
            for cell in cells:
                scheduler.submit(cell.spec())
            scheduler.run_until_idle()
        finally:
            scheduler.shutdown()
        if scheduler.processes_spawned != 1:
            raise RuntimeError(
                f"expected one reused worker, spawned "
                f"{scheduler.processes_spawned}")
        records = store.latest_by_run()
        results = {}
        for cell in cells:
            run_id = cell.descriptor().run_id
            record = records[run_id]
            if record["status"] != "ok":
                raise RuntimeError(
                    f"cell {cell.name} failed:\n{record.get('error')}")
            trace = store.trace_path(run_id).read_text(encoding="utf-8")
            results[cell.name] = digest(trace, record["metrics"])
        return results


RUNNERS: Dict[str, Callable[[List[Cell]], Dict[str, Digests]]] = {
    "fresh": run_fresh,
    "sequential": run_sequential,
    "campaign": run_campaign,
}


def load_goldens() -> Dict[str, Digests]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def mismatches(order: str) -> List[str]:
    """Run every cell in ``order``; describe each digest mismatch."""
    goldens = load_goldens()
    found = []
    for name, got in RUNNERS[order](CELLS).items():
        want = goldens.get(CELLS_BY_NAME[name].golden)
        for kind in ("trace", "record"):
            if want is None or got[kind] != want[kind]:
                found.append(f"{order}: {name} {kind} {got[kind][:16]} != "
                             f"golden {want[kind][:16] if want else None}")
    return found


def write_goldens() -> List[str]:
    """Recompute every golden in fresh interpreters; return changed names."""
    fresh = run_fresh(CELLS)
    goldens: Dict[str, Digests] = {}
    for cell in CELLS:
        got = fresh[cell.name]
        if goldens.setdefault(cell.golden, got) != got:
            raise RuntimeError(
                f"cells sharing golden {cell.golden} disagree ({cell.name})")
    old = load_goldens() if DIGESTS_PATH.exists() else {}
    changed = sorted(name for name in set(goldens) | set(old)
                     if goldens.get(name) != old.get(name))
    DIGESTS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    return changed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare every cell against digests.json")
    mode.add_argument("--write", action="store_true",
                      help="rewrite digests.json from fresh interpreters")
    mode.add_argument("--cell", choices=sorted(CELLS_BY_NAME),
                      help="run one cell here and print its digests")
    parser.add_argument("--order", choices=ORDERS + ("all",), default="all",
                        help="execution order to check (default: all)")
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(run_in_process(CELLS_BY_NAME[args.cell])))
        return 0
    if args.write:
        changed = write_goldens()
        print("changed: " + (", ".join(changed) if changed else "none"))
        return 0
    orders = ORDERS if args.order == "all" else (args.order,)
    failed = []
    for order in orders:
        found = mismatches(order)
        failed += found
        print(f"{order}: {len(CELLS)} cells, {len(found)} digest mismatch(es)")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
