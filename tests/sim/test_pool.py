"""Pooled shard runs: start methods, inline fallback, worker
failures, layering.

The pool always forks (its pipe mesh rides on inherited fds), so a
process whose default start method is ``spawn`` still gets the mesh
exchange; a platform without ``fork`` runs the regions inline.  A forked
worker inherits a monkeypatch made in the test process, which is how
the failure cases below reach inside one worker.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.sim
from repro.experiments import fabric
from repro.experiments.fabric import run_fabric_experiment

REPO_ROOT = Path(__file__).resolve().parents[2]

SPAWN_SCRIPT = """
import hashlib, json, multiprocessing
multiprocessing.set_start_method("spawn", force=True)
from repro.experiments.fabric import run_fabric_experiment
from repro.obs import TraceCollector
from tests.golden.corpus import digest

runs = {}
for shards in (1, 2):
    trace = TraceCollector()
    result = run_fabric_experiment("fat-tree-k4", controller="floodlight",
                                   pairs=4, packets=3, shards=shards,
                                   trace=trace)
    runs[shards] = dict(digest(trace.to_jsonl(), result.record()),
                        shards=result.shards, events=trace.events_total,
                        exchange_bytes=result.exchange_bytes)
print(json.dumps(runs))
"""


def test_spawn_default_start_method_still_uses_the_mesh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", SPAWN_SCRIPT], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout.splitlines()[-1])
    inline, pooled = runs["1"], runs["2"]
    assert pooled["shards"] == 2
    assert inline["events"] > 0
    assert pooled["trace"] == inline["trace"]
    assert pooled["record"] == inline["record"]
    assert pooled["exchange_bytes"] > 0


def test_without_fork_a_pooled_run_executes_inline(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    result = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10,
                                   shards=2)
    assert result.shards == 1
    assert result.exchange_bytes == 0
    assert result.worker_cpu_s == []
    assert result.packets_delivered == result.packets_sent == 40


def test_a_region_build_that_raises_in_one_worker_ends_the_run(monkeypatch):
    build = fabric.build_fabric_regions

    def build_or_raise(config, rids, plan):
        if 0 in rids:
            raise ValueError("region 0 cannot be built")
        return build(config, rids, plan)

    monkeypatch.setattr(fabric, "build_fabric_regions", build_or_raise)
    with pytest.raises(RuntimeError, match="region 0 cannot be built"):
        run_fabric_experiment("fat-tree-k4", pairs=4, packets=10, shards=2)
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_mid_run_ends_the_run(monkeypatch):
    send = fabric._FabricDataRegion._udp_send

    def send_or_exit(self, host, dst_ip, first, i):
        if host.name == "p00e00h00" and i == 5:
            os._exit(7)
        send(self, host, dst_ip, first, i)

    monkeypatch.setattr(fabric._FabricDataRegion, "_udp_send", send_or_exit)
    with pytest.raises(RuntimeError, match="exit code 7"):
        run_fabric_experiment("fat-tree-k4", pairs=4, packets=10, shards=2)
    assert multiprocessing.active_children() == []


def _imported_modules(path: Path, package: str):
    """Every module an ``import`` statement in ``path`` names, lazy
    imports inside functions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = parts[:len(parts) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_sim_never_imports_campaign():
    sim_dir = Path(repro.sim.__file__).parent
    offenders = []
    for path in sorted(sim_dir.rglob("*.py")):
        package = ".".join(("repro", "sim") + path.parent.relative_to(sim_dir).parts)
        for module in _imported_modules(path, package):
            if module == "repro.campaign" or module.startswith("repro.campaign."):
                offenders.append(f"{path.name}: {module}")
    assert offenders == []
