"""Parent side of the suite: spawn runs, check outputs, summarise, compare.

Every timed run is a fresh interpreter (:mod:`benchmarks.suite.child`)
that runs one workload once, so no run inherits caches or counters from
another.  Set-up time is measured here, from spawn until the child says
``ready``; it and the run time are reported in reference seconds
(:mod:`benchmarks.suite.reference`).  Three entry points share this code:

* ``--workload NAME --seed N --seconds S --trace 0|1`` -- one workload,
  timed for ``S`` seconds (or, with ``--trace 1``, one timed and one
  traced run); prints one JSON object as the last line.
* ``run`` -- a full result set: every workload, round-robin, plus a
  traced pass, a host fingerprint and a calibration loop.
* ``compare A.json B.json`` -- per metric and workload verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.suite.reference import REF_KERNEL_S, kernel_seconds
from benchmarks.suite.spans import layer_metrics, unit_of
from benchmarks.suite.workloads import WORKLOADS, Workload, record_digest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: End-to-end metrics and their units (bounds live in BENCHMARK.json).
#: Both times are in reference seconds (:mod:`benchmarks.suite.reference`).
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Host-dependent timings and their units, kept in result sets for
#: reading but not bounded.
RAW_TIMINGS = {"wall_s": "s", "setup_wall_s": "s", "cpu_s": "s", "kernel_ms": "ms"}
RUN_TIMEOUT_S = 120.0
#: Every invocation must finish inside this, children included.
INVOCATION_BUDGET_S = 170.0
CALIBRATION_DRIFT = 0.10


# --------------------------------------------------------------------- #
# Spawning one child
# --------------------------------------------------------------------- #

class ChildFailed(Exception):
    pass


def spawn(name: str, seed: int, flags: Sequence[str], deadline: float) -> Dict[str, Any]:
    """Run one child; return its JSON payload plus ``setup_wall_s``.

    Raises :class:`ChildFailed` on a crash, a timeout or garbled output.
    The child runs in its own session so a timeout also kills anything it
    started; the child is waited for before this returns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "benchmarks.suite.child", name, str(seed), *flags]
    limit = min(time.perf_counter() + RUN_TIMEOUT_S, deadline)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, start_new_session=True)
    ready_at: Optional[float] = None
    out = b""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = limit - time.perf_counter()
                if remaining <= 0:
                    raise ChildFailed(f"{name}: timed out")
                if not selector.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready_at is None and b"\n" in out:
                    ready_at = time.perf_counter()
        code = proc.wait(timeout=max(1.0, limit - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name}: did not exit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    lines = out.decode(errors="replace").splitlines()
    if code != 0 or ready_at is None or not lines or lines[0] != "ready":
        raise ChildFailed(f"{name}: exit code {code}")
    payload: Dict[str, Any] = json.loads(lines[-1]) if len(lines) > 1 else {}
    payload["setup_wall_s"] = ready_at - started
    return payload


# --------------------------------------------------------------------- #
# Runs of one workload
# --------------------------------------------------------------------- #

def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class WorkloadRuns:
    """Accumulates the timed and traced runs of one workload."""

    def __init__(self, workload: Workload, seed: int, quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.flags = ["--quick"] if quick else []
        self.timed: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest: Optional[str] = None

    def _checked(self, extra: Sequence[str], deadline: float) -> Optional[Dict[str, Any]]:
        """One run that counts towards ``attempted``/``failed``."""
        self.attempted += 1
        try:
            payload = spawn(self.workload.name, self.seed, [*self.flags, *extra], deadline)
        except (ChildFailed, ValueError) as exc:
            self.problems.append(str(exc))
            self.failed += 1
            return None
        record = payload["record"]
        found = self.workload.problems(record, self.seed, self.quick)
        digest = record_digest(record)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append(f"digest {digest[:16]} differs from the first run's "
                         f"{self.digest[:16]}")
        if found:
            self.failed += 1
            self.problems.extend(f"{self.workload.name}: {p}" for p in found)
        return payload

    def timed_run(self, deadline: float) -> None:
        payload = self._checked([], deadline)
        if payload is not None:
            self.timed.append(payload)

    def traced_run(self, deadline: float) -> None:
        self.traced = self._checked(["--trace"], deadline)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def end_to_end(self) -> Dict[str, List[float]]:
        samples: Dict[str, List[float]] = {
            "wall_ref_s": [p["wall_ref_s"] for p in self.timed],
            # Spawn to ready, scaled to the kernel's speed during the imports.
            "setup_s": [p["setup_wall_s"] * REF_KERNEL_S * 1e3 / p["setup_kernel_ms"]
                        for p in self.timed],
            "peak_rss_mb": [p["peak_rss_mb"] for p in self.timed],
        }
        return {name: values for name, values in samples.items() if values}

    def raw_timings(self) -> Dict[str, List[float]]:
        if not self.timed:
            return {}
        return {name: [p[name] for p in self.timed] for name in RAW_TIMINGS}

    def per_layer(self) -> Dict[str, float]:
        if self.traced is None or not self.timed:
            return {}
        # Overhead compares reference seconds, so a slow phase of the host
        # during the traced run does not show as overhead.
        return layer_metrics(
            self.traced["spans"], self.traced["wall_s"],
            self.traced["wall_ref_s"]
            / statistics.median(p["wall_ref_s"] for p in self.timed),
            self.traced["record"],
        )


# --------------------------------------------------------------------- #
# Single-workload form: one JSON line
# --------------------------------------------------------------------- #

def invoke(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload for ``seconds``; return the result object."""
    started = time.perf_counter()
    deadline = started + INVOCATION_BUDGET_S
    runs = WorkloadRuns(WORKLOADS[name], seed, quick=False)
    while True:
        runs.timed_run(deadline)
        now = time.perf_counter()
        # Stop before a run of average length would end after ``seconds``.
        if trace or now >= deadline or \
                (now - started) * (runs.attempted + 1) / runs.attempted > seconds:
            break
    print(f"{name}: wall_s/wall_ref_s of each run: "
          + " ".join(f"{p['wall_s']:.3f}/{p['wall_ref_s']:.3f}" for p in runs.timed),
          file=sys.stderr)
    if trace:
        runs.traced_run(deadline)
        values = runs.per_layer()
        units = {metric: unit_of(metric) for metric in values}
    else:
        values = {metric: statistics.median(samples)
                  for metric, samples in runs.end_to_end().items()}
        units = END_TO_END
    for problem in runs.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for metric, value in values.items():
        print(f"{name:16s} {metric:40s} {value:14.6g} {units[metric]}")
    return {
        "correct": runs.failed == 0 and not runs.problems and bool(values),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }


# --------------------------------------------------------------------- #
# Full result set
# --------------------------------------------------------------------- #

def calibrate() -> float:
    """Seconds of one pass of the reference kernel (median of 200)."""
    return statistics.median(kernel_seconds() for _ in range(200))


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint() -> Dict[str, Any]:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_sha": _git("rev-parse", "HEAD"),
        "clean_tree": None if status is None else status == "",
    }


def run_set(names: Sequence[str], repeats: int, seed: Optional[int],
            quick: bool) -> Dict[str, Any]:
    """Every workload ``repeats`` times round-robin, then one traced pass each."""
    calibration_start = calibrate()
    all_runs = {name: WorkloadRuns(WORKLOADS[name],
                                   WORKLOADS[name].default_seed if seed is None else seed,
                                   quick)
                for name in names}
    for _ in range(repeats):
        for runs in all_runs.values():
            runs.timed_run(math.inf)
    for runs in all_runs.values():
        runs.traced_run(math.inf)
    calibration_end = calibrate()
    drift = calibration_end / calibration_start - 1.0

    workloads: Dict[str, Any] = {}
    for name, runs in all_runs.items():
        workloads[name] = {
            "seed": runs.seed,
            "attempted": runs.attempted,
            "failed": runs.failed,
            "fail_rate": runs.fail_rate,
            "problems": runs.problems,
            "digest": runs.digest,
            "end_to_end": {metric: dict(summarize(values), unit=END_TO_END[metric])
                           for metric, values in runs.end_to_end().items()},
            "raw": {metric: dict(summarize(values), unit=RAW_TIMINGS[metric])
                    for metric, values in runs.raw_timings().items()},
            "per_layer": {metric: {"value": value, "unit": unit_of(metric)}
                          for metric, value in runs.per_layer().items()},
        }
    return {
        "schema": "attain.bench.suite.v1",
        "host": host_fingerprint(),
        "calibration": {"start_s": calibration_start, "end_s": calibration_end,
                        "drift": drift},
        "settings": {"repeats": repeats, "quick": quick, "seed": seed},
        "workloads": workloads,
    }


def print_set(result: Dict[str, Any]) -> None:
    host = result["host"]
    print(f"host: python {host['python']}, nproc {host['nproc']}, "
          f"{host['cpu_model']}, git {host['git_sha']} "
          f"(clean={host['clean_tree']})")
    cal = result["calibration"]
    print(f"calibration: kernel {cal['start_s'] * 1e3:.3f} ms -> {cal['end_s'] * 1e3:.3f} ms "
          f"({cal['drift']:+.1%})")
    if abs(cal["drift"]) > CALIBRATION_DRIFT:
        print(f"WARNING: calibration drifted {cal['drift']:+.1%} during the set; "
              "the host was not steady", file=sys.stderr)
    for name, entry in result["workloads"].items():
        print(f"\n== {name} (seed {entry['seed']}, {entry['attempted']} runs, "
              f"fail_rate {entry['fail_rate']:.3f}, digest {str(entry['digest'])[:16]})")
        for problem in entry["problems"]:
            print(f"  problem: {problem}")
        for metric, s in [*entry["end_to_end"].items(), *entry["raw"].items()]:
            print(f"  {metric:38s} {s['median']:12.6g} {s['unit']:8s} "
                  f"[{s['q1']:.6g} .. {s['q3']:.6g}] n={s['n']}")
        for metric, m in entry["per_layer"].items():
            print(f"  {metric:38s} {m['value']:12.6g} {m['unit']}")


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #

def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """improved / worse / unresolved / unchanged for one metric.

    Improved: the change wins at least nine tenths of the index-paired
    runs and the medians differ by more than the parent's interquartile
    spread.  Worse: the change's median is worse than the parent's by more
    than ``bound`` (a share of the parent's median).  Unresolved: either
    side's spread is wider than the bound, unless every run of the change
    beats every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    a, b = summarize(parent), summarize(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and \
            abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "improved"
    if sign * (b["median"] - a["median"]) < -bound * abs(a["median"]):
        return "worse"
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (a, b))
    if spread > bound:
        if all(sign * (y - x) > 0 for x in parent for y in change):
            return "improved"
        return "unresolved"
    return "unchanged"


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            continue
        a, b = parent["workloads"][name], change["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                continue
            sa, sb = a["end_to_end"][key], b["end_to_end"][key]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "parent": sa, "change": sb,
                "verdict": verdict(sa["samples"], sb["samples"],
                                   metric["better"], metric["bound"]),
            })
        rows.append({
            "workload": name, "metric": "fail_rate", "unit": "ratio",
            "parent": {"median": a["fail_rate"], "q1": a["fail_rate"], "q3": a["fail_rate"]},
            "change": {"median": b["fail_rate"], "q1": b["fail_rate"], "q3": b["fail_rate"]},
            "verdict": "worse" if b["fail_rate"] > a["fail_rate"] else "unchanged",
        })
    return rows


def print_compare(rows: List[Dict[str, Any]]) -> None:
    for row in rows:
        a, b = row["parent"], row["change"]
        print(f"{row['workload']:16s} {row['metric']:12s} "
              f"{a['median']:10.5g} [{a['q1']:.5g} .. {a['q3']:.5g}]  ->  "
              f"{b['median']:10.5g} [{b['q1']:.5g} .. {b['q3']:.5g}] "
              f"{row['unit']:8s} {row['verdict']}")


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def main(argv: Sequence[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    argv = list(argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.suite compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        rows = compare(_load(args.parent), _load(args.change),
                       _load(str(ROOT / "BENCHMARK.json")))
        print_compare(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="benchmarks.suite run")
        parser.add_argument("--seed", type=int, default=None,
                            help="seed for every workload (default: each "
                                 "workload's pinned seed)")
        # Ten index-paired runs per side is the least ``compare`` needs to
        # call a change improved.
        parser.add_argument("--repeats", type=int, default=10)
        parser.add_argument("--quick", action="store_true",
                            help="tiny configurations, one repeat (self-test)")
        parser.add_argument("--out", help="write the result set as JSON here")
        args = parser.parse_args(argv[1:])
        result = run_set(list(WORKLOADS), 1 if args.quick else args.repeats,
                         args.seed, args.quick)
        print_set(result)
        if args.out:
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result, indent=2))
        return 0
    parser = argparse.ArgumentParser(prog="benchmarks/suite/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    result = invoke(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
