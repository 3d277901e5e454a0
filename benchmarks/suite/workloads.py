"""The four benchmark workloads, their output checks and pinned digests.

Each workload calls one public experiment entry point once.  The choice
of workloads is deliberate: every layer an optimisation might touch is
dominant on at least one of them and absent (or idle) on another, so a
change that helps one layer and slows a second shows up somewhere.

* ``fig11-iperf`` -- the paper's Fig. 11 baseline cell.  A TCP bulk
  transfer makes netlib, host stack, links and the engine dominate; the
  control plane is idle (about 20 PACKET_INs).
* ``fig11-suppress`` -- the paper's attacked Fig. 11 cell.  Every
  segment becomes a PACKET_IN and the injector drops every FLOW_MOD, so
  executor, proxy, OpenFlow codec and controller dominate.  Floodlight,
  not POX: POX's attacked cell is a total DoS that ends in milliseconds.
* ``fabric-forward`` -- controllerless proactive ECMP on fat-tree-k8, its
  twelve regions run by the barrier loop in one process.  Flow-table
  wildcard *reads*, switch, link and the barrier dominate; injector,
  controllers, TCP and defense are absent.  It runs inline because two
  pooled shard workers on a 2-CPU host spread its wall time by ~40%
  between runs: the barrier waits for whichever worker the host delayed.
* ``table-overflow`` -- the PACKET_IN/overflow storm with the sketch tap
  and a detector on.  Flow-table *writes* (ADD, duplicate scan, LRU
  eviction), PACKET_IN handling, frame synthesis and the defense tap
  dominate: the flow table is used the opposite way from
  ``fabric-forward``.

Each run is sized to take 1-4 s, so that a run of the benchmark takes the
median of many runs and a burst of host noise spoils few of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

Record = Dict[str, Any]

#: Record fields that are outputs of the simulated network: what the
#: experiment measured (simulated time, not host time) and what the attack
#: and defense did.  Host timings and implementation counters (processed
#: events, epochs, region cuts, exchange bytes) are left out, so an
#: optimisation that does the same simulation with less work keeps the
#: pinned digests.
OUTPUT_FIELDS = frozenset({
    "seed", "sim_duration_s",
    # traffic
    "packets_sent", "packets_delivered", "delivery_rate", "packets_synthesized",
    "ping_sent", "ping_received", "ping_loss", "avg_rtt_ms", "median_rtt_ms",
    "throughput_mbps", "throughputs_mbps",
    # control plane and attack
    "packet_ins", "switch_packet_ins", "packet_in_rate", "flow_mods_seen",
    "flow_mods_dropped", "total_control_messages", "denial_of_service",
    "unauthorized_access",
    # flow tables
    "table_misses", "table_occupancy_peak", "evictions_idle", "evictions_hard",
    "evictions_capacity", "evictions_delete",
    # defense
    "detections", "sketch_digest", "sketch_summary",
})


def record_digest(record: Record) -> str:
    """sha256 of the canonical JSON of the :data:`OUTPUT_FIELDS` of ``record``."""
    kept = {key: value for key, value in record.items() if key in OUTPUT_FIELDS}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    #: ``run(seed, quick) -> record``; imports ``repro`` lazily.
    run: Callable[[int, bool], Record]
    #: ``check(record, quick) -> problems``; an empty list means correct.
    check: Callable[[Record, bool], List[str]]
    #: Digest of the full-size run at ``default_seed``.
    pinned: str

    def problems(self, record: Record, seed: int, quick: bool) -> List[str]:
        """Semantic checks, plus the pinned digest at the default seed."""
        found = list(self.check(record, quick))
        if not quick and seed == self.default_seed:
            digest = record_digest(record)
            if digest != self.pinned:
                found.append(f"digest {digest[:16]} != pinned {self.pinned[:16]}")
        return found


def _require(found: List[str], ok: bool, message: str) -> None:
    if not ok:
        found.append(message)


# --------------------------------------------------------------------- #
# Fig. 11 cells
# --------------------------------------------------------------------- #

def _fig11(controller: str, attacked: bool, iperf_duration_s: float):
    def run(seed: int, quick: bool) -> Record:
        from repro.experiments import run_suppression_experiment

        return run_suppression_experiment(
            controller, attacked=attacked, ping_trials=5, iperf_trials=1,
            iperf_duration_s=1 if quick else iperf_duration_s, iperf_gap_s=1,
            warmup_s=2, seed=seed,
        ).record()
    return run


def _check_iperf(record: Record, quick: bool) -> List[str]:
    found: List[str] = []
    _require(found, record["ping_loss"] == 0, f"ping_loss {record['ping_loss']}")
    _require(found, record["throughput_mbps"] > 90,
             f"throughput {record['throughput_mbps']} <= 90 Mbps")
    return found


def _check_suppress(record: Record, quick: bool) -> List[str]:
    found: List[str] = []
    seen, dropped = record["flow_mods_seen"], record["flow_mods_dropped"]
    _require(found, dropped == seen > 0,
             f"flow_mods_dropped {dropped} vs flow_mods_seen {seen}")
    _require(found, 0 < record["throughput_mbps"] < 20,
             f"throughput {record['throughput_mbps']} outside (0, 20) Mbps")
    return found


# --------------------------------------------------------------------- #
# Fabric cells
# --------------------------------------------------------------------- #

def _fabric_shape(quick: bool) -> Dict[str, Any]:
    if quick:
        return {"topology": "fat-tree-k4", "pairs": 8, "packets": 100}
    return {"topology": "fat-tree-k8", "pairs": 64, "packets": 250}


def _run_forward(seed: int, quick: bool) -> Record:
    from repro.experiments import run_fabric_experiment

    return run_fabric_experiment(seed=seed, shards=1, **_fabric_shape(quick)).record()


def _check_forward(record: Record, quick: bool) -> List[str]:
    shape = _fabric_shape(quick)
    expected = shape["pairs"] * shape["packets"]
    found: List[str] = []
    sent, delivered = record["packets_sent"], record["packets_delivered"]
    _require(found, delivered == sent == expected,
             f"delivered {delivered} / sent {sent}, expected {expected}")
    _require(found, record["table_misses"] == 0,
             f"table_misses {record['table_misses']}")
    return found


def _overflow_capacity(quick: bool) -> int:
    return 32 if quick else 128


def _run_overflow(seed: int, quick: bool) -> Record:
    from repro.experiments import run_fabric_experiment

    return run_fabric_experiment(
        "fat-tree-k4" if quick else "fat-tree-k8", controller="floodlight",
        workload="table-overflow", seed=seed,
        table_capacity=_overflow_capacity(quick), table_eviction="lru",
        detectors="pktin-rate",
        workload_params={
            "schedule": "constant:2000", "keys": 1024 if quick else 4096,
            "senders": 8, "duration_s": 0.25,
        },
    ).record()


def _check_overflow(record: Record, quick: bool) -> List[str]:
    capacity = _overflow_capacity(quick)
    found: List[str] = []
    _require(found, record["table_occupancy_peak"] == capacity,
             f"table_occupancy_peak {record['table_occupancy_peak']} != {capacity}")
    _require(found, record["evictions_capacity"] > 0, "no capacity evictions")
    recall: Optional[float] = record.get("detect_recall")
    _require(found, recall == 1.0, f"detect_recall {recall}")
    return found


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig11-iperf",
        "Fig. 11 baseline cell: TCP bulk transfer loads netlib, host stack, "
        "links and engine; the control plane is idle",
        0, _fig11("pox", False, 2), _check_iperf,
        "2b1433901dffe0fc98a1b727549053be530a158f115e7c7a688eeeb150816d61",
    ),
    Workload(
        "fig11-suppress",
        "Fig. 11 attacked cell: every segment PACKET_INs and the injector "
        "drops every FLOW_MOD, loading injector, codec and controller",
        0, _fig11("floodlight", True, 3), _check_suppress,
        "6ae8b860eb918cca22a98f7716421d872001a478c4c9765a21fa886421f0cbf9",
    ),
    Workload(
        "fabric-forward",
        "Proactive ECMP on fat-tree-k8, 12 regions inline: flow-table reads, "
        "switch, link and barrier loop; no controller, injector or TCP",
        0, _run_forward, _check_forward,
        "8a5b7d5e817afa35e3ad6d703c4a15d7a83c5ae0d4a13a819c3d315b50359e4b",
    ),
    Workload(
        "table-overflow",
        "PACKET_IN storm overflowing 128-entry LRU tables with the sketch "
        "tap and a detector on: flow-table writes, controller, defense",
        1, _run_overflow, _check_overflow,
        "a8d79a790c768f6d2574a2891e8b206b5294dc95a7fd41028a3dccfebd9662e1",
    ),
)}
