"""Deterministic discrete-event simulation engine.

This package is the substrate that replaces the paper's GENI testbed: all
network elements (hosts, switches, controllers, links, and the ATTAIN
runtime injector itself) are processes scheduled on a single simulated
clock.  Identical seeds and identical scenarios produce identical event
traces, which is what makes the security metrics in the evaluation
unit-testable.
"""

from repro.sim.engine import SimContext, SimulationEngine, SimulationError
from repro.sim.events import Event, EventCancelled
from repro.sim.process import Process, Signal, sleep
from repro.sim.rng import SeededRng
from repro.sim.shard import (
    ShardRegion,
    ShardedSimulation,
    assign_regions,
)

__all__ = [
    "Event",
    "EventCancelled",
    "Process",
    "SeededRng",
    "ShardRegion",
    "ShardedSimulation",
    "Signal",
    "SimContext",
    "SimulationEngine",
    "SimulationError",
    "assign_regions",
    "sleep",
]
