"""Deterministic discrete-event simulation engine.

This package is the substrate that replaces the paper's GENI testbed: all
network elements (hosts, switches, controllers, links, and the ATTAIN
runtime injector itself) act through callbacks scheduled on a single
simulated clock.  Identical seeds and identical scenarios produce
identical event traces, which is what makes the security metrics in the
evaluation unit-testable.

Every scheduled event is one plain ``(time, band, seq, callback, args)``
tuple on the engine's heap.  The engine cannot cancel an event: a
component that may stop wanting a callback guards it itself, with a flag
or a deadline the callback checks when it fires.
"""

from repro.sim.engine import SimContext, SimulationEngine, SimulationError
from repro.sim.rng import SeededRng
from repro.sim.shard import (
    ShardRegion,
    ShardedSimulation,
    assign_regions,
)

__all__ = [
    "SeededRng",
    "ShardRegion",
    "ShardedSimulation",
    "SimContext",
    "SimulationEngine",
    "SimulationError",
    "assign_regions",
]
