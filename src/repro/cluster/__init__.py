"""Cluster simulation substrate (the stand-in for the Gordon system).

The paper measures on 64 nodes × 16 cores of the Gordon supercomputer. We
replay *measured* work-unit records (from the Orion, mpiBLAST and BLAST+
runners) through a deterministic discrete-event scheduler over a modelled
cluster — makespan, speedup and load-balance numbers then come out the same
way the paper computes them, at any core count (DESIGN.md §2). Simulation is
a separate step: runners record measurements only, and a replay takes
``(records, cluster, hardware)``.

:class:`~repro.cluster.hardware.HardwareModel` is the one place measured
seconds become simulated seconds. It carries the hardware effects the
paper's results depend on but a scaled-down Python run cannot produce
natively: the cache-miss slowdown of BLAST on long queries (their Fig. 3
motivation), the paper-scale scan cost, and the quadratic
dynamic-programming memory that makes mpiBLAST fail past 96 Mbp queries.
"""

from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.cluster.tasks import SimTask, simulated_seconds, unit_tasks
from repro.cluster.policies import order_tasks
from repro.cluster.simulator import (
    Schedule,
    ScheduledTask,
    simulate_phase,
    simulate_phases,
)
from repro.cluster.hardware import (
    CacheModel,
    DPMemoryModel,
    HardwareModel,
    OutOfMemoryError,
    ScanCostModel,
)
from repro.cluster.metrics import (
    coefficient_of_variation,
    load_imbalance,
    parallel_efficiency,
    speedup_curve,
)

__all__ = [
    "ClusterSpec",
    "ExecutionProfile",
    "SimTask",
    "simulated_seconds",
    "unit_tasks",
    "order_tasks",
    "Schedule",
    "ScheduledTask",
    "simulate_phase",
    "simulate_phases",
    "CacheModel",
    "DPMemoryModel",
    "HardwareModel",
    "OutOfMemoryError",
    "ScanCostModel",
    "coefficient_of_variation",
    "load_imbalance",
    "parallel_efficiency",
    "speedup_curve",
]
