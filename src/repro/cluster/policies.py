"""Task-ordering policies for list scheduling.

The simulator is a greedy list scheduler: it hands tasks to the earliest
free slot *in queue order*, so the policy is just the queue order:

* ``fifo`` — submission order. This is what both Hadoop's FIFO scheduler and
  mpiBLAST's master (greedy assignment of unprocessed work to idle workers)
  actually do, so it is the default everywhere in the reproduction.
* ``lpt`` — longest processing time first, the classic makespan heuristic;
  used by ablation benchmarks to separate "more parallelism" from "smarter
  ordering" effects.

Any other order is a ``fifo`` schedule of the tasks submitted in that order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.tasks import SimTask

POLICIES = ("fifo", "lpt")


def order_tasks(tasks: Sequence[SimTask], policy: str = "fifo") -> List[SimTask]:
    """Return tasks in the order the scheduler should consider them."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    tasks = list(tasks)
    if policy == "lpt":
        return sorted(tasks, key=lambda t: (-t.duration, t.task_id))
    return tasks
