"""Tests for SimTask conversion and ordering policies."""

import pytest

from repro.cluster.hardware import HardwareModel
from repro.cluster.policies import order_tasks
from repro.cluster.tasks import SimTask, simulated_seconds, unit_tasks
from repro.units import WorkUnit, WorkUnitRecord


def recs(safe=True):
    return [
        WorkUnitRecord(
            unit=WorkUnit("q", shard, fragment_index=0, query_span=1000, subject_span=500),
            measured_seconds=float(shard + 1),
            simulator_safe=safe or shard != 1,
        )
        for shard in range(3)
    ]


class TestRecordsToTasks:
    def test_all_records(self):
        tasks = unit_tasks(recs(), HardwareModel())
        assert [t.task_id for t in tasks] == [
            "q/frag0000/shard000", "q/frag0000/shard001", "q/frag0000/shard002",
        ]
        assert [t.duration for t in tasks] == [1.0, 2.0, 3.0]

    def test_contended_record_refused(self):
        """DESIGN §4.3: contended measurements never enter simulated time."""
        with pytest.raises(ValueError, match="frag0000/shard001.*contention"):
            simulated_seconds(recs(safe=False), HardwareModel())

    def test_simtask_validation(self):
        with pytest.raises(ValueError):
            SimTask(task_id="", duration=1.0)
        with pytest.raises(ValueError):
            SimTask(task_id="x", duration=-1.0)


class TestOrderTasks:
    def _tasks(self):
        return [SimTask(f"t{i}", d) for i, d in enumerate([3.0, 1.0, 2.0])]

    def test_fifo_preserves_order(self):
        assert [t.task_id for t in order_tasks(self._tasks(), "fifo")] == ["t0", "t1", "t2"]

    def test_lpt_descending(self):
        assert [t.duration for t in order_tasks(self._tasks(), "lpt")] == [3.0, 2.0, 1.0]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            order_tasks(self._tasks(), "nope")
