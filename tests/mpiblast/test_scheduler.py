"""Tests for the mpiBLAST master scheduler."""

import pytest

from repro.mpiblast.scheduler import MasterScheduler, makespan, per_worker_busy
from repro.units import WorkUnit, WorkUnitRecord


def unit_rec(qid, shard, seconds):
    return WorkUnitRecord(
        unit=WorkUnit(query_id=qid, shard_index=shard, query_span=1000),
        measured_seconds=seconds,
    )


def schedule(scheduler, records):
    return scheduler.schedule(records, [r.measured_seconds for r in records])


class TestMasterScheduler:
    def test_all_units_assigned_once(self):
        records = [unit_rec("q", s, 1.0) for s in range(6)]
        out = schedule(MasterScheduler(num_workers=2), records)
        assert len(out) == 6
        ids = [a.record.unit.task_id for a in out]
        assert len(set(ids)) == 6

    def test_greedy_balances_uniform_load(self):
        records = [unit_rec("q", s, 1.0) for s in range(8)]
        out = schedule(MasterScheduler(num_workers=4), records)
        busy = per_worker_busy(out, 4)
        assert all(b == pytest.approx(2.0) for b in busy)

    def test_long_unit_dominates_makespan(self):
        """The paper's load-imbalance pathology: one giant unit holds the
        job hostage regardless of worker count."""
        records = [unit_rec("big", 0, 100.0)] + [unit_rec("small", s, 1.0) for s in range(1, 20)]
        out = schedule(MasterScheduler(num_workers=16), records)
        assert makespan(out) >= 100.0

    def test_shard_affinity_preferred(self):
        """A worker that loaded shard 0 picks pending shard-0 units first."""
        records = [
            unit_rec("q1", 0, 1.0),
            unit_rec("q2", 1, 1.0),
            unit_rec("q3", 0, 1.0),
            unit_rec("q4", 1, 1.0),
        ]
        out = schedule(MasterScheduler(num_workers=2, shard_load_seconds=10.0), records)
        loads = sum(1 for a in out if a.shard_load_seconds > 0)
        assert loads == 2  # each worker loads exactly one shard

    def test_shard_load_cost_applied_once(self):
        records = [unit_rec("q1", 0, 1.0), unit_rec("q2", 0, 1.0)]
        out = schedule(MasterScheduler(num_workers=1, shard_load_seconds=5.0), records)
        assert makespan(out) == pytest.approx(5.0 + 2.0)

    def test_deterministic(self):
        records = [unit_rec("q", s % 3, float(s % 4) + 0.5) for s in range(12)]
        a = schedule(MasterScheduler(num_workers=3), records)
        b = schedule(MasterScheduler(num_workers=3), records)
        assert [(x.record.unit.task_id, x.worker, x.start) for x in a] == [
            (x.record.unit.task_id, x.worker, x.start) for x in b
        ]

    def test_empty(self):
        assert schedule(MasterScheduler(num_workers=2), []) == []
        assert makespan([]) == 0.0

    def test_durations_must_match_records(self):
        with pytest.raises(ValueError, match="durations"):
            MasterScheduler(num_workers=1).schedule([unit_rec("q", 0, 1.0)], [])

    def test_validation(self):
        with pytest.raises(ValueError):
            MasterScheduler(num_workers=0)
        with pytest.raises(ValueError):
            MasterScheduler(num_workers=1, shard_load_seconds=-1)
