"""Tests for fragment-length calibration (Section III-D / Fig. 11)."""

import pytest

from repro.cluster.hardware import HardwareModel
from repro.cluster.topology import ClusterSpec
from repro.core.calibrate import calibrate_fragment_length, default_sweep_lengths
from repro.core.orion import OrionSearch


class TestDefaultSweepLengths:
    def test_geometric_and_bounded(self):
        lengths = default_sweep_lengths(100_000, overlap=32, count=6)
        assert lengths == sorted(lengths)
        assert lengths[0] >= 1000
        assert lengths[-1] <= 100_000
        assert all(l > 32 for l in lengths)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            default_sweep_lengths(1000, 16, count=1)


class TestCalibration:
    def test_sweep_replays_each_length(self, small_db, query_with_truth):
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4)
        cluster = ClusterSpec(nodes=2, cores_per_node=4)
        calib = calibrate_fragment_length(
            orion, query, cluster, HardwareModel(), fragment_lengths=[8000, 20_000, 60_000]
        )
        assert len(calib.points) == 3
        assert calib.best_fragment_length in {8000, 20_000, 60_000}
        assert all(p.makespan_seconds > 0 for p in calib.points)
        assert calib.cluster_slots == 8

    def test_calibration_leaves_live_planning_unchanged(self, small_db, query_with_truth):
        """Regression: calibration used to memoize its sweet spot in a
        process-global cache that prepare() read, silently changing the
        fragments of every later search of that database."""
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4)
        before = orion.prepare(query).fragment_length
        calib = calibrate_fragment_length(
            orion, query, ClusterSpec(nodes=1, cores_per_node=4), HardwareModel(),
            fragment_lengths=[7000, 20_000],
        )
        assert calib.best_fragment_length != before
        assert orion.prepare(query).fragment_length == before
        fresh = OrionSearch(database=small_db, num_shards=4)
        assert fresh.prepare(query).fragment_length == before
        # reusing the sweet spot is the caller's explicit choice
        tuned = fresh.run(query, fragment_length=calib.best_fragment_length)
        assert tuned.fragment_length == calib.best_fragment_length

    def test_empty_sweep_rejected(self, small_db, query_with_truth):
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4)
        with pytest.raises(ValueError):
            calibrate_fragment_length(
                orion, query, ClusterSpec(nodes=1), HardwareModel(), fragment_lengths=[]
            )

    def test_points_record_parallelism_tradeoff(self, small_db, query_with_truth):
        """Shorter fragments -> more work units (the Fig. 11 x-axis)."""
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4)
        calib = calibrate_fragment_length(
            orion, query, ClusterSpec(nodes=1, cores_per_node=4), HardwareModel(),
            fragment_lengths=[8000, 30_000],
        )
        units = {p.fragment_length: p.num_work_units for p in calib.points}
        assert units[8000] > units[30_000]
