"""Tests for MapReduce job definition and shuffle."""

import pytest

from repro.mapreduce.job import MapReduceJob, group_by_key


def word_mapper(split):
    for word in split.payload:
        yield word, 1


def count_reducer(key, values):
    yield key, sum(values)


class TestGroupByKey:
    def test_groups_and_sorts_keys(self):
        groups = group_by_key([("b", 1), ("a", 2), ("b", 3)])
        assert groups == [("a", [2]), ("b", [1, 3])]

    def test_value_order_preserved(self):
        groups = group_by_key([("k", 3), ("k", 1), ("k", 2)])
        assert groups[0][1] == [3, 1, 2]

    def test_empty(self):
        assert group_by_key([]) == []


class TestJobValidation:
    def test_reducer_count_positive(self):
        with pytest.raises(ValueError):
            MapReduceJob(mapper=word_mapper, reducer=count_reducer, num_reducers=0)

    def test_callables_required(self):
        with pytest.raises(TypeError):
            MapReduceJob(mapper="not-callable", reducer=count_reducer)


class TestShuffle:
    def _job(self, n_red=3):
        return MapReduceJob(mapper=word_mapper, reducer=count_reducer, num_reducers=n_red)

    def test_partition_disjoint_and_complete(self):
        job = self._job()
        outputs = [[("a", 1), ("b", 1)], [("c", 1), ("a", 1)]]
        partitions = job.shuffle(outputs)
        seen = {}
        for part in partitions:
            for key, values in part:
                assert key not in seen
                seen[key] = values
        assert set(seen) == {"a", "b", "c"}
        assert seen["a"] == [1, 1]

    def test_same_key_same_partition(self):
        job = self._job()
        p1 = job.shuffle([[("x", 1)]])
        p2 = job.shuffle([[("x", 2)]])
        idx1 = next(i for i, part in enumerate(p1) if part)
        idx2 = next(i for i, part in enumerate(p2) if part)
        assert idx1 == idx2

    def test_bad_partitioner_rejected(self):
        job = MapReduceJob(
            mapper=word_mapper,
            reducer=count_reducer,
            num_reducers=2,
            partitioner=lambda k, n: 7,
        )
        with pytest.raises(ValueError, match="partitioner returned"):
            job.shuffle([[("a", 1)]])


    def test_values_keep_map_task_order(self):
        job = self._job(n_red=1)
        partitions = job.shuffle([[("k", "t0a"), ("k", "t0b")], [("k", "t1")], [("k", "t2")]])
        assert partitions == [[("k", ["t0a", "t0b", "t1", "t2"])]]

    def test_keys_sorted_within_each_partition(self):
        job = self._job(n_red=2)
        partitions = job.shuffle([[(k, 1) for k in "zyxwvutsr"]])
        for part in partitions:
            keys = [key for key, _ in part]
            assert keys == sorted(keys)

    def test_no_output_gives_empty_partitions(self):
        assert self._job(n_red=3).shuffle([]) == [[], [], []]
        assert self._job(n_red=2).shuffle([[], []]) == [[], []]


class TestReduceTask:
    def test_runs_reducer_per_key(self):
        job = MapReduceJob(mapper=word_mapper, reducer=count_reducer)
        out = job.run_reduce_task([("a", [1, 1]), ("b", [1])])
        assert out == [("a", 2), ("b", 1)]
