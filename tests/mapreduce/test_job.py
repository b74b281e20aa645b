"""Tests for MapReduce job definition and shuffle."""

import dataclasses

import pytest

from repro.mapreduce.job import MapReduceJob, group_by_key, shuffle
from repro.mapreduce.runtime import SerialExecutor
from repro.mapreduce.types import InputSplit


def word_mapper(split):
    for word in split.payload:
        yield word, 1


def count_reducer(key, values):
    return sum(values)


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
    def test_callables_required(self):
        with pytest.raises(TypeError):
            MapReduceJob(mapper="not-callable", reducer=count_reducer)

    def test_job_is_mapper_reducer_and_name(self):
        assert [f.name for f in dataclasses.fields(MapReduceJob)] == [
            "mapper", "reducer", "name"
        ]


class TestShuffle:
    def test_values_keep_map_task_order(self):
        groups = shuffle([[("k", "t0a"), ("k", "t0b")], [("k", "t1")], [("k", "t2")]])
        assert groups == [("k", ["t0a", "t0b", "t1", "t2"])]

    def test_one_sorted_group_list_over_all_tasks(self):
        groups = shuffle([[("z", 1), ("a", 2)], [("m", 3), ("a", 4)]])
        assert groups == [("a", [2, 4]), ("m", [3]), ("z", [1])]

    def test_no_output_gives_no_groups(self):
        assert shuffle([]) == []
        assert shuffle([[], []]) == []


class TestReduceTask:
    def test_runs_reducer_per_key(self):
        job = MapReduceJob(mapper=word_mapper, reducer=count_reducer)
        splits = [InputSplit(index=0, payload=["a", "b"]), InputSplit(index=1, payload=["a"])]
        result = SerialExecutor().run(job, splits)
        assert result.outputs == [("a", 2), ("b", 1)]
