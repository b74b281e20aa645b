"""Race-sanitizer tests: planted mutations are caught, honest jobs are silent."""

import pytest

from repro.analysis.sanitizer import (
    SanitizerExecutor,
    SharedStateMutationError,
    fingerprint,
)
from repro.core.orion import OrionSearch
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, resolve_executor
from repro.mapreduce.types import InputSplit
from tests.conftest import alignment_keys


# -- module-level task callables (honest and deliberately broken) --------- #


def pure_mapper(split):
    yield split.index % 2, split.payload


def pure_reducer(key, values):
    return sorted(values)


class LeakyMapper:
    """The ORL002 bug shape at runtime: accumulates state across tasks."""

    def __init__(self):
        self.seen = []

    def __call__(self, split):
        self.seen.append(split.index)
        yield split.index % 2, split.payload


class LeakyReducer:
    """Counts the keys it has seen: state carried from one key to the next."""

    def __init__(self):
        self.keys = 0

    def __call__(self, key, values):
        self.keys += 1
        return sorted(values)


def payload_mutating_mapper(split):
    split.payload.append(99)
    yield split.index, len(split.payload)


def splits(n=4):
    return [InputSplit(index=i, payload=i * 10) for i in range(n)]


# ------------------------------------------------------------------------- #


class TestFingerprint:
    def test_equal_objects_equal_digests(self):
        assert fingerprint({"a": [1, 2]}) == fingerprint({"a": [1, 2]})

    def test_mutation_changes_digest(self):
        obj = {"a": [1, 2]}
        before = fingerprint(obj)
        obj["a"].append(3)
        assert fingerprint(obj) != before

    def test_unpicklable_falls_back_to_structure(self):
        captured = []

        def closure():
            return captured

        before = fingerprint(closure)
        captured.append(1)
        assert fingerprint(closure) != before


class TestSanitizerExecutor:
    def test_clean_job_is_silent_and_matches_serial(self):
        job = MapReduceJob(mapper=pure_mapper, reducer=pure_reducer)
        sanitizer = SanitizerExecutor(on_mutation="raise")
        result = sanitizer.run(job, splits())
        assert sanitizer.reports == []
        serial = SerialExecutor().run(job, splits())
        assert result.outputs == serial.outputs
        assert all(r.executor == "sanitizer" for r in result.records)

    def test_leaky_mapper_detected(self):
        job = MapReduceJob(mapper=LeakyMapper(), reducer=pure_reducer, name="leaky")
        sanitizer = SanitizerExecutor(on_mutation="record")
        sanitizer.run(job, splits())
        assert sanitizer.reports
        first = sanitizer.reports[0]
        assert first.component == "mapper"
        assert first.task_id == "leaky/map/00000"

    def test_leaky_reducer_detected_per_key(self):
        job = MapReduceJob(mapper=pure_mapper, reducer=LeakyReducer(), name="leaky")
        sanitizer = SanitizerExecutor(on_mutation="record")
        result = sanitizer.run(job, splits())
        assert [key for key, _ in result.outputs] == [0, 1]
        assert [(m.task_id, m.component) for m in sanitizer.reports] == [
            ("leaky/reduce/00000", "reducer"),
            ("leaky/reduce/00001", "reducer"),
        ]

    def test_raise_mode(self):
        job = MapReduceJob(mapper=LeakyMapper(), reducer=pure_reducer)
        with pytest.raises(SharedStateMutationError) as excinfo:
            SanitizerExecutor(on_mutation="raise").run(job, splits())
        assert excinfo.value.mutations

    def test_warn_mode(self):
        job = MapReduceJob(mapper=LeakyMapper(), reducer=pure_reducer)
        sanitizer = SanitizerExecutor(on_mutation="warn")
        with pytest.warns(RuntimeWarning, match="mutated shared state"):
            sanitizer.run(job, splits())

    def test_payload_mutation_detected(self):
        job = MapReduceJob(mapper=payload_mutating_mapper, reducer=pure_reducer)
        sanitizer = SanitizerExecutor(on_mutation="record")
        sanitizer.run(job, [InputSplit(index=i, payload=[i]) for i in range(3)])
        assert any(m.component.startswith("split[") for m in sanitizer.reports)

    def test_payload_check_can_be_disabled(self):
        job = MapReduceJob(mapper=payload_mutating_mapper, reducer=pure_reducer)
        sanitizer = SanitizerExecutor(on_mutation="record", check_payloads=False)
        sanitizer.run(job, [InputSplit(index=i, payload=[i]) for i in range(3)])
        assert sanitizer.reports == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_mutation"):
            SanitizerExecutor(on_mutation="explode")

    def test_resolve_executor_spec(self):
        """The sanitizer is passed as an instance (``search --sanitize``
        builds one); it is not an executor name."""
        executor = SanitizerExecutor()
        assert resolve_executor(executor) is executor
        assert executor.kind == "sanitizer"
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("sanitizer")


class TestOrionUnderSanitizer:
    def test_real_job_is_silent_and_bit_identical(self, small_db, query_with_truth):
        """Acceptance: the sanitizer must not fire on the real Orion job and
        must leave results identical to the serial executor's."""
        query, _ = query_with_truth
        sanitizer = SanitizerExecutor(on_mutation="raise")
        sanitized = OrionSearch(
            database=small_db,
            num_shards=4,
            fragment_length=12_000,
            executor=sanitizer,
        ).run(query)
        assert sanitizer.reports == []
        serial = OrionSearch(
            database=small_db, num_shards=4, fragment_length=12_000
        ).run(query)
        assert alignment_keys(sanitized.alignments) == alignment_keys(
            serial.alignments
        )
