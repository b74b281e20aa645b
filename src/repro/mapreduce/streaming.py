"""Hadoop-streaming emulation: line-oriented map/reduce over text.

The paper's implementation runs ``blastall`` under *Hadoop streaming*, where
mappers and reducers exchange tab-separated ``key\\tvalue`` lines on
stdin/stdout. This module reproduces that contract so Orion can (optionally)
round-trip all intermediate data through text — exactly what the published
system did — while the default object-mode path skips the serialization.
Tests assert both modes produce identical final alignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Tuple, Union

from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import Executor, one_shot_executor
from repro.mapreduce.types import InputSplit, JobResult

#: A streaming mapper maps one input line to zero or more output lines, each
#: of the form ``key\tvalue``.
StreamingMapper = Callable[[str], Iterable[str]]
#: A streaming reducer consumes one key and its value strings.
StreamingReducer = Callable[[str, List[str]], Iterable[str]]


def _split_kv(line: str) -> Tuple[str, str]:
    """Split a streaming line at the first tab (Hadoop's convention)."""
    if "\t" in line:
        key, value = line.split("\t", 1)
        return key, value
    return line, ""


@dataclass(frozen=True)
class _LineMapper:
    """Adapt a streaming mapper to split-level map; picklable when the
    wrapped mapper is (a closure would pin the job to in-process executors)."""

    mapper: StreamingMapper

    def __call__(self, split: InputSplit) -> Iterator[Tuple[str, str]]:
        for line in split.payload:
            for out_line in self.mapper(line):
                yield _split_kv(out_line.rstrip("\n"))


@dataclass(frozen=True)
class _LineReducer:
    """Adapt a streaming reducer to the job reducer signature (picklable)."""

    reducer: StreamingReducer

    def __call__(self, key: str, values: List[str]) -> Iterator[str]:
        yield from self.reducer(key, values)


def run_streaming_job(
    input_lines: Iterable[str],
    mapper: StreamingMapper,
    reducer: StreamingReducer,
    num_reducers: int = 1,
    lines_per_split: int = 1,
    name: str = "streaming",
    executor: Union[str, Executor, None] = None,
) -> Tuple[List[str], JobResult]:
    """Run a streaming-style job over input lines.

    Lines are chunked into splits of ``lines_per_split``; map output lines
    are parsed as ``key\\tvalue`` and shuffled like any other job. Returns
    the reducer output lines (partition order) plus the usual
    :class:`JobResult` with task records. ``executor`` selects the backend
    (default serial); process execution requires the user mapper/reducer to
    be picklable, otherwise it falls back to serial with a warning. A
    worker pool built here from the name ``"processes"`` is shut down
    before returning.
    """
    if lines_per_split <= 0:
        raise ValueError(f"lines_per_split must be positive, got {lines_per_split}")
    # Only genuinely empty lines are dropped: Hadoop streaming delivers
    # whitespace-only lines (e.g. "  ") to the mapper as records, so
    # filtering on .strip() would silently change the record stream.
    lines = [ln for ln in input_lines if ln.strip("\r\n")]
    splits = [
        InputSplit(index=i, payload=lines[j : j + lines_per_split])
        for i, j in enumerate(range(0, len(lines), lines_per_split))
    ]

    job = MapReduceJob(
        mapper=_LineMapper(mapper),
        reducer=_LineReducer(reducer),
        num_reducers=num_reducers,
        name=name,
    )
    with one_shot_executor(executor) as runner:
        result = runner.run(job, splits)
    return result.flat_outputs(), result
