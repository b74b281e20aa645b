"""Shared fixtures: small deterministic databases/queries with ground truth.

Sizes are kept small enough that the whole suite runs in well under a
minute while still exercising fragment boundaries, merges and E-filtering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blast.engine import BlastEngine
from repro.blast.hsp import OP_DIAG, SeedHits, path_composition
from repro.blast.seeds import find_seeds, thin_seeds
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel
from repro.sequence.records import SequenceRecord


@pytest.fixture(scope="session")
def small_db():
    """20 sequences, ~100 kbp total — shared read-only database."""
    return make_database(seed=101, num_sequences=20, mean_length=5000)


@pytest.fixture(scope="session")
def query_with_truth(small_db):
    """A 60 kbp query with three planted homologies (and the ground truth)."""
    return make_query_with_homologies(
        seed=202,
        length=60_000,
        database=small_db,
        homologies=[
            HomologySpec(length=900, model=MutationModel.close_homolog()),
            HomologySpec(length=1500, model=MutationModel.close_homolog()),
            HomologySpec(length=700, model=MutationModel.distant_homolog()),
        ],
    )


@pytest.fixture(scope="session")
def engine():
    """One default-parameter engine (Karlin-Altschul params computed once)."""
    return BlastEngine()


@pytest.fixture(scope="session")
def serial_result(engine, query_with_truth, small_db):
    """Serial whole-database search — the oracle for equality tests."""
    query, _ = query_with_truth
    return engine.search(query, small_db)


def alignment_keys(alignments):
    """Canonical comparable identity of an alignment list."""
    return sorted(
        (a.subject_id, a.strand, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    )


def seeds_of(index, subject_codes, thin=True):
    """One subject's seed hits through the pooled :func:`find_seeds`."""
    found = find_seeds(index, [SequenceRecord("s", subject_codes)])
    hits = found[0][1] if found else SeedHits.empty(index.k)
    return thin_seeds(hits) if thin else hits


def score_path(path: np.ndarray, q_codes: np.ndarray, s_codes: np.ndarray,
               q_start: int, s_start: int, reward: int, penalty: int,
               gap_open: int, gap_extend: int) -> int:
    """Recompute the raw score of an alignment path from the sequences.

    Adjacent OP_QGAP and OP_SGAP runs are treated as separate gaps, matching
    the DP's affine model.
    """
    path = np.asarray(path, dtype=np.uint8)
    if path.size == 0:
        return 0
    matches, mismatches, _, _ = path_composition(path, q_codes, s_codes, q_start, s_start)
    score = matches * reward + mismatches * penalty
    # Gap runs: a run boundary is any transition into a gap op or between the
    # two gap kinds (a QGAP directly followed by an SGAP opens a second gap).
    is_gap = path != OP_DIAG
    if np.any(is_gap):
        gap_cols = int(np.count_nonzero(is_gap))
        new_run = np.empty(path.size, dtype=bool)
        new_run[0] = is_gap[0]
        new_run[1:] = is_gap[1:] & ((~is_gap[:-1]) | (path[1:] != path[:-1]))
        opens = int(np.count_nonzero(new_run))
        score -= opens * gap_open + gap_cols * gap_extend
    return int(score)
