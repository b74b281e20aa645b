"""The pooled pass after seeding against the per-subject oracle.

``BlastEngine.search`` thins, extends and culls every subject's hits in one
pass over a concatenation of the subjects' codes, keyed by each hit's owner.
The oracle (``tests/conftest.py``) seeds and carries each subject alone. The
databases here are built to tempt the pooled pass across subject edges:
neighbours whose concatenation continues one exact match, neighbours sharing
a local diagonal, subjects shorter than k, N runs and minus-strand copies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.engine import BlastEngine
from repro.blast.params import BlastParams, SearchOptions
from repro.sequence.alphabet import UNKNOWN_CODE, random_bases, reverse_complement
from repro.sequence.records import Database, SequenceRecord
from tests.blast.test_pooled_seeding import canonical, counts
from tests.conftest import reference_search

K = BlastParams().k


def boundary_pair(rng, query, a, m, p):
    """Two neighbours straddling one match of ``query[a : a + m + p]``.

    The first ends with ``query[a : a + m]``, so its last k bases seed; the
    second starts with ``query[a + m : a + m + p]``, so its base 0 seeds on
    the *concatenated* diagonal of the first's tail, and then repeats the
    first's tail at the same *local* diagonal (``p − a``).
    """
    first = np.concatenate([random_bases(rng, p), query[a : a + m]])
    second = np.concatenate(
        [query[a + m : a + m + p], query[a : a + m], random_bases(rng, int(rng.integers(0, 40)))]
    )
    return [first, second]


def make_database(rng, query, num_subjects):
    subjects = []
    while len(subjects) < num_subjects:
        kind = int(rng.integers(0, 6))
        if kind == 0:  # shorter than k: seeds nothing
            subjects.append(random_bases(rng, int(rng.integers(0, K))))
        elif kind == 1:  # unrelated
            subjects.append(random_bases(rng, int(rng.integers(K, 300))))
        elif kind == 2:  # a mutated copy with an N run inside it
            a = int(rng.integers(0, len(query) - 150))
            copy = query[a : a + 150].copy()
            copy[rng.integers(0, 150, 4)] = rng.integers(0, 4, 4)
            lo = int(rng.integers(20, 120))
            copy[lo : lo + int(rng.integers(1, 12))] = UNKNOWN_CODE
            subjects.append(np.concatenate([random_bases(rng, int(rng.integers(0, 60))), copy]))
        elif kind == 3:  # a minus-strand copy
            a = int(rng.integers(0, len(query) - 120))
            subjects.append(reverse_complement(query[a : a + 120]))
        elif kind == 4:  # the boundary pair
            p = int(rng.integers(K, 30))
            a = int(rng.integers(0, len(query) - 200))
            subjects += boundary_pair(rng, query, a, int(rng.integers(K, 120)), p)
        else:  # a duplicate of the previous subject
            subjects.append(subjects[-1].copy() if subjects else random_bases(rng, 50))
    return Database(
        [SequenceRecord(f"s{i}", codes) for i, codes in enumerate(subjects)], name="pooled"
    )


def assert_matches_oracle(engine, query, database, options, strands):
    # A shard's search scores in the whole database's space, as Orion's map
    # tasks do (and a shard of only sub-k subjects has no space of its own).
    space = engine.search_space(len(query), 2_000_000, 4_000)
    got = engine.search(query, database, options=options, stats_space=space, strands=strands)
    want_alignments, want_counters = reference_search(
        engine, query, database, options, strands, space
    )
    assert canonical(got.alignments) == canonical(want_alignments)
    assert counts(got.counters) == counts(want_counters)
    return got


class TestPooledPassAgainstOracle:
    @given(
        seed=st.integers(0, 2**16),
        num_subjects=st.integers(1, 10),
        strands=st.sampled_from(["plus", "both"]),
        two_hit=st.sampled_from([None, 40]),
        max_hsps=st.sampled_from([None, 1, 2]),
        boundary=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_alignments_and_counters_match(
        self, seed, num_subjects, strands, two_hit, max_hsps, boundary
    ):
        rng = np.random.default_rng(seed)
        query = SequenceRecord("q", random_bases(rng, int(rng.integers(300, 700))))
        database = make_database(rng, query.codes, num_subjects)
        engine = BlastEngine(BlastParams(two_hit_window=two_hit))
        options = SearchOptions(
            boundary_left=boundary,
            boundary_right=boundary,
            boundary_margin=60 if boundary else 0,
            speculative=boundary,
            max_hsps_per_subject=max_hsps,
        )
        assert_matches_oracle(engine, query, database, options, strands)

    def test_boundary_pair(self):
        """The literal edge case: a seed in the first subject's last k bases,
        one at base 0 of the next on the same concatenated diagonal, and the
        next repeating the first's hits on the same local diagonal."""
        rng = np.random.default_rng(35)
        query = SequenceRecord("q", random_bases(rng, 400))
        first, second = boundary_pair(rng, query.codes, a=100, m=60, p=20)
        database = Database(
            [SequenceRecord("a", first), SequenceRecord("b", second)], name="edge"
        )
        for two_hit in (None, 40):
            engine = BlastEngine(BlastParams(two_hit_window=two_hit))
            got = assert_matches_oracle(engine, query, database, SearchOptions(), "plus")
            assert {a.subject_id for a in got.alignments} == {"a", "b"}
            a_aln = next(a for a in got.alignments if a.subject_id == "a")
            assert a_aln.s_end <= len(first)  # never runs on into "b"
