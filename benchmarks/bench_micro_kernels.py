"""Microbenchmarks: the engine's vectorized kernels.

Not a paper artifact — these track the hot paths the HPC guide says to
profile (lookup join, ungapped scan, gapped DP row, Smith–Waterman) so
performance regressions in the kernels are visible independently of the
experiment harness. These run with real pytest-benchmark statistics
(multiple rounds), unlike the one-shot experiment benches.
"""

import numpy as np
import pytest

from repro.blast.engine import BlastEngine, SearchCounters
from repro.blast.gapped import extend_gapped
from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex, kmer_codes, sorted_kmers
from repro.blast.seeds import find_seeds, thin_seeds, two_hit_filter
from repro.blast.smith_waterman import smith_waterman_score
from repro.blast.ungapped import cull_contained, extend_seeds_ungapped
from repro.sequence.alphabet import random_bases
from repro.sequence.records import SequenceRecord
from repro.sketch import KmerSketch, containment
from repro.sketch.minhash import probe_hashes


@pytest.fixture(scope="module")
def seqs():
    rng = np.random.default_rng(42)
    query = random_bases(rng, 100_000)
    subject = np.concatenate([random_bases(rng, 50_000), query[20_000:40_000],
                              random_bases(rng, 50_000)])
    return query, subject


def test_kmer_packing(benchmark, seqs):
    query, _ = seqs
    packed, valid = benchmark(kmer_codes, query, 11)
    assert packed.size == query.size - 10


def test_query_index_build(benchmark, seqs):
    query, _ = seqs
    idx = benchmark(QueryIndex, query, 11)
    assert idx.num_words > 0


def raw_seeds(idx, subject):
    """One subject's unthinned hits."""
    return find_seeds(idx, [SequenceRecord("s", subject)])


def test_seed_lookup(benchmark, seqs):
    """One subject's k-mers packed on the fly and joined (no k-mer cache)."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = benchmark(raw_seeds, idx, subject)
    assert len(hits) > 0


def pooled_shard(subjects, k=11):
    records = [SequenceRecord(f"s{i}", codes) for i, codes in enumerate(subjects)]
    return records, {r.seq_id: sorted_kmers(r.codes, k) for r in records}


def many_short_subjects(seqs):
    """One map task of a many-short-subject shard: 125 ~500 bp subjects (a
    few of them homologous) and one 2.7 kbp fragment."""
    query, _ = seqs
    rng = np.random.default_rng(7)
    fragment = query[20_000:22_700]
    subjects = [random_bases(rng, int(n)) for n in rng.integers(250, 750, 125)]
    for i in (3, 60, 110):
        subjects[i] = np.concatenate([subjects[i], fragment[500 * (i % 4):][:200]])
    return fragment, subjects


def test_pooled_seeding_many_short_subjects(benchmark, seqs):
    """Seeding 125 pre-indexed ~500 bp subjects against one 2.7 kbp fragment."""
    fragment, subjects = many_short_subjects(seqs)
    records, cache = pooled_shard(subjects)
    idx = QueryIndex(fragment, 11)
    found = benchmark(find_seeds, idx, records, cache)
    assert {3, 60, 110} <= set(found.owner.tolist())


def test_pooled_seeding_one_long_subject(benchmark, seqs):
    """One map task of a one-subject shard: a 1.6 kbp fragment against a
    pre-indexed 120 kbp subject — the subject's k-mers are still the needles."""
    query, subject = seqs
    records, cache = pooled_shard([subject])
    idx = QueryIndex(query[20_000:21_600], 11)
    found = benchmark(find_seeds, idx, records, cache)
    assert len(found) > 0 and not found.owner.any()


def test_ungapped_extension(benchmark, seqs):
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = thin_seeds(raw_seeds(idx, subject))
    batch = benchmark(extend_seeds_ungapped, query, subject, hits, 1, -3, 20)
    assert len(batch) > 0


def test_pooled_ungapped_many_short_subjects(seqs):
    """Gate: the pooled ungapped pass (thin, extend and cull every subject's
    hits at once) must equal the per-subject oracle byte for byte and be
    ≥3× faster on one map task of 125 ~500 bp subjects.

    Best-of-N wall times, as in the gapped gate; both sides get the same
    raw hits, split per subject outside the timed region for the oracle.
    """
    import time

    from tests.conftest import ungapped_subject

    fragment, subjects = many_short_subjects(seqs)
    records, cache = pooled_shard(subjects)
    engine = BlastEngine()
    hits = find_seeds(QueryIndex(fragment, 11), records, cache)
    per_subject = []
    for o in np.unique(hits.owner).tolist():
        mine = hits.owner == o
        per_subject.append((o, SeedHits(hits.q_pos[mine], hits.s_pos[mine], hits.k)))

    def pooled():
        counters = SearchCounters()
        return engine._ungapped_pass(fragment, hits, records, counters), counters

    def oracle():
        counters = SearchCounters()
        batches = [
            (o, ungapped_subject(engine, fragment, own, records[o].codes, counters))
            for o, own in per_subject
        ]
        return batches, counters

    def best_of(run, rounds=7):
        best = float("inf")
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_pooled, (batch, c_pooled) = best_of(pooled)
    t_oracle, (batches, c_oracle) = best_of(oracle)
    assert c_pooled == c_oracle
    for field in ("q_start", "q_end", "s_start", "s_end", "score"):
        want = np.concatenate([getattr(b, field) for _, b in batches])
        assert getattr(batch, field).tobytes() == want.tobytes(), field
    owners = np.concatenate([np.full(len(b), o) for o, b in batches])
    assert batch.owner.tobytes() == owners.astype(np.int64).tobytes()
    ratio = t_oracle / t_pooled
    print(f"\nungapped pass, {len(per_subject)} subjects with hits: per-subject "
          f"{t_oracle*1e3:.2f}ms / pooled {t_pooled*1e3:.2f}ms = {ratio:.2f}x")
    assert ratio >= 3.0, f"pooled ungapped speedup {ratio:.2f}x below the 3x floor"


def test_thin_seeds(benchmark, seqs):
    """Phase-i diagonal thinning over the raw (unthinned) seed set."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    raw = raw_seeds(idx, subject)
    thinned = benchmark(thin_seeds, raw)
    assert 0 < len(thinned) <= len(raw)


def test_two_hit_filter(benchmark, seqs):
    """Two-hit seeding filter (window 40) over the raw seed set."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    raw = raw_seeds(idx, subject)
    kept = benchmark(two_hit_filter, raw, 40)
    assert len(kept) <= len(raw)


def test_cull_contained(benchmark, seqs):
    """Containment culling over the ungapped extension batch."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = thin_seeds(raw_seeds(idx, subject))
    batch = extend_seeds_ungapped(query, subject, hits, 1, -3, 20)
    culled = benchmark(cull_contained, batch)
    assert 0 < len(culled) <= len(batch)


def test_sketch_build(benchmark, seqs):
    """Bottom-k sketch construction from a sequence's 2-bit codes."""
    _, subject = seqs
    sketch = benchmark(KmerSketch.from_codes, subject, 11, 256)
    assert sketch.num_hashes == 256


def test_sketch_probe(benchmark, seqs):
    """Fragment-vs-sketch containment: hash the probe + one searchsorted."""
    query, subject = seqs
    fragment = query[20_000:25_000]
    sketch = KmerSketch.from_codes(subject, 11, 256)

    def probe():
        return containment(probe_hashes(fragment, 11), sketch)

    est = benchmark(probe)
    assert 0.0 <= est <= 1.0


def test_gapped_extension(benchmark, seqs):
    """Reference workload, production (wavefront) kernel."""
    query, subject = seqs
    ext = benchmark(
        extend_gapped, query, subject, 30_000, 60_000, 1, -3, 5, 2, 15
    )
    assert ext.score > 1000  # inside the planted 20 kbp identity


def test_gapped_extension_rowloop_oracle(benchmark, seqs):
    """Same workload on the row-loop reference oracle, for comparison."""
    from tests.conftest import extend_gapped_rowloop

    query, subject = seqs
    ext = benchmark(
        extend_gapped_rowloop, query, subject, 30_000, 60_000, 1, -3, 5, 2, 15
    )
    assert ext.score > 1000


def test_gapped_wavefront_speedup_ratio(seqs):
    """Gate: the wavefront kernel must be ≥3× the row-loop oracle.

    Uses best-of-N wall times (not pytest-benchmark) so the assert is robust
    to scheduler noise, and checks byte-identical results along the way.
    """
    import time

    from tests.conftest import extend_gapped_rowloop

    query, subject = seqs
    anchor = (30_000, 60_000)

    def best_of(extend, rounds=3):
        best = float("inf")
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = extend(query, subject, *anchor, 1, -3, 5, 2, 15)
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_wave, r_wave = best_of(extend_gapped)
    t_row, r_row = best_of(extend_gapped_rowloop)
    assert r_wave.score == r_row.score
    assert np.array_equal(r_wave.path, r_row.path)
    ratio = t_row / t_wave
    print(f"\ngapped extension: rowloop {t_row*1e3:.0f}ms / "
          f"wavefront {t_wave*1e3:.0f}ms = {ratio:.2f}x")
    assert ratio >= 3.0, f"wavefront speedup {ratio:.2f}x below the 3x floor"


def test_smith_waterman(benchmark):
    rng = np.random.default_rng(7)
    a = random_bases(rng, 600)
    b = np.concatenate([a[100:400], random_bases(rng, 300)])
    score = benchmark(smith_waterman_score, a, b, 1, -3, 5, 2)
    assert score >= 300
