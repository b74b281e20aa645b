"""Ablations: isolate each Orion design choice the paper argues for.

Not paper artifacts — these quantify the *mechanisms*:

* speculative extension (Section III-B1): disabling it must lose
  boundary-crossing alignments (accuracy ablation);
* two-hit seeding: large cut in extension work, tiny sensitivity cost;
* map-side left-overlap drop (Section III-B1's optimization): less shuffle
  volume, identical results;
* scheduling policy: with Orion's uniform fine-grained units, plain FIFO is
  already near-optimal (LPT gains almost nothing) — the paper's load-balance
  claim restated as a scheduling fact.
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench.datasets import drosophila_like, human_query
from repro.blast.engine import BlastEngine
from repro.blast.params import BlastParams
from repro.cluster.simulator import simulate_phase
from repro.cluster.tasks import SimTask, unit_tasks
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch


@pytest.fixture(scope="module")
def workload():
    dataset = drosophila_like()
    query, truth = human_query(dataset, 30_000, seed=4242)
    serial = BlastEngine().search(query, dataset.database)
    return dataset, query, serial


def keyset(alignments):
    return sorted(
        (a.subject_id, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    )


def test_ablation_speculative_extension(benchmark, workload):
    """Speculation off -> alignments may be lost, never gained."""
    dataset, query, serial = workload

    def run():
        on = OrionSearch(database=dataset.database, num_shards=16,
                         fragment_length=1600).run(query)
        off = OrionSearch(database=dataset.database, num_shards=16,
                          fragment_length=1600, speculative=False).run(query)
        return on, off

    on, off = run_once(benchmark, run)
    assert keyset(on.alignments) == keyset(serial.alignments)
    assert set(keyset(off.alignments)) <= set(keyset(serial.alignments))
    benchmark.extra_info["alignments_with_speculation"] = len(on.alignments)
    benchmark.extra_info["alignments_without"] = len(off.alignments)


def test_ablation_two_hit_seeding(benchmark, workload):
    """Two-hit cuts ungapped-extension work substantially."""
    dataset, query, serial = workload

    def run():
        one = BlastEngine(BlastParams()).search(query, dataset.database)
        two = BlastEngine(BlastParams(two_hit_window=40)).search(query, dataset.database)
        return one, two

    one, two = run_once(benchmark, run)
    cut = 1 - two.counters.ungapped_extensions / one.counters.ungapped_extensions
    benchmark.extra_info["extension_work_cut"] = round(cut, 3)
    assert cut > 0.5, f"two-hit should cut >50% of extensions, cut {cut:.0%}"
    # sensitivity cost small: the strong alignments all survive
    strong_one = {k for k in keyset(one.alignments) if k[5] >= 50}
    strong_two = {k for k in keyset(two.alignments) if k[5] >= 50}
    assert strong_two == strong_one


def test_ablation_map_side_overlap_drop(benchmark, workload):
    """The Section III-B1 optimization: fewer shuffled records, same output."""
    dataset, query, serial = workload

    def run():
        with_drop = OrionSearch(database=dataset.database, num_shards=16,
                                fragment_length=1600).run(query)
        without = OrionSearch(database=dataset.database, num_shards=16,
                              fragment_length=1600,
                              drop_left_overlap=False).run(query)
        return with_drop, without

    with_drop, without = run_once(benchmark, run)
    assert keyset(with_drop.alignments) == keyset(without.alignments)
    shuffled_with = sum(r.alignments for r in with_drop.map_records)
    shuffled_without = sum(r.alignments for r in without.map_records)
    assert shuffled_with <= shuffled_without
    benchmark.extra_info["records_shuffled"] = shuffled_with
    benchmark.extra_info["records_without_drop"] = shuffled_without


def test_ablation_scheduling_policy(benchmark, workload):
    """Uniform fine-grained units make FIFO ~= LPT; coarse mpiBLAST-style
    units leave a real gap — load balance comes from granularity, not from
    scheduler cleverness."""
    dataset, query, serial = workload

    def run():
        return OrionSearch(
            database=dataset.database, num_shards=16, fragment_length=1600,
        ).run(query)

    orion = run_once(benchmark, run)
    cluster = ClusterSpec(nodes=4, cores_per_node=16)
    tasks = unit_tasks(orion.map_records, dataset.hardware)
    fifo = simulate_phase(tasks, cluster, policy="fifo").end_time
    lpt = simulate_phase(tasks, cluster, policy="lpt").end_time
    fine_gap = fifo / lpt
    benchmark.extra_info["orion_fifo_over_lpt"] = round(fine_gap, 3)
    assert fine_gap < 1.25, "fine-grained units: FIFO should be near LPT"

    # Coarse units (synthetic mpiBLAST-like mix, one giant + many small):
    coarse = [SimTask(task_id=f"c{i}", duration=d)
              for i, d in enumerate([500.0] + [5.0] * 63)]
    fifo_c = simulate_phase(coarse[::-1], cluster, policy="fifo").end_time
    lpt_c = simulate_phase(coarse[::-1], cluster, policy="lpt").end_time
    assert lpt_c <= fifo_c
