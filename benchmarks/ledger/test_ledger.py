"""Checks of the ledger itself — ``pytest benchmarks/ledger -q``.

Outside the tier-1 ``testpaths``: the quick runs below take a few minutes.
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger.compare import compare, rows  # noqa: E402
from benchmarks.ledger.run import check_names, declaration, measure  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, Inputs  # noqa: E402

SEED = 2014
QUICK_SECONDS = 1.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics that must repeat exactly for a fixed seed.
EXACT = (
    "blast.lookup.index_builds",
    "blast.seeds.calls",
    "blast.seeds.hits",
    "blast.ungapped.extensions",
    "blast.ungapped.pass_ratio",
    "blast.gapped.extensions",
    "blast.gapped.speculative_extensions",
    "blast.gapped.reported_ratio",
    "blast.engine.subjects_scanned",
    "sketch.probes",
    "sketch.exact_survivor_ratio",
    "core.fragmenter.fragments",
    "core.orion.map_tasks",
    "core.orion.pruned_task_fraction",
    "core.aggregator.merged_pairs",
    "core.aggregator.dropped_partials",
    "mapreduce.runtime.task_attempts",
    "mapreduce.shm.plane_bytes",
)


@pytest.fixture(scope="module")
def spec():
    return declaration()


@pytest.fixture(scope="module")
def quick_gated(spec):
    return {w["name"]: measure(w["name"], SEED, QUICK_SECONDS, 0) for w in spec["workloads"]}


@pytest.fixture(scope="module")
def quick_traced(spec):
    return {
        w["name"]: [measure(w["name"], SEED, QUICK_SECONDS, 1) for _ in range(2)]
        for w in spec["workloads"]
    }


def ledger_from(reports):
    return {
        "workloads": {
            name: {
                "attempted": r["attempted"],
                "failed": r["failed"],
                "end_to_end": {
                    k: {"runs": [m["value"]]} for k, m in r["metrics"].items()
                },
            }
            for name, r in reports.items()
        }
    }


def test_declared_names_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_declared_workloads_are_the_coded_ones(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]
    assert Inputs(workload, 7).digest() == Inputs(workload, 7).digest()
    assert Inputs(workload, 7).digest() != Inputs(workload, 8).digest()


def test_gated_run_emits_exactly_the_declared_metrics(quick_gated):
    for name, report in quick_gated.items():
        check_names(report, 0)
        assert report["correct"] and report["failed"] == 0, (name, report["info"])
        assert all(m["value"] > 0 for m in report["metrics"].values()), name


def test_traced_run_emits_exactly_the_declared_metrics(quick_traced):
    for name, (first, _) in quick_traced.items():
        check_names(first, 1)
        assert first["correct"] and first["failed"] == 0, (name, first["info"])


def test_counters_repeat_exactly(quick_traced):
    for name, (first, second) in quick_traced.items():
        for key in EXACT:
            assert first["metrics"][key] == second["metrics"][key], (name, key)
        assert first["info"]["input_digest"] == second["info"]["input_digest"]


def test_compare_of_a_ledger_with_itself_is_all_ok(quick_gated, spec):
    ledger = ledger_from(quick_gated)
    assert compare(ledger, ledger, spec) == 0
    assert {row[-1] for row in rows(ledger, ledger, spec)} == {"ok"}


def synthetic(p50_runs, failed=0):
    return {
        "workloads": {
            "long_query": {
                "attempted": 100,
                "failed": failed,
                "end_to_end": {"query_wall_s_p50": {"runs": p50_runs}},
            }
        }
    }


def verdicts(a, b, spec):
    return {row[1]: row[-1] for row in rows(a, b, spec)}


def test_compare_flags_a_regression_and_a_new_failure(spec):
    base = synthetic([0.100, 0.101, 0.099])
    slower = synthetic([0.150, 0.151, 0.149])
    assert verdicts(base, slower, spec)["query_wall_s_p50"] == "regressed"
    assert compare(base, slower, spec) == 1
    assert verdicts(slower, base, spec)["query_wall_s_p50"] == "ok"
    failing = synthetic([0.100, 0.101, 0.099], failed=1)
    assert verdicts(base, failing, spec)["failed_fraction"] == "regressed"
    assert compare(base, failing, spec) == 1


def test_compare_reports_wide_interleaved_runs_as_unresolved(spec):
    a = synthetic([0.080, 0.100, 0.130, 0.160])
    b = synthetic([0.090, 0.120, 0.150, 0.200])
    assert verdicts(a, b, spec)["query_wall_s_p50"] == "unresolved"


def test_benchmark_json_is_valid_json_with_the_contract_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
