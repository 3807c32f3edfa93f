"""Tests of the benchmark itself. Run from the repository root with
``python -m pytest bench/tests``."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from harness import check, cross_digest, digest, execute, same_digest
from isoselect import load_default
from measure import END_TO_END, OUT, PER_LAYER
from tracing import SELECT, Tracer, layer_metrics, self_times
from workloads import MAJOR, MINOR, WORKLOADS, Request

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def table():
    return load_default()


def smallest(requests, n=3):
    return sorted(requests, key=lambda r: (r.value, len(r.formula)))[:n]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    make = WORKLOADS[name].make
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert len(make(7)) == MAJOR * MINOR
    # the strata are the same for every seed; only the molecules and order move
    assert sorted(r.value for r in make(7)) == sorted(r.value for r in make(8))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_return_identical_peaks(name, table, tmp_path):
    for request in smallest(WORKLOADS[name].make(0)):
        plain = execute(request, table, out_path=tmp_path / "out.tsv")
        traced = execute(request, table, Tracer(), tmp_path / "out.tsv")
        if request.via == "cli":
            assert plain.output == traced.output
        else:
            assert sorted(zip(plain.logp, plain.mass)) == sorted(zip(traced.logp, traced.mass))


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_add_up_to_select_time(name, table, tmp_path):
    tracer = Tracer()
    stats = []
    for request in smallest(WORKLOADS[name].make(0), 2):
        stats.extend(execute(request, table, tracer, tmp_path / "out.tsv").stats)
    spans = tracer.arrays()
    own = self_times(spans)
    duration = spans["end"] - spans["start"]
    # the select span a span belongs to: follow parents up to it
    select_id = tracer.names.index(SELECT)
    top = np.arange(len(tracer))
    while True:
        up = spans["parent"][top]
        step = (up >= 0) & (spans["name_id"][top] != select_id)
        if not step.any():
            break
        top = np.where(step, up, top)
    resolution = 1e-9 * len(tracer)
    selects = np.flatnonzero(spans["name_id"] == select_id)
    assert selects.size == 2
    for s in selects:
        assert abs(own[top == s].sum() - duration[s]) <= resolution
    metrics = layer_metrics(tracer, 0, stats, 1, 0.0)
    assert set(metrics) | {"import_s", "isotopes.load_s", "trace.overhead"} == set(PER_LAYER)


def test_layer_metrics_of_a_later_pass(table, tmp_path):
    first, second = smallest(WORKLOADS["protein-topk"].make(0), 2)
    both, alone = Tracer(), Tracer()
    execute(first, table, both)
    start = len(both)
    late = execute(second, table, both)
    solo = execute(second, table, alone)
    counts = ("tree.root_layers", "tree.overshoot", "pairwise.emitted", "multinomial.peaks")
    a = layer_metrics(both, start, late.stats, late.peaks, 0.0)
    b = layer_metrics(alone, 0, solo.stats, solo.peaks, 0.0)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["pairwise.top_self_s"] > 0


def test_checks_catch_wrong_results(table):
    request = Request("C100H200", "k", 50, 1.05)
    good = execute(request, table)
    assert check(request, good, table)[0] == []
    short = replace(good, logp=good.logp[:-1])
    assert "49 peaks returned, expected 50" in check(request, short, table)[0]
    moved = replace(good, logp=good.logp - 1e-6)
    assert "logp differs from the oracle's" in check(request, moved, table)[0]
    positive = replace(good, logp=np.append(good.logp[:-1], 0.5))
    assert "a logp is not finite or is above 0" in check(request, positive, table)[0]

    request = Request("C100H200", "p", 0.9, 1.05)
    good = execute(request, table)
    assert check(request, good, table)[0] == []
    order = np.argsort(good.logp)
    dropped = replace(good, logp=good.logp[order[1:]])
    assert any("below p" in p for p in check(request, dropped, table)[0])
    extra = replace(good, logp=np.append(good.logp, good.logp.min()))
    assert any("without its least probable" in p for p in check(request, extra, table)[0])


def test_cross_digest_agrees_with_the_request(table):
    for name in WORKLOADS:
        request = smallest(WORKLOADS[name].make(0), 1)[0]
        lib = replace(request, via="lib")
        assert same_digest(digest(execute(lib, table).logp), cross_digest(request, table))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported(trace, section):
    out = run_bench(BENCH.parent, "--workload", "protein-topk", "--seed", "3",
                    "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    printed = {line.split()[0]: line.split() for line in out.stdout.splitlines()[:-1]}
    for name, metric in result["metrics"].items():
        assert printed[name][-1] == metric["unit"]
    assert "error_rate" in printed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(OUT.name))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "protein-topk", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
