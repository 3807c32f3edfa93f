"""One benchmark run of one workload: a single client in a closed loop.

The workload's round of requests runs once untimed, to warm up and to check
every output in full. Then the round is replayed, one request at a time, until
the run's time is up; each replayed result must match the checked one. With
tracing on, untraced and traced replays alternate, and the traced ones give
the per-layer metrics. Last, each result's digest is compared with the one
recorded from the baseline commit or, for a seed not recorded, with the same
request computed another way; this comes after ``peak_rss_mb`` is read, so
its memory does not count.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path

from harness import (
    check,
    cross_digest,
    execute,
    replay_key,
    request_key,
    same_digest,
    same_replay,
)
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peaks_per_s": "peaks/s",
    "peak_rss_mb": "MB",
}
# times and counts are per pass of the workload's round of requests
PER_LAYER = {
    "import_s": "s",
    "isotopes.load_s": "s",
    "multinomial.self_s": "s",
    "multinomial.peaks": "count",
    "multinomial.layers": "count",
    "multinomial.us_per_peak": "us",
    "pairwise.self_s": "s",
    "pairwise.top_self_s": "s",
    "pairwise.materialized": "count",
    "pairwise.emitted": "count",
    "pairwise.useful_ratio": "ratio",
    "pairwise.child_pulls": "count",
    "pairwise.resident": "count",
    "pairwise.resident_per_peak": "ratio",
    "tree.build_s": "s",
    "tree.select_self_s": "s",
    "tree.root_layers": "count",
    "tree.overshoot": "ratio",
    "cli.run_s": "s",
    "cli.select_s": "s",
    "cli.output_s": "s",
    "cli.rows": "count",
    "cli.us_per_row": "us",
    "trace.overhead": "ratio",
}


class _Pass:
    def __init__(self):
        self.latencies: dict[int, float] = {}  # request index -> seconds
        self.peaks = 0
        self.stats: list = []
        self.select_s = 0.0

    @property
    def seconds(self):
        return sum(self.latencies.values())


def run_workload(name, seed, seconds, trace, table, setup) -> dict:
    """Measure one workload; ``setup`` holds (import_s, load_s) samples."""
    requests = WORKLOADS[name].make(seed)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"export-{os.getpid()}.tsv"
    try:
        return _run(name, seed, seconds, trace, table, setup, requests, out_path)
    finally:
        out_path.unlink(missing_ok=True)


def _run(name, seed, seconds, trace, table, setup, requests, out_path):
    runs = [0] * len(requests)  # executions of each request
    bad = [0] * len(requests)  # failed executions of each request
    checked = {}  # index -> (replay key, digest) of a result that passed

    def fail(i, problems):
        for problem in problems:
            print(f"FAILED {requests[i]}: {problem}", flush=True)
        bad[i] += 1

    for i, request in enumerate(requests):
        runs[i] += 1
        try:
            outcome = execute(request, table, out_path=out_path)
            problems, dig = check(request, outcome, table)
        except Exception as exc:  # counted as a failed request; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            fail(i, problems)
        else:
            checked[i] = (replay_key(outcome), dig)
        outcome = None  # see replay()

    def attempt(i, tracer):
        runs[i] += 1
        try:
            outcome = execute(requests[i], table, tracer, out_path)
        except Exception as exc:
            fail(i, [f"{type(exc).__name__}: {exc}"])
            return None
        if i not in checked:
            fail(i, [])
        elif not same_replay(checked[i][0], replay_key(outcome)):
            fail(i, ["replay differs from the checked result"])
        return outcome

    # Each request starts with no garbage left by the ones before it, and the
    # collector skips the objects the benchmark itself keeps.
    gc.collect()
    gc.freeze()

    def replay(tracer=None):
        done = _Pass()
        for i in range(len(requests)):
            gc.collect()
            outcome = attempt(i, tracer)
            if outcome is None:
                continue
            done.latencies[i] = outcome.seconds
            done.peaks += outcome.peaks
            if tracer is not None:
                done.stats.extend(outcome.stats)
                done.select_s += outcome.select_s
            outcome = None  # so the next request does not run beside this one's arrays
        return done

    tracer = Tracer() if trace else None
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(replay())
        if tracer is not None:
            first = len(tracer)
            traced.append(replay(tracer))
            layers.append(layer_metrics(tracer, first, traced[-1].stats,
                                        traced[-1].peaks, traced[-1].select_s))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name} seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(requests)} requests in {time.perf_counter() - start:.1f} s")

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for i, (_, dig) in checked.items():
        want = recorded.get(request_key(requests[i])) or cross_digest(requests[i], table)
        if not same_digest(dig, tuple(want)):
            fail(i, [f"digest {dig} differs from {tuple(want)}"])
            bad[i] = runs[i]

    import_s = [s[0] for s in setup]
    load_s = [s[1] for s in setup]
    if tracer is not None:
        tracer.save(OUT / f"spans-{name}.npz")
        metrics = {
            key: statistics.median_low(layer[key] for layer in layers)
            for key in layers[0]
        }
        metrics["import_s"] = statistics.median(import_s)
        metrics["isotopes.load_s"] = statistics.median(load_s)
        metrics["trace.overhead"] = statistics.median(p.seconds for p in traced) / (
            statistics.median(p.seconds for p in untraced)
        )
        units = PER_LAYER
    else:
        # a request's latency is its median over the passes, which keeps a
        # pass slowed by something else on the machine out of the figures
        latencies = [
            statistics.median(p.latencies[i] for p in untraced if i in p.latencies)
            for i in range(len(requests))
            if any(i in p.latencies for p in untraced)
        ]
        metrics = {
            "setup_s": statistics.median(a + b for a, b in setup),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
            "peaks_per_s": statistics.median(p.peaks / p.seconds for p in untraced),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
    return {
        "correct": sum(bad) == 0,
        "attempted": sum(runs),
        "failed": sum(bad),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
