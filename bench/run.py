"""Benchmark of isoselect: seeded workloads, each run in a fresh process by a
single client in a closed loop (one request at a time).

Run from the repository root; isoselect is imported from ``src/``::

    python3 bench/run.py --workload protein-topk --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each
    python3 bench/run.py --workload all --record bench/baseline.json

A run prints every metric by name with its unit, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run (see ``measure.py`` and ``tracing.py``).
``--record`` runs both for every workload and writes them to a JSON file with
the machine facts they depend on.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# numpy and its BLAS get one thread each, in this process and its children
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 6  # fresh processes timing set-up, besides the run's own
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import isoselect
loaded = time.perf_counter()
isoselect.load_default()
print(loaded - start, time.perf_counter() - loaded)
"""
RUN_TIMEOUT = 900
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h
MMAP_THRESHOLD = 32 << 20  # the most glibc's dynamic threshold ever reaches


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH", type=Path,
                        help="with --workload all: write trace 0 and 1 results here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoselect" / "__init__.py").is_file():
        print(f"error: isoselect sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.workload == "all":
        return run_all(args)
    if not pin_mmap_threshold():
        print("note: could not pin the malloc mmap threshold; peak_rss_mb will "
              "depend on request order", file=sys.stderr)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import isoselect

    imported = time.perf_counter()
    table = isoselect.load_default()
    setup = [(imported - start, time.perf_counter() - imported)]
    if not Path(isoselect.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported isoselect from {isoselect.__file__}", file=sys.stderr)
        return 2
    setup += [_probe_setup() for _ in range(SETUP_PROBES)]

    from measure import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, table, setup)
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':28s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    print(json.dumps(result), flush=True)
    return 0


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its dynamic maximum.

    By default the threshold rises each time a large mmapped block is freed,
    after which arrays below it come from the heap and may stay resident.
    Peak RSS then depends on which requests ran before the largest one, and
    so on the seeded order. Fixed at 32 MiB, arrays of that size or more
    always go back to the system when freed, and requests run about as fast
    as under the default once it has risen.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def _probe_setup() -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    import_s, load_s = map(float, out.stdout.split())
    return import_s, load_s


def run_all(args) -> int:
    """Every workload in its own fresh process; prints a summary table."""
    traces = (0, 1) if args.record else (args.trace,)
    results = {}
    for trace in traces:
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT)
            sys.stdout.write(out.stdout)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(
                out.stdout.strip().splitlines()[-1]
            )
    print(f"\n{'workload':18s} {'metric':28s} value")
    for name, by_trace in results.items():
        for result in by_trace.values():
            for key, metric in result["metrics"].items():
                print(f"{name:18s} {key:28s} {metric['value']:.6g} {metric['unit']}")
            print(f"{name:18s} {'error_rate':28s} "
                  f"{result['failed'] / result['attempted']:.6g}")
    if args.record:
        import numpy

        record = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "platform": platform.platform(),
                "thread_pinning": dict.fromkeys(THREAD_VARS, "1"),
                "malloc_mmap_threshold": MMAP_THRESHOLD,
            },
            "command": ["python3", "bench/run.py", "--workload", "<name>",
                        "--seed", str(args.seed), "--seconds", str(args.seconds)],
            "results": results,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
