"""One request against isoselect, and the checks on what it returned."""

from __future__ import annotations

import hashlib
import io
import math
import re
import time
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass
from unittest import mock

import numpy as np

from isoselect import (
    Composition,
    build_tree,
    cli,
    isotopologue_count,
    parse_formula,
    select_top_k,
    select_until_cumulative,
    top_k_reference,
    tree_stats,
)
from tracing import BUILD, CLI, SELECT

REL_TOL = 1e-9  # digests: cumulative probability and min/max logp
ORACLE_LIMIT = 10**6  # requests this small are compared with the oracle
P_TOL = 1e-12  # rounding allowance when summing probabilities to test p
_SELECTION_TIME = re.compile(r"selection time: (\S+) s")
_HEADER = b"mass\tlog_prob\tprob"


@dataclass
class Outcome:
    seconds: float  # wall time of the request itself
    peaks: int
    mass: np.ndarray | None = None  # library requests
    logp: np.ndarray | None = None
    output: bytes | None = None  # CLI requests: the file written
    stats: list | None = None  # tree_stats rows of each tree built, traced only
    select_s: float = 0.0  # CLI requests: selection time from --time


def _no_span(name):
    return nullcontext()


def execute(request, table, tracer=None, out_path=None) -> Outcome:
    """Run one request; with a tracer, record spans and tree_stats."""
    if tracer is not None:
        tracer.request_id += 1
    if request.via == "cli":
        return _execute_cli(request, tracer, out_path)
    span = tracer.span if tracer is not None else _no_span
    start = time.perf_counter()
    comp = parse_formula(request.formula)
    with span(BUILD):
        root = build_tree(comp, table, request.alpha)
    if tracer is not None:
        tracer.wrap_tree(root)
    with span(SELECT):
        selection = _select(root, request)
    seconds = time.perf_counter() - start
    stats = [tree_stats(root)] if tracer is not None else None
    return Outcome(seconds, len(selection), selection.mass, selection.logp, stats=stats)


def _select(root, request):
    if request.mode == "k":
        return select_top_k(root, int(request.value))
    return select_until_cumulative(root, request.value)


def _execute_cli(request, tracer, out_path) -> Outcome:
    # the sorted-export call: a fully sorted peak list written to a file
    argv = [
        "--formula", request.formula, f"--{request.mode}", repr(request.value),
        "--alpha", repr(request.alpha), "--sorted", "--output", str(out_path), "--time",
    ]
    stderr = io.StringIO()
    roots = []
    patches = nullcontext()
    if tracer is not None:
        def traced_build(*args, **kwargs):
            with tracer.span(BUILD):
                root = build_tree(*args, **kwargs)
            tracer.wrap_tree(root)
            roots.append(root)
            return root

        def traced(select):
            def call(*args, **kwargs):
                with tracer.span(SELECT):
                    return select(*args, **kwargs)
            return call

        patches = mock.patch.multiple(
            cli,
            build_tree=traced_build,
            select_top_k=traced(select_top_k),
            select_until_cumulative=traced(select_until_cumulative),
        )
    span = tracer.span if tracer is not None else _no_span
    with patches, redirect_stderr(stderr):
        start = time.perf_counter()
        with span(CLI):
            code = cli.run(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"isoselect exited with {code}: {stderr.getvalue().strip()}")
    select_s = float(_SELECTION_TIME.search(stderr.getvalue()).group(1))
    output = out_path.read_bytes()
    # a fresh file each time: on ext4, truncating a just-written file flushes
    # it to disk, which would time the disk rather than isoselect
    out_path.unlink()
    stats = [tree_stats(root) for root in roots] if tracer is not None else None
    return Outcome(seconds, output.count(b"\n") - 1, output=output, stats=stats,
                   select_s=select_s)


# -- checks -----------------------------------------------------------------


def digest(logp: np.ndarray) -> tuple:
    """(count, cumulative probability, min logp, max logp)."""
    return (int(logp.size), float(np.exp(logp).sum()), float(logp.min()), float(logp.max()))


def same_digest(a, b) -> bool:
    return a[0] == b[0] and all(
        math.isclose(x, y, rel_tol=REL_TOL) for x, y in zip(a[1:], b[1:])
    )


def replay_key(outcome: Outcome):
    """What a replay of a checked request must reproduce."""
    if outcome.output is not None:
        return hashlib.blake2b(outcome.output).digest()
    return digest(outcome.logp)


def same_replay(a, b) -> bool:
    return a == b if isinstance(a, bytes) else same_digest(a, b)


def _logp_of_output(data: bytes) -> np.ndarray:
    if not data.startswith(_HEADER + b"\n"):
        raise ValueError("missing header line")
    rows = np.loadtxt(io.BytesIO(data), delimiter="\t", skiprows=1, ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError(f"expected 3 columns, got {rows.shape[1]}")
    return rows[:, 1]


def check(request, outcome: Outcome, table) -> tuple[list[str], tuple | None]:
    """Problems with a request's result, and the result's digest."""
    problems = []
    logp = outcome.logp
    if outcome.output is not None:
        try:
            logp = _logp_of_output(outcome.output)
        except ValueError as exc:
            return [f"unreadable output: {exc}"], None
        if np.any(np.diff(logp) > 0):
            problems.append("--sorted output is not in descending probability")
    if logp.size == 0:
        return ["no peaks returned"], None
    if not (np.all(np.isfinite(logp)) and logp.max() <= 0):
        problems.append("a logp is not finite or is above 0")
    comp = parse_formula(request.formula)
    universe = isotopologue_count(comp, table)
    if request.mode == "k":
        want = min(int(request.value), universe)
        if logp.size != want:
            problems.append(f"{logp.size} peaks returned, expected {want}")
    else:
        total = float(np.exp(logp).sum())
        if total < request.value - P_TOL:
            problems.append(f"cumulative {total!r} is below p={request.value!r}")
        if total - math.exp(logp.min()) >= request.value + P_TOL:
            problems.append("still reaches p without its least probable peak")
    if universe <= ORACLE_LIMIT:
        _, ref = top_k_reference(comp, table, logp.size)
        if not np.allclose(np.sort(logp)[::-1], ref, rtol=0, atol=REL_TOL):
            problems.append("logp differs from the oracle's")
    return problems, digest(logp)


def request_key(request) -> str:
    text = f"{request.via} {request.alpha!r} {request.mode} {request.value!r} {request.formula}"
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def cross_digest(request, table) -> tuple:
    """The request's digest computed another way: elements in reverse order
    (another tree shape) and alpha 2 (other layer sizes and, for alpha = 1
    requests, the array buffer instead of the heap buffer)."""
    comp = Composition(tuple(reversed(parse_formula(request.formula).items)))
    return digest(_select(build_tree(comp, table, 2.0), request).logp)
