"""Spans around isoselect's public entry points, recorded from outside the
package, and the per-layer metrics derived from them and from ``tree_stats``.

A span is (name, start, end, parent span, request id). Spans are kept in
memory in flat arrays while the benchmark runs and written out at its end.
Every node of a built tree has its stream's ``next_layer`` replaced by a
spanning wrapper on the instance, so a merge node's pulls of its children
nest inside its own span and its self time is its span minus theirs. The two
pulls each ``PairwiseSelector`` makes in its constructor happen inside
``build_tree``, before the wrappers exist, so they count in ``tree.build_s``.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from isoselect import PairwiseSelector

# span kinds; names are "<kind>" or "<kind>:<tree node label>"
KINDS = BUILD, SELECT, CLI, LEAF, MERGE = (
    "tree.build", "tree.select", "cli.run", "multinomial.next_layer",
    "pairwise.next_layer",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self.size = array("q")  # peaks returned, for next_layer spans
        self._stack: list[int] = []
        self.request_id = 0

    def __len__(self):
        return len(self.start)

    @contextmanager
    def span(self, name: str):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.size.append(0)
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap_tree(self, root):
        """Span every node's ``next_layer`` from now on."""
        def visit(node):
            kind = MERGE if isinstance(node.stream, PairwiseSelector) else LEAF
            self._wrap_stream(node.stream, f"{kind}:{node.label}")
            for child in node.children:
                visit(child)
        visit(root)

    def _wrap_stream(self, stream, name):
        inner = stream.next_layer

        def next_layer():
            with self.span(name) as index:
                mass, logp = inner()
            self.size[index] = mass.size
            return mass, logp

        stream.next_layer = next_layer

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def layer_metrics(tracer: Tracer, first: int, stats: list[list[dict]],
                  returned: int, cli_select_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on, with
    ``stats`` the ``tree_stats`` rows of each request's tree and ``returned``
    the peaks those requests returned."""
    spans = {key: a[first:] for key, a in tracer.arrays().items()}
    parent = spans["parent"] = np.where(spans["parent"] >= first, spans["parent"] - first, -1)
    own = self_times(spans)
    duration = spans["end"] - spans["start"]
    kind_of_name = np.array([KINDS.index(name.split(":")[0]) for name in tracer.names])
    kind = kind_of_name[spans["name_id"]]
    leaf, merge, select = (kind == KINDS.index(k) for k in (LEAF, MERGE, SELECT))
    build, cli = (kind == KINDS.index(k) for k in (BUILD, CLI))
    root_pull = ~select & (parent >= 0) & select[np.maximum(parent, 0)]

    rows = [row for request in stats for row in request]
    leaves = [r for r in rows if r["kind"] == "element"]
    merges = [r for r in rows if r["kind"] == "merge"]
    leaf_self = float(own[leaf].sum())
    leaf_peaks = sum(r["emitted"] for r in leaves)
    emitted = sum(r["emitted"] for r in merges)
    materialized = sum(r["materialized"] for r in merges)
    resident = sum(r["resident"] for r in merges)
    cli_run = float(duration[cli].sum())
    cli_output = cli_run - cli_select_s if cli_run else 0.0
    root_peaks = int(spans["size"][root_pull].sum())
    return {
        "multinomial.self_s": leaf_self,
        "multinomial.peaks": leaf_peaks,
        "multinomial.layers": sum(r["layers"] for r in leaves),
        "multinomial.us_per_peak": 1e6 * leaf_self / leaf_peaks,
        "pairwise.self_s": float(own[merge].sum()),
        "pairwise.top_self_s": float(own[merge & root_pull].sum()),
        "pairwise.materialized": materialized,
        "pairwise.emitted": emitted,
        "pairwise.useful_ratio": emitted / materialized if materialized else 0.0,
        "pairwise.child_pulls": sum(r["x_pulls"] + r["y_pulls"] for r in merges),
        "pairwise.resident": resident,
        "pairwise.resident_per_peak": resident / returned,
        "tree.build_s": float(duration[build].sum()),
        "tree.select_self_s": float(own[select].sum()),
        "tree.root_layers": int(root_pull.sum()),  # = sum of Selection.layers_pulled
        "tree.overshoot": root_peaks / returned,
        "cli.run_s": cli_run,
        "cli.select_s": cli_select_s,
        "cli.output_s": cli_output,
        "cli.rows": returned if cli_run else 0,
        "cli.us_per_row": 1e6 * cli_output / returned if cli_run else 0.0,
    }
