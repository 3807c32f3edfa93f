"""Merge tree over per-element streams, and the top-level selection calls.

Each element of a formula gets a subisotopologue stream; a binary tree of
pairwise X+Y selectors combines them into whole-molecule peaks. The tree is
built Huffman-style on each leaf's estimated log-width
(:meth:`~isoselect.multinomial.MultinomialConfig.log_width`): the two
narrowest nodes merge first, and a merge's width is the sum of its
children's, so the widest streams meet last, at the root. Equal widths are
taken in formula order. A single-element formula is served by its leaf
directly.

Everything below the root is pulled lazily, so selecting k peaks from a large
molecule touches only a small, k-proportional slice of each element's
subisotopologue universe.

Only the nodes below the root run the online layered protocol, through a
heap of layer products. Every root selects once, by its stream's ``top_k``
or ``until_cumulative``. A merge root has no heap: it pulls its children
as the heap would, finds the cut key for k or p on the grid of child-layer
products in numpy, fills one buffer of exactly the products that can reach
the key, and cuts it once (see ``pairwise``). A root that is a leaf (a
single-element formula, or the CLI's ``--oracle`` enumeration) emits its
peaks in exact order, so its top k is a prefix and its coverage count comes
from one running cumsum. At alpha = 1 every root returns its peaks sorted.
"""

from __future__ import annotations

import heapq
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .formula import Composition, parse_formula
from .isotopes import IsotopeTable, load_default
from .loh import LayerSchedule
from .multinomial import MultinomialConfig, SubisotopologueGenerator
from .pairwise import PairwiseSelector


@dataclass
class TreeNode:
    stream: object  # next_layer() for a parent; top_k(k), until_cumulative(p) at a root
    label: str
    children: tuple["TreeNode", ...] = ()


def build_tree(
    comp: Composition,
    table: IsotopeTable,
    alpha: float = 1.05,
) -> TreeNode:
    """Build the selection tree for a composition, narrowest streams paired
    first; each merge takes its wider child as X. Raises
    :class:`~isoselect.isotopes.UnknownElementError` for missing elements."""
    if len(comp) == 0:
        raise ValueError("empty composition")
    # look elements up before checking alpha: table errors outrank parameter ones
    leaves = [
        (f"{symbol}{count}", MultinomialConfig.from_isotopes(count, table.get(symbol)))
        for symbol, count in comp
    ]
    schedule = LayerSchedule(alpha)
    # keyed by (width, creation index): ties go to the earlier node, so
    # leaves of equal width pair in formula order
    heap = [
        (config.log_width(), i, TreeNode(SubisotopologueGenerator(config, schedule), label))
        for i, (label, config) in enumerate(leaves)
    ]
    heapq.heapify(heap)
    created = len(heap)
    while len(heap) > 1:
        width_a, _, a = heapq.heappop(heap)
        width_b, _, b = heapq.heappop(heap)
        x, y = (b, a) if width_b > width_a else (a, b)
        node = TreeNode(
            stream=PairwiseSelector(x.stream, y.stream, schedule),
            label=f"({x.label}+{y.label})",
            children=(x, y),
        )
        heapq.heappush(heap, (width_a + width_b, created, node))
        created += 1
    return heap[0][2]


@dataclass
class Selection:
    """Selected peaks. Unordered unless :meth:`sorted` is applied."""

    mass: np.ndarray
    logp: np.ndarray
    truncated: bool = False  # the peaks ran out before k (or p < 1) was met

    def __len__(self) -> int:
        return int(self.mass.size)

    @property
    def cumulative(self) -> float:
        """Total probability mass of the selected peaks."""
        return float(np.exp(self.logp).sum())

    def sorted(self) -> "Selection":
        """Copy ordered by descending probability, ties by ascending mass."""
        order = np.lexsort((self.mass, -self.logp))
        return Selection(self.mass[order], self.logp[order], self.truncated)


def select_top_k(root: TreeNode, k: int) -> Selection:
    """The k most probable peaks of the tree's molecule.

    If fewer than k isotopologues exist, returns them all and warns.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mass, logp = root.stream.top_k(k)
    truncated = mass.size < k
    if truncated:
        warnings.warn(
            f"only {mass.size} isotopologue peaks exist, fewer than the "
            f"requested {k}",
            stacklevel=2,
        )
    return Selection(mass, logp, truncated)


def select_until_cumulative(root: TreeNode, p: float) -> Selection:
    """The smallest set of most probable peaks with total probability >= p.

    p = 1 returns every peak: each has a positive probability, so nothing
    less reaches 1, while a float sum reaches it at a peak set by rounding.
    """
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")
    mass, logp, short = root.stream.until_cumulative(p if p < 1 else math.inf)
    return Selection(mass, logp, short and p < 1)


def isotopologues(
    formula: str | Composition,
    *,
    k: int | None = None,
    p: float | None = None,
    alpha: float = 1.05,
    table: IsotopeTable | None = None,
) -> Selection:
    """One-call API: peaks of ``formula`` by count (``k``) or coverage (``p``).

    Exactly one of ``k`` and ``p`` must be given.
    """
    if (k is None) == (p is None):
        raise ValueError("exactly one of k and p is required")
    comp = parse_formula(formula) if isinstance(formula, str) else formula
    if table is None:
        table = load_default()
    root = build_tree(comp, table, alpha)
    if k is not None:
        return select_top_k(root, k)
    return select_until_cumulative(root, p)


def tree_stats(root: TreeNode) -> list[dict]:
    """Per-node work counters, root first: layer pulls, peaks emitted, for
    element leaves the tuples generated (a leaf over a fixed peak list
    reports its emitted count), and for merge nodes the materialized total,
    child pull counts and ``resident``, the most peaks the node held at
    once. Below the root that is its candidate buffer and stored child
    peaks at their largest; a merge root's is its one buffer, of exactly
    the materialized total, plus every child peak it pulled. A root that
    selected once reports one layer, holding every peak it returned."""
    rows: list[dict] = []

    def visit(node: TreeNode, depth: int):
        stream = node.stream
        row = {"label": node.label, "depth": depth}
        if isinstance(stream, PairwiseSelector):
            row.update(
                kind="merge",
                layers=stream.layers_emitted,
                emitted=stream.emitted,
                materialized=stream.materialized_total,
                x_pulls=stream.x_pulls,
                y_pulls=stream.y_pulls,
                resident=stream.peak_resident,
            )
        else:
            row.update(
                kind="element",
                layers=stream.layers_emitted,
                emitted=stream.emitted,
                generated=getattr(stream, "generated", stream.emitted),
            )
        rows.append(row)
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return rows
