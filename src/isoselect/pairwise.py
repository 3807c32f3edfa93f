"""Top-k and coverage selection on X+Y over two layered descending peak streams.

X and Y are streams of (mass, ln-probability) peaks arriving in layers that
satisfy the descending layer property. Combining two peaks adds masses and
adds log probabilities, so selecting the most probable combinations is rank
selection on the Cartesian sum of the two key sequences.

The unit of work is a layer product: the |u| x |v| grid of sums between X
layer u and Y layer v. Products pass through a single max-heap twice. First
they are keyed by their best corner (sum of the two layer maxima); when that
is popped, all sums in the product are materialized into a candidate buffer
and the product re-enters keyed by its worst corner (sum of the layer
minima). Popping a worst corner credits the product to two guarantees: its
size to a count (``guaranteed``) and its probability mass, the product of
its two child layers' masses, to a mass (``guaranteed_mass``), and its key
becomes the cut key. Keys pop in nonincreasing order, so every credited sum
is at least the cut key, and every sum not yet materialized is at most it:
the buffer provably holds the ``guaranteed`` best sums, and these carry at
least ``guaranteed_mass`` of probability.

There is one pop loop, and it stops when either guarantee reaches its
target. A worst corner that would be the next pop anyway (it heads the heap
and outranks both parked bounds below) is credited at once, without the heap
round trip; the pop order is the same.

The selector serves two kinds of caller.

* A parent node reads it layer by layer: :meth:`PairwiseSelector.next_layer`
  loops until the count guarantee covers ``emitted`` plus the layer size,
  then rank-selects the layer out of the buffer (``loh.layer_order``). The
  heap and buffer persist across calls, so successive layers never repeat
  work and pop exactly the products a one-shot selection of the cumulative
  count would pop. At alpha = 1 every product is 1 x 1, its two corners
  share one key, and unless sums tie the buffer holds only the peak being
  emitted.
* The tree root selects once. :meth:`PairwiseSelector.top_k` loops until
  the count guarantee covers k, :meth:`PairwiseSelector.until_cumulative`
  until the mass guarantee covers p, and each then makes one cut in the
  buffer (:meth:`_PeakBuffer.cut`): every entry at or above the cut key is
  a top peak, and the fewest best of those that reach k or p move to the
  front. Should the buffer's own sum fall short of p, as a guarantee summed
  in another order can round up past it, the loop resumes. Nothing above
  the root consumes layers, so this is the X+Y step of the paper done
  once, and it ends the stream.

Grid coverage is duplicate-free by construction: product (u, v) is pushed by
(u, v-1), or by (u-1, 1) when v == 1, or is the seed (1, 1).

Child layers are pulled lazily. A successor product whose child layer does
not exist yet is parked, with an upper bound on its best corner derived from
the layer ordering (the missing layer's max cannot exceed the last existing
layer's min). A parked product is activated, pulling the child layer, only
when its bound reaches the top of the heap, so a child is extended only when
the selection actually needs deeper values from that side.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from .loh import LayerSchedule, layer_order

_BEST, _WORST = 0, 1
_NEG_INF = -math.inf
_CHUNK = 1 << 16  # entries per step of the cut's chunked passes
_BINS = 1 << 12  # logp bins of the cut


class _ChildLayer(NamedTuple):
    mass: np.ndarray
    logp: np.ndarray
    lmax: float
    lmin: float
    prob: float  # probability mass, sum of exp(logp)


def _child_layer(mass: np.ndarray, logp: np.ndarray) -> _ChildLayer:
    if logp.size == 1:
        # alpha = 1 pulls: no numpy reductions for a one-peak layer
        lp = float(logp[0])
        return _ChildLayer(mass, logp, lp, lp, math.exp(lp))
    return _ChildLayer(
        mass, logp, float(logp.max()), float(logp.min()), float(np.exp(logp).sum())
    )


class _PeakBuffer:
    """Growable parallel (mass, logp) arrays: a selector's candidate store,
    and the accumulator of ``tree`` for a root that is a leaf. ``take_top``
    removes one layer by rank selection, ``cut`` makes a root's one cut.

    ``take_top(n)`` returns the whole buffer without a selection; that is
    every call of an alpha = 1 selector unless sums tie.
    """

    def __init__(self):
        self.mass = np.empty(1024)
        self.logp = np.empty(1024)
        self.n = 0

    def _reserve(self, need: int):
        if need > self.mass.size:
            cap = max(2 * self.mass.size, need)
            n = self.n
            mass, logp = np.empty(cap), np.empty(cap)
            mass[:n] = self.mass[:n]
            logp[:n] = self.logp[:n]
            self.mass, self.logp = mass, logp

    def extend(self, mass: np.ndarray, logp: np.ndarray):
        need = self.n + mass.size
        self._reserve(need)
        self.mass[self.n : need] = mass
        self.logp[self.n : need] = logp
        self.n = need

    def add_one(self, mass: float, logp: float):
        self._reserve(self.n + 1)
        self.mass[self.n] = mass
        self.logp[self.n] = logp
        self.n += 1

    def take_top(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return s highest-logp peaks (unordered); s <= n."""
        n = self.n
        if s == n:
            out = self.mass[:n].copy(), self.logp[:n].copy()
            self.n = 0
            return out
        idx = layer_order(self.logp[:n], [s, n])
        top, rest = idx[:s], idx[s:]
        out = self.mass[top], self.logp[top]
        self.mass[: n - s] = self.mass[rest]
        self.logp[: n - s] = self.logp[rest]
        self.n = n - s
        return out

    def cut(
        self, want: float, lo: float, hi: float, by_mass: bool
    ) -> tuple[int | None, float]:
        """Move to the front the fewest highest-logp entries with logp >= lo
        that weigh at least ``want``, weighing each by its probability if
        ``by_mass``, else as 1; ``hi`` bounds every logp above.

        Returns (count, total), total being the weight of the entries at or
        above lo, or (None, total) with the buffer untouched when total <
        want. Works in chunks, never on full-size temporaries: the entries at
        or above lo are binned by logp, the bins above the one where the
        cumulative weight reaches ``want`` move to the front, and only that
        boundary bin is sorted.
        """
        n = self.n
        scale = _BINS / (hi - lo) if hi > lo else 0.0

        def bins(logp):
            # bin 0 holds the highest logps; _BINS marks entries below lo
            b = ((hi - logp) * scale).astype(np.intp)
            np.clip(b, 0, _BINS - 1, out=b)
            b[logp < lo] = _BINS
            return b

        chunks = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
        per_bin = np.zeros(_BINS + 1)
        for s, e in chunks:
            logp = self.logp[s:e]
            weight = np.exp(logp) if by_mass else None
            per_bin += np.bincount(bins(logp), weight, _BINS + 1)
        cum = np.cumsum(per_bin[:_BINS])
        total = float(cum[-1])
        if total < want:
            return None, total
        edge = int(np.searchsorted(cum, want))
        above = float(cum[edge - 1]) if edge else 0.0

        front = 0
        edge_mass, edge_logp = [], []
        for s, e in chunks:
            mass, logp = self.mass[s:e], self.logp[s:e]
            b = bins(logp)
            at = b == edge
            edge_mass.append(mass[at])
            edge_logp.append(logp[at])
            up = b < edge
            m, lp = mass[up], logp[up]
            self.mass[front : front + m.size] = m
            self.logp[front : front + m.size] = lp
            front += m.size
        mass, logp = np.concatenate(edge_mass), np.concatenate(edge_logp)
        order = np.argsort(logp)[::-1]
        csum = np.exp(logp[order]) if by_mass else np.ones(order.size)
        csum[0] += above
        np.cumsum(csum, out=csum)
        keep = min(int(np.searchsorted(csum, want)), csum.size - 1) + 1
        self.mass[front : front + keep] = mass[order[:keep]]
        self.logp[front : front + keep] = logp[order[:keep]]
        return front + keep, total


class ArrayPeakStream:
    """Layered stream over a fixed peak list, for tests, demos, leaves that
    are cheaper to enumerate than to generate incrementally, and the root of
    the CLI's ``--oracle`` selection over an exhaustive enumeration.

    Peaks are arranged descending by logp and dealt out per the schedule.
    """

    def __init__(self, mass, logp, schedule: LayerSchedule):
        mass = np.asarray(mass, dtype=float)
        logp = np.asarray(logp, dtype=float)
        order = np.argsort(-logp, kind="stable")
        self._mass = mass[order]
        self._logp = logp[order]
        self.schedule = schedule
        self.emitted = 0
        self.layers_emitted = 0

    def next_layer(self) -> tuple[np.ndarray, np.ndarray]:
        self.layers_emitted += 1
        size = self.schedule.layer_size(self.layers_emitted)
        lo = self.emitted
        hi = min(lo + size, self._logp.size)
        self.emitted = hi
        return self._mass[lo:hi], self._logp[lo:hi]


class PairwiseSelector:
    """Stream of the most probable X+Y peak combinations, in layers, or one
    selection of them by count or coverage.

    Single consumer.
    """

    def __init__(self, x, y, schedule: LayerSchedule):
        self.x = x
        self.y = y
        self.schedule = schedule
        self.x_layers: list[_ChildLayer] = []
        self.y_layers: list[_ChildLayer] = []
        self.x_done = False
        self.y_done = False
        self._heap: list[tuple[float, int, int, int]] = []
        self._x_spine_wait = False
        self._y_wait: list[int] = []
        self._y_wait_lmax = _NEG_INF
        self._buffer = _PeakBuffer()
        self.guaranteed = 0
        self.guaranteed_mass = 0.0
        self.cut_key = math.inf
        self.emitted = 0
        self.layers_emitted = 0
        self.x_pulls = 0
        self.y_pulls = 0
        self.materialized_total = 0
        self.peak_resident = 0
        self._stored = 0

        # both children must contribute their first layer before any product
        # can form; these two pulls are unconditional
        self._pull_x()
        self._pull_y()
        if self.x_layers and self.y_layers:
            self._push_product(1, 1)

    # -- child layers ------------------------------------------------------

    def _pull_x(self):
        mass, logp = self.x.next_layer()
        self.x_pulls += 1
        if mass.size == 0:
            self.x_done = True
            self._x_spine_wait = False
            return
        self.x_layers.append(_child_layer(mass, logp))
        self._stored += mass.size
        if self._x_spine_wait:
            self._x_spine_wait = False
            self._push_product(len(self.x_layers), 1)

    def _pull_y(self):
        mass, logp = self.y.next_layer()
        self.y_pulls += 1
        if mass.size == 0:
            self.y_done = True
            self._y_wait.clear()
            self._y_wait_lmax = _NEG_INF
            return
        self.y_layers.append(_child_layer(mass, logp))
        self._stored += mass.size
        if self._y_wait:
            v = len(self.y_layers)
            for u in self._y_wait:
                self._push_product(u, v)
            self._y_wait.clear()
            self._y_wait_lmax = _NEG_INF

    # -- heap and products -------------------------------------------------

    def _push_product(self, u: int, v: int):
        key = self.x_layers[u - 1].lmax + self.y_layers[v - 1].lmax
        heapq.heappush(self._heap, (-key, u, v, _BEST))

    def _bound_x(self) -> float:
        if not self._x_spine_wait or self.x_done:
            return _NEG_INF
        return self.x_layers[-1].lmin + self.y_layers[0].lmax

    def _bound_y(self) -> float:
        if not self._y_wait or self.y_done:
            return _NEG_INF
        return self._y_wait_lmax + self.y_layers[-1].lmin

    def _prepare_top(self) -> bool:
        """Activate parked products that could outrank the heap top.

        Returns True when the heap top is safe to pop, False at exhaustion.
        """
        while True:
            bx = self._bound_x()
            by = self._bound_y()
            if bx == _NEG_INF and by == _NEG_INF:
                return bool(self._heap)
            top = -self._heap[0][0] if self._heap else _NEG_INF
            if max(bx, by) < top:
                return True
            if bx >= by:
                self._pull_x()
            else:
                self._pull_y()

    def _fill(self, count, mass=math.inf):
        """Pop products until ``guaranteed`` reaches count or
        ``guaranteed_mass`` reaches mass, or every product is credited."""
        while (
            self.guaranteed < count
            and self.guaranteed_mass < mass
            and self._prepare_top()
        ):
            self._advance()

    def _advance(self):
        heap = self._heap
        neg_key, u, v, phase = heapq.heappop(heap)
        xl = self.x_layers[u - 1]
        yl = self.y_layers[v - 1]
        if phase == _BEST:
            if xl.mass.size == 1 and yl.mass.size == 1:
                self._buffer.add_one(
                    float(xl.mass[0]) + float(yl.mass[0]), xl.lmax + yl.lmax
                )
            else:
                self._buffer.extend(
                    np.add.outer(xl.mass, yl.mass).ravel(),
                    np.add.outer(xl.logp, yl.logp).ravel(),
                )
            self.materialized_total += xl.mass.size * yl.mass.size
            resident = self._buffer.n + self._stored
            if resident > self.peak_resident:
                self.peak_resident = resident
            self._push_successors(u, v)
            key = xl.lmin + yl.lmin
            worst = (-key, u, v, _WORST)
            # credit now only if this worst corner would be the next pop
            if (heap and heap[0] < worst) or max(
                self._bound_x(), self._bound_y()
            ) >= key:
                heapq.heappush(heap, worst)
                return
        else:
            key = -neg_key
        self.guaranteed += xl.mass.size * yl.mass.size
        self.guaranteed_mass += xl.prob * yl.prob
        self.cut_key = key

    def _push_successors(self, u: int, v: int):
        if v == 1:
            if u + 1 <= len(self.x_layers):
                self._push_product(u + 1, 1)
            elif not self.x_done:
                self._x_spine_wait = True
        if v + 1 <= len(self.y_layers):
            self._push_product(u, v + 1)
        elif not self.y_done:
            self._y_wait.append(u)
            lmax = self.x_layers[u - 1].lmax
            if lmax > self._y_wait_lmax:
                self._y_wait_lmax = lmax

    # -- output ------------------------------------------------------------

    def next_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit the next layer of combined peaks; short then empty at the end."""
        self.layers_emitted += 1
        size = self.schedule.layer_size(self.layers_emitted)
        self._fill(self.emitted + size)
        take = min(size, self._buffer.n)
        if take == 0:
            return np.empty(0), np.empty(0)
        mass, logp = self._buffer.take_top(take)
        self.emitted += take
        return mass, logp

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k most probable peaks not yet emitted, or all of them if fewer
        remain. Ends the stream."""
        return self._select(k, self.emitted + k, math.inf, by_mass=False)[:2]

    def until_cumulative(self, p: float) -> tuple[np.ndarray, np.ndarray, bool]:
        """The fewest most probable peaks not yet emitted whose probability
        sums to at least p, and whether the peaks ran out short of p (then
        all are returned). Ends the stream."""
        return self._select(p, math.inf, p, by_mass=True)

    def _select(self, want, count, mass, by_mass):
        """Pop until ``guaranteed`` reaches count or ``guaranteed_mass``
        reaches mass, then cut the buffer at the cut key to the fewest
        peaks weighing ``want``; pop on if they weigh less."""
        buf = self._buffer
        while True:
            self._fill(count, mass)
            exhausted = self.guaranteed < count and self.guaranteed_mass < mass
            # the seed product's key bounds every sum from above
            top = self.x_layers[0].lmax + self.y_layers[0].lmax if buf.n else 0.0
            kept, total = buf.cut(want, self.cut_key, top, by_mass)
            if kept is not None or exhausted:
                short = kept is None
                return (*self._end(buf.n if short else kept), short)
            # the summed mass guarantee rounded up past what the buffer holds
            gm = self.guaranteed_mass
            mass = max(gm + (want - total), math.nextafter(gm, math.inf))

    def _end(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The buffer's first n peaks, counted as one emitted layer; ends the
        stream."""
        buf = self._buffer
        self.emitted += n
        self.layers_emitted += 1
        self._buffer = _PeakBuffer()
        self._heap.clear()
        self._x_spine_wait = False
        self._y_wait.clear()
        return buf.mass[:n], buf.logp[:n]
