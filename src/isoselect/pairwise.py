"""Online top-k selection on X+Y over two layered descending peak streams.

X and Y are streams of (mass, ln-probability) peaks arriving in layers that
satisfy the descending layer property. Combining two peaks adds masses and
adds log probabilities, so selecting the most probable combinations is rank
selection on the Cartesian sum of the two key sequences.

The unit of work is a layer product: the |u| x |v| grid of sums between X
layer u and Y layer v. Products pass through a single max-heap twice. First
they are keyed by their best corner (sum of the two layer maxima); when that
is popped, all sums in the product are materialized into a candidate buffer
and the product re-enters keyed by its worst corner (sum of the layer
minima). When a worst corner is popped, the product's size is credited to a
guarantee counter: once the guarantee reaches k, the buffer provably holds
the k best sums, and one rank selection (``loh.layer_order``) extracts them.
The heap and buffer persist across calls, so asking for successive layers
never repeats work and pops exactly the products a one-shot selection of the
cumulative k would have popped. At alpha = 1 every product is 1 x 1, its two
corners share one key, and unless sums tie the buffer holds only the peak
being emitted, so the same buffer serves every alpha.

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


class _ChildLayer(NamedTuple):
    mass: np.ndarray
    logp: np.ndarray
    lmax: float
    lmin: float


class _PeakBuffer:
    """Growable parallel (mass, logp) arrays with rank-select removal: a
    selector's candidate store, and the root accumulator of ``tree``.

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
    """Stream of the most probable X+Y peak combinations, in layers.

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
        self.x_layers.append(
            _ChildLayer(mass, logp, float(logp.max()), float(logp.min()))
        )
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
        self.y_layers.append(
            _ChildLayer(mass, logp, float(logp.max()), float(logp.min()))
        )
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

    def _advance(self):
        neg_key, u, v, phase = heapq.heappop(self._heap)
        xl = self.x_layers[u - 1]
        yl = self.y_layers[v - 1]
        if phase == _BEST:
            if xl.mass.size == 1 and yl.mass.size == 1:
                self._buffer.add_one(
                    float(xl.mass[0]) + float(yl.mass[0]),
                    float(xl.logp[0]) + float(yl.logp[0]),
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
            heapq.heappush(self._heap, (-(xl.lmin + yl.lmin), u, v, _WORST))
            self._push_successors(u, v)
        else:
            self.guaranteed += xl.mass.size * yl.mass.size

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
        target = self.emitted + size
        while self.guaranteed < target and self._prepare_top():
            self._advance()
        take = min(size, self._buffer.n)
        if take == 0:
            return np.empty(0), np.empty(0)
        mass, logp = self._buffer.take_top(take)
        self.emitted += take
        return mass, logp
