"""Top-k and coverage selection on X+Y over two layered descending peak streams.

X and Y are streams of (mass, ln-probability) peaks arriving in layers that
satisfy the descending layer property. Combining two peaks adds masses and
adds log probabilities, so selecting the most probable combinations is rank
selection on the Cartesian sum of the two key sequences.

The unit of work is a layer product: the |u| x |v| grid of sums between X
layer u and Y layer v. Products pass through a single max-heap twice. First
they are keyed by their best corner (sum of the two layer maxima); when that
is popped, all sums in the product are materialized into a candidate buffer
(in batches, see below) and the product re-enters keyed by its worst corner
(sum of the layer minima). Popping a worst corner credits the product to two
guarantees: its size to a count (``guaranteed``) and its probability mass,
the product of its two child layers' masses, to a mass
(``guaranteed_mass``), and its key becomes the cut key. Keys pop in
nonincreasing order, so every credited sum is at least the cut key, and
every sum not yet materialized is at most it: when the loop returns, the
buffer provably holds the ``guaranteed`` best sums, and these carry at least
``guaranteed_mass`` of probability.

There is one pop loop, and it stops when either guarantee reaches its
target. A worst corner that would be the next pop anyway (it heads the heap
and outranks both parked bounds below) is credited at once, without the heap
round trip; the pop order is the same.

The loop touches keys only. It reads each child layer's max, min, size and
mass from lists of Python numbers, and the two parked bounds from fields
that change only where parking does. A popped best corner is recorded as
(u, v); its sums are written to the buffer at the next flush, in pop order
and each product row-major, so the buffer holds what writing each product
as it pops would hold. A flush comes when the pending sums reach
``_BATCH``, before a product that large, and when the loop returns; a flush
of more than ``_FEW`` products is one ragged gather over the pending layers
instead of one ``np.add.outer`` per product.

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

Grid coverage is duplicate-free by construction: with layers numbered from
0, product (u, v) is pushed by (u, v-1), or by (u-1, 0) when v == 0, or is
the seed (0, 0).

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

import numpy as np

from .loh import LayerSchedule, layer_order

_BEST, _WORST = 0, 1
_NEG_INF = -math.inf
_CHUNK = 1 << 16  # entries per step of the cut's chunked passes
_BATCH = 1 << 12  # pending sums that make the pop loop flush
_FEW = 6  # a flush of at most this many products writes them one by one
_BINS = 1 << 12  # logp bins of the cut


class _PeakBuffer:
    """Growable (mass, logp) arrays, a selector's candidate store.
    ``take_top`` removes a layer by rank selection; ``cut``, a root's one cut.

    ``take_top(n)`` returns the whole buffer without a selection; that is
    every call of an alpha = 1 selector unless sums tie.
    """

    def __init__(self):
        self.mass = np.empty(1024)
        self.logp = np.empty(1024)
        self.n = 0

    def _reserve(self, need: int):
        if need > self.mass.size:
            cap = self.mass.size
            while cap < need:
                cap *= 2
            n = self.n
            mass, logp = np.empty(cap), np.empty(cap)
            mass[:n] = self.mass[:n]
            logp[:n] = self.logp[:n]
            self.mass, self.logp = mass, logp

    def append(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``size`` new entries at the end, for the caller to fill."""
        start, need = self.n, self.n + size
        self._reserve(need)
        self.n = need
        return self.mass[start:need], self.logp[start:need]

    def extend(self, mass: np.ndarray, logp: np.ndarray):
        m, lp = self.append(mass.size)
        m[:] = mass
        lp[:] = logp

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
    are cheaper to enumerate than to generate incrementally, and the CLI's
    ``--oracle`` root. Peaks are sorted by logp, descending, ties in input
    order; ``top_k`` and ``until_cumulative`` take a prefix of that order.
    """

    def __init__(self, mass, logp, schedule: LayerSchedule):
        mass = np.asarray(mass, dtype=float)
        logp = np.asarray(logp, dtype=float)
        if mass.ndim != 1 or mass.shape != logp.shape:
            raise ValueError("mass and logp must be 1-D arrays of equal length")
        order = np.argsort(-logp, kind="stable")
        self._mass = mass[order]
        self._logp = logp[order]
        self.schedule = schedule
        self.emitted = 0
        self.layers_emitted = 0

    def next_layer(self) -> tuple[np.ndarray, np.ndarray]:
        return self.top_k(self.schedule.layer_size(self.layers_emitted + 1))

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The next k peaks, in order, or all that remain; one layer."""
        lo = self.emitted
        hi = self.emitted = min(lo + k, self._logp.size)
        self.layers_emitted += 1
        return self._mass[lo:hi], self._logp[lo:hi]

    def until_cumulative(self, p: float) -> tuple[np.ndarray, np.ndarray, bool]:
        """The fewest next peaks whose probability sums to at least p, and
        whether they ran out short of p (then all that remain); one layer."""
        csum = np.cumsum(np.exp(self._logp[self.emitted :]))
        cut = int(np.searchsorted(csum, p))
        return (*self.top_k(cut + 1), cut == csum.size)


def _joined(arrays: list[np.ndarray], index) -> np.ndarray:
    """The arrays at ``index``, end to end. They are contiguous float64, so
    a bytes join copies them, at a third of ``np.concatenate``'s cost per
    array."""
    return np.frombuffer(b"".join([arrays[i] for i in index]))


class _Layers:
    """One child's pulled layers as parallel lists, in pull order: the
    arrays, and each layer's max, min, size and probability mass as Python
    numbers for the pop loop."""

    __slots__ = ("mass", "logp", "lmax", "lmin", "size", "prob")

    def __init__(self):
        self.mass: list[np.ndarray] = []
        self.logp: list[np.ndarray] = []
        self.lmax: list[float] = []
        self.lmin: list[float] = []
        self.size: list[int] = []
        self.prob: list[float] = []

    def add(self, mass: np.ndarray, logp: np.ndarray):
        if logp.size == 1:
            # alpha = 1 pulls: no numpy reductions for a one-peak layer
            lmax = lmin = float(logp[0])
            prob = math.exp(lmax)
        else:
            lmax, lmin = float(logp.max()), float(logp.min())
            prob = float(np.exp(logp).sum())
        self.mass.append(np.ascontiguousarray(mass, dtype=np.float64))
        self.logp.append(np.ascontiguousarray(logp, dtype=np.float64))
        self.lmax.append(lmax)
        self.lmin.append(lmin)
        self.size.append(logp.size)
        self.prob.append(prob)


class PairwiseSelector:
    """Stream of the most probable X+Y peak combinations, in layers, or one
    selection of them by count or coverage.

    Single consumer.
    """

    def __init__(self, x, y, schedule: LayerSchedule):
        self.x = x
        self.y = y
        self.schedule = schedule
        self._x = _Layers()
        self._y = _Layers()
        self.x_done = False
        self.y_done = False
        # heap entries (-key, u, v, phase), u and v 0-based layer indices
        self._heap: list[tuple[float, int, int, int]] = []
        # parked products and the bounds on their best corners, -inf when
        # nothing is parked; changed only where parking changes
        self._x_spine_wait = False
        self._x_bound = _NEG_INF
        self._y_wait: list[int] = []
        self._y_bound = _NEG_INF
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
        if self._x.size and self._y.size:
            self._push_product(0, 0)

    # -- child layers ------------------------------------------------------

    def _pull_x(self):
        mass, logp = self.x.next_layer()
        self.x_pulls += 1
        if mass.size == 0:
            self.x_done = True
            self._x_spine_wait = False
            self._x_bound = _NEG_INF
            return
        self._x.add(mass, logp)
        self._stored += mass.size
        if self._x_spine_wait:
            self._x_spine_wait = False
            self._x_bound = _NEG_INF
            self._push_product(len(self._x.size) - 1, 0)

    def _pull_y(self):
        mass, logp = self.y.next_layer()
        self.y_pulls += 1
        if mass.size == 0:
            self.y_done = True
        else:
            self._y.add(mass, logp)
            self._stored += mass.size
            v = len(self._y.size) - 1
            for u in self._y_wait:
                self._push_product(u, v)
        self._y_wait.clear()
        self._y_bound = _NEG_INF

    # -- heap and products -------------------------------------------------

    def _push_product(self, u: int, v: int):
        key = self._x.lmax[u] + self._y.lmax[v]
        heapq.heappush(self._heap, (-key, u, v, _BEST))

    def _fill(self, count, mass=math.inf):
        """Pop products until ``guaranteed`` reaches count or
        ``guaranteed_mass`` reaches mass, or every product is credited; a
        popped best corner waits in ``pending`` for ``_write``."""
        heap, push, pop = self._heap, heapq.heappush, heapq.heappop
        batch = _BATCH
        X, Y = self._x, self._y
        xmax, xmin, xsize, xprob = X.lmax, X.lmin, X.size, X.prob
        ymax, ymin, ysize, yprob = Y.lmax, Y.lmin, Y.size, Y.prob
        nx, ny = len(xmax), len(ymax)
        bx, by = self._x_bound, self._y_bound
        guaranteed, got_mass = self.guaranteed, self.guaranteed_mass
        cut_key = self.cut_key
        made = 0
        stored = self._stored
        stored_at_best = -1  # child peaks stored at the last best-corner pop
        pending: list[tuple[int, int]] = []
        pending_sums = 0
        while guaranteed < count and got_mass < mass:
            # activate parked products that could outrank the heap top
            while True:
                if heap:
                    top = -heap[0][0]
                    if (bx < top and by < top) or (bx == by == _NEG_INF):
                        break
                elif bx == by == _NEG_INF:
                    break
                if bx >= by:
                    self._pull_x()
                else:
                    self._pull_y()
                bx, by, stored = self._x_bound, self._y_bound, self._stored
                nx, ny = len(xmax), len(ymax)
            if not heap:
                break
            neg_key, u, v, phase = pop(heap)
            if phase == _BEST:
                n = xsize[u] * ysize[v]
                if n >= batch and pending:
                    self._write(pending, pending_sums)
                    pending, pending_sums = [], 0
                pending.append((u, v))
                pending_sums += n
                if pending_sums >= batch:
                    self._write(pending, pending_sums)
                    pending, pending_sums = [], 0
                made += n
                stored_at_best = stored
                # successors: (u+1, 0) down the spine, (u, v+1) along the row;
                # one whose child layer is not pulled yet is parked
                if v == 0:
                    if u + 1 < nx:
                        push(heap, (-(xmax[u + 1] + ymax[0]), u + 1, 0, _BEST))
                    elif not self.x_done:
                        self._x_spine_wait = True
                        bx = self._x_bound = xmin[u] + ymax[0]
                if v + 1 < ny:
                    push(heap, (-(xmax[u] + ymax[v + 1]), u, v + 1, _BEST))
                elif not self.y_done:
                    self._y_wait.append(u)
                    # by bounds the best waiting row: rounding is monotonic,
                    # so the largest sum comes from the largest row max
                    if xmax[u] + ymin[-1] > by:
                        by = self._y_bound = xmax[u] + ymin[-1]
                key = xmin[u] + ymin[v]
                worst = (-key, u, v, _WORST)
                # credit now only if this worst corner would be the next pop
                if (heap and heap[0] < worst) or bx >= key or by >= key:
                    push(heap, worst)
                    continue
            else:
                key = -neg_key
            guaranteed += xsize[u] * ysize[v]
            got_mass += xprob[u] * yprob[v]
            cut_key = key
        if pending:
            self._write(pending, pending_sums)
        self.guaranteed, self.guaranteed_mass = guaranteed, got_mass
        self.cut_key = cut_key
        self.materialized_total += made
        # buffer and stored peaks only grow inside one call, so the last
        # best-corner pop saw the call's most resident peaks
        if stored_at_best >= 0:
            resident = self._buffer.n + stored_at_best
            if resident > self.peak_resident:
                self.peak_resident = resident

    def _write(self, pending: list[tuple[int, int]], total: int):
        """Append the sums of the pending products (u, v) to the buffer, in
        pop order, each product row-major: product by product when there are
        at most ``_FEW``, else by one ragged gather of ``total`` sums."""
        X, Y, buf = self._x, self._y, self._buffer
        if len(pending) <= _FEW:
            for u, v in pending:
                xm, ym = X.mass[u], Y.mass[v]
                if xm.size == 1 == ym.size:
                    buf.add_one(float(xm[0]) + float(ym[0]), X.lmax[u] + Y.lmax[v])
                else:
                    buf.extend(
                        np.add.outer(xm, ym).ravel(),
                        np.add.outer(X.logp[u], Y.logp[v]).ravel(),
                    )
            return
        us, vs = zip(*pending)
        a = np.array([X.size[u] for u in us])
        b = np.array([Y.size[v] for v in vs])
        # the X layers, joined in pop order, give one row per entry; row i
        # pairs its X entry with row_len[i] Y entries from y_at[i] on
        row_len = np.repeat(b, a)
        y_at = np.repeat(np.cumsum(b) - b, a)
        row_at = np.cumsum(row_len) - row_len
        y_idx = np.arange(total) + np.repeat(y_at - row_at, row_len)
        xm, xl = _joined(X.mass, us), _joined(X.logp, us)
        ym, yl = _joined(Y.mass, vs), _joined(Y.logp, vs)
        mass, logp = buf.append(total)
        np.add(np.repeat(xm, row_len), ym[y_idx], out=mass)
        np.add(np.repeat(xl, row_len), yl[y_idx], out=logp)

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
            top = self._x.lmax[0] + self._y.lmax[0] if buf.n else 0.0
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
        self._x_bound = _NEG_INF
        self._y_wait.clear()
        self._y_bound = _NEG_INF
        return buf.mass[:n], buf.logp[:n]
