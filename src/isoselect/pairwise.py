"""Top-k and coverage selection on X+Y over two layered descending peak streams.

X and Y are streams of (mass, ln-probability) peaks arriving in layers that
satisfy the descending layer property. Combining two peaks adds masses and
adds log probabilities, so selecting the most probable combinations is rank
selection on the Cartesian sum of the two key sequences.

The unit of work is a layer product: the |u| x |v| grid of sums between X
layer u and Y layer v. Its best corner is the sum of the two layer maxima,
its worst corner the sum of the two minima. The selector serves two kinds
of caller, which walk the grid of products in two ways.

A parent node reads it layer by layer, through
:meth:`PairwiseSelector.next_layer`; only this path uses the heap. Products
pass through a single max-heap twice. First they are keyed by their best
corner; when that is popped, all sums in the product are materialized into
a candidate buffer (see below) and the product re-enters keyed by its worst
corner. Popping a worst corner credits the product's size to a count
(``guaranteed``). Keys pop in nonincreasing order, so every credited sum is
at least the last credited key, and every sum not yet materialized is at
most it: when the loop returns, the buffer provably holds the
``guaranteed`` best sums. ``next_layer`` loops until the guarantee covers
``emitted`` plus the layer size, then rank-selects the layer out of the
buffer (``loh.layer_order``). The heap and buffer persist across calls, so
successive layers never repeat work.
At alpha = 1 every product is 1 x 1, its two corners share one key, and
unless sums tie the buffer holds only the peak being emitted.

A worst corner that would be the next pop anyway (it heads the heap and
outranks both parked bounds below) is credited at once, without the heap
round trip; the pop order is the same. The loop touches keys only. It
reads each child layer's max, min and size from lists of Python numbers,
and the two parked bounds from fields that change only where parking does.
A popped best corner is recorded as (u, v); the sums of every product the
loop popped are written to the buffer once, when it returns, in pop order
and each product row-major, so the buffer holds what writing each product
as it pops would hold. A write of more than ``_FEW`` products is one ragged
gather over their layers instead of one ``np.add.outer`` per product.

Grid coverage is duplicate-free by construction: with layers numbered from
0, product (u, v) is pushed by (u, v-1), or when v == 0 by the pull of X
layer u, which only a parked (u-1, 0) makes, or is the seed (0, 0).

Child layers are pulled lazily. A successor product whose child layer does
not exist yet is parked, with an upper bound on its best corner derived from
the layer ordering (the missing layer's max cannot exceed the last existing
layer's min). A parked product is activated, pulling the child layer, only
when its bound reaches the top of the heap, so a child is extended only when
the selection actually needs deeper values from that side.

The root
--------

The tree root selects once, by :meth:`PairwiseSelector.top_k` (a count k)
or :meth:`PairwiseSelector.until_cumulative` (a probability p, each
product weighing the product of its two child layers' masses). Nothing
above it consumes layers, so this is the X+Y step of the paper done once;
it ends the stream, and a selector that has emitted a layer refuses it. The
root does the heap's work without the heap, in numpy over the grid:

1. **Pulls.** The heap pulls X once its pop level falls to
   ``bx = xmin[last] + ymax[0]``, and Y at ``by = xmax[0] + ymin[last]``,
   the larger first. By then it has credited exactly the products whose
   worst corner lies above both bounds. So the root pulls, the larger
   bound first, until those products reach the target. It checks this by
   one ``searchsorted`` per pull over the axis with fewer layers, into
   numpy mirrors of the other axis's layer minima and running sizes and
   masses (:meth:`_Layers.mirror`).
2. **Cut key.** In descending key order, the credited products first reach
   the target at one worst corner: the key at which the heap would stop.
3. **Fill.** The buffer, allocated once at exactly the total, gets every
   product whose best corner is at least the cut key, which is what the
   heap would have materialized. Probes counted as in step 1, on the layer
   maxima, bisect for ``hi``, the least key above which the best corners
   weigh less than k or p; so the cut keeps a sum at or below ``hi``, and
   keeps whole every product whose worst corner exceeds it (rounding is
   monotonic, so each of its sums does too). Those sure products go first.
   A row of the axis with fewer layers pairs with a prefix of the other
   axis's layers, and its sure products with a prefix of those, so a row
   is at most two ``np.add`` calls: one into the front, one behind it.
4. **Cut.** :meth:`_PeakBuffer.cut` ranks only the entries behind the
   front, those of products that straddle ``hi``, keeping the fewest best
   at or above the cut key that, with the front, reach k or p. Should the
   buffer's own sum fall short of p, as a guarantee summed in another
   order can round up past it, the root pulls on to a higher target. At
   alpha = 1, where products are peaks and only ties at the cut key
   straddle it, the kept entries are then sorted, since one-peak layers
   promise fully sorted output.

The root's pulls and materialized sums are the heap's, product for product,
unless keys tie; with ties it may materialize products whose best corner
equals the cut key, which the heap would have left.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .loh import LayerSchedule, layer_order

_BEST, _WORST = 0, 1
_NEG_INF = -math.inf
_CHUNK = 1 << 16  # entries per step of the cut's chunked passes
_FEW = 6  # a write of at most this many products writes them one by one
_BINS = 1 << 12  # logp bins of the cut


class _PeakBuffer:
    """Growable (mass, logp) arrays, the two rows of one ``block``: a
    selector's candidate store, filled through the views ``append`` returns
    or one peak at a time by ``add_one``. ``take_top`` removes a layer by
    rank selection; ``cut``, a root's one cut. A root fills a buffer made at
    its exact size, which never grows.

    ``take_top(n)`` returns the whole buffer without a selection; that is
    every call of an alpha = 1 selector unless sums tie.
    """

    def __init__(self, capacity: int = 1024):
        # one allocation for both: a large root buffer reaches the
        # allocator's mmap threshold at half the entries, so freeing it
        # returns the memory to the system
        self.block = np.empty((2, capacity))
        self.mass, self.logp = self.block
        self.n = 0

    def _reserve(self, need: int):
        if need > self.mass.size:
            cap = self.mass.size
            while cap < need:
                cap *= 2
            block = np.empty((2, cap))
            block[:, : self.n] = self.block[:, : self.n]
            self.block = block
            self.mass, self.logp = block

    def append(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``size`` new entries at the end, for the caller to fill."""
        start, need = self.n, self.n + size
        self._reserve(need)
        self.n = need
        return self.mass[start:need], self.logp[start:need]

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
        self, want: float, lo: float, hi: float, by_mass: bool, start: int
    ) -> tuple[int | None, float]:
        """Move to the front of ``[start, n)`` the fewest of its highest-logp
        entries with logp >= lo that weigh at least ``want``, weighing each
        by its probability if ``by_mass``, else as 1; ``hi`` bounds every
        logp above. Entries before ``start`` are not read or moved.

        Returns (count, total), count being ``start`` plus the entries kept
        and total the weight of the entries of ``[start, n)`` at or above
        lo, or (None, total) with the buffer untouched when total < want.
        Works in chunks, never on full-size temporaries: the entries at or
        above lo are binned by logp, the bins above the one where the
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

        chunks = [(s, min(s + _CHUNK, n)) for s in range(start, n, _CHUNK)]
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

        front = start
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
    arrays, and each layer's max, min and size as Python numbers for the pop
    loop.

    A merge root counts over the layers in numpy instead. :meth:`mirror`
    keeps running numpy copies of each layer's negated min, size and
    probability mass, and of the sizes and masses summed over the layers
    before it, extending them by the layers pulled since its last call;
    the arrays grow by doubling. Nodes below the root never call it.
    """

    __slots__ = (
        "mass", "logp", "lmax", "lmin", "size",
        "nmin", "sizes", "probs", "csize", "cprob", "mirrored",
    )

    def __init__(self):
        self.mass: list[np.ndarray] = []
        self.logp: list[np.ndarray] = []
        self.lmax: list[float] = []
        self.lmin: list[float] = []
        self.size: list[int] = []
        # csize[i] and cprob[i] sum the layers before layer i
        self.nmin, self.sizes, self.probs, self.csize, self.cprob = np.zeros((5, 1))
        self.mirrored = 0

    def add(self, mass: np.ndarray, logp: np.ndarray):
        if logp.size == 1:
            # alpha = 1 pulls: no numpy reductions for a one-peak layer
            lmax = lmin = float(logp[0])
        else:
            lmax, lmin = float(logp.max()), float(logp.min())
        self.mass.append(np.ascontiguousarray(mass, dtype=np.float64))
        self.logp.append(np.ascontiguousarray(logp, dtype=np.float64))
        self.lmax.append(lmax)
        self.lmin.append(lmin)
        self.size.append(logp.size)

    def mirror(self) -> int:
        """Extend the numpy mirrors to every pulled layer; the layer count."""
        n, done = len(self.size), self.mirrored
        if done == n:
            return n
        if n >= self.csize.size:
            cap = 2 * self.csize.size
            while cap <= n:
                cap *= 2
            for name in ("nmin", "sizes", "probs", "csize", "cprob"):
                old = getattr(self, name)
                grown = np.zeros(cap)
                grown[: old.size] = old
                setattr(self, name, grown)
        nmin, sizes, probs = self.nmin, self.sizes, self.probs
        csize, cprob = self.csize, self.cprob
        for i in range(done, n):
            size = self.size[i]
            if size == 1:
                prob = math.exp(self.lmax[i])
            else:
                prob = float(np.exp(self.logp[i]).sum())
            nmin[i] = -self.lmin[i]
            sizes[i] = size
            probs[i] = prob
            csize[i + 1] = csize[i] + size
            cprob[i + 1] = cprob[i] + prob
        self.mirrored = n
        return n


def _pairs(a: np.ndarray, b: np.ndarray, counts: np.ndarray):
    """Row i paired with b's first counts[i] entries, all rows end to end:
    the row and column indices and the sums ``a[row] + b[column]``."""
    rows = np.repeat(np.arange(counts.size), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, cols, a[rows] + b[cols]


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
        # bounds on the best corners of the parked products, -inf when
        # nothing is parked; changed only where parking changes
        self._x_bound = _NEG_INF
        self._y_wait: list[int] = []
        self._y_bound = _NEG_INF
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
        if self._x.size and self._y.size:
            self._push_product(0, 0)

    # -- child layers ------------------------------------------------------

    def _pull_x(self):
        mass, logp = self.x.next_layer()
        self.x_pulls += 1
        # a finite bound means the spine product below the last layer waits
        parked = self._x_bound > _NEG_INF
        self._x_bound = _NEG_INF
        if mass.size == 0:
            self.x_done = True
            return
        self._x.add(mass, logp)
        self._stored += mass.size
        if parked:
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

    def _pull(self, bx: float, by: float):
        """The heap's pull, which the grid root follows too: the child whose
        bound is larger, X on ties."""
        if bx >= by:
            self._pull_x()
        else:
            self._pull_y()

    # -- heap and products -------------------------------------------------

    def _push_product(self, u: int, v: int):
        key = self._x.lmax[u] + self._y.lmax[v]
        heapq.heappush(self._heap, (-key, u, v, _BEST))

    def _fill(self, count):
        """Pop products until ``guaranteed`` reaches count or every product
        is credited, then ``_write`` the popped best corners."""
        heap, push, pop = self._heap, heapq.heappush, heapq.heappop
        X, Y = self._x, self._y
        xmax, xmin, xsize = X.lmax, X.lmin, X.size
        ymax, ymin, ysize = Y.lmax, Y.lmin, Y.size
        ny = len(ymax)
        bx, by = self._x_bound, self._y_bound
        guaranteed = self.guaranteed
        made = 0
        stored = self._stored
        stored_at_best = -1  # child peaks stored at the last best-corner pop
        pending: list[tuple[int, int]] = []
        while guaranteed < count:
            # activate parked products that could outrank the heap top
            while True:
                if heap:
                    top = -heap[0][0]
                    if (bx < top and by < top) or (bx == by == _NEG_INF):
                        break
                elif bx == by == _NEG_INF:
                    break
                self._pull(bx, by)
                bx, by, stored = self._x_bound, self._y_bound, self._stored
                ny = len(ymax)
            if not heap:
                break
            _, u, v, phase = pop(heap)
            if phase == _BEST:
                pending.append((u, v))
                made += xsize[u] * ysize[v]
                stored_at_best = stored
                # successors: (u+1, 0) down the spine, (u, v+1) along the row;
                # one whose child layer is not pulled yet is parked; X is
                # pulled only while the spine waits, so (u+1, 0) always parks
                if v == 0 and not self.x_done:
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
            guaranteed += xsize[u] * ysize[v]
        if pending:
            self._write(pending, made)
        self.guaranteed = guaranteed
        self.materialized_total += made
        # buffer and stored peaks only grow inside one call, so the last
        # best-corner pop saw the call's most resident peaks
        if stored_at_best >= 0:
            resident = self._buffer.n + stored_at_best
            if resident > self.peak_resident:
                self.peak_resident = resident

    def _write(self, pending: list[tuple[int, int]], total: int):
        """Append the sums of one pop loop's products (u, v) to the buffer, in
        pop order, each product row-major: product by product when there are
        at most ``_FEW``, else by one ragged gather of ``total`` sums."""
        X, Y, buf = self._x, self._y, self._buffer
        if len(pending) <= _FEW:
            for u, v in pending:
                xm, ym = X.mass[u], Y.mass[v]
                a, b = xm.size, ym.size
                if a == 1 == b:
                    buf.add_one(float(xm[0]) + float(ym[0]), X.lmax[u] + Y.lmax[v])
                else:
                    mass, logp = buf.append(a * b)
                    np.add.outer(xm, ym, out=mass.reshape(a, b))
                    np.add.outer(X.logp[u], Y.logp[v], out=logp.reshape(a, b))
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
        """The k most probable peaks, or all of them if fewer exist, in
        descending order at alpha = 1. Ends the stream; raises ValueError
        once a layer has been emitted."""
        return self._select(k, by_mass=False)[:2]

    def until_cumulative(self, p: float) -> tuple[np.ndarray, np.ndarray, bool]:
        """The fewest most probable peaks whose probability sums to at least
        p, and whether the peaks ran out short of p (then all are returned);
        in descending order at alpha = 1. Ends the stream; raises ValueError
        once a layer has been emitted."""
        return self._select(p, by_mass=True)

    # -- one-shot selection at a root ----------------------------------------

    def _select(self, want, by_mass):
        """Find the cut key on the layer grid, materialize every product that
        can reach it into one buffer, sure products first, and cut the rest
        to the fewest peaks that, with the sure ones, weigh ``want``; pull
        on if they weigh less."""
        if self.layers_emitted:
            raise ValueError("a merge node selects once, before emitting layers")
        target = want
        while True:
            key, credited, exhausted = self._grid_key(target, by_mass)
            buf = None  # the old buffer goes before the new one is filled
            buf, front, sure = self._grid_fill(key, want, by_mass)
            # the seed product's key bounds every sum from above
            top = self._x.lmax[0] + self._y.lmax[0] if buf.n else 0.0
            kept, total = buf.cut(want - sure, key, top, by_mass, front)
            total += sure
            if kept is not None or exhausted:
                break
            # the summed guarantee rounded up past what the buffer holds
            target = max(credited + (want - total), math.nextafter(credited, math.inf))
        short = kept is None
        n = buf.n if short else kept
        mass, logp = buf.mass[:n], buf.logp[:n]
        if self.schedule.alpha == 1.0:
            # one-peak layers promise fully sorted output
            order = np.argsort(logp)[::-1]
            mass[:] = mass[order]
            logp[:] = logp[order]
        self.emitted += n
        self.layers_emitted += 1
        self._heap.clear()
        return mass, logp, short

    def _grid_key(self, target, by_mass) -> tuple[float, float, bool]:
        """Pull children as the pop loop would, until the products whose
        worst corner lies above both pull bounds weigh ``target``. Returns
        the cut key, the key at which those products, in descending key
        order, first weigh ``target``; the weight credited down to it; and
        whether every product is credited short of ``target`` (then the key
        is the least worst corner)."""
        X, Y = self._x, self._y
        while True:
            nx, ny = X.mirror(), Y.mirror()
            if not (nx and ny):
                return math.inf, 0.0, True
            bx = _NEG_INF if self.x_done else X.lmin[-1] + Y.lmax[0]
            by = _NEG_INF if self.y_done else X.lmax[0] + Y.lmin[-1]
            bound = max(bx, by)
            # count over the axis with fewer layers: row u of S credits a
            # prefix of L, the layers whose min exceeds bound - min(u), here
            # with a margin so that rounding can only overcount
            S, L = (X, Y) if nx <= ny else (Y, X)
            ns, nl = min(nx, ny), max(nx, ny)
            if bound == _NEG_INF:
                prefix, weight = np.full(ns, nl), math.inf
            elif (
                X.cprob[nx] * Y.cprob[ny] * (1.0 + 1e-9) < target
                if by_mass
                else X.csize[nx] * Y.csize[ny] < target
            ):
                weight = 0.0  # not even every pulled product reaches it
            else:
                margin = 1e-12 * (1.0 + abs(bound) + abs(S.lmin[0]) + abs(S.lmin[-1]))
                prefix = np.searchsorted(L.nmin[:nl], (margin - bound) - S.nmin[:ns])
                if by_mass:
                    # summed in another order than below: allow for rounding
                    weight = S.probs[:ns] @ L.cprob[prefix] * (1.0 + 1e-9)
                else:
                    weight = S.sizes[:ns] @ L.csize[prefix]
            if weight >= target:
                rows, cols, keys = _pairs(-S.nmin[:ns], -L.nmin[:nl], prefix)
                above = keys > bound
                rows, cols, keys = rows[above], cols[above], keys[above]
                if by_mass:
                    w = S.probs[rows] * L.probs[cols]
                else:
                    w = S.sizes[rows] * L.sizes[cols]
                order = np.argsort(-keys, kind="stable")
                credited = np.cumsum(w[order])
                at = int(np.searchsorted(credited, target))
                if at < credited.size:
                    return float(keys[order[at]]), float(credited[at]), False
                if bound == _NEG_INF:
                    return float(keys[order[-1]]), float(credited[-1]), True
            self._pull(bx, by)

    def _grid_fill(self, key, want, by_mass) -> tuple[_PeakBuffer, int, float]:
        """A buffer of exactly the sums of every product whose best corner
        is at least ``key``, with the sums of the products sure to be kept
        first: those whose worst corner exceeds :func:`_kept_bound`'s bound
        on the kept threshold. Returns the buffer, the count of its sure
        sums and their weight. A row of the axis with fewer layers is at
        most two ``np.add`` calls, each writing mass and logp: its sure
        products into the front, the rest behind every sure part."""
        X, Y = self._x, self._y
        nx, ny = len(X.size), len(Y.size)
        S, L = (X, Y) if nx <= ny else (Y, X)
        if not (nx and ny):
            return _PeakBuffer(0), 0, 0.0
        smax, lmax = np.array(S.lmax), np.array(L.lmax)
        ns, nl = smax.size, lmax.size
        margin = 1e-12 * (1.0 + abs(key) + abs(smax[0]) + abs(smax[-1]))
        prefix = np.searchsorted(-lmax, (smax - key) + margin, side="right")
        rows, _, keys = _pairs(smax, lmax, prefix)
        prefix = np.bincount(rows[keys >= key], minlength=ns)
        hi = _kept_bound(S, L, smax, lmax, key, want, by_mass)
        # row u's sure layers: those whose min exceeds hi - min(u), here with
        # a margin so that rounding can only undercount
        margin = 1e-12 * (1.0 + abs(hi) + abs(S.nmin[0]) + abs(S.nmin[ns - 1]))
        sure = np.searchsorted(L.nmin[:nl], -(hi + margin) - S.nmin[:ns])
        np.minimum(sure, prefix, out=sure)
        sizes = S.sizes[:ns].astype(np.intp)
        width = L.csize[prefix].astype(np.intp)  # peaks of L per row
        split = L.csize[sure].astype(np.intp)  # of them in sure products
        total, front = int(sizes @ width), int(sizes @ split)
        weight = float(S.probs[:ns] @ L.cprob[sure]) if by_mass else front
        buf = _PeakBuffer(total)
        buf.n = total
        # mass over logp, each axis's filled layers end to end, so that one
        # np.add writes both
        filled, cols = int(np.count_nonzero(prefix)), int(prefix[0])
        sx = _joined(S.mass[:filled] + S.logp[:filled], range(2 * filled)).reshape(2, -1)
        lx = _joined(L.mass[:cols] + L.logp[:cols], range(2 * cols)).reshape(2, -1)
        block = buf.block

        def put(at, xs, c0, c1):
            # row xs times L's peaks c0 to c1, from at on; returns the end
            if c1 == c0:
                return at
            a = xs.shape[1]
            end = at + a * (c1 - c0)
            np.add(xs, lx[:, None, c0:c1], out=block[:, at:end].reshape(2, a, c1 - c0))
            return end

        at, back, s1 = 0, front, 0
        for u, b, c in zip(range(filled), split.tolist(), width.tolist()):
            s0, s1 = s1, s1 + S.size[u]
            xs = sx[:, s0:s1, None]
            at = put(at, xs, 0, b)
            back = put(back, xs, b, c)
        self.materialized_total = total
        self.peak_resident = max(self.peak_resident, total + self._stored)
        return buf, front, weight


def _kept_bound(S: _Layers, L: _Layers, smax, lmax, key, want, by_mass) -> float:
    """An upper bound on a root cut's kept threshold: the least key, to
    within 2^-12 of the key range, such that the products whose best corner
    exceeds it weigh less than ``want``, so that the cut must keep a sum at
    or below it. Each probe counts as :meth:`PairwiseSelector._grid_key`
    does, with margins that can only overcount. At alpha = 1 only products
    tied at the cut key straddle it, and the first probe, just above the
    key, ends the search."""
    ns = smax.size
    weight, running = (S.probs[:ns], L.cprob) if by_mass else (S.sizes[:ns], L.csize)
    slack = 1.0 + 1e-9 if by_mass else 1.0
    top = smax[0] + lmax[0]
    margin = 1e-12 * (1.0 + abs(key) + abs(top) + abs(smax[0]) + abs(smax[-1]))
    # row u counts the layers whose max exceeds h - max(u), less the margin
    nlmax, base = -lmax, smax + margin

    def light(h):
        return weight @ running[nlmax.searchsorted(base - h)] * slack < want

    # every best corner exceeding lo exceeds key, and none exceeds hi
    lo, hi = key + 2 * margin, top + 2 * margin
    if light(lo):
        return lo
    # more halvings move little: 12, 14 and 20 leave 17.65%, 17.64% and
    # 17.64% of a protein-coverage round's buffered sums behind the front
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if light(mid):
            hi = mid
        else:
            lo = mid
    return hi
