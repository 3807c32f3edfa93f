"""Subisotopologue generation: multinomial enumeration in probability order.

One element with count n and m isotopes has C(n+m-1, m-1) possible isotope
assignments (index tuples, i.e. weak compositions of n into m parts). This
module emits them in nonincreasing multinomial-probability order without ever
holding the full universe. Every tuple is reached from the distribution mode
by a marker scheme that generates it exactly once, so no seen-set is needed.

The marker scheme: relative to the mode, each emitted tuple has some entries
incremented and some decremented (never both for one entry). A tuple carries
two markers, the largest index incremented so far and the largest index
decremented so far. Its children are one new tuple per index pair
(i >= inc_mark, j >= dec_mark, i != j), made by incrementing entry i and
decrementing entry j, subject to entry i sitting at or above its mode value
and entry j at or below it. Increments and decrements therefore happen in
nondecreasing index order along any chain, which makes the chain from the
mode to any tuple unique.

The generator runs in two phases.

* Warm-up: a binary heap keyed by (-logp, counts) pops the first
  :data:`WARMUP` tuples one by one, pushing each one's children. Most leaves
  of a protein never need more.
* Bands: the heap's remaining entries become the pending frontier, and the
  walk places whole bands. A band is every not-yet-placed tuple with logp at
  least a threshold t. Its chains start at the pending tuples at or above t,
  and logp only falls along a chain, so a child below t is kept as a pending
  chain root for a later band and nothing is walked twice. Each band is
  sorted once by the heap's key, logp descending and then counts ascending,
  and layers and tuples are handed out as slices of it.

Thresholds come from a count estimate. Near the mode about
V_{m-1} (2 n d)^{(m-1)/2} sqrt(prod_i p_i) tuples lie within d nats of it,
V_k being the volume of the unit k-ball (the Gaussian limit of the
multinomial). Each band aims to double the count placed so far, with the
estimate scaled by the ratio of that count to the estimate at the last
threshold. If the last threshold lay d nats below the mode, the constants
cancel and the next one lies d * 2^(1/g) nats below it, g = (m-1)/2 being
the estimate's exponent. From the second band on, g is instead the exponent
measured between the last two thresholds, held to [1/2, m-1]: isotopes whose
count is 0 at the mode make the count grow more slowly than the Gaussian
limit says (Dy861 placed 1,413 tuples in 5 bands with g = 3, in 3 with the
measured g).

A band is walked along rays: the repeated (i, j) moves from one tuple. Each
ray's length comes from a quadratic model of logp along it, and its values
are summed step by step with ``np.add.accumulate``. Sources are walked in
chunks of at most :data:`CHUNK` rows, which bounds the transient arrays, and
counts are stored in the smallest integer type that holds n + 1.

Each step costs O(1) in the log-probability. A child moves one atom from
isotope j to isotope i of its parent, whose counts are c, so

    logp(child) = logp(parent) + (ln p_i - ln(c_i + 1)) + (ln c_j - ln p_j)

in both phases, with ln read from the config's one table ``ln``. Only the
mode's value comes from :func:`log_pmf`. Since every tuple has exactly one
chain from the mode, the rounding a tuple's value picks up is the same on
every run and under any layer schedule or merge tree above the generator.

Rounding does build up along the chain. One step adds at most
4 eps (|logp| + 2 ln(n+1) + max_i |ln p_i|), eps being the float64 machine
epsilon, and logp only falls along a chain, so a tuple s steps from the mode
(s = sum_i max(c_i - mode_i, 0)) carries an error of at most

    |error of log_pmf at the mode| + s * 4 eps (|logp| + 2 ln(n+1) + max_i |ln p_i|).

Measured against math.lgamma terms summed by math.fsum, the largest
differences are 5e-12 over the first 10^5 tuples of Sn1000 and 6e-10 over the
first 2*10^4 of C20000, whose chains run to 19,779 steps and logp to -9e4;
the bound there is about 1.6e-6.

Masses are computed once per layer, as one row-wise numpy expression over
the layer's counts rows.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .isotopes import Isotope
from .loh import LayerSchedule

# Tuples the heap serves before the band walk takes over. A band costs a
# fixed 0.1-0.2 ms per pass over its sources, and a protein's C, H, N, O and
# S leaves need at most 120 tuples in any request of the benchmark's protein
# workloads. Measured at alpha 1.05 on 2 shared vCPUs: with bands from the
# first tuple, C800, H1200 and S30 leaves emit their first 5-20 tuples in
# 0.45-1.4 ms, against 0.06-0.14 ms with this warm-up. Bands break even with
# the heap near 10^3 tuples and win past it: 10^4 tuples of Pd76, Sn300 and
# Xe200 take 21-39 ms with this warm-up (24-41 ms with a warm-up of 32) and
# 43-129 ms from the heap alone.
WARMUP = 256

# Source rows per numpy pass of the band walk; bounds its transient arrays.
CHUNK = 1024


class MultinomialConfig:
    """Fixed data for one element: count, abundances, masses, ln table."""

    def __init__(self, n: int, probs, masses):
        if n < 1:
            raise ValueError("element count must be >= 1")
        probs = [float(p) for p in probs]
        masses = [float(x) for x in masses]
        if len(probs) != len(masses) or not probs:
            raise ValueError("probs and masses must be nonempty and same length")
        if any(p <= 0 for p in probs):
            raise ValueError("all isotope probabilities must be > 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"isotope probabilities sum to {total}, expected 1")
        self.n = int(n)
        self.m = len(probs)
        self.probs = probs
        self.masses = masses
        self.log_probs = [math.log(p) for p in probs]
        # ln[i] = ln(i) for 1 <= i <= n + 1 (ln[0] is unused): the one table
        # every generator step reads, whichever phase takes it
        ln = np.zeros(self.n + 2)
        ln[1:] = np.log(np.arange(1, self.n + 2, dtype=np.float64))
        self.ln = ln
        # lf[i] = ln(i!) by ascending accumulation, which makes log_pmf a
        # fixed function of the counts: the oracle's reference values and
        # every generator's mode value round the same way on every run
        lf = np.empty(self.n + 1)
        lf[0] = 0.0
        np.cumsum(ln[1 : self.n + 1], out=lf[1:])
        self.log_factorial = lf

    @classmethod
    def from_isotopes(cls, n: int, isotopes: tuple[Isotope, ...]) -> "MultinomialConfig":
        return cls(n, [iso.abundance for iso in isotopes], [iso.mass for iso in isotopes])

    def tuple_count(self) -> int:
        return math.comb(self.n + self.m - 1, self.m - 1)

    def log_width(self) -> float:
        """Estimated log-width of the element's stream, 0 for one isotope.

        This is the Gaussian entropy 1/2 (m-1) ln(2 pi e n) + 1/2 sum_i ln p_i
        of the multinomial. It is the log of the constant in the module
        docstring's count estimate V_{m-1} (2 n d)^{(m-1)/2} sqrt(prod_i p_i),
        with the unit-ball volume V_{m-1} taken as (pi e)^{(m-1)/2}: wider
        leaves place more tuples within any d nats of their mode.
        """
        if self.m == 1:
            return 0.0
        return 0.5 * (
            (self.m - 1) * math.log(2 * math.pi * math.e * self.n)
            + math.fsum(self.log_probs)
        )


def log_pmf(config: MultinomialConfig, counts) -> float:
    """ln P(counts) = ln n! - sum ln x_i! + sum x_i ln p_i, ascending i."""
    lf = config.log_factorial
    total = lf[len(lf) - 1]
    for x, lp in zip(counts, config.log_probs):
        total = total - lf[x] + x * lp
    return float(total)


def _row_masses(rows: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Masses of counts rows as one row-wise expression; a row's value does
    not depend on how many rows share the call."""
    return (rows * masses).sum(axis=1)


def mass_of(config: MultinomialConfig, counts) -> float:
    return float(_row_masses(np.array([counts]), np.asarray(config.masses))[0])


def find_mode(config: MultinomialConfig) -> tuple[int, ...]:
    """An index tuple of maximal probability.

    Seeds each entry with its binomial mode floor((n+1)*p_i), repairs the sum
    to n by greedy best-gain steps, then hill-climbs on strict improvement of
    :func:`log_pmf`. A move's rounded gain can be positive on a probability
    plateau, in both directions; requiring the value itself to rise
    guarantees termination there.
    """
    n, m = config.n, config.m
    if m == 1:
        return (n,)
    counts = [min(n, int((n + 1) * p)) for p in config.probs]
    log_probs = config.log_probs

    deficit = n - sum(counts)
    while deficit > 0:
        # adding one to entry i changes ln P by ln p_i - ln(x_i + 1)
        i = max(range(m), key=lambda i: log_probs[i] - math.log(counts[i] + 1))
        counts[i] += 1
        deficit -= 1
    while deficit < 0:
        # removing one from entry i changes ln P by ln x_i - ln p_i
        i = max(
            (i for i in range(m) if counts[i] > 0),
            key=lambda i: math.log(counts[i]) - log_probs[i],
        )
        counts[i] -= 1
        deficit += 1

    value = log_pmf(config, counts)
    while True:
        best_gain = 0.0
        best_move = None
        for i in range(m):
            for j in range(m):
                if i == j or counts[j] == 0:
                    continue
                gain = (
                    log_probs[i]
                    - math.log(counts[i] + 1)
                    - log_probs[j]
                    + math.log(counts[j])
                )
                if gain > best_gain:
                    best_gain = gain
                    best_move = (i, j)
        if best_move is None:
            break
        i, j = best_move
        counts[i] += 1
        counts[j] -= 1
        moved = log_pmf(config, counts)
        if moved <= value:
            counts[i] -= 1
            counts[j] += 1
            break
        value = moved
    return tuple(counts)


def _concat(parts: list[tuple]) -> tuple:
    """Column-wise concatenation of a nonempty list of equal-shape tuples."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _sort_band(counts: np.ndarray, logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ordered by logp descending, then counts ascending."""
    order = np.argsort(-logp, kind="stable")
    ranked = logp[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    if tied.size:
        # only runs of equal logp need the counts as a secondary key
        member = np.zeros(ranked.size, bool)
        member[tied] = member[tied + 1] = True
        pos = np.flatnonzero(member)
        run = np.cumsum(np.r_[0, ranked[pos[1:]] != ranked[pos[:-1]]])
        sub = order[pos]
        keys = tuple(counts[sub, c] for c in reversed(range(counts.shape[1])))
        order[pos] = sub[np.lexsort(keys + (run,))]
    return counts[order], logp[order]


class SubisotopologueGenerator:
    """Streams one element's (mass, ln probability) peaks in layered order.

    Single consumer; each ``next_layer`` call emits the next schedule-sized
    batch of peaks in nonincreasing probability order, a short final batch at
    exhaustion, then empty batches forever. At a tree root, ``top_k`` or
    ``until_cumulative`` selects once instead. ``generated`` counts the tuples
    placed in order so far, the warm-up's and every band's; it is at least
    ``emitted``.
    """

    def __init__(self, config: MultinomialConfig, schedule: LayerSchedule):
        self.config = config
        self.schedule = schedule
        self.mode = find_mode(config)
        self.emitted = 0
        self.generated = 0
        self.layers_emitted = 0
        self._total = config.tuple_count()
        self._masses = np.asarray(config.masses)
        self._dtype = np.min_scalar_type(-(config.n + 1))
        self._log_probs = np.asarray(config.log_probs)
        self._mode_counts = np.asarray(self.mode)
        self._mode_logp = log_pmf(config, self.mode)
        # heap entries: (-logp, counts, inc_mark, dec_mark); the counts tuple
        # breaks probability ties lexicographically for deterministic output.
        # None once the band walk has taken over
        self._heap = [(-self._mode_logp, self.mode, 0, 0)]
        # band walk state: chain roots not yet walked as (counts, logp,
        # inc_mark, dec_mark), the moves a tuple may propose, the last
        # threshold's distance below the mode with the count placed at it,
        # the current band, the next row of the band to hand out, and the
        # last threshold (in the warm-up, the last logp)
        self._pending = None
        self._moves = None
        self._last = None
        self._band = (np.empty((0, config.m), self._dtype), np.empty(0))
        self._cursor = 0
        self._t = self._mode_logp

    @property
    def exhausted(self) -> bool:
        return self.emitted >= self._total

    def next_tuple(self):
        """The next most probable (counts, logp), or None when done."""
        counts, logp = self._take(1)
        return (tuple(counts[0].tolist()), float(logp[0])) if logp.size else None

    def next_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit the next layer of peaks as (mass array, logp array)."""
        return self.top_k(self.schedule.layer_size(self.layers_emitted + 1))

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The next k peaks in order, or all that remain; one layer."""
        self.layers_emitted += 1
        counts, logp = self._take(k)
        return _row_masses(counts, self._masses), logp

    def until_cumulative(self, p: float) -> tuple[np.ndarray, np.ndarray, bool]:
        """The fewest next peaks, in order, whose probability sums to at
        least p, and whether they ran out short of p (then all that remain
        are returned); one layer. Takes the rest of the warm-up, then of
        each band, carrying the sum from take to take as one cumsum. A cut
        leaves the rest unemitted, but one in the warm-up spends the heap's
        tail: this is the stream's last read."""
        self.layers_emitted += 1
        parts = [(np.empty(0), np.empty(0))]
        total = 0.0
        while total < p:
            warm = self._heap is not None
            if warm:
                size = WARMUP - self.emitted
            elif self._cursor < self._band[1].size or self._walk_band():
                size = self._band[1].size - self._cursor
            else:
                break
            counts, logp = self._take(size)
            if logp.size == 0:
                break
            csum = np.exp(logp)
            csum[0] += total
            np.cumsum(csum, out=csum)
            total = float(csum[-1])
            if total >= p:
                keep = int(np.searchsorted(csum, p)) + 1
                back = logp.size - keep  # past the cut: not emitted
                self.emitted -= back
                if not warm:
                    self._cursor -= back
                counts, logp = counts[:keep], logp[:keep]
            parts.append((_row_masses(counts, self._masses), logp))
        return (*_concat(parts), total < p)

    def _take(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``size`` tuples in order, as (counts rows, logp)."""
        parts = []
        if self._heap is not None:
            rows, logps = self._pop(min(size, WARMUP - self.emitted))
            if rows:
                parts.append((np.array(rows, self._dtype), np.array(logps)))
                self._t = logps[-1]
            self.emitted += len(rows)
            self.generated += len(rows)
            size -= len(rows)
            if self.emitted == WARMUP:
                self._start_bands()
        while size > 0 and self._heap is None:
            counts, logp = self._band
            if self._cursor == logp.size:
                if not self._walk_band():
                    break
                counts, logp = self._band
            lo = self._cursor
            hi = min(lo + size, logp.size)
            parts.append((counts[lo:hi], logp[lo:hi].copy()))
            self._cursor = hi
            self.emitted += hi - lo
            size -= hi - lo
        if len(parts) == 1:
            return parts[0]
        if parts:
            return _concat(parts)
        return self._band[0][:0], np.empty(0)

    def _pop(self, size: int) -> tuple[list, list]:
        """Pop up to ``size`` tuples in order, proposing each one's children."""
        heap = self._heap
        rows = []
        logps = []
        for _ in range(size):
            if not heap:
                break
            neg_logp, counts, inc_mark, dec_mark = heapq.heappop(heap)
            self._propose(neg_logp, counts, inc_mark, dec_mark)
            rows.append(counts)
            logps.append(-neg_logp)
        return rows, logps

    def _propose(self, neg_logp: float, counts, inc_mark: int, dec_mark: int):
        mode = self.mode
        log_probs = self.config.log_probs
        m = len(counts)
        heap = self._heap
        ln = self.config.ln.item
        push = heapq.heappush
        for j in range(dec_mark, m):
            cj = counts[j]
            if cj == 0 or cj > mode[j]:
                continue
            down = ln(cj) - log_probs[j]
            for i in range(inc_mark, m):
                ci = counts[i]
                if i == j or ci < mode[i]:
                    continue
                child = list(counts)
                child[i] = ci + 1
                child[j] = cj - 1
                step = (log_probs[i] - ln(ci + 1)) + down
                push(heap, (neg_logp - step, tuple(child), i, j))

    def _start_bands(self):
        """Hand the heap's entries to the band walk as its pending roots."""
        # The index pairs (i, j), i != j, and which of them the markers
        # allow, by [skip, inc_mark, dec_mark]: i >= inc_mark and
        # j >= dec_mark, less (inc_mark, dec_mark) itself where skip is set.
        m = self.config.m
        pair_i, pair_j = np.nonzero(~np.eye(m, dtype=bool))
        inc_mark, dec_mark = (a[..., None] for a in np.ogrid[:m, :m])
        marked = (pair_i >= inc_mark) & (pair_j >= dec_mark)
        own = (pair_i == inc_mark) & (pair_j == dec_mark)
        self._moves = (
            pair_i.astype(np.int8),
            pair_j.astype(np.int8),
            np.stack([marked, marked & ~own]),
        )
        heap, self._heap = self._heap, None
        neg_logp, counts, inc, dec = zip(*heap) if heap else ((),) * 4
        flat = itertools.chain.from_iterable(counts)
        self._pending = (
            np.fromiter(flat, self._dtype, len(heap) * m).reshape(-1, m),
            -np.array(neg_logp, dtype=np.float64),
            np.array(inc, np.int8),
            np.array(dec, np.int8),
        )

    def _next_threshold(self) -> float:
        """The threshold whose band should double the tuples placed so far
        (see the module docstring for the estimate). While every placed
        tuple ties the mode this is the mode's logp, and the band is the
        pending tuples' best level."""
        d = self._mode_logp - self._t
        exponent = (self.config.m - 1) / 2
        if self._last is not None:
            d_last, placed_last = self._last
            if d > d_last > 0:
                exponent = math.log(self.generated / placed_last) / math.log(d / d_last)
                exponent = min(max(exponent, 0.5), self.config.m - 1)
        self._last = (d, self.generated)
        return self._mode_logp - d * 2.0 ** (1.0 / exponent)

    def _walk_band(self) -> bool:
        """Place the next band; False when no tuple is left."""
        counts, logp, inc, dec = self._pending
        if logp.size == 0:
            return False
        t = min(self._next_threshold(), float(logp.max()))
        hit = logp >= t
        rest = ~hit
        pending = [(counts[rest], logp[rest], inc[rest], dec[rest])]
        skip = np.zeros(int(hit.sum()), bool)
        sources = (counts[hit], logp[hit], inc[hit], dec[hit], skip)
        band = []
        while sources[1].size:
            band.append(sources[:2])
            walked = []
            for lo in range(0, sources[1].size, CHUNK):
                above, below = self._rays(*(a[lo : lo + CHUNK] for a in sources), t)
                walked.append(above)
                pending.append(below)
            sources = _concat(walked)
        self._pending = _concat(pending)
        self._band = _sort_band(*_concat(band))
        self._cursor = 0
        self._t = t
        self.generated += self._band[1].size
        return True

    def _rays(self, counts, logp, inc, dec, skip, t: float):
        """Walk every ray leaving the given sources, down to threshold t.

        A source proposes a ray for each index pair its markers allow; a
        source with ``skip`` set is itself inside an (inc, dec) ray, which
        that ray continues, so it proposes every pair but that one. Returns
        the ray tuples at or above t, as the next pass's sources (counts,
        logp, inc, dec, skip), and each ray's first tuple below t, as pending
        roots (counts, logp, inc, dec).
        """
        ln, log_probs = self.config.ln, self._log_probs
        mode = self._mode_counts
        pair_i, pair_j, marked = self._moves
        allowed = marked[skip.view(np.int8), inc, dec]
        allowed &= (counts >= mode)[:, pair_i]
        allowed &= ((counts > 0) & (counts <= mode))[:, pair_j]
        row, pair = np.nonzero(allowed)
        if row.size == 0:
            empty = (counts[:0], logp[:0], inc[:0], dec[:0])
            return empty + (skip[:0],), empty
        i, j = pair_i[pair], pair_j[pair]
        ci = counts[row, i].astype(np.intp)
        cj = counts[row, j].astype(np.intp)

        # Every ray takes its first step here; most fall below t at once.
        first = (log_probs[i] - ln[ci + 1]) + (ln[cj] - log_probs[j])
        value = logp[row] + first
        live = np.flatnonzero(value >= t)
        dead = np.flatnonzero(value < t)

        # Length of a live ray: the steps until logp is expected to fall
        # below t, plus the one that falls, from the first step and the
        # curvature there; at most cj, as the ray ends when entry j reaches
        # 0. A ray that ends above t before that is continued by its last
        # tuple, which then proposes the (i, j) pair again.
        a = 0.5 / (ci[live] + 1) + 0.5 / cj[live]
        b = -first[live] - a
        reach = (np.sqrt(b * b + 4 * a * (logp[row[live]] - t)) - b) / (2 * a)
        length = np.minimum(np.floor(reach) + 1, cj[live]).astype(np.intp)

        # (ray, step, logp) of the tuples at or above t, each with whether
        # it skips its own pair, and of each ray's first tuple below t
        found = [(dead[:0], dead[:0], value[:0], skip[:0])]
        cut = [(dead, np.ones_like(dead), value[dead])]
        # rays are walked in buckets of lengths up to a power of two
        bucket = np.ceil(np.log2(length)).astype(np.intp)
        for power in np.flatnonzero(np.bincount(bucket)):
            sel = np.flatnonzero(bucket == power)
            ray, steps = live[sel], length[sel]
            step = np.arange(1, (1 << int(power)) + 1)
            walk = np.empty((ray.size, step.size + 1))
            walk[:, 0] = logp[row[ray]]
            # padded steps past a ray's length read clipped, unused entries
            up = log_probs[i[ray], None] - ln.take(ci[ray, None] + step, mode="clip")
            down = ln.take(cj[ray, None] + 1 - step, mode="clip")
            walk[:, 1:] = up + (down - log_probs[j[ray], None])
            # adds in the chain's order, so each value equals the heap's
            np.add.accumulate(walk, axis=1, out=walk)
            keep = (walk[:, 1:] >= t) & (step <= steps[:, None])
            np.logical_and.accumulate(keep, axis=1, out=keep)
            kept = keep.sum(axis=1)
            r, s = np.nonzero(keep)
            s += 1
            more = (kept == steps) & (steps < cj[ray])  # continued by its last tuple
            found.append((ray[r], s, walk[r, s], ~more[r] | (s < steps[r])))
            short = np.flatnonzero(kept < steps)
            cut.append((ray[short], kept[short] + 1, walk[short, kept[short] + 1]))

        def place(ray, step):
            out = counts[row[ray]]
            k = np.arange(ray.size)
            step = step.astype(out.dtype)
            out[k, i[ray]] += step
            out[k, j[ray]] -= step
            return out, i[ray], j[ray]

        ray, step, value, skip = _concat(found)
        above, inc, dec = place(ray, step)
        ray, step, value_below = _concat(cut)
        below, below_inc, below_dec = place(ray, step)
        return (
            (above, value, inc, dec, skip),
            (below, value_below, below_inc, below_dec),
        )
