"""Subisotopologue generation: multinomial enumeration in probability order.

One element with count n and m isotopes has C(n+m-1, m-1) possible isotope
assignments (index tuples, i.e. weak compositions of n into m parts). This
module emits them in nonincreasing multinomial-probability order without ever
holding the full universe: starting from the distribution mode, a binary heap
proposes neighbors through a marker scheme that generates every tuple exactly
once, so no seen-set is needed.

The marker scheme: relative to the mode, each emitted tuple has some entries
incremented and some decremented (never both for one entry). A tuple entering
the heap carries two markers, the largest index incremented so far and the
largest index decremented so far. When popped, it proposes one new tuple per
index pair (i >= inc_mark, j >= dec_mark, i != j) by incrementing entry i and
decrementing entry j, subject to entry i sitting at or above its mode value
and entry j at or below it. Increments and decrements therefore happen in
nondecreasing index order along any proposal chain, which makes the chain
from the mode to any tuple unique.

Each step costs O(1) in the log-probability. A child moves one atom from
isotope j to isotope i of its parent, whose counts are c, so

    logp(child) = logp(parent) + (ln p_i - ln(c_i + 1)) + (ln c_j - ln p_j)

with the parent's logp taken from its heap entry. Only the mode's value comes
from :func:`log_pmf`. Since every tuple has exactly one chain from the mode,
the rounding a tuple's value picks up is the same on every run and under any
layer schedule or merge tree above the generator.

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
the layer's counts tuples.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .isotopes import Isotope
from .loh import LayerSchedule


class MultinomialConfig:
    """Fixed data for one element: count, abundances, masses, ln-factorials."""

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
        # lf[i] = ln(i!) by ascending accumulation, which makes log_pmf a
        # fixed function of the counts: the oracle's reference values and
        # every generator's mode value round the same way on every run
        lf = np.empty(self.n + 1)
        lf[0] = 0.0
        np.cumsum(np.log(np.arange(1, self.n + 1, dtype=np.float64)), out=lf[1:])
        self.log_factorial = lf

    @classmethod
    def from_isotopes(cls, n: int, isotopes: tuple[Isotope, ...]) -> "MultinomialConfig":
        return cls(n, [iso.abundance for iso in isotopes], [iso.mass for iso in isotopes])

    def tuple_count(self) -> int:
        return math.comb(self.n + self.m - 1, self.m - 1)


def log_pmf(config: MultinomialConfig, counts) -> float:
    """ln P(counts) = ln n! - sum ln x_i! + sum x_i ln p_i, ascending i."""
    lf = config.log_factorial
    total = lf[len(lf) - 1]
    for x, lp in zip(counts, config.log_probs):
        total = total - lf[x] + x * lp
    return float(total)


def _row_masses(rows, masses: np.ndarray) -> np.ndarray:
    """Masses of a list of counts tuples as one row-wise expression; a row's
    value does not depend on how many rows share the call."""
    flat = np.fromiter(
        itertools.chain.from_iterable(rows),
        dtype=np.float64,
        count=len(rows) * masses.size,
    )
    return (flat.reshape(len(rows), masses.size) * masses).sum(axis=1)


def mass_of(config: MultinomialConfig, counts) -> float:
    return float(_row_masses([counts], np.asarray(config.masses))[0])


def find_mode(config: MultinomialConfig) -> tuple[int, ...]:
    """An index tuple of maximal probability.

    Seeds each entry with its binomial mode floor((n+1)*p_i), repairs the sum
    to n by greedy best-gain steps, then hill-climbs on strict improvement
    (guaranteed to terminate on probability plateaus).
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

    improved = True
    while improved:
        improved = False
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
        if best_move is not None:
            i, j = best_move
            counts[i] += 1
            counts[j] -= 1
            improved = True
    return tuple(counts)


class SubisotopologueGenerator:
    """Streams one element's (mass, ln probability) peaks in layered order.

    Single consumer; each ``next_layer`` call emits the next schedule-sized
    batch of peaks in nonincreasing probability order, a short final batch at
    exhaustion, then empty batches forever.
    """

    def __init__(self, config: MultinomialConfig, schedule: LayerSchedule):
        self.config = config
        self.schedule = schedule
        self.mode = find_mode(config)
        self.emitted = 0
        self.layers_emitted = 0
        self._total = config.tuple_count()
        self._masses = np.asarray(config.masses)
        # heap entries: (-logp, counts, inc_mark, dec_mark); the counts tuple
        # breaks probability ties lexicographically for deterministic output
        self._heap = [(-log_pmf(config, self.mode), self.mode, 0, 0)]

    @property
    def exhausted(self) -> bool:
        return self.emitted >= self._total

    def next_tuple(self):
        """Pop the next most probable (counts, logp), or None when done."""
        rows, logps = self._pop(1)
        return (rows[0], logps[0]) if rows else None

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
        self.emitted += len(rows)
        return rows, logps

    def _propose(self, neg_logp: float, counts, inc_mark: int, dec_mark: int):
        mode = self.mode
        log_probs = self.config.log_probs
        m = len(counts)
        heap = self._heap
        log = math.log
        push = heapq.heappush
        for j in range(dec_mark, m):
            cj = counts[j]
            if cj == 0 or cj > mode[j]:
                continue
            down = log(cj) - log_probs[j]
            for i in range(inc_mark, m):
                ci = counts[i]
                if i == j or ci < mode[i]:
                    continue
                child = list(counts)
                child[i] = ci + 1
                child[j] = cj - 1
                step = (log_probs[i] - log(ci + 1)) + down
                push(heap, (neg_logp - step, tuple(child), i, j))

    def next_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit the next layer of peaks as (mass array, logp array)."""
        self.layers_emitted += 1
        rows, logps = self._pop(self.schedule.layer_size(self.layers_emitted))
        return _row_masses(rows, self._masses), np.asarray(logps)
