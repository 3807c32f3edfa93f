"""Layer-ordered arrangements of keys, descending orientation.

A layered arrangement partitions a contiguous array into layers whose sizes
grow geometrically with rate ``alpha``. The descending layer property is:
every key in layer t is >= every key in layer t+1. Producing the arrangement
only requires rank selection at the layer boundaries, not a full sort;
:func:`layer_order` is the one routine that does it, for ``lohify`` and the
merge nodes' candidate buffer. A tree root selects once instead: a merge
root by a cut binned on logp, a leaf by a prefix of its exact order.

All layered streams in this package (subisotopologue generators, pairwise
selectors, fixed peak lists) share one schedule convention: layer 1 has size 1
and the cumulative size after t layers is the rounded geometric series
``(alpha**t - 1) / (alpha - 1)``, with every layer at least size 1. For
``alpha == 1`` every layer has size 1, and the schedule stores nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class LayerSchedule:
    """The alpha-driven sequence of layer sizes; layer indices are 1-based."""

    def __init__(self, alpha: float):
        if not (alpha >= 1.0) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite real >= 1, got {alpha}")
        self.alpha = float(alpha)
        self._cumulative = [0]

    def cumulative(self, t: int) -> int:
        """Total number of values in layers 1..t."""
        if t < 0:
            raise ValueError("layer index must be >= 0")
        if self.alpha == 1.0:
            return t
        while len(self._cumulative) <= t:
            self._cumulative.append(self._next_boundary())
        return self._cumulative[t]

    def _next_boundary(self) -> int:
        prev = self._cumulative[-1]
        t = len(self._cumulative)
        if t * math.log(self.alpha) > 700.0:
            # closed form overflows floats; extend by the exact recurrence
            return int(prev * Fraction(self.alpha)) + 1
        series = (math.pow(self.alpha, t) - 1.0) / (self.alpha - 1.0)
        # relative nudge so exact powers (alpha=2, t=3 -> 7) survive the floor
        target = math.floor(series * (1.0 + 1e-12))
        return max(prev + 1, target)

    def layer_size(self, t: int) -> int:
        if t < 1:
            raise ValueError("layer index must be >= 1")
        if self.alpha == 1.0:
            return 1
        return self.cumulative(t) - self.cumulative(t - 1)

    def boundaries_upto(self, n: int) -> list[int]:
        """Cumulative layer ends covering n values; the last may be short."""
        out = []
        t = 1
        while not out or out[-1] < n:
            out.append(min(self.cumulative(t), n))
            t += 1
        return out

    def __repr__(self):
        return f"LayerSchedule(alpha={self.alpha})"


@dataclass
class LayeredValues:
    """A contiguous array satisfying the descending layer property."""

    values: np.ndarray
    boundaries: list[int] = field(default_factory=list)
    schedule: LayerSchedule | None = None

    def layers(self):
        start = 0
        for end in self.boundaries:
            yield self.values[start:end]
            start = end


def layer_order(keys: np.ndarray, ends) -> np.ndarray:
    """Indices arranging ``keys`` into descending layers ending at ``ends``.

    ``ends`` are the cumulative layer ends, increasing, the last equal to
    ``keys.size``. Every key indexed before an end is >= every key indexed
    after it; order inside a layer is arbitrary, and ties may land in either
    of two adjacent layers. One ``np.argpartition`` places every boundary at
    once, or a full sort when every layer holds one key.
    """
    n = keys.size
    if len(ends) >= n:
        return np.argsort(keys)[::-1]
    # partition ascending and read back reversed: no negated copy of keys
    kth = np.array([n - e for e in ends[-2::-1]], dtype=np.intp)
    return np.argpartition(keys, kth)[::-1]


def lohify(values, schedule: LayerSchedule) -> LayeredValues:
    """Arrange keys into descending layers by rank selection at the
    schedule's boundaries (see :func:`layer_order`); the input is not
    modified."""
    arr = np.asarray(values)
    boundaries = schedule.boundaries_upto(arr.size) if arr.size else []
    return LayeredValues(arr[layer_order(arr, boundaries)], boundaries, schedule)


def verify_loh(lv: LayeredValues) -> bool:
    """Check the descending layer property and schedule conformance."""
    arr = np.asarray(lv.values)
    n = arr.size
    if n == 0:
        return lv.boundaries == []
    if not lv.boundaries or lv.boundaries[-1] != n:
        return False
    if lv.schedule is not None:
        if lv.boundaries != lv.schedule.boundaries_upto(n):
            return False
    prev_min = None
    start = 0
    for end in lv.boundaries:
        if end <= start:
            return False
        layer = arr[start:end]
        if prev_min is not None and layer.max() > prev_min:
            return False
        prev_min = layer.min()
        start = end
    return True
