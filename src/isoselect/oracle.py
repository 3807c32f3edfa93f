"""Brute-force reference path: enumerate every isotopologue of a compound.

Only feasible for small compounds. The merge tree never calls into this
module. The CLI's ``--oracle`` sorts :func:`enumerate_all`'s peaks once and
takes a prefix of them (an ``ArrayPeakStream`` root), so it shares no
selection code with the merge tree and checks the tree's selection as well
as its peaks.
"""

from __future__ import annotations

import math

import numpy as np

from .formula import Composition
from .isotopes import IsotopeTable
from .multinomial import MultinomialConfig, log_pmf

DEFAULT_MAX_ISOTOPOLOGUES = 10**7


class EnumerationLimitError(ValueError):
    """Compound has more isotopologues than the enumeration limit allows."""


def weak_compositions(n: int, m: int):
    """All tuples of m nonnegative ints summing to n, lexicographic order."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, m - 1):
            yield (first,) + rest


def log_pmf_naive(n: int, probs, counts) -> float:
    """Multinomial log-pmf by plain ln accumulation, no factorial table.

    Independent of the table-backed log_pmf so the two can cross-check.
    """
    total = 0.0
    for t in range(2, n + 1):
        total += math.log(t)
    for x, p in zip(counts, probs):
        for t in range(2, x + 1):
            total -= math.log(t)
        total += x * math.log(p)
    return total


def element_peaks(config: MultinomialConfig) -> tuple[np.ndarray, np.ndarray]:
    """All (mass, logp) subisotopologue peaks of one element, unsorted."""
    masses = []
    logps = []
    mass_vec = config.masses
    for counts in weak_compositions(config.n, config.m):
        masses.append(sum(x * w for x, w in zip(counts, mass_vec)))
        logps.append(log_pmf(config, counts))
    return np.asarray(masses), np.asarray(logps)


def isotopologue_count(comp: Composition, table: IsotopeTable) -> int:
    """Product of per-element weak composition counts, capped at 2**63 - 1."""
    cap = 2**63 - 1
    total = 1
    for symbol, n in comp:
        m = len(table.get(symbol))
        total *= math.comb(n + m - 1, m - 1)
        if total > cap:
            return cap
    return total


def enumerate_all(
    comp: Composition,
    table: IsotopeTable,
    max_isotopologues: int = DEFAULT_MAX_ISOTOPOLOGUES,
) -> tuple[np.ndarray, np.ndarray]:
    """Every isotopologue of the compound as (mass array, logp array).

    Masses add across elements, log probabilities add across elements.
    Output order is unspecified.
    """
    count = isotopologue_count(comp, table)
    if count > max_isotopologues:
        raise EnumerationLimitError(
            f"{count} isotopologues exceeds the enumeration limit "
            f"{max_isotopologues}"
        )
    masses = np.zeros(1)
    logps = np.zeros(1)
    for symbol, n in comp:
        config = MultinomialConfig.from_isotopes(n, table.get(symbol))
        em, el = element_peaks(config)
        masses = np.add.outer(masses, em).ravel()
        logps = np.add.outer(logps, el).ravel()
    return masses, logps


def top_k_reference(
    comp: Composition,
    table: IsotopeTable,
    k: int,
    max_isotopologues: int = DEFAULT_MAX_ISOTOPOLOGUES,
) -> tuple[np.ndarray, np.ndarray]:
    """The k most probable isotopologues, sorted descending by logp."""
    masses, logps = enumerate_all(comp, table, max_isotopologues)
    order = np.argsort(-logps, kind="stable")[:k]
    return masses[order], logps[order]
