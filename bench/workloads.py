"""Seeded request generators for the isoselect benchmark.

A workload turns a seed into one *round* of requests. The program under test
only ever sees the generated formulas and the k, p and alpha values.

Sizes are stratified rather than drawn independently: a round covers a grid of
strata of its two size dimensions, each at its stratum's midpoint on the
workload's log-uniform (or uniform) scale, so the mix of work is the same for
every seed and seeds can be compared. The seed draws the molecules and the
request order. The dimension that sets a request's latency gets 15 strata and
the other 7: the 105 requests then put the latency median and 90th percentile
in the middle of a stratum, not on a gap between two, which would make them
jump from seed to seed. This module uses only the standard library, so it can
be imported before the program is.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

MAJOR, MINOR = 15, 7  # strata of the latency-setting and the other dimension

# Residue formulas (amino acid minus H2O); a chain adds one H2O for its ends.
RESIDUES = {
    "A": {"C": 3, "H": 5, "N": 1, "O": 1},
    "R": {"C": 6, "H": 12, "N": 4, "O": 1},
    "N": {"C": 4, "H": 6, "N": 2, "O": 2},
    "D": {"C": 4, "H": 5, "N": 1, "O": 3},
    "C": {"C": 3, "H": 5, "N": 1, "O": 1, "S": 1},
    "E": {"C": 5, "H": 7, "N": 1, "O": 3},
    "Q": {"C": 5, "H": 8, "N": 2, "O": 2},
    "G": {"C": 2, "H": 3, "N": 1, "O": 1},
    "H": {"C": 6, "H": 7, "N": 3, "O": 1},
    "I": {"C": 6, "H": 11, "N": 1, "O": 1},
    "L": {"C": 6, "H": 11, "N": 1, "O": 1},
    "K": {"C": 6, "H": 12, "N": 2, "O": 1},
    "M": {"C": 5, "H": 9, "N": 1, "O": 1, "S": 1},
    "F": {"C": 9, "H": 9, "N": 1, "O": 1},
    "P": {"C": 5, "H": 7, "N": 1, "O": 1},
    "S": {"C": 3, "H": 5, "N": 1, "O": 2},
    "T": {"C": 4, "H": 7, "N": 1, "O": 2},
    "W": {"C": 11, "H": 10, "N": 2, "O": 1},
    "Y": {"C": 9, "H": 9, "N": 1, "O": 2},
    "V": {"C": 5, "H": 9, "N": 1, "O": 1},
}

# Natural amino-acid frequencies in percent (UniProtKB/Swiss-Prot composition).
FREQUENCIES = {
    "A": 8.25, "R": 5.53, "N": 4.06, "D": 5.45, "C": 1.37,
    "E": 6.75, "Q": 3.93, "G": 7.07, "H": 2.27, "I": 5.96,
    "L": 9.66, "K": 5.84, "M": 2.42, "F": 3.86, "P": 4.70,
    "S": 6.56, "T": 5.34, "W": 1.08, "Y": 2.92, "V": 6.87,
}

# Elements with many stable isotopes, where the leaf generator is costly.
HEAVY_ELEMENTS = ("Sn", "Xe", "Te", "Cd", "Nd", "Mo", "Ba", "Dy", "Gd", "Hg")


@dataclass(frozen=True)
class Request:
    formula: str
    mode: str  # "k" or "p"
    value: float  # k (a whole number) or p
    alpha: float
    via: str = "lib"  # "lib": library calls; "cli": isoselect.cli.run in-process


def protein_formula(rng: random.Random, length: int) -> str:
    """A protein of ``length`` residues with the natural composition.

    Each residue's count is its expected count rounded up or down, by
    systematic sampling with a seeded order and offset, so proteins of one
    length differ by a few atoms. Independent residue draws would vary the
    sulfur count by about 10%, and the peaks a coverage request returns by
    up to 20%.
    """
    residues = list(FREQUENCIES)
    rng.shuffle(residues)
    scale = length / sum(FREQUENCIES.values())
    offset = rng.random()
    atoms = Counter({"H": 2, "O": 1})
    expected, taken = 0.0, 0
    for i, residue in enumerate(residues):
        expected += FREQUENCIES[residue] * scale
        upto = length if i == len(residues) - 1 else math.floor(expected + offset)
        for element, count in RESIDUES[residue].items():
            atoms[element] += (upto - taken) * count
        taken = upto
    return "".join(f"{el}{atoms[el]}" for el in "CHNOS" if atoms[el])


def log_midpoints(lo: float, hi: float, n: int) -> list[float]:
    """Midpoints, on a log scale, of n equal-probability strata of [lo, hi]."""
    return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]


def midpoints(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _proteins(seed, lengths, values, mode, alpha, via="lib"):
    rng = random.Random(seed)
    requests = [
        Request(protein_formula(rng, round(n)), mode, v, alpha, via)
        for n in lengths
        for v in values
    ]
    rng.shuffle(requests)
    return requests


def protein_topk(seed: int) -> list[Request]:
    ks = [round(k) for k in log_midpoints(1e3, 1e6, MAJOR)]
    return _proteins(seed, log_midpoints(100, 5000, MINOR), ks, "k", 1.05)


def protein_coverage(seed: int) -> list[Request]:
    # up to 3000 residues, not 5000: at 5000 and p = 0.9 one request returns
    # about 1e8 peaks and needs about 3 GB
    ps = midpoints(0.5, 0.9, MINOR)
    return _proteins(seed, log_midpoints(100, 3000, MAJOR), ps, "p", 1.05)


def sorted_export(seed: int) -> list[Request]:
    ks = [round(k) for k in log_midpoints(1e3, 10**4.5, MAJOR)]
    return _proteins(seed, log_midpoints(100, 5000, MINOR), ks, "k", 1.0, via="cli")


def heavy_leaf(seed: int) -> list[Request]:
    """Odd count strata get a second block. Elements follow a fixed Latin
    square over (count stratum, k stratum), so each k stratum gets the same
    element mix for every seed. The seed draws the order and each single
    block's count from the middle tenth of its stratum; a leaf's time hardly
    depends on its count, though its heap, and so peak memory, grows with it.
    Two-block requests keep their stratum midpoints, because a 3% change in
    one count can change their merge time by 1.7x.
    """
    rng = random.Random(seed)
    n = len(HEAVY_ELEMENTS)
    ks = [round(k) for k in log_midpoints(1e3, 10**4.5, MAJOR)]
    lo, hi = math.log(100), math.log(1000)

    def count(i, u=0.5):  # log-uniform in count stratum i, at u in [0, 1]
        return round(math.exp(lo + (hi - lo) * (i + u) / MINOR))

    requests = []
    for i in range(MINOR):
        for j, k in enumerate(ks):
            d = (i + j) % n
            if i % 2:
                second = HEAVY_ELEMENTS[(d + 1 + j % (n - 1)) % n]
                formula = f"{HEAVY_ELEMENTS[d]}{count(i)}{second}{count(MINOR - 1 - i)}"
            else:
                formula = f"{HEAVY_ELEMENTS[d]}{count(i, 0.45 + 0.1 * rng.random())}"
            requests.append(Request(formula, "k", k, 1.05))
    rng.shuffle(requests)
    return requests


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # seed -> list[Request]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "protein-topk",
            protein_topk,
            "Proteins of 100-5000 residues (BRCA2 is about 3400), k "
            "from 1e3 to 1e6, alpha 1.05: the paper's headline use, where the "
            "pairwise merge nodes do almost all the work.",
        ),
        Workload(
            "protein-coverage",
            protein_coverage,
            "Proteins of 100-3000 residues with p from 0.5 to 0.9 via "
            "select_until_cumulative; outputs reach millions of peaks, so root "
            "accumulation, layer trimming and resident memory matter here.",
        ),
        Workload(
            "heavy-leaf",
            heavy_leaf,
            "One or two blocks of 100-1000 atoms of many-isotope elements, k "
            "from 1e3 to 10^4.5: the leaf generator is most or all of the "
            "cost and merges are cheap.",
        ),
        Workload(
            "sorted-export",
            sorted_export,
            "cli.run with --alpha 1.0 --sorted --output on proteins, k from "
            "1e3 to 10^4.5: the only workload on the CLI output layer and the "
            "alpha = 1 heap-buffer path.",
        ),
    )
}
