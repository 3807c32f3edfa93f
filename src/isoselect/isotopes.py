"""Isotope masses and abundances, from the embedded NIST table or a user file.

The table file format is plain UTF-8 text, one isotope per line::

    <Symbol> <mass_da> <abundance>

separated by whitespace. ``#`` starts a comment, blank lines are ignored.
Masses must be finite and positive. Abundances are fractions; per element
they must sum to 1 within 1e-6 and are renormalized to sum to exactly 1.0
after loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ._nist import NIST_ISOTOPES

ABUNDANCE_SUM_TOL = 1e-6


class IsotopeTableError(ValueError):
    """Raised for malformed or physically invalid isotope table input."""


class UnknownElementError(KeyError):
    """Raised when a formula uses an element the isotope table lacks."""


@dataclass(frozen=True)
class Isotope:
    """One isotope: finite mass > 0 in daltons, natural abundance in (0, 1]."""

    mass: float
    abundance: float

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise IsotopeTableError(
                f"isotope mass must be finite and > 0, got {self.mass}"
            )
        if not (0 < self.abundance <= 1):
            raise IsotopeTableError(
                f"isotope abundance must be in (0, 1], got {self.abundance}"
            )


class IsotopeTable:
    """Immutable map from element symbol to its isotopes.

    Per element the isotopes are ordered by strictly increasing mass and the
    abundances sum to exactly 1.0 (adjusted on construction).
    """

    def __init__(self, entries: dict[str, list[Isotope]]):
        table: dict[str, tuple[Isotope, ...]] = {}
        for symbol, isotopes in entries.items():
            if not isotopes:
                raise IsotopeTableError(f"element {symbol} has no isotopes")
            isotopes = sorted(isotopes, key=lambda iso: iso.mass)
            for a, b in zip(isotopes, isotopes[1:]):
                if not (a.mass < b.mass):
                    raise IsotopeTableError(
                        f"duplicate isotope mass {b.mass} for element {symbol}"
                    )
            table[symbol] = tuple(_renormalize(symbol, isotopes))
        self._entries = table

    def get(self, symbol: str) -> tuple[Isotope, ...]:
        try:
            return self._entries[symbol]
        except KeyError:
            raise UnknownElementError(
                f"element {symbol} not in isotope table"
            ) from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._entries

    def elements(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def serialize(self) -> str:
        """Render in the table file format with round-trip precision."""
        lines = []
        for symbol, isotopes in self._entries.items():
            for iso in isotopes:
                lines.append(f"{symbol} {iso.mass!r} {iso.abundance!r}")
        return "\n".join(lines) + "\n"


def _renormalize(symbol: str, isotopes: list[Isotope]) -> list[Isotope]:
    total = math.fsum(iso.abundance for iso in isotopes)
    if abs(total - 1.0) > ABUNDANCE_SUM_TOL:
        raise IsotopeTableError(
            f"abundances for element {symbol} sum to {total}, expected 1 "
            f"within {ABUNDANCE_SUM_TOL}"
        )
    scaled = [iso.abundance / total for iso in isotopes]
    # Nudge the most abundant entry so the float sum is exactly 1.0; the
    # correction is at ulp level and keeps relative error below 1e-15.
    drift = 1.0 - math.fsum(scaled)
    if drift != 0.0:
        i = max(range(len(scaled)), key=lambda j: scaled[j])
        scaled[i] += drift
    return [Isotope(iso.mass, a) for iso, a in zip(isotopes, scaled)]


def parse_table(text: str) -> IsotopeTable:
    """Parse the isotope table file format (see module docstring)."""
    entries: dict[str, list[Isotope]] = {}
    seen: set[tuple[str, float]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise IsotopeTableError(
                f"line {lineno}: expected '<Symbol> <mass> <abundance>', got {raw!r}"
            )
        symbol, mass_s, abundance_s = fields
        try:
            mass = float(mass_s)
            abundance = float(abundance_s)
        except ValueError:
            raise IsotopeTableError(
                f"line {lineno}: non-numeric mass or abundance in {raw!r}"
            ) from None
        try:
            isotope = Isotope(mass, abundance)
        except IsotopeTableError as exc:
            raise IsotopeTableError(f"line {lineno}: {exc}") from None
        if (symbol, mass) in seen:
            raise IsotopeTableError(
                f"line {lineno}: duplicate isotope ({symbol}, {mass})"
            )
        seen.add((symbol, mass))
        entries.setdefault(symbol, []).append(isotope)
    return IsotopeTable(entries)


def load_table(path: str | Path) -> IsotopeTable:
    return parse_table(Path(path).read_text(encoding="utf-8"))


def load_default() -> IsotopeTable:
    """The embedded NIST table of all elements with stable isotopes."""
    entries = {
        symbol: [Isotope(mass, abundance) for mass, abundance in isotopes]
        for symbol, isotopes in NIST_ISOTOPES.items()
    }
    return IsotopeTable(entries)
