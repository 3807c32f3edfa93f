import math
import re
from pathlib import Path

import pytest

from isoselect.isotopes import (
    Isotope,
    IsotopeTable,
    IsotopeTableError,
    UnknownElementError,
    load_default,
    load_table,
    parse_table,
)

REQUIRED = ["H", "C", "N", "O", "S", "Xe", "Sn", "Nd", "Dy", "Au", "Ca", "Ga", "Pd"]


def test_default_table_covers_required_elements():
    table = load_default()
    for symbol in REQUIRED:
        assert symbol in table


def test_default_table_is_clean():
    table = load_default()
    for symbol in table.elements():
        isotopes = table.get(symbol)
        masses = [iso.mass for iso in isotopes]
        assert masses == sorted(masses)
        assert len(set(masses)) == len(masses)
        assert all(0 < iso.abundance <= 1 for iso in isotopes)
        # renormalization makes the float sum exactly 1, not just close
        assert math.fsum(iso.abundance for iso in isotopes) == 1.0


def test_default_xenon_has_nine_isotopes():
    assert len(load_default().get("Xe")) == 9


def test_unknown_element():
    table = load_default()
    with pytest.raises(UnknownElementError):
        table.get("Zz")
    assert "Zz" not in table


def test_isotope_validation():
    with pytest.raises(IsotopeTableError):
        Isotope(-1.0, 0.5)
    with pytest.raises(IsotopeTableError):
        Isotope(12.0, 0.0)
    with pytest.raises(IsotopeTableError):
        Isotope(12.0, 1.5)
    with pytest.raises(IsotopeTableError):
        Isotope(math.inf, 0.5)


def test_parse_table_basic():
    table = parse_table(
        """
        # hydrogen
        H 1.0078 0.999885
        H 2.0141 0.000115   # deuterium
        X 10.0 1.0

        """
    )
    assert len(table) == 2
    h = table.get("H")
    assert [iso.mass for iso in h] == [1.0078, 2.0141]
    assert math.fsum(iso.abundance for iso in h) == 1.0


def test_parse_table_orders_by_mass():
    table = parse_table("H 2.0141 0.000115\nH 1.0078 0.999885\n")
    assert [iso.mass for iso in table.get("H")] == [1.0078, 2.0141]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("H 1.0", "expected"),
        ("H 1.0 0.5 extra", "expected"),
        ("H mass 0.5", "non-numeric"),
        ("H -1.0 1.0", "mass"),
        ("H inf 1.0", "mass"),
        ("H 1.0 0.0", "abundance"),
        ("H 1.0 1.5", "abundance"),
        ("H 1.0 0.5\nH 1.0 0.5", "duplicate"),
        ("H 1.0 0.9", "sum"),
    ],
)
def test_parse_table_errors(text, fragment):
    with pytest.raises(IsotopeTableError) as err:
        parse_table(text)
    assert fragment in str(err.value)


def test_parse_table_reports_line_numbers():
    with pytest.raises(IsotopeTableError) as err:
        parse_table("H 1.0 0.6\nH 2.0 0.4\nO oops 1.0\n")
    assert "line 3" in str(err.value)
    # range errors come from Isotope itself, with the line prefixed
    with pytest.raises(IsotopeTableError) as err:
        parse_table("H 1.0 0.6\n# comment\nH 2.0 1.4\n")
    assert str(err.value).startswith("line 3: ") and "abundance" in str(err.value)


def test_abundance_sum_tolerance():
    # within 1e-6 of 1: accepted and renormalized to exactly 1
    table = parse_table("H 1.0 0.6000004\nH 2.0 0.3999999\n")
    assert math.fsum(iso.abundance for iso in table.get("H")) == 1.0
    with pytest.raises(IsotopeTableError):
        parse_table("H 1.0 0.6\nH 2.0 0.39\n")


def test_serialize_round_trip():
    table = load_default()
    again = parse_table(table.serialize())
    assert again.elements() == table.elements()
    for symbol in table.elements():
        assert again.get(symbol) == table.get(symbol)


def test_load_table_from_file(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text("Q 10.0 0.75\nQ 11.0 0.25\n", encoding="utf-8")
    table = load_table(path)
    assert [iso.abundance for iso in table.get("Q")] == [0.75, 0.25]


def test_rejects_empty_element_list():
    with pytest.raises(IsotopeTableError):
        IsotopeTable({"H": []})


def test_readme_table_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Custom isotope tables", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    table = parse_table(block)
    assert table.elements() == ["H", "O"]
    assert len(table.get("H")) == 2
    assert len(table.get("O")) == 3
