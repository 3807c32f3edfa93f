import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from isoselect import cli
from isoselect.cli import run
from isoselect.tree import isotopologues

REPO = Path(__file__).resolve().parents[1]


def parse_output(text, sep="\t"):
    lines = text.strip().splitlines()
    header = lines[0].split(sep)
    rows = [[float(f) for f in line.split(sep)] for line in lines[1:]]
    return header, rows


def test_basic_top_k(capsys):
    assert run(["--formula", "H2O", "--k", "5"]) == 0
    header, rows = parse_output(capsys.readouterr().out)
    assert header == ["mass", "log_prob", "prob"]
    assert len(rows) == 5
    for mass, logp, prob in rows:
        assert mass > 0
        assert prob == pytest.approx(math.exp(logp), rel=1e-12)


def test_output_full_precision(capsys):
    assert run(["--formula", "H2O", "--k", "3", "--sorted"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    sel = isotopologues("H2O", k=3).sorted()
    for (mass, logp, _), m, lp in zip(rows, sel.mass, sel.logp):
        # 17 significant digits reparse to the identical float
        assert mass == m
        assert logp == lp


def test_sorted_flag(capsys):
    assert run(["--formula", "C6H12O6", "--k", "40", "--sorted"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    logps = [r[1] for r in rows]
    assert logps == sorted(logps, reverse=True)


@pytest.mark.parametrize("select", [["--k", "500"], ["--p", "0.99999"]])
def test_alpha_one_is_sorted_without_the_flag(capsys, select):
    assert run(["--formula", "C60H98N16O18S", *select, "--alpha", "1.0"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    logps = [r[1] for r in rows]
    assert len(logps) > 100
    assert logps == sorted(logps, reverse=True)


def test_p_mode(capsys):
    assert run(["--formula", "C6H12O6", "--p", "0.5"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    total = sum(r[2] for r in rows)
    assert total >= 0.5
    assert total - min(r[2] for r in rows) < 0.5


def test_csv_format(capsys):
    assert run(["--formula", "H2O", "--k", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mass,log_prob,prob"
    _, rows = parse_output(out, sep=",")
    assert len(rows) == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "peaks.tsv"
    assert run(["--formula", "H2O", "--k", "4", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    header, rows = parse_output(target.read_text(encoding="utf-8"))
    assert header == ["mass", "log_prob", "prob"]
    assert len(rows) == 4


@pytest.mark.parametrize(
    "extra", [[], ["--format", "csv"], ["--log10"], ["--format", "csv", "--log10"]]
)
def test_rows_match_per_scalar_formatting(tmp_path, extra):
    # the rows of a Python loop formatting numpy scalars one by one, as the
    # writer once did: the output must stay byte for byte the same
    target = tmp_path / "peaks.out"
    args = ["--formula", "C30H50N9O10S2", "--k", "3000", "--sorted"]
    assert run([*args, *extra, "--output", str(target)]) == 0
    assert target.read_bytes() == scalar_rows("C30H50N9O10S2", 3000, extra)


def scalar_rows(formula, k, extra):
    """The output of ``--k k --sorted`` plus ``extra``, as one string joined
    from rows formatted number by number."""
    sel = isotopologues(formula, k=k).sorted()
    sep = "," if "csv" in extra else "\t"
    logcol = sel.logp * math.log10(math.e) if "--log10" in extra else sel.logp
    lines = [sep.join(("mass", "log_prob", "prob"))]
    for m, lp, pr in zip(sel.mass, logcol, np.exp(sel.logp)):
        lines.append(f"{m:.17g}{sep}{lp:.17g}{sep}{pr:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "extra", [[], ["--format", "csv"], ["--log10"], ["--format", "csv", "--log10"]]
)
def test_blocks_join_to_the_same_bytes(tmp_path, capsysbinary, monkeypatch, extra):
    # rows are written in blocks; with blocks of 2 rows, counts of one,
    # exactly one, more than one and a partial block give the same bytes,
    # to a file and to stdout
    monkeypatch.setattr(cli, "_BLOCK", 2)
    target = tmp_path / "peaks.out"
    for k in (1, 2, 3, 5):
        args = ["--formula", "C30H50N9O10S2", "--k", str(k), "--sorted", *extra]
        want = scalar_rows("C30H50N9O10S2", k, extra)
        assert run([*args, "--output", str(target)]) == 0
        assert target.read_bytes() == want
        assert run(args) == 0
        assert capsysbinary.readouterr().out == want


def test_log10_flag(capsys):
    assert run(["--formula", "H2O", "--k", "3", "--sorted", "--log10"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    for _, log10p, prob in rows:
        assert 10**log10p == pytest.approx(prob, rel=1e-12)


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_truncated_k_warns_in_one_line(capsys, recwarn, extra):
    # HF has two isotopologues; without --oracle its root is a merge node
    assert run(["--formula", "HF", "--k", "5", *extra]) == 0
    out, err = capsys.readouterr()
    assert err == (
        "warning: only 2 isotopologue peaks exist, fewer than the requested 5\n"
    )
    assert len(parse_output(out)[1]) == 2
    assert not [w for w in recwarn if "isotopologue" in str(w.message)]


def test_time_flag(capsys):
    assert run(["--formula", "H2O", "--k", "3", "--time"]) == 0
    err = capsys.readouterr().err
    assert "selection time" in err


def test_oracle_flag_matches_default(capsys):
    assert run(["--formula", "H2O", "--k", "9", "--sorted"]) == 0
    normal = capsys.readouterr().out
    assert run(["--formula", "H2O", "--k", "9", "--sorted", "--oracle"]) == 0
    oracle = capsys.readouterr().out
    _, a = parse_output(normal)
    _, b = parse_output(oracle)
    assert np.allclose(a, b, atol=1e-12)


def test_oracle_p_mode(capsys):
    assert run(["--formula", "H2O", "--p", "0.99", "--sorted"]) == 0
    normal = capsys.readouterr().out
    assert run(["--formula", "H2O", "--p", "0.99", "--sorted", "--oracle"]) == 0
    oracle = capsys.readouterr().out
    assert normal.splitlines()[0:1] == oracle.splitlines()[0:1]
    assert len(normal.splitlines()) == len(oracle.splitlines())


def test_custom_isotope_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("Q 10.0 0.75\nQ 11.0 0.25\n# done\n", encoding="utf-8")
    assert run(["--formula", "Q2", "--k", "3", "--isotopes", str(path), "--sorted"]) == 0
    _, rows = parse_output(capsys.readouterr().out)
    assert [r[2] for r in rows] == pytest.approx([0.5625, 0.375, 0.0625])


class TestExitCodes:
    # a formula error outranks a parameter error
    @pytest.mark.parametrize(
        "args",
        [["--formula", "H2(", "--k", "1"], ["--formula", "H2(", "--k", "0"]],
    )
    def test_formula_error_is_2(self, args, capsys):
        assert run(args) == 2
        assert "error" in capsys.readouterr().err

    # a missing element outranks bad parameters, with or without --oracle
    @pytest.mark.parametrize(
        "args",
        [
            ["--formula", "Zz2", "--k", "1"],
            ["--formula", "Zz2", "--k", "0", "--alpha", "0.9"],
            ["--formula", "Zz2", "--k", "0", "--alpha", "0.9", "--oracle"],
        ],
    )
    def test_unknown_element_is_3(self, args, capsys):
        assert run(args) == 3
        assert "Zz" in capsys.readouterr().err

    def test_bad_isotope_file_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("H 1.0\n", encoding="utf-8")
        assert run(["--formula", "H2", "--k", "1", "--isotopes", str(bad)]) == 3

    def test_missing_isotope_file_is_3(self, tmp_path):
        assert (
            run(["--formula", "H2", "--k", "1", "--isotopes", str(tmp_path / "no.txt")])
            == 3
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["--formula", "H2O", "--k", "0"],
            ["--formula", "H2O", "--k", "-3"],
            ["--formula", "H2O", "--p", "0"],
            ["--formula", "H2O", "--p", "1.5"],
            ["--formula", "H2O", "--k", "1", "--alpha", "0.9"],
            ["--formula", "H2O", "--k", "1", "--alpha", "nan"],
            ["--formula", "H2O", "--k", "2", "--p", "0.5"],
            ["--formula", "H2O"],
            ["--formula", "H2O", "--k", "1", "--oracle", "--alpha", "0.9"],
        ],
    )
    def test_invalid_parameters_are_4(self, args, capsys):
        assert run(args) == 4
        assert "error" in capsys.readouterr().err

    def test_refused_allocation_is_4(self, monkeypatch, capsys):
        # stands in for a request such as Sn30Xe20Te10 at p = 0.5, whose
        # root buffer would need terabytes
        def refuse(root, p):
            raise MemoryError

        monkeypatch.setattr(cli, "select_until_cumulative", refuse)
        assert run(["--formula", "Sn30Xe20Te10", "--p", "0.5"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "memory" in err and "Traceback" not in err

    def test_unwritable_output_is_5(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.tsv"
        assert run(["--formula", "H2O", "--k", "3", "--output", str(target)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err and not target.exists()


def checkout_env():
    """The environment with this checkout's source first on PYTHONPATH, for
    a child Python process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isoselect", "--formula", "H2O", "--k", "2"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mass\tlog_prob\tprob\n")


def _declared_console_script(name):
    """The `name` entry of this checkout's `[project.scripts]`, resolved
    without installing the package."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} script"
    return EntryPoint(name, scripts[name], group="console_scripts")


def test_console_script():
    """The declared `isoselect` console script, run on this checkout's
    source the way the wrapper that pip generates runs it."""
    ep = _declared_console_script("isoselect")
    wrapper = (
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        f"sys.argv[0] = {ep.name!r}\n"
        f"sys.exit({ep.attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper]
        + ["--formula", "H2O", "--k", "1", "--format", "csv"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "mass,log_prob,prob"


@pytest.mark.skipif(
    shutil.which("isoselect") is None, reason="no isoselect command on PATH"
)
def test_installed_console_script():
    """The `isoselect` command first on PATH. This checks the installed copy,
    which may not be this checkout."""
    proc = subprocess.run(
        ["isoselect", "--formula", "H2O", "--k", "1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "mass,log_prob,prob"
