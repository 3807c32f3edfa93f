"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Published reference numbers carry tolerances because they depend on
the isotope table vintage; timing thresholds are trends or generous absolute
budgets, not machine-specific numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import logsumexp, random_molecule
from isoselect.formula import parse_formula
from isoselect.isotopes import load_default
from isoselect.loh import LayerSchedule, lohify, verify_loh
from isoselect.multinomial import MultinomialConfig, SubisotopologueGenerator
from isoselect.oracle import isotopologue_count, top_k_reference, weak_compositions
from isoselect.tree import (
    build_tree,
    select_top_k,
    select_until_cumulative,
    tree_stats,
)

BRCA2 = "C16802H26738N4640O5411S121"
PD_ALLOY = "Au2Ca10Ga10Pd76"
HEAVY = "Sn20Xe20Nd20Dy20"


def report(num: int, name: str, ok: bool, detail: str):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(200):
        comp, table = random_molecule(rng, max_elements=5, max_total=10**5)
        total = isotopologue_count(comp, table)
        _, ref_logp = top_k_reference(comp, table, total)
        for k in sorted({1, min(7, total), max(1, total // 2), total}):
            sel = select_top_k(build_tree(comp, table), k)
            got = np.sort(sel.logp)
            want = np.sort(ref_logp[:k])
            if got.size != want.size:
                report(1, "oracle equivalence", False, f"size {got.size} != {k}")
            diff = float(np.max(np.abs(got - want))) if k else 0.0
            worst = max(worst, diff)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 120
    report(
        1,
        "oracle equivalence",
        ok,
        f"200 molecules, {checked} selections, worst |dlogp| {worst:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_2_multinomial_sweep():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    generators = 0
    for m in range(1, 8):
        for n in range(1, 13):
            for _ in range(20):
                probs = rng.dirichlet(np.full(m, float(rng.uniform(0.4, 3.0))))
                probs = np.clip(probs, 1e-9, None)
                probs /= probs.sum()
                config = MultinomialConfig(n, probs, list(range(1, m + 1)))
                gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
                seen = set()
                prev = math.inf
                while (item := gen.next_tuple()) is not None:
                    counts, logp = item
                    if logp > prev + 1e-9 or counts in seen:
                        report(2, "multinomial sweep", False, f"at {counts}")
                    prev = logp
                    seen.add(counts)
                if len(seen) != config.tuple_count():
                    report(
                        2,
                        "multinomial sweep",
                        False,
                        f"n={n} m={m}: {len(seen)} != {config.tuple_count()}",
                    )
                generators += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    report(
        2,
        "multinomial sweep",
        ok,
        f"{generators} generators exhaustive/duplicate-free/monotone, "
        f"{elapsed:.1f} s",
    )


def test_criterion_3_normalization():
    table = load_default()
    worst = 0.0
    for formula in ("H2O", "C10H16N5O13P3", "Xe5"):
        comp = parse_formula(formula)
        total = isotopologue_count(comp, table)
        sel = select_top_k(build_tree(comp, table), total)
        worst = max(worst, abs(logsumexp(sel.logp)))
    report(3, "normalization", worst <= 1e-6, f"worst |log-sum-exp| {worst:.2e}")


def test_criterion_4_cumulative_at_ten_thousand():
    table = load_default()
    comp = parse_formula(BRCA2)
    start = time.perf_counter()
    sel = select_top_k(build_tree(comp, table, alpha=1.05), 10**4)
    elapsed = time.perf_counter() - start
    cumulative = sel.cumulative
    rel = abs(cumulative - 0.0109297) / 0.0109297
    ok = rel <= 0.02 and elapsed < 1.0
    report(
        4,
        "top-10^4 cumulative",
        ok,
        f"cumulative {cumulative:.7f} vs 0.0109297 ({rel * 100:.2f}%), "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_5_peak_counts_at_p():
    table = load_default()
    details = []
    ok = True
    for formula, want in ((BRCA2, 155717), (PD_ALLOY, 9134)):
        comp = parse_formula(formula)
        sel = select_until_cumulative(build_tree(comp, table, 1.05), 0.1)
        rel = abs(len(sel) - want) / want
        ok = ok and rel <= 0.01
        details.append(f"{formula}: {len(sel)} vs {want} ({rel * 100:.2f}%)")
    report(5, "p=0.1 peak counts", ok, "; ".join(details))


def test_criterion_6_alpha_trend():
    table = load_default()
    comp = parse_formula(BRCA2)
    times = {}
    for alpha in (1.05, 1.00):
        start = time.perf_counter()
        select_top_k(build_tree(comp, table, alpha=alpha), 10**6)
        times[alpha] = time.perf_counter() - start
    ratio = times[1.00] / times[1.05]
    report(
        6,
        "alpha trend",
        ratio >= 2.0,
        f"alpha=1.00 {times[1.00]:.2f} s vs alpha=1.05 {times[1.05]:.2f} s, "
        f"{ratio:.1f}x",
    )


def test_criterion_7_robustness_and_memory():
    table = load_default()
    comp = parse_formula(HEAVY)
    ok = True
    details = []
    for k in (1, 100):
        start = time.perf_counter()
        sel = select_top_k(build_tree(comp, table, 1.05), k)
        elapsed = time.perf_counter() - start
        ok = ok and len(sel) == k and elapsed < 0.1
        details.append(f"k={k}: {elapsed * 1000:.1f} ms")
    bound = 8.0
    for k in (10**3, 10**4, 10**5):
        root = build_tree(comp, table, 1.05)
        select_top_k(root, k)
        resident = sum(r.get("resident", 0) for r in tree_stats(root))
        ok = ok and resident <= bound * k
        details.append(f"k={k}: resident {resident} <= {bound:g}k")
    report(7, "robustness and memory", ok, "; ".join(details))


def test_criterion_8_online_consistency():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(10):
        comp, table = random_molecule(rng, max_total=3 * 10**4)
        root = build_tree(comp, table, 1.3)
        mass, logp = [], []
        for _ in range(int(rng.integers(2, 15))):
            m, lp = root.stream.next_layer()
            mass.extend(m.tolist())
            logp.extend(lp.tolist())
        if not mass:
            continue
        sel = select_top_k(build_tree(comp, table, 1.3), len(mass))
        a = np.lexsort((np.asarray(mass), np.asarray(logp)))
        b = np.lexsort((sel.mass, sel.logp))
        same = np.array_equal(np.asarray(logp)[a], sel.logp[b]) and np.array_equal(
            np.asarray(mass)[a], sel.mass[b]
        )
        ok = ok and same
    report(8, "online consistency", ok, "10 random molecules, exact multisets")


def test_criterion_9_layer_structure():
    # root output layers never interleave
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(8):
        comp, table = random_molecule(rng, max_total=2 * 10**4)
        root = build_tree(comp, table, 1.2)
        prev_min = np.inf
        while True:
            _, lp = root.stream.next_layer()
            if lp.size == 0:
                break
            ok = ok and lp.max() <= prev_min
            prev_min = lp.min()
    # arrangement property suite on 10^4 random arrays
    alphas = [1.0, 1.05, 1.3, 2.0, 7.5]
    arrays = 0
    for i in range(10**4):
        n = int(rng.integers(0, 120))
        if i % 3 == 0:
            arr = rng.integers(0, 5, size=n).astype(float)
        elif i % 3 == 1:
            arr = np.full(n, float(rng.normal()))
        else:
            arr = rng.normal(size=n)
        lv = lohify(arr, LayerSchedule(alphas[i % len(alphas)]))
        ok = ok and verify_loh(lv)
        ok = ok and np.array_equal(np.sort(lv.values), np.sort(arr))
        arrays += 1
    report(9, "layer structure", ok, f"root layers ordered; {arrays} arrays verified")
