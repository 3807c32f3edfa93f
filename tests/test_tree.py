import itertools

import numpy as np
import pytest

from conftest import logsumexp, random_molecule
from isoselect import pairwise
from isoselect.formula import Composition, parse_formula
from isoselect.isotopes import UnknownElementError, load_default, parse_table
from isoselect.loh import LayerSchedule
from isoselect.multinomial import MultinomialConfig, SubisotopologueGenerator
from isoselect.oracle import enumerate_all, isotopologue_count, top_k_reference
from isoselect.pairwise import ArrayPeakStream, PairwiseSelector
from isoselect.tree import (
    Selection,
    TreeNode,
    build_tree,
    isotopologues,
    select_top_k,
    select_until_cumulative,
    tree_stats,
)


def assert_peaks_equal(sel, ref_mass, ref_logp, atol=1e-9):
    a = np.lexsort((sel.mass, sel.logp))
    b = np.lexsort((ref_mass, ref_logp))
    assert sel.mass.size == ref_mass.size
    assert np.allclose(sel.logp[a], ref_logp[b], atol=atol, rtol=0)
    assert np.allclose(sel.mass[a], ref_mass[b], atol=atol, rtol=0)


class TestBuildTree:
    def test_two_elements(self):
        root = build_tree(parse_formula("H2O"), load_default())
        assert isinstance(root.stream, PairwiseSelector)
        assert [c.label for c in root.children] == ["H2", "O1"]

    def test_single_element_is_bare_leaf(self):
        root = build_tree(parse_formula("Xe5"), load_default())
        assert isinstance(root.stream, SubisotopologueGenerator)
        assert root.children == ()
        assert root.label == "Xe5"

    def test_four_elements_balance(self):
        # narrowest first: O1, then H4, N1 and C1 in rising width
        root = build_tree(parse_formula("CH4NO"), load_default())
        assert root.label == "(C1+(N1+(H4+O1)))"

    def test_five_elements_promotes_last(self):
        root = build_tree(
            parse_formula("C16H26N4O5S1"), load_default()
        )
        assert root.label == "(C16+(N4+(H26+(O5+S1))))"
        # the widest leaf pairs at the top level, as X
        assert root.children[0].label == "C16"

    def test_shape_ignores_formula_order(self):
        table = load_default()
        items = tuple(parse_formula("C16H26N4O5S1"))
        labels = {
            build_tree(Composition(order), table).label
            for order in itertools.permutations(items)
        }
        assert labels == {"(C16+(N4+(H26+(O5+S1))))"}
        for formula in ("Au2Ca10Ga10Pd76", "Pd76Ga10Ca10Au2"):
            root = build_tree(parse_formula(formula), table)
            assert root.label == "(Pd76+(Ga10+(Au2+Ca10)))"

    def test_equal_widths_pair_in_formula_order(self):
        table = parse_table("Q 10.0 0.5\nQ 11.0 0.5\nR 20.0 0.5\nR 21.0 0.5\nT 5.0 1.0\n")
        assert build_tree(parse_formula("Q3R3"), table).label == "(Q3+R3)"
        assert build_tree(parse_formula("R3Q3"), table).label == "(R3+Q3)"
        # a one-isotope leaf has width 0 and merges first, here with R3
        assert build_tree(parse_formula("Q4R3T2"), table).label == "(Q4+(R3+T2))"

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            build_tree(parse_formula("H2Zz"), load_default())

    def test_empty_composition(self):
        with pytest.raises(ValueError):
            build_tree(Composition(()), load_default())

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            build_tree(parse_formula("H2O"), load_default(), alpha=0.5)


class TestSelectTopK:
    @pytest.mark.parametrize("formula", ["H2O", "C2H5OH", "SnCl4", "Xe5"])
    def test_matches_oracle(self, formula):
        table = load_default()
        comp = parse_formula(formula)
        total = isotopologue_count(comp, table)
        ref_mass, ref_logp = top_k_reference(comp, table, total)
        for k in (1, 7, max(1, total // 2), total):
            k = min(k, total)
            sel = select_top_k(build_tree(comp, table), k)
            assert_peaks_equal(sel, ref_mass[:k], ref_logp[:k])

    def test_overscan_warns_and_truncates(self):
        table = load_default()
        comp = parse_formula("H2O")
        root = build_tree(comp, table)
        with pytest.warns(UserWarning, match="fewer"):
            sel = select_top_k(root, 100)
        assert len(sel) == 9
        assert sel.truncated

    def test_k_validation(self):
        root = build_tree(parse_formula("H2O"), load_default())
        with pytest.raises(ValueError):
            select_top_k(root, 0)
        # a non-integer k is refused at a merge root and at a leaf root
        for formula in ("C10H20", "C100"):
            root = build_tree(parse_formula(formula), load_default())
            with pytest.raises(TypeError, match="k must be an integer"):
                select_top_k(root, 3.5)
        assert select_top_k(root, np.int64(3)).mass.size == 3

    def test_full_universe_normalizes(self):
        table = load_default()
        for formula in ("H2O", "Xe5"):
            comp = parse_formula(formula)
            total = isotopologue_count(comp, table)
            sel = select_top_k(build_tree(comp, table), total)
            assert logsumexp(sel.logp) == pytest.approx(0.0, abs=1e-9)


class TestSelectUntilCumulative:
    def test_reaches_target_minimally(self):
        table = load_default()
        comp = parse_formula("C6H12O6")
        for p in (0.1, 0.5, 0.9, 0.999):
            sel = select_until_cumulative(build_tree(comp, table), p)
            total = sel.cumulative
            assert total >= p - 1e-12
            # dropping the least probable selected peak falls below target
            assert total - np.exp(sel.logp.min()) < p

    def test_matches_oracle_count(self):
        table = load_default()
        rng = np.random.default_rng(2)
        for _ in range(5):
            comp, tab = random_molecule(rng, max_total=20000)
            mass, logp = enumerate_all(comp, tab)
            order = np.argsort(-logp, kind="stable")
            csum = np.cumsum(np.exp(logp[order]))
            for p in (0.25, 0.75):
                want = int(np.searchsorted(csum, p)) + 1
                sel = select_until_cumulative(build_tree(comp, tab), p)
                assert len(sel) == want

    def test_p_one_returns_everything(self):
        table = load_default()
        comp = parse_formula("H2O")
        sel = select_until_cumulative(build_tree(comp, table), 1.0)
        assert len(sel) == 9

    def test_p_validation(self):
        root = build_tree(parse_formula("H2O"), load_default())
        for p in (0.0, -0.5, 1.01):
            with pytest.raises(ValueError):
                select_until_cumulative(root, p)


class TestOnlineConsistency:
    def test_layers_concatenate_to_one_shot(self):
        table = load_default()
        comp = parse_formula("C10H16N5O13P3")
        root = build_tree(comp, table)
        mass, logp = [], []
        for _ in range(12):
            m, lp = root.stream.next_layer()
            mass.extend(m.tolist())
            logp.extend(lp.tolist())
        k = len(mass)
        sel = select_top_k(build_tree(comp, table), k)
        # same arithmetic on both paths: exact multiset equality
        a = np.lexsort((np.asarray(mass), np.asarray(logp)))
        b = np.lexsort((sel.mass, sel.logp))
        assert np.array_equal(np.asarray(logp)[a], sel.logp[b])
        assert np.array_equal(np.asarray(mass)[a], sel.mass[b])


def layered_prefix(root, k):
    """The first k peaks of a root read layer by layer: whole layers, then
    the top of the layer that crosses k."""
    mass, logp = [], []
    while len(logp) < k:
        m, lp = root.stream.next_layer()
        if m.size == 0:
            break
        mass.extend(m.tolist())
        logp.extend(lp.tolist())
    mass, logp = np.asarray(mass), np.asarray(logp)
    order = np.lexsort((mass, -logp))[:k]
    return mass[order], logp[order]


def assert_same_multiset(sel, mass, logp):
    a = np.lexsort((sel.mass, sel.logp))
    b = np.lexsort((mass, logp))
    assert np.array_equal(sel.logp[a], logp[b])
    assert np.array_equal(sel.mass[a], mass[b])


def equal_key_root(nx=4, ny=6):
    # every sum has the same logp, -ln(nx) - ln(ny)
    schedule = LayerSchedule(1.5)
    x = ArrayPeakStream(np.arange(nx) + 10.0, np.full(nx, -np.log(nx)), schedule)
    y = ArrayPeakStream(np.arange(ny) * 0.1, np.full(ny, -np.log(ny)), schedule)
    return TreeNode(PairwiseSelector(x, y, schedule), "(x+y)")


class TestOneShotRoot:
    """Every root selects once. A merge root runs one pop loop to a count or
    mass guarantee, then makes one cut in its own buffer; a leaf root takes
    a prefix of its exact order."""

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_top_k_equals_layered_stream(self, alpha):
        rng = np.random.default_rng(41)
        for _ in range(6):
            comp, table = random_molecule(rng, max_total=20000)
            total = isotopologue_count(comp, table)
            for k in sorted({1, min(17, total), max(1, total // 3), total}):
                root = build_tree(comp, table, alpha)
                sel = select_top_k(root, k)
                mass, logp = layered_prefix(build_tree(comp, table, alpha), k)
                # the same products, summed the same way: exact equality
                assert_same_multiset(sel, mass, logp)
                row = tree_stats(root)[0]
                assert row["layers"] == 1
                assert row["emitted"] == len(sel) == k

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_coverage_count_is_minimal_prefix(self, alpha):
        rng = np.random.default_rng(43)
        for _ in range(6):
            comp, table = random_molecule(rng, max_total=20000)
            _, logp = enumerate_all(comp, table)
            csum = np.cumsum(np.exp(np.sort(logp)[::-1]))
            for p in (0.25, 0.75, 0.999, 1.0):
                # every peak has a positive probability, so only all of them
                # reach p = 1
                want = logp.size if p == 1 else int(np.searchsorted(csum, p)) + 1
                root = build_tree(comp, table, alpha)
                sel = select_until_cumulative(root, p)
                assert len(sel) == want
                assert not sel.truncated
                row = tree_stats(root)[0]
                assert row["layers"] == 1 and row["emitted"] == len(sel)

    def test_all_equal_keys(self):
        key = -np.log(4) - np.log(6)
        sel = select_top_k(equal_key_root(), 7)
        assert len(sel) == 7
        assert np.all(sel.logp == key)
        assert len(set(sel.mass.tolist())) == 7
        sel = select_until_cumulative(equal_key_root(), 0.5)
        csum = np.cumsum(np.full(24, np.exp(key)))
        assert len(sel) == int(np.searchsorted(csum, 0.5)) + 1
        assert len(select_until_cumulative(equal_key_root(), 1.0)) == 24

    def test_k_beyond_universe_warns_and_truncates(self):
        rng = np.random.default_rng(47)
        comp, table = random_molecule(rng, max_total=3000)
        while len(comp) < 2:
            comp, table = random_molecule(rng, max_total=3000)
        mass, logp = enumerate_all(comp, table)
        root = build_tree(comp, table)
        with pytest.warns(UserWarning, match="fewer"):
            sel = select_top_k(root, logp.size + 5)
        assert sel.truncated
        assert_peaks_equal(sel, mass, logp)
        assert tree_stats(root)[0]["emitted"] == logp.size

    def test_short_buffered_mass_resumes_pulling(self, monkeypatch):
        # a mass guarantee that runs ahead of the buffer's own sum, as one
        # rounded up past p would: the first cut falls short, and the root
        # must pull on rather than return too little
        rng = np.random.default_rng(53)
        comp, table = random_molecule(rng, max_total=20000)
        while len(comp) < 2:
            comp, table = random_molecule(rng, max_total=20000)
        _, logp = enumerate_all(comp, table)
        csum = np.cumsum(np.exp(np.sort(logp)[::-1]))
        root = build_tree(comp, table)
        stream = root.stream
        grid_key = stream._grid_key
        calls = []

        def ahead(target, by_mass):
            # the first guarantee counts 0.3 more than its products weigh
            lead = 0.3 if not calls else 0.0
            calls.append(target)
            key, credited, exhausted = grid_key(target - lead, by_mass)
            return key, credited + lead, exhausted

        stream._grid_key = ahead
        cuts = []
        cut = pairwise._PeakBuffer.cut

        def spy(buf, *args):
            out = cut(buf, *args)
            cuts.append(out[0])
            return out

        monkeypatch.setattr(pairwise._PeakBuffer, "cut", spy)
        sel = select_until_cumulative(root, 0.75)
        assert len(sel) == int(np.searchsorted(csum, 0.75)) + 1
        assert cuts[0] is None and cuts[-1] == len(sel)
        assert len(calls) == len(cuts) >= 2 and calls[-1] > 0.75


class TestAlphaOneOrder:
    """``--alpha 1.0`` means fully sorted output: every root returns its
    peaks in descending logp at alpha = 1, whether it is a merge or a leaf
    and whether the universe runs out or not."""

    @staticmethod
    def assert_descending(sel):
        assert np.all(np.diff(sel.logp) <= 0)

    def test_merge_root(self):
        rng = np.random.default_rng(59)
        for _ in range(6):
            comp, table = random_molecule(rng, max_total=20000)
            while len(comp) < 2:
                comp, table = random_molecule(rng, max_total=20000)
            total = isotopologue_count(comp, table)
            for k in sorted({1, max(1, total // 3), total}):
                root = build_tree(comp, table, 1.0)
                assert isinstance(root.stream, PairwiseSelector)
                self.assert_descending(select_top_k(root, k))
            with pytest.warns(UserWarning, match="fewer"):
                sel = select_top_k(build_tree(comp, table, 1.0), total + 5)
            assert sel.truncated and len(sel) == total
            self.assert_descending(sel)
            for p in (0.3, 0.9, 1.0):
                sel = select_until_cumulative(build_tree(comp, table, 1.0), p)
                self.assert_descending(sel)
            # an unreachable p: every peak, short
            root = build_tree(comp, table, 1.0)
            mass, logp, short = root.stream.until_cumulative(2.0)
            assert short and logp.size == total and np.all(np.diff(logp) <= 0)

    @pytest.mark.parametrize(
        "formula, most, p", [("Sn300", 3000, 1e-4), ("C800", 500, 0.5)]
    )
    def test_leaf_root(self, formula, most, p):
        for k in (17, most):
            root = build_tree(parse_formula(formula), load_default(), 1.0)
            self.assert_descending(select_top_k(root, k))
        root = build_tree(parse_formula(formula), load_default(), 1.0)
        self.assert_descending(select_until_cumulative(root, p))


def leaf_root(formula):
    root = build_tree(parse_formula(formula), load_default())
    assert isinstance(root.stream, SubisotopologueGenerator)
    return root


class TestLeafRoot:
    """A leaf root's selection is a prefix of its exact order. The cuts below
    fall inside the 256-tuple warm-up and inside a band."""

    @pytest.mark.parametrize(
        "formula, k",
        [
            ("Sn300", 100),
            ("Sn300", 256),
            ("Sn300", 3000),
            ("Xe200", 40),
            ("Xe200", 5000),
            ("C800", 17),
            ("C800", 500),
        ],
    )
    def test_top_k_is_layered_prefix_in_order(self, formula, k):
        root = leaf_root(formula)
        sel = select_top_k(root, k)
        stream = leaf_root(formula).stream
        mass, logp = [], []
        while len(logp) < k:
            m, lp = stream.next_layer()
            mass.extend(m.tolist())
            logp.extend(lp.tolist())
        assert np.array_equal(sel.mass, mass[:k])
        assert np.array_equal(sel.logp, logp[:k])
        row = tree_stats(root)[0]
        assert row["layers"] == 1 and row["emitted"] == len(sel) == k

    @pytest.mark.parametrize(
        "formula, p",
        [
            ("Sn300", 1e-6),
            ("Sn300", 1e-4),
            ("Xe200", 1e-4),
            ("Xe200", 2e-3),
            ("C800", 0.5),
            ("C800", 0.9999),
        ],
    )
    def test_coverage_count_is_one_cumsum(self, formula, p):
        stream = leaf_root(formula).stream
        logp = []
        total = 0.0
        # read past p by a margin, so rounding cannot cut the reference short
        while total < p * (1 + 1e-9):
            _, lp = stream.next_tuple()
            logp.append(lp)
            total += np.exp(lp)
        want = int(np.searchsorted(np.cumsum(np.exp(logp)), p)) + 1
        root = leaf_root(formula)
        sel = select_until_cumulative(root, p)
        assert len(sel) == want
        assert np.array_equal(sel.logp, logp[:want])
        assert not sel.truncated
        row = tree_stats(root)[0]
        assert row["layers"] == 1 and row["emitted"] == len(sel)

    def test_band_cut_leaves_the_rest_unemitted(self):
        # Xe200 at p = 2e-3 cuts inside a band, after 2,342 peaks
        root = leaf_root("Xe200")
        sel = select_until_cumulative(root, 2e-3)
        _, rest = root.stream.top_k(50)
        _, logp = leaf_root("Xe200").stream.top_k(len(sel) + 50)
        assert np.array_equal(rest, logp[len(sel) :])

    @pytest.mark.parametrize("formula, total", [("C100", 101), ("C800", 801)])
    def test_full_coverage_returns_the_universe(self, formula, total):
        # C100 runs out inside the warm-up, C800 inside a band
        root = leaf_root(formula)
        sel = select_until_cumulative(root, 1.0)
        assert len(sel) == total and not sel.truncated
        assert np.all(np.diff(sel.logp) <= 0)
        assert tree_stats(root)[0]["emitted"] == total


class TestLaziness:
    def test_small_k_touches_little_of_each_element(self):
        table = load_default()
        comp = parse_formula("C16802H26738N4640O5411S121")
        root = build_tree(comp, table)
        select_top_k(root, 100)
        for row in tree_stats(root):
            if row["kind"] == "element":
                assert row["emitted"] <= 500, row

    @pytest.mark.parametrize(
        "formula, k",
        [
            ("Cd300", 1500),
            ("Xe200", 3000),
            ("Sn500", 31623),
            ("Pd76", 684742),
            ("C20000", 5000),
        ],
    )
    def test_leaf_walks_few_more_tuples_than_it_emits(self, formula, k):
        # runaway band thresholds walked 68x-1,246x the demand on such leaves
        root = build_tree(parse_formula(formula), load_default())
        select_top_k(root, k)
        (row,) = tree_stats(root)
        assert k <= row["emitted"] <= row["generated"] <= 4 * row["emitted"], row

    def test_stats_shape(self):
        root = build_tree(parse_formula("H2O"), load_default())
        select_top_k(root, 5)
        rows = tree_stats(root)
        assert rows[0]["kind"] == "merge"
        assert {r["label"] for r in rows} == {"(H2+O1)", "H2", "O1"}

    def test_stats_on_array_stream_leaves(self):
        schedule = LayerSchedule(2.0)
        x = ArrayPeakStream([100.0, 101.0, 102.0], [-0.1, -1.0, -3.0], schedule)
        y = ArrayPeakStream([10.0, 11.0], [-0.2, -2.0], schedule)
        root = TreeNode(
            stream=PairwiseSelector(x, y, schedule),
            label="(x+y)",
            children=(TreeNode(x, "x"), TreeNode(y, "y")),
        )
        assert len(select_top_k(root, 3)) == 3
        rows = tree_stats(root)
        assert [r["kind"] for r in rows] == ["merge", "element", "element"]
        for row, stream, size in zip(rows[1:], (x, y), (3, 2)):
            assert row["layers"] == stream.layers_emitted
            assert 0 < row["emitted"] == stream.emitted == row["generated"] <= size


def formula_order_tree(comp, table, alpha=1.05):
    """A merge tree with the leaves in formula order, paired left to right
    level by level, the odd one out moving up a level unpaired."""
    schedule = LayerSchedule(alpha)
    nodes = [
        TreeNode(
            SubisotopologueGenerator(
                MultinomialConfig.from_isotopes(count, table.get(symbol)), schedule
            ),
            f"{symbol}{count}",
        )
        for symbol, count in comp
    ]
    while len(nodes) > 1:
        paired = [
            TreeNode(
                PairwiseSelector(x.stream, y.stream, schedule),
                f"({x.label}+{y.label})",
                (x, y),
            )
            for x, y in zip(nodes[::2], nodes[1::2])
        ]
        nodes = paired + nodes[len(paired) * 2 :]
    return nodes[0]


def stats_rows(root):
    return [
        tuple(v for key, v in row.items() if key != "depth") for row in tree_stats(root)
    ]


# tree_stats rows (depth left out) of two top-k selections on formula-order
# trees, recorded before the merge pop loop wrote products in batches; they
# pin PairwiseSelector's work counts, which must not move
RECORDED_STATS = {
    ("C16900H26500N4650O5300S170", 1.05, 10**5): [
        ("(((C16900+H26500)+(N4650+O5300))+S170)", "merge", 1, 100000, 109913, 138, 15, 126707),
        ("((C16900+H26500)+(N4650+O5300))", "merge", 138, 16773, 18539, 46, 54, 2991),
        ("(C16900+H26500)", "merge", 46, 168, 178, 24, 6, 69),
        ("C16900", "element", 24, 44, 44),
        ("H26500", "element", 6, 6, 6),
        ("(N4650+O5300)", "merge", 54, 258, 285, 11, 21, 91),
        ("N4650", "element", 11, 14, 14),
        ("O5300", "element", 21, 35, 35),
        ("S170", "element", 15, 21, 21),
    ],
    ("C760H1210N212O230S6", 1.0, 3000): [
        ("(((C760+H1210)+(N212+O230))+S6)", "merge", 1, 3000, 3000, 1209, 10, 4219),
        ("((C760+H1210)+(N212+O230))", "merge", 1209, 1209, 1209, 62, 52, 115),
        ("(C760+H1210)", "merge", 62, 62, 62, 23, 5, 29),
        ("C760", "element", 23, 23, 23),
        ("H1210", "element", 5, 5, 5),
        ("(N212+O230)", "merge", 52, 52, 52, 8, 13, 22),
        ("N212", "element", 8, 8, 8),
        ("O230", "element", 13, 13, 13),
        ("S6", "element", 10, 10, 10),
    ],
}


# the same two selections on build_tree's width-ordered trees, recorded when
# build_tree began pairing the narrowest streams first
WIDTH_ORDER_STATS = {
    ("C16900H26500N4650O5300S170", 1.05, 10**5): [
        ("(((N4650+H26500)+O5300)+(C16900+S170))", "merge", 1, 100000, 110528, 76, 68, 111854),
        ("((N4650+H26500)+O5300)", "merge", 76, 795, 897, 26, 21, 227),
        ("(N4650+H26500)", "merge", 26, 51, 54, 11, 6, 27),
        ("N4650", "element", 11, 14, 14),
        ("H26500", "element", 6, 6, 6),
        ("O5300", "element", 21, 35, 35),
        ("(C16900+S170)", "merge", 68, 531, 582, 23, 15, 139),
        ("C16900", "element", 23, 41, 41),
        ("S170", "element", 15, 21, 21),
    ],
    ("C760H1210N212O230S6", 1.0, 3000): [
        ("(C760+(N212+(O230+(H1210+S6))))", "merge", 1, 3000, 3000, 23, 283, 3306),
        ("C760", "element", 23, 23, 23),
        ("(N212+(O230+(H1210+S6)))", "merge", 283, 283, 283, 8, 89, 97),
        ("N212", "element", 8, 8, 8),
        ("(O230+(H1210+S6))", "merge", 89, 89, 89, 13, 21, 34),
        ("O230", "element", 13, 13, 13),
        ("(H1210+S6)", "merge", 21, 21, 21, 5, 11, 16),
        ("H1210", "element", 5, 5, 5),
        ("S6", "element", 11, 11, 11),
    ],
}


@pytest.mark.parametrize("formula, alpha, k", list(RECORDED_STATS))
def test_tree_stats_match_recorded(formula, alpha, k):
    root = formula_order_tree(parse_formula(formula), load_default(), alpha)
    assert len(select_top_k(root, k)) == k
    assert stats_rows(root) == RECORDED_STATS[formula, alpha, k]


@pytest.mark.parametrize("formula, alpha, k", list(WIDTH_ORDER_STATS))
def test_width_order_stats_match_recorded(formula, alpha, k):
    root = build_tree(parse_formula(formula), load_default(), alpha)
    assert len(select_top_k(root, k)) == k
    rows = stats_rows(root)
    assert rows == WIDTH_ORDER_STATS[formula, alpha, k]
    # the width-ordered tree materializes fewer sums than formula order
    width_order, formula_order = (
        sum(row[4] for row in table if row[1] == "merge")
        for table in (rows, RECORDED_STATS[formula, alpha, k])
    )
    assert width_order < formula_order


class TestShapeDoesNotChangeTheAnswer:
    """The width-ordered tree and the formula-order tree return the same
    peaks: equal counts, logp and mass equal within 1e-9."""

    def molecules(self, seed):
        rng = np.random.default_rng(seed)
        found = 0
        while found < 8:
            # max_isotopes 4 draws one-isotope elements too
            comp, table = random_molecule(rng, max_total=20000)
            if len(comp) >= 3:
                found += 1
                yield comp, table

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_top_k(self, alpha):
        for comp, table in self.molecules(59):
            total = isotopologue_count(comp, table)
            for k in sorted({1, min(50, total), max(1, total // 4), total}):
                a = select_top_k(build_tree(comp, table, alpha), k)
                b = select_top_k(formula_order_tree(comp, table, alpha), k)
                assert_peaks_equal(a, b.mass, b.logp)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_coverage(self, p):
        for comp, table in self.molecules(61):
            a = select_until_cumulative(build_tree(comp, table), p)
            b = select_until_cumulative(formula_order_tree(comp, table), p)
            assert_peaks_equal(a, b.mass, b.logp)


class TestSelection:
    def test_sorted_orders_by_probability_then_mass(self):
        sel = Selection(
            mass=np.array([30.0, 10.0, 20.0]),
            logp=np.array([-1.0, -2.0, -1.0]),
        )
        out = sel.sorted()
        assert out.logp.tolist() == [-1.0, -1.0, -2.0]
        assert out.mass.tolist() == [20.0, 30.0, 10.0]

    def test_cumulative(self):
        sel = Selection(mass=np.zeros(2), logp=np.log([0.25, 0.5]))
        assert sel.cumulative == pytest.approx(0.75)


class TestTopLevelApi:
    def test_formula_string_or_composition(self):
        a = isotopologues("H2O", k=3)
        b = isotopologues(parse_formula("H2O"), k=3)
        assert np.array_equal(np.sort(a.logp), np.sort(b.logp))

    def test_requires_exactly_one_of_k_and_p(self):
        with pytest.raises(ValueError):
            isotopologues("H2O")
        with pytest.raises(ValueError):
            isotopologues("H2O", k=3, p=0.5)

    def test_custom_table(self, tmp_path):
        from isoselect.isotopes import parse_table

        table = parse_table("Q 10.0 0.5\nQ 11.0 0.5\n")
        sel = isotopologues("Q2", k=3, table=table)
        assert sorted(np.exp(sel.logp).round(6).tolist()) == [0.25, 0.25, 0.5]


class TestRandomizedOracleEquivalence:
    def test_random_molecules(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            comp, table = random_molecule(rng, max_total=5000)
            total = isotopologue_count(comp, table)
            ref_mass, ref_logp = top_k_reference(comp, table, total)
            for k in {1, 7, max(1, total // 2), total}:
                k = min(k, total)
                sel = select_top_k(build_tree(comp, table), k)
                assert_peaks_equal(sel, ref_mass[:k], ref_logp[:k])


@pytest.mark.parametrize(
    "formula, alpha",
    [("Au2Ca10Ga10Pd76", 1.05), ("Pd76Ga10Ca10Au2", 1.05), ("Au2Ca10Ga10Pd76", 2.0)],
)
def test_headline_molecule_at_p_09(formula, alpha):
    # the paper's molecule; its Pd76 leaf emits 234,065 tuples here, far
    # past the heap warm-up
    root = build_tree(parse_formula(formula), load_default(), alpha)
    sel = select_until_cumulative(root, 0.9)
    assert len(sel) == 2_072_024
    assert sel.cumulative == pytest.approx(0.900000019922, abs=1e-9)
