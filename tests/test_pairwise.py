import numpy as np
import pytest

from isoselect import pairwise
from isoselect.loh import LayerSchedule
from isoselect.pairwise import ArrayPeakStream, PairwiseSelector, _PeakBuffer


def stream(logps, alpha=2.0, masses=None):
    logps = np.asarray(logps, dtype=float)
    if masses is None:
        masses = logps  # masses mirror keys so sums are checkable twice
    return ArrayPeakStream(masses, logps, LayerSchedule(alpha))


def drain(selector):
    mass, logp = [], []
    while True:
        m, lp = selector.next_layer()
        if m.size == 0:
            return np.asarray(mass), np.asarray(logp)
        mass.extend(m.tolist())
        logp.extend(lp.tolist())


def all_sums(x, y):
    return np.sort(np.add.outer(np.asarray(x, float), np.asarray(y, float)).ravel())[
        ::-1
    ]


def paired(rng, ties, alpha, nx=None, ny=None):
    """Random X and Y keys with pair-id masses (100 * i for X, j for Y), their
    sums and a factory of fresh selectors over them."""
    if nx is None:
        nx, ny = (int(n) for n in rng.integers(2, 25, size=2))
    x = -rng.exponential(rng.uniform(0.1, 3.0), size=nx)
    y = -rng.exponential(rng.uniform(0.1, 3.0), size=ny)
    if ties:
        x, y = np.round(x), np.round(y)

    def fresh():
        schedule = LayerSchedule(alpha)
        return PairwiseSelector(
            ArrayPeakStream(np.arange(nx) * 100.0, x, schedule),
            ArrayPeakStream(np.arange(ny) * 1.0, y, schedule),
            schedule,
        )

    return x, y, np.add.outer(x, y), fresh


def made_products(ids, shape):
    """Which (i, j) sums the pair-id masses ``ids`` hold, each at most once."""
    ids = ids.astype(int)
    made = np.zeros(shape, dtype=bool)
    made[ids // 100, ids % 100] = True
    assert np.count_nonzero(made) == ids.size
    return made


class TestArrayPeakStream:
    def test_layered_emission(self):
        s = stream([1.0, 3.0, 2.0, 0.0])
        first = s.next_layer()
        assert first[1].tolist() == [3.0]
        second = s.next_layer()
        assert sorted(second[1].tolist(), reverse=True) == [2.0, 1.0]
        third = s.next_layer()
        assert third[1].tolist() == [0.0]
        assert s.next_layer()[0].size == 0

    def test_masses_travel_with_keys(self):
        s = ArrayPeakStream([10.0, 20.0], [-1.0, -2.0], LayerSchedule(2.0))
        mass, logp = s.next_layer()
        assert mass.tolist() == [10.0]
        assert logp.tolist() == [-1.0]

    @pytest.mark.parametrize(
        "mass, logp",
        [
            ([1.0, 2.0, 3.0], [-0.1, -0.2]),
            ([1.0], [-0.1, -0.2]),
            ([[1.0, 2.0]], [[-0.1, -0.2]]),
            (1.0, -0.1),
        ],
    )
    def test_rejects_unequal_or_not_1d(self, mass, logp):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            ArrayPeakStream(mass, logp, LayerSchedule(2.0))

    def test_top_k(self):
        s = ArrayPeakStream([10.0, 20.0, 30.0], [-2.0, -1.0, -3.0], LayerSchedule(2.0))
        mass, logp = s.top_k(2)
        assert mass.tolist() == [20.0, 10.0] and logp.tolist() == [-1.0, -2.0]
        assert s.emitted == 2 and s.layers_emitted == 1
        # k beyond what remains: the rest, then nothing
        mass, logp = s.top_k(10)
        assert mass.tolist() == [30.0] and logp.tolist() == [-3.0]
        assert s.emitted == 3
        assert s.top_k(1)[0].size == 0 and s.emitted == 3

    def test_until_cumulative(self):
        logp = np.log([0.5, 0.25, 0.125, 0.0625])
        s = ArrayPeakStream(np.arange(4.0), logp, LayerSchedule(2.0))
        mass, lp, short = s.until_cumulative(0.7)
        assert mass.tolist() == [0.0, 1.0] and not short
        assert s.emitted == 2
        # the rest weighs 0.1875, short of 0.5: everything left, short
        mass, lp, short = s.until_cumulative(0.5)
        assert mass.tolist() == [2.0, 3.0] and short
        assert s.emitted == 4
        mass, lp, short = s.until_cumulative(0.1)
        assert mass.size == 0 and short and s.emitted == 4

    def test_until_cumulative_unreachable(self):
        # the peaks weigh e^-1 + e^-2 + e^-3 = 0.553 in all
        s = stream([-1.0, -2.0, -3.0])
        mass, logp, short = s.until_cumulative(0.9)
        assert logp.tolist() == [-1.0, -2.0, -3.0] and short
        assert s.emitted == 3 and s.layers_emitted == 1


class TestSelectorSmall:
    def test_first_guarantee_needs_one_worst_corner(self):
        # X layers [10], [9, 8]; Y layers [7], [6, 5]: after materializing the
        # seed product, popping its worst corner guarantees one peak
        sel = PairwiseSelector(stream([10, 9, 8]), stream([7, 6, 5]), LayerSchedule(2.0))
        mass, logp = sel.next_layer()
        assert logp.tolist() == [17.0]
        assert sel.guaranteed == 1
        assert sel.materialized_total == 1

    def test_two_by_three_universe(self):
        # keys X {0,-1,-2} and Y {0,-3}: sums are {0,-1,-2,-3,-4,-5}
        sel = PairwiseSelector(stream([0, -1, -2]), stream([0, -3]), LayerSchedule(2.0))
        layers = []
        while True:
            _, lp = sel.next_layer()
            if lp.size == 0:
                break
            layers.append(sorted(lp.tolist(), reverse=True))
        assert layers == [[0.0], [-1.0, -2.0], [-3.0, -4.0, -5.0]]

    def test_single_peak_streams(self):
        sel = PairwiseSelector(stream([-0.5]), stream([-1.5]), LayerSchedule(1.05))
        mass, logp = sel.next_layer()
        assert logp.tolist() == [-2.0]
        assert sel.next_layer()[0].size == 0

    def test_empty_stream_yields_nothing(self):
        sel = PairwiseSelector(stream([]), stream([1.0, 2.0]), LayerSchedule(2.0))
        assert sel.next_layer()[0].size == 0
        sel = PairwiseSelector(stream([1.0, 2.0]), stream([]), LayerSchedule(2.0))
        assert sel.next_layer()[0].size == 0

    def test_masses_add(self):
        x = ArrayPeakStream([100.0, 200.0], [-0.1, -0.2], LayerSchedule(2.0))
        y = ArrayPeakStream([10.0, 20.0], [-0.3, -0.4], LayerSchedule(2.0))
        sel = PairwiseSelector(x, y, LayerSchedule(2.0))
        mass, logp = drain(sel)
        order = np.argsort(-logp)
        assert np.allclose(logp[order], [-0.4, -0.5, -0.5, -0.6], atol=1e-12)
        assert mass[order[0]] == 110.0
        assert mass[order[3]] == 220.0


class TestSelectorRandomized:
    @pytest.mark.parametrize("alpha", [1.0, 1.02, 1.5, 2.0])
    def test_matches_full_cartesian_sort(self, alpha):
        rng = np.random.default_rng(hash(alpha) % 2**32)
        for _ in range(25):
            nx = int(rng.integers(1, 60))
            ny = int(rng.integers(1, 60))
            x = -rng.exponential(2.0, size=nx)
            y = -rng.exponential(2.0, size=ny)
            sel = PairwiseSelector(stream(x, alpha), stream(y, alpha), LayerSchedule(alpha))
            _, got = drain(sel)
            assert got.size == nx * ny
            assert np.array_equal(np.sort(got)[::-1], all_sums(x, y))
            assert sel.materialized_total == nx * ny

    @pytest.mark.parametrize("alpha", [1.0, 1.3, 2.0])
    def test_guarantees_hold_wherever_the_loop_stops(self, alpha):
        # the premise of layer emission: when the pop loop stops, the
        # buffer's `guaranteed`-th largest sum bounds every sum not yet
        # materialized from above; masses are pair ids, to tell which sums
        # exist
        rng = np.random.default_rng(int(alpha * 10))
        for i in range(12):
            x, y, sums, fresh = paired(rng, ties=i % 3 == 0, alpha=alpha)
            sel = fresh()
            for count in range(1, sums.size + 1):
                sel._fill(count)
                buf = sel._buffer
                made = made_products(buf.mass[: buf.n], sums.shape)
                assert buf.n >= sel.guaranteed >= count
                bound = np.sort(buf.logp[: buf.n])[::-1][sel.guaranteed - 1]
                assert np.all(sums[~made] <= bound)

    @pytest.mark.parametrize("alpha", [1.0, 1.3, 2.0])
    def test_grid_root_guarantees_hold_at_every_target(self, alpha):
        # the premise of a root's one cut: at the grid root's cut key, every
        # sum not materialized is at most the key, and the materialized sums
        # at or above it weigh at least what was credited, by count or mass
        rng = np.random.default_rng(int(alpha * 10) + 1)
        for i in range(12):
            x, y, sums, fresh = paired(rng, ties=i % 3 == 0, alpha=alpha)
            total = np.exp(sums).sum()
            for by_mass, targets in (
                (False, range(1, sums.size + 2)),
                (True, total * np.linspace(0.02, 1.02, 40)),
            ):
                sel = fresh()
                for target in targets:
                    key, credited, exhausted = sel._grid_key(target, by_mass)
                    buf = sel._grid_fill(key, target, by_mass)[0]
                    assert buf.n == buf.mass.size == sel.materialized_total
                    made = made_products(buf.mass, sums.shape)
                    assert np.all(sums[~made] <= key)
                    assert credited >= target or exhausted
                    assert not exhausted or made.all()
                    top = buf.logp[buf.logp >= key]
                    weight = np.exp(top).sum() if by_mass else top.size
                    assert weight >= credited * (1 - 1e-12)

    def test_layers_are_descending_blocks(self):
        rng = np.random.default_rng(9)
        x = -rng.exponential(1.0, size=40)
        y = -rng.exponential(1.0, size=30)
        sel = PairwiseSelector(stream(x, 1.3), stream(y, 1.3), LayerSchedule(1.3))
        prev_min = np.inf
        expected = all_sums(x, y)
        taken = 0
        while True:
            _, lp = sel.next_layer()
            if lp.size == 0:
                break
            # every layer sits at or below the previous layer's minimum and
            # equals the corresponding block of the full sorted universe
            assert lp.max() <= prev_min + 1e-12
            prev_min = lp.min()
            block = expected[taken : taken + lp.size]
            assert np.array_equal(np.sort(lp)[::-1], block)
            taken += lp.size

    def test_pair_multiset_is_exact(self):
        rng = np.random.default_rng(13)
        xm = rng.uniform(10, 500, size=23)
        xl = -rng.exponential(1.0, size=23)
        ym = rng.uniform(10, 500, size=17)
        yl = -rng.exponential(1.0, size=17)
        sel = PairwiseSelector(
            ArrayPeakStream(xm, xl, LayerSchedule(1.4)),
            ArrayPeakStream(ym, yl, LayerSchedule(1.4)),
            LayerSchedule(1.4),
        )
        mass, logp = drain(sel)
        want_mass = np.add.outer(xm, ym).ravel()
        want_logp = np.add.outer(xl, yl).ravel()
        a = np.lexsort((mass, logp))
        b = np.lexsort((want_mass, want_logp))
        assert np.array_equal(mass[a], want_mass[b])
        assert np.array_equal(logp[a], want_logp[b])

    def test_all_equal_keys(self):
        sel = PairwiseSelector(
            stream(np.zeros(12), 1.5), stream(np.zeros(9), 1.5), LayerSchedule(1.5)
        )
        _, logp = drain(sel)
        assert logp.size == 108
        assert np.all(logp == 0.0)

    def test_alpha_one_equals_alpha_two(self):
        rng = np.random.default_rng(21)
        x = -rng.exponential(1.0, size=35)
        y = -rng.exponential(1.0, size=28)
        got = {}
        for alpha in (1.0, 2.0):
            sel = PairwiseSelector(
                stream(x, alpha), stream(y, alpha), LayerSchedule(alpha)
            )
            _, lp = drain(sel)
            got[alpha] = np.sort(lp)
        assert np.array_equal(got[1.0], got[2.0])

    def test_alpha_one_buffer_holds_only_the_emitted_peak(self):
        # every product is 1 x 1 and its worst corner pops right after its
        # best, so with distinct sums the store is empty between layers
        rng = np.random.default_rng(13)
        x = -rng.exponential(1.0, size=40)
        y = -rng.exponential(1.0, size=30)
        sel = PairwiseSelector(stream(x, 1.0), stream(y, 1.0), LayerSchedule(1.0))
        emitted = 0
        while True:
            mass, _ = sel.next_layer()
            assert sel._buffer.n == 0
            if mass.size == 0:
                break
            emitted += mass.size
        assert emitted == x.size * y.size


class TestPeakBuffer:
    @pytest.mark.parametrize(
        "n, s",
        [(1, 1), (9, 9), (9, 1), (9, 4), (3000, 3000), (3000, 1), (3000, 1700)],
    )
    def test_take_top_splits_exactly(self, n, s):
        # integer keys in a small range tie exactly; masses are peak ids, so
        # logp[mass] tells whether a mass still sits next to its own key
        rng = np.random.default_rng(n + s)
        logp = rng.integers(-8, 1, size=n).astype(float)
        mass = np.arange(n, dtype=float)
        buf = _PeakBuffer()
        head = min(n, 5)
        for i in range(head):
            buf.add_one(mass[i], logp[i])
        for lo in range(head, n, 300):
            m, lp = buf.append(min(300, n - lo))
            m[:] = mass[lo : lo + 300]
            lp[:] = logp[lo : lo + 300]
        assert buf.mass.size > 1024 or n <= 1024
        top_mass, top_logp = buf.take_top(s)
        assert buf.n == n - s
        rest_mass, rest_logp = buf.mass[: buf.n], buf.logp[: buf.n]
        ranked = np.sort(logp)
        assert np.array_equal(np.sort(top_logp), ranked[n - s :])
        assert np.array_equal(np.sort(rest_logp), ranked[: n - s])
        ids = np.concatenate([top_mass, rest_mass]).astype(int)
        assert np.array_equal(np.sort(ids), np.arange(n))
        assert np.array_equal(logp[top_mass.astype(int)], top_logp)
        assert np.array_equal(logp[rest_mass.astype(int)], rest_logp)
        # the returned arrays are the caller's, untouched by later use
        kept = top_logp.copy()
        m, lp = buf.append(5)
        m[:], lp[:] = -1.0, 5.0
        assert np.array_equal(top_logp, kept)


    def test_capacity_doubles_past_uneven_extends(self):
        # capacities stay 1024 * 2**j, even when one append outgrows twice
        # the capacity, and every entry survives each growth copy
        buf = _PeakBuffer()
        sizes = [1, 700, 2000, 9000, 5, 40000]
        total = 0
        for size in sizes:
            ids = np.arange(total, total + size, dtype=float)
            m, lp = buf.append(size)
            m[:], lp[:] = ids, -ids
            total += size
            cap = buf.mass.size
            assert buf.logp.size == cap >= total
            assert cap & (cap - 1) == 0 and cap >= 1024
            assert cap < 2 * total or cap == 1024
        assert buf.mass.size == 65536
        assert np.array_equal(buf.mass[:total], np.arange(total, dtype=float))
        assert np.array_equal(buf.logp[:total], -np.arange(total, dtype=float))


def selections(x, y, alpha, masses=None):
    """Layer by layer output, a top-k and a coverage selection of X+Y, each
    from a fresh selector."""
    def fresh():
        schedule = LayerSchedule(alpha)
        mx = masses[0] if masses else x
        my = masses[1] if masses else y
        return PairwiseSelector(
            ArrayPeakStream(mx, x, schedule), ArrayPeakStream(my, y, schedule), schedule
        )

    layered = []
    sel = fresh()
    while True:
        mass, logp = sel.next_layer()
        layered.append((mass, logp))
        if mass.size == 0:
            break
    universe = len(x) * len(y)
    top = fresh().top_k(max(1, universe // 3))
    total = np.exp(np.add.outer(x, y)).sum()
    cover = fresh().until_cumulative(0.6 * total)
    return layered, top, cover


class TestWritePaths:
    """A pop loop's products are written one by one when there are at most
    ``_FEW`` of them, else by one ragged gather. The buffer must hold the
    same values in the same order either way, so every output is equal as
    arrays when ``_FEW`` is 0 (every write a ragged gather) and when it is
    larger than any write (every write product by product)."""

    @staticmethod
    def assert_same(a, b):
        layered_a, top_a, cover_a = a
        layered_b, top_b, cover_b = b
        assert len(layered_a) == len(layered_b)
        for (ma, la), (mb, lb) in zip(layered_a, layered_b):
            assert np.array_equal(ma, mb) and np.array_equal(la, lb)
        for (ma, la, *ra), (mb, lb, *rb) in ((top_a, top_b), (cover_a, cover_b)):
            assert np.array_equal(ma, mb) and np.array_equal(la, lb)
            assert ra == rb

    @staticmethod
    def both_paths(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(pairwise, "_FEW", 0)
            gathered = selections(*args)
        with monkeypatch.context() as m:
            m.setattr(pairwise, "_FEW", 1 << 30)
            one_by_one = selections(*args)
        return gathered, one_by_one

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_write_path_changes_nothing(self, alpha, monkeypatch):
        rng = np.random.default_rng(int(alpha * 100))
        for i in range(8):
            nx, ny = (int(n) for n in rng.integers(2, 90, size=2))
            x = -rng.exponential(rng.uniform(0.2, 3.0), size=nx)
            y = -rng.exponential(rng.uniform(0.2, 3.0), size=ny)
            if i % 2 == 0:  # exact ties
                x, y = np.round(x), np.round(y)
            masses = (rng.uniform(10, 500, size=nx), rng.uniform(10, 500, size=ny))
            self.assert_same(*self.both_paths(monkeypatch, x, y, alpha, masses))

    def test_large_products(self, monkeypatch):
        # at alpha 2 the layers reach 128 and 256 peaks, so late writes hold
        # products of tens of thousands of sums
        rng = np.random.default_rng(5)
        x = -rng.exponential(1.0, size=500)
        y = -rng.exponential(1.0, size=300)
        self.assert_same(*self.both_paths(monkeypatch, x, y, 2.0))


class TestLaziness:
    def test_does_not_drain_children_for_small_k(self):
        # steep drop after the first key: top-1 must not touch deep layers
        x = np.concatenate([[0.0], np.linspace(-100, -200, 999)])
        y = np.concatenate([[0.0], np.linspace(-100, -200, 999)])
        sel = PairwiseSelector(stream(x, 1.05), stream(y, 1.05), LayerSchedule(1.05))
        mass, logp = sel.next_layer()
        assert logp.tolist() == [0.0]
        assert sel.x_pulls + sel.y_pulls <= 8
        assert sel.materialized_total <= 4

    def test_pull_instrumentation(self):
        x = -np.linspace(0, 3, 40)
        y = -np.linspace(0, 2, 25)
        sel = PairwiseSelector(stream(x, 1.3), stream(y, 1.3), LayerSchedule(1.3))
        pulls = []

        def spy(axis, pull):
            def call():
                pulls.append((axis, sel._x_bound, sel._y_bound))
                pull()

            return call

        # installed after construction, so only the lazy pulls are recorded
        sel._pull_x = spy("x", sel._pull_x)
        sel._pull_y = spy("y", sel._pull_y)
        drain(sel)
        assert len(pulls) > 0
        for axis, bx, by in pulls:
            # the larger of the two activation bounds decides the pull
            assert axis == ("x" if bx >= by else "y")
            # X is pulled only while the spine product below its last layer
            # is parked, so the pop loop never finds (u+1, 0) unpushed
            assert axis == "y" or bx > -np.inf
        assert any(axis == "x" for axis, _, _ in pulls)

    def test_resident_peaks_tracked(self):
        x = -np.linspace(0, 3, 50)
        y = -np.linspace(0, 2, 50)
        sel = PairwiseSelector(stream(x, 1.3), stream(y, 1.3), LayerSchedule(1.3))
        sel.next_layer()
        assert sel.peak_resident > 0

    @pytest.mark.parametrize("alpha, seed", [(1.05, 1), (2.0, 0)])
    def test_root_resident_is_its_buffer_and_stored_child_peaks(self, alpha, seed):
        # a merge root holds its one buffer, of the products the pop loop
        # would materialize, and every child peak it pulled
        rng = np.random.default_rng(seed)
        x = -rng.exponential(1.0, size=int(rng.integers(5, 40)))
        y = -rng.exponential(1.0, size=int(rng.integers(5, 40)))
        k = x.size * y.size // 4

        def fresh():
            return PairwiseSelector(
                stream(x, alpha), stream(y, alpha), LayerSchedule(alpha)
            )

        heap = fresh()
        heap._fill(k)
        sel = fresh()
        sel.top_k(k)
        stored = sel.x.emitted + sel.y.emitted
        assert sel.peak_resident == heap.materialized_total + stored
        assert heap.materialized_total < sel.peak_resident < x.size * y.size


class TestGridRoot:
    """A merge root selects on the grid of child-layer products: it must
    pull and materialize exactly what the heap pop loop would, into one
    buffer of exactly that size."""

    SHAPES = [(1, 40), (40, 1), (1, 1), (0, 12), (12, 0), (23, 17), (60, 9), (5, 70)]

    @staticmethod
    def top_k_recording(sel, k, monkeypatch):
        """``sel.top_k(k)`` and the capacity of every buffer it made."""
        capacities = []

        class Recording(_PeakBuffer):
            def __init__(self, capacity=1024):
                capacities.append(capacity)
                super().__init__(capacity)

        with monkeypatch.context() as m:
            m.setattr(pairwise, "_PeakBuffer", Recording)
            mass, logp = sel.top_k(k)
        return mass, logp, capacities

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_does_the_heaps_work(self, alpha, monkeypatch):
        rng = np.random.default_rng(int(alpha * 1000))
        drawn = [tuple(int(n) for n in rng.integers(1, 80, 2)) for _ in range(6)]
        shapes = self.SHAPES + drawn
        for nx, ny in shapes:
            x, y, sums, fresh = paired(rng, ties=False, alpha=alpha, nx=nx, ny=ny)
            ranked = np.sort(sums.ravel())[::-1]
            universe = sums.size
            for k in sorted({1, max(1, universe // 3), max(1, universe), universe + 5}):
                heap = fresh()
                heap._fill(k)
                sel = fresh()
                mass, logp, capacities = self.top_k_recording(sel, k, monkeypatch)
                assert (sel.x_pulls, sel.y_pulls) == (heap.x_pulls, heap.y_pulls)
                assert sel.materialized_total == heap.materialized_total
                assert capacities == [sel.materialized_total]
                assert np.array_equal(np.sort(logp)[::-1], ranked[:k])
                made_products(mass, sums.shape)

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_ties_select_a_top_set(self, alpha, monkeypatch):
        rng = np.random.default_rng(int(alpha * 1000) + 1)
        for nx, ny in self.SHAPES:
            x, y, sums, fresh = paired(rng, ties=True, alpha=alpha, nx=nx, ny=ny)
            ranked = np.sort(sums.ravel())[::-1]
            for k in sorted({1, max(1, sums.size // 2), sums.size + 1}):
                sel = fresh()
                mass, logp, capacities = self.top_k_recording(sel, k, monkeypatch)
                assert np.array_equal(np.sort(logp)[::-1], ranked[:k])
                made = made_products(mass, sums.shape)
                assert np.array_equal(np.sort(sums[made]), np.sort(logp))
                assert capacities == [sel.materialized_total]

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_coverage_is_the_minimal_prefix(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000) + 2)
        for nx, ny in self.SHAPES:
            x, y, sums, fresh = paired(rng, ties=False, alpha=alpha, nx=nx, ny=ny)
            ranked = np.sort(sums.ravel())[::-1]
            csum = np.cumsum(np.exp(ranked))
            total = csum[-1] if csum.size else 0.0
            # an empty universe has no valid p but one it cannot reach
            for p in [f * total for f in (0.1, 0.5, 0.97) if total] + [2.0]:
                mass, logp, short = fresh().until_cumulative(p)
                want = min(int(np.searchsorted(csum, p)) + 1, ranked.size)
                assert short == (p > total)
                assert np.array_equal(np.sort(logp)[::-1], ranked[:want])
                made_products(mass, sums.shape)

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 2.0])
    def test_cut_ranks_only_behind_the_sure_front(self, alpha, monkeypatch):
        # the fill writes first the products sure to be kept, and the one
        # cut starts behind them: every sure sum lies above the kept
        # threshold, together they weigh less than the target, and the cut
        # leaves them where they are
        rng = np.random.default_rng(int(alpha * 1000) + 3)
        cut, cuts = _PeakBuffer.cut, []

        def spy(buf, want, lo, hi, by_mass, start):
            head = buf.block[:, :start].copy()
            out = cut(buf, want, lo, hi, by_mass, start)
            assert np.array_equal(buf.block[:, :start], head)
            cuts.append((start, head[1]))
            return out

        monkeypatch.setattr(_PeakBuffer, "cut", spy)
        split = 0  # fills with both sure and straddling sums
        for i in range(8):
            nx, ny = (int(n) for n in rng.integers(1, 80, size=2))
            x, y, sums, fresh = paired(rng, ties=i % 2 == 0, alpha=alpha, nx=nx, ny=ny)
            ranked = np.sort(sums.ravel())[::-1]
            csum = np.cumsum(np.exp(ranked))
            for by_mass, wants in (
                (False, [1, sums.size // 3 + 1, sums.size, sums.size + 3]),
                (True, [csum[-1] * f for f in (0.2, 0.6, 0.95)] + [2.0]),
            ):
                for want in wants:
                    sel, fills = fresh(), []

                    def recording(*args, grid_fill=sel._grid_fill):
                        fills.append(grid_fill(*args))
                        return fills[-1]

                    sel._grid_fill = recording
                    cuts.clear()
                    if by_mass:
                        mass, logp, _ = sel.until_cumulative(want)
                        count = min(int(np.searchsorted(csum, want)) + 1, ranked.size)
                    else:
                        mass, logp = sel.top_k(want)
                        count = min(want, ranked.size)
                    assert np.array_equal(np.sort(logp)[::-1], ranked[:count])
                    assert len(fills) == len(cuts) >= 1
                    for (buf, front, sure), (start, head) in zip(fills, cuts):
                        split += 0 < front < buf.n
                        assert start == front == head.size
                        assert np.all(head > ranked[count - 1])
                        assert sure < want
                        weight = np.exp(head).sum() if by_mass else head.size
                        assert weight == pytest.approx(sure, rel=1e-12)
        assert split >= 32

    def test_selects_once_before_any_layer(self):
        x, y, sums, fresh = paired(np.random.default_rng(3), ties=False, alpha=1.3)
        sel = fresh()
        sel.next_layer()
        with pytest.raises(ValueError, match="selects once"):
            sel.top_k(5)
        with pytest.raises(ValueError, match="selects once"):
            sel.until_cumulative(0.5)
        sel = fresh()
        assert sel.top_k(5)[0].size == 5
        with pytest.raises(ValueError, match="selects once"):
            sel.top_k(5)
        # the stream has ended
        assert sel.next_layer()[0].size == 0
