import functools
import heapq
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoselect.isotopes import load_default
from isoselect.loh import LayerSchedule
from isoselect.multinomial import (
    WARMUP,
    MultinomialConfig,
    SubisotopologueGenerator,
    find_mode,
    log_pmf,
    mass_of,
)
from isoselect.oracle import log_pmf_naive, weak_compositions


def config_of(n, probs, masses=None):
    if masses is None:
        masses = list(range(1, len(probs) + 1))
    return MultinomialConfig(n, probs, masses)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config_of(0, [1.0])
        with pytest.raises(ValueError):
            config_of(2, [0.6, 0.39])  # sums to 0.99
        with pytest.raises(ValueError):
            config_of(2, [1.0, 0.0])
        with pytest.raises(ValueError):
            MultinomialConfig(2, [0.5, 0.5], [1.0])

    def test_log_factorial_table(self):
        config = config_of(20, [0.5, 0.5])
        for i in range(21):
            assert config.log_factorial[i] == pytest.approx(
                math.lgamma(i + 1), abs=1e-10
            )

    def test_tuple_count(self):
        assert config_of(2, [0.5, 0.5]).tuple_count() == 3
        assert config_of(1, [0.9, 0.05, 0.05]).tuple_count() == 3
        assert config_of(10, [1.0]).tuple_count() == 1
        # C(n+m-1, m-1)
        assert config_of(4, [0.25] * 4).tuple_count() == math.comb(7, 3)

    def test_log_width(self):
        assert config_of(10, [1.0]).log_width() == 0.0
        assert config_of(1, [1.0]).log_width() == 0.0
        probs = [0.9, 0.07, 0.03]
        want = (
            math.log(2 * math.pi * math.e * 50) + 0.5 * sum(map(math.log, probs))
        )
        assert config_of(50, probs).log_width() == pytest.approx(want, rel=1e-12)
        # the Gaussian entropy: ln sqrt(2 pi e n p q) for two isotopes
        assert config_of(8, [0.25, 0.75]).log_width() == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 8 * 0.25 * 0.75), rel=1e-12
        )
        widths = [config_of(n, probs).log_width() for n in (1, 2, 10, 100, 10**4)]
        assert widths == sorted(set(widths))

    def test_from_isotopes(self):
        table = load_default()
        config = MultinomialConfig.from_isotopes(2, table.get("H"))
        assert config.n == 2
        assert config.m == 2
        assert config.masses[0] == pytest.approx(1.00782503223)


class TestLogPmf:
    def test_matches_independent_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            probs = rng.dirichlet(np.ones(m))
            probs = np.clip(probs, 1e-9, None)
            probs /= probs.sum()
            config = config_of(n, probs)
            counts = rng.multinomial(n, probs)
            expected = log_pmf_naive(n, probs, counts)
            assert log_pmf(config, tuple(counts)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_binomial_case(self):
        config = config_of(2, [0.7, 0.3])
        assert math.exp(log_pmf(config, (2, 0))) == pytest.approx(0.49)
        assert math.exp(log_pmf(config, (1, 1))) == pytest.approx(0.42)
        assert math.exp(log_pmf(config, (0, 2))) == pytest.approx(0.09)

    def test_mass_of(self):
        config = config_of(3, [0.5, 0.5], masses=[1.5, 2.5])
        assert mass_of(config, (2, 1)) == pytest.approx(5.5)


class TestFindMode:
    def test_single_isotope(self):
        assert find_mode(config_of(17, [1.0])) == (17,)

    def test_frozen_cases(self):
        assert find_mode(config_of(10, [0.5, 0.5])) == (5, 5)
        assert find_mode(config_of(2, [0.7, 0.3])) == (2, 0)
        table = load_default()
        carbon = MultinomialConfig.from_isotopes(4, table.get("C"))
        assert find_mode(carbon) == (4, 0)

    def test_mode_is_global_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 9))
            probs = rng.dirichlet(np.ones(m) * float(rng.uniform(0.3, 4.0)))
            probs = np.clip(probs, 1e-6, None)
            probs /= probs.sum()
            config = config_of(n, probs)
            mode = find_mode(config)
            assert sum(mode) == n
            best = max(
                log_pmf(config, c) for c in weak_compositions(n, m)
            )
            assert log_pmf(config, mode) == pytest.approx(best, abs=1e-12)


    def test_terminates_on_rounded_plateau(self):
        # p_1 == p_3, so moving an atom between them gains exactly nothing,
        # but the gain rounds positive in both directions
        probs = [0.19920318725099603, 0.39840637450199207,
                 0.003984063745019921, 0.39840637450199207]
        config = config_of(6, probs)
        best = max(log_pmf(config, c) for c in weak_compositions(6, 4))
        assert log_pmf(config, find_mode(config)) == pytest.approx(best, abs=1e-12)


class TestGenerator:
    def test_emits_mode_first(self):
        config = config_of(6, [0.6, 0.3, 0.1])
        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        counts, logp = gen.next_tuple()
        assert counts == find_mode(config)
        assert logp == pytest.approx(log_pmf(config, counts))

    def test_binomial_order(self):
        config = config_of(2, [0.7, 0.3])
        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        seq = [gen.next_tuple() for _ in range(3)]
        assert [s[0] for s in seq] == [(2, 0), (1, 1), (0, 2)]
        assert gen.next_tuple() is None

    def test_exhaustive_duplicate_free_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            probs = rng.dirichlet(np.ones(m))
            probs = np.clip(probs, 1e-6, None)
            probs /= probs.sum()
            config = config_of(n, probs)
            gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
            seen = set()
            prev = math.inf
            while (item := gen.next_tuple()) is not None:
                counts, logp = item
                assert counts not in seen
                seen.add(counts)
                assert logp <= prev + 1e-12
                prev = logp
            assert len(seen) == config.tuple_count()
            assert seen == set(weak_compositions(n, m))
            assert gen.exhausted

    def test_layers_follow_schedule(self):
        config = config_of(5, [0.4, 0.3, 0.2, 0.1])
        schedule = LayerSchedule(2.0)
        gen = SubisotopologueGenerator(config, schedule)
        total = config.tuple_count()  # 56
        sizes = []
        while True:
            mass, logp = gen.next_layer()
            if mass.size == 0:
                break
            assert mass.shape == logp.shape
            sizes.append(mass.size)
        assert sizes[:-1] == [1, 2, 4, 8, 16]
        assert sum(sizes) == total
        assert gen.emitted == total
        # exhausted generators keep returning empty layers
        mass, logp = gen.next_layer()
        assert mass.size == 0

    def test_layer_values_match_tuple_stream(self):
        # Sn has 10 isotopes, enough for numpy's pairwise summation to kick in
        tin = MultinomialConfig.from_isotopes(5, load_default().get("Sn"))
        for config in (config_of(7, [0.55, 0.25, 0.2]), tin):
            a = SubisotopologueGenerator(config, LayerSchedule(1.5))
            b = SubisotopologueGenerator(config, LayerSchedule(1.5))
            flat_mass, flat_logp = [], []
            while (item := b.next_tuple()) is not None:
                counts, logp = item
                flat_mass.append(mass_of(config, counts))
                flat_logp.append(logp)
            got_mass, got_logp = [], []
            while True:
                mass, logp = a.next_layer()
                if mass.size == 0:
                    break
                got_mass.extend(mass.tolist())
                got_logp.extend(logp.tolist())
            assert len(got_mass) == config.tuple_count()
            assert got_mass == flat_mass
            assert got_logp == flat_logp

    @pytest.mark.parametrize("symbol, n", [("Sn", 1000), ("C", 20000)])
    def test_logp_drift_within_documented_bound(self, symbol, n):
        # reference: lgamma terms summed exactly; each term is good to a few
        # ulps, so the reference itself is trusted to 4 eps * sum |term|
        eps = sys.float_info.epsilon
        config = MultinomialConfig.from_isotopes(n, load_default().get(symbol))
        log_probs = config.log_probs

        def reference(counts):
            terms = [math.lgamma(n + 1)]
            for c, lp in zip(counts, log_probs):
                terms += [-math.lgamma(c + 1), c * lp]
            return math.fsum(terms), 4 * eps * math.fsum(map(abs, terms))

        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        mode = gen.mode
        _, mode_logp = gen.next_tuple()
        ref, ref_err = reference(mode)
        mode_err = abs(mode_logp - ref) + ref_err
        per_step = 2 * math.log(n + 1) + max(map(abs, log_probs))
        longest = 0
        for _ in range(2 * 10**4 - 1):
            counts, logp = gen.next_tuple()
            steps = sum(max(c - c0, 0) for c, c0 in zip(counts, mode))
            longest = max(longest, steps)
            ref, ref_err = reference(counts)
            bound = mode_err + ref_err + steps * 4 * eps * (abs(logp) + per_step)
            assert abs(logp - ref) <= bound, (counts, logp, ref, steps)
        if symbol == "C":
            assert longest > 19000  # the bound is exercised on long chains

    def test_probabilities_sum_to_one(self):
        config = config_of(9, [0.5, 0.3, 0.2])
        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        logps = []
        while (item := gen.next_tuple()) is not None:
            logps.append(item[1])
        assert math.fsum(map(math.exp, logps)) == pytest.approx(1.0, abs=1e-12)

    def test_oxygen_single_atom_echoes_table(self):
        table = load_default()
        config = MultinomialConfig.from_isotopes(1, table.get("O"))
        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        mass, logp = gen.next_layer()
        assert mass[0] == pytest.approx(15.99491461957, abs=1e-9)
        assert logp[0] == pytest.approx(math.log(0.99757), abs=1e-9)

    def test_ties_are_deterministic(self):
        # symmetric probabilities produce exact probability ties; the counts
        # tuple ordering must make runs reproducible
        config = config_of(4, [0.25] * 4)
        runs = []
        for _ in range(2):
            gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
            seq = []
            while (item := gen.next_tuple()) is not None:
                seq.append(item[0])
            runs.append(seq)
        assert runs[0] == runs[1]
        assert len(runs[0]) == config.tuple_count()


@functools.lru_cache(maxsize=None)
def heap_reference(symbol: str, n: int, limit: int = 5 * 10**4):
    """The first ``limit`` (counts, logp) of the plain heap walk, with the
    steps the generator takes, read from the shared ln table."""
    config = MultinomialConfig.from_isotopes(n, load_default().get(symbol))
    mode = find_mode(config)
    log_probs, ln, m = config.log_probs, config.ln.item, config.m
    heap = [(-log_pmf(config, mode), mode, 0, 0)]
    out = []
    while heap and len(out) < limit:
        neg_logp, counts, inc_mark, dec_mark = heapq.heappop(heap)
        out.append((counts, -neg_logp))
        for j in range(dec_mark, m):
            cj = counts[j]
            if cj == 0 or cj > mode[j]:
                continue
            down = ln(cj) - log_probs[j]
            for i in range(inc_mark, m):
                ci = counts[i]
                if i == j or ci < mode[i]:
                    continue
                child = list(counts)
                child[i] += 1
                child[j] -= 1
                step = (log_probs[i] - ln(ci + 1)) + down
                heapq.heappush(heap, (neg_logp - step, tuple(child), i, j))
    return config, out


# S has exact probability ties (p(33S) / p(34S) = 3/17), which both walks
# break by the counts tuple; the others have none
BIT_IDENTITY = [
    ("Sn", 1000), ("Xe", 300), ("Pd", 76), ("S", 500), ("C", 20000), ("H", 40000)
]


class TestBandWalk:
    @pytest.mark.parametrize("alpha", [1.05, 2.0])
    @pytest.mark.parametrize("symbol, n", BIT_IDENTITY)
    def test_layers_match_heap_reference(self, symbol, n, alpha):
        config, ref = heap_reference(symbol, n)
        assert len(ref) > 4 * WARMUP
        masses = np.array([mass_of(config, counts) for counts, _ in ref])
        gen = SubisotopologueGenerator(config, LayerSchedule(alpha))
        done = 0
        while True:
            mass, logp = gen.next_layer()
            stop = done + logp.size
            if stop > len(ref) or logp.size == 0:
                break
            want = zip(masses[done:stop].tolist(), [lp for _, lp in ref[done:stop]])
            assert sorted(zip(mass.tolist(), logp.tolist())) == sorted(want), done
            done = stop
        assert 2 * done >= len(ref)  # the whole layers cover most of it

    @pytest.mark.parametrize("symbol, n", BIT_IDENTITY)
    def test_tuples_match_heap_reference(self, symbol, n):
        config, ref = heap_reference(symbol, n)
        gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
        got = [gen.next_tuple() for _ in ref]
        assert got == ref
        assert gen.generated >= gen.emitted == len(ref)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 5),
        data=st.data(),
        alpha=st.sampled_from([1.0, 1.05, 2.0]),
    )
    def test_band_walk_properties(self, m, data, alpha):
        # universes up to a few thousand tuples, most past the warm-up
        n = data.draw(st.integers(1, {1: 60, 2: 60, 3: 60, 4: 30, 5: 18}[m]))
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        probs = np.array(weights) / math.fsum(weights)
        config = config_of(n, probs)
        stream = SubisotopologueGenerator(config, LayerSchedule(alpha))
        tuples = []
        while (item := stream.next_tuple()) is not None:
            tuples.append(item)
        counts = [c for c, _ in tuples]
        assert len(set(counts)) == len(counts) == config.tuple_count()
        assert set(counts) == set(weak_compositions(n, m))

        layered = SubisotopologueGenerator(config, LayerSchedule(alpha))
        flat_mass, flat_logp, prev_min = [], [], math.inf
        while (layer := layered.next_layer())[1].size:
            mass, logp = layer
            # logp never rises along a chain in exact arithmetic; a rounded
            # step can, by a few ulps
            assert logp.max() <= prev_min + 1e-12
            prev_min = logp.min()
            flat_mass.extend(mass.tolist())
            flat_logp.extend(logp.tolist())
        assert layered.exhausted and stream.exhausted
        assert flat_logp == [lp for _, lp in tuples]
        assert flat_mass == [mass_of(config, c) for c in counts]
