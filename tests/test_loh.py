import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoselect.loh import LayeredValues, LayerSchedule, layer_order, lohify, verify_loh


class TestLayerSchedule:
    def test_first_layer_is_always_one(self):
        for alpha in (1.0, 1.0001, 1.05, 1.5, 2.0, 3.0, 10.0):
            assert LayerSchedule(alpha).layer_size(1) == 1

    def test_alpha_two_doubles(self):
        s = LayerSchedule(2.0)
        assert [s.layer_size(t) for t in range(1, 6)] == [1, 2, 4, 8, 16]
        assert [s.cumulative(t) for t in range(6)] == [0, 1, 3, 7, 15, 31]

    def test_alpha_one_is_all_ones(self):
        s = LayerSchedule(1.0)
        assert [s.layer_size(t) for t in range(1, 50)] == [1] * 49

    def test_alpha_one_stores_nothing(self):
        # a constant schedule answers from t alone, so a million layers
        # allocate nothing that grows with t
        s = LayerSchedule(1.0)
        tracemalloc.start()
        try:
            assert s.cumulative(10**6) == 10**6
            assert s.layer_size(10**6) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert s.boundaries_upto(4) == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            s.cumulative(-1)
        with pytest.raises(ValueError):
            s.layer_size(0)

    def test_sizes_are_positive_everywhere(self):
        for alpha in (1.0, 1.000001, 1.02, 1.05, 1.61, 2.0, 7.5):
            s = LayerSchedule(alpha)
            sizes = [s.layer_size(t) for t in range(1, 400)]
            assert min(sizes) >= 1

    def test_growth_tracks_alpha(self):
        s = LayerSchedule(1.05)
        # far from the start, cumulative grows by ~5% per layer
        ratio = s.cumulative(300) / s.cumulative(299)
        assert ratio == pytest.approx(1.05, rel=1e-3)

    def test_boundaries_upto_clips_final_layer(self):
        s = LayerSchedule(2.0)
        assert s.boundaries_upto(10) == [1, 3, 7, 10]
        assert s.boundaries_upto(7) == [1, 3, 7]
        assert s.boundaries_upto(1) == [1]

    @pytest.mark.parametrize("alpha", [0.0, 0.99, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            LayerSchedule(alpha)


class TestLohify:
    def test_empty(self):
        lv = lohify(np.empty(0), LayerSchedule(2.0))
        assert lv.values.size == 0
        assert lv.boundaries == []
        assert verify_loh(lv)

    def test_alpha_one_fully_sorts_descending(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=64)
        lv = lohify(arr, LayerSchedule(1.0))
        assert np.array_equal(lv.values, np.sort(arr)[::-1])
        assert verify_loh(lv)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=501)
        lv = lohify(arr, LayerSchedule(1.3))
        assert np.array_equal(np.sort(lv.values), np.sort(arr))

    def test_layers_iterate_by_boundary(self):
        lv = lohify(np.arange(10.0), LayerSchedule(2.0))
        sizes = [layer.size for layer in lv.layers()]
        assert sizes == [1, 2, 4, 3]

    def test_input_not_mutated(self):
        arr = np.array([3.0, 1.0, 2.0])
        lohify(arr, LayerSchedule(2.0))
        assert np.array_equal(arr, [3.0, 1.0, 2.0])

    def test_all_equal_keys(self):
        lv = lohify(np.zeros(100), LayerSchedule(1.05))
        assert verify_loh(lv)

    def test_descending_and_ascending_inputs(self):
        for arr in (np.arange(200.0), np.arange(200.0)[::-1]):
            for alpha in (1.0, 1.05, 2.0):
                assert verify_loh(lohify(arr, LayerSchedule(alpha)))


class TestVerifyLoh:
    def test_detects_boundary_violation(self):
        # layer 2 contains a key above layer 1's minimum
        lv = LayeredValues(np.array([1.0, 5.0, 0.0]), [1, 3], None)
        assert not verify_loh(lv)

    def test_accepts_valid_arrangement(self):
        lv = LayeredValues(np.array([5.0, 1.0, 0.0]), [1, 3], None)
        assert verify_loh(lv)

    def test_rejects_wrong_total(self):
        lv = LayeredValues(np.array([5.0, 1.0, 0.0]), [1, 2], None)
        assert not verify_loh(lv)

    def test_rejects_schedule_mismatch(self):
        # boundaries [2, 3] disagree with alpha=2's [1, 3]
        lv = LayeredValues(np.array([5.0, 1.0, 0.0]), [2, 3], LayerSchedule(2.0))
        assert not verify_loh(lv)

    def test_ties_may_straddle_boundaries(self):
        lv = LayeredValues(np.array([1.0, 1.0, 1.0]), [1, 3], None)
        assert verify_loh(lv)


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=300
    ),
    alpha=st.sampled_from([1.0, 1.01, 1.05, 1.5, 2.0, 4.0]),
    split=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_lohify_property(values, alpha, split):
    arr = np.asarray(values, dtype=float)
    lv = lohify(arr, LayerSchedule(alpha))
    assert verify_loh(lv)
    assert np.array_equal(np.sort(lv.values), np.sort(arr))
    # layer_order, the routine behind lohify, take_top and select_top_k's
    # trim: the schedule's ends, and the two ends [s, n] of a top-s cut
    n = arr.size
    cuts = [lv.boundaries] + ([[1 + split % (n - 1), n]] if n > 1 else [])
    for ends in cuts:
        idx = layer_order(arr, ends)
        assert np.array_equal(np.sort(idx), np.arange(n))
        assert verify_loh(LayeredValues(arr[idx], ends, None))


def test_lohify_bulk_random():
    """A large randomized pass including adversarial duplicates."""
    rng = np.random.default_rng(42)
    alphas = [1.0, 1.05, 1.3, 2.0, 7.5]
    for i in range(2000):
        n = int(rng.integers(0, 300))
        if i % 4 == 0:
            arr = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        elif i % 4 == 1:
            arr = np.full(n, float(rng.normal()))  # all equal
        else:
            arr = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 3))
        lv = lohify(arr, LayerSchedule(alphas[i % len(alphas)]))
        assert verify_loh(lv)
        assert np.array_equal(np.sort(lv.values), np.sort(arr))
