import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myograsp.metrics import angle_ranges, nrmse, rmse
from myograsp.numerics import make_rng


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        # (4 + 4 + 9) / 3 = 17/3
        value = rmse([12.0, 18.0, 33.0], [10.0, 20.0, 30.0])
        np.testing.assert_allclose(value, 2.3804761428476167, rtol=0, atol=1e-15)

    def test_single_pair(self):
        assert rmse([0.0], [5.0]) == 5.0

    def test_symmetry(self):
        rng = make_rng(3)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert rmse(a, b) == rmse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("error", [1.4e154, 1.0e308])
    def test_overflowing_squares_score_inf(self, error):
        # a finite error past sqrt(float64 max) squares to inf: the score is
        # inf, for the caller's finiteness check, and not a RuntimeWarning
        assert rmse([error, 0.0], [0.0, 0.0]) == np.inf
        assert nrmse([[error], [0.0]], [[0.0], [1.0]], [1.0]) == np.inf

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse(np.ones(0), np.ones(0))


class TestNrmse:
    def test_perfect_prediction(self):
        assert nrmse([1.0, 2.0], [1.0, 2.0], [4.0, 4.0]) == 0.0

    def test_hand_computed(self):
        value = nrmse([12.0, 18.0, 33.0], [10.0, 20.0, 30.0], [20.0])
        np.testing.assert_allclose(value, 0.11902380714238084, rtol=0, atol=1e-15)

    def test_doubling_invariance(self):
        y = np.array([10.0, 20.0, 30.0])
        p = np.array([12.0, 18.0, 33.0])
        assert nrmse(p, y, [20.0]) == nrmse(2 * p, 2 * y, [40.0])

    def test_equals_rmse_for_unit_ranges(self):
        rng = make_rng(5)
        p = rng.normal(size=(7, 3))
        t = rng.normal(size=(7, 3))
        np.testing.assert_allclose(nrmse(p, t, np.ones(3)), rmse(p, t), rtol=1e-15)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            nrmse([1.0], [2.0], [0.0])

    @given(st.integers(0, 2 ** 32 - 1), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, seed, c):
        rng = make_rng(seed)
        p = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        r = rng.uniform(0.5, 2.0, size=4)
        assert abs(nrmse(c * p, c * t, c * r) - nrmse(p, t, r)) < 1e-12


class TestAngleRanges:
    def test_max_minus_min(self):
        t = np.array([[0.0, 10.0], [5.0, 30.0], [2.0, 20.0]])
        np.testing.assert_array_equal(angle_ranges(t), [5.0, 20.0])

    def test_clamp_zero(self):
        t = np.array([[1.0, 3.0], [1.0, 5.0]])
        with pytest.warns(UserWarning):
            r = angle_ranges(t, clamp_zero=True)
        np.testing.assert_array_equal(r, [1.0, 2.0])
