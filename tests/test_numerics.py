import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cells
from myograsp.numerics import derive_rng, init_params, make_rng, relu, sigmoid


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_value(self):
        np.testing.assert_allclose(sigmoid(np.array(2.0)), 0.8807970779778823,
                                   rtol=0, atol=1e-15)

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.5])),
                                      [0.0, 0.0, 2.5])

    def test_relu_in_place(self):
        x = np.array([-1.0, 0.0, 2.5], dtype=np.float32)
        assert relu(x, out=x) is x
        np.testing.assert_array_equal(x, [0.0, 0.0, 2.5])

    @given(st.floats(min_value=-500, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_complement(self, x):
        x = np.array(x)
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    def test_sigmoid_finite_for_extreme_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # any RuntimeWarning fails the test
            out = sigmoid(np.array([-1e6, -750.0, 750.0, 1e6]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-300)

    def test_sigmoid_matches_masked_reference(self):
        # the two-branch formulation it replaced, to within one rounding step
        x = np.linspace(-800.0, 800.0, 200_001)
        np.testing.assert_allclose(sigmoid(x), reference_cells.sigmoid(x),
                                   rtol=0, atol=2.3e-16)

    def test_sigmoid_in_place(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        expected = reference_cells.sigmoid(x)
        out = sigmoid(x, out=x)
        assert out is x
        np.testing.assert_allclose(x, expected, rtol=0, atol=2.3e-16)

    def test_sigmoid_leaves_input_unchanged(self):
        x = np.linspace(-40.0, 40.0, 101).reshape(1, -1)
        before = x.copy()
        out = sigmoid(x)
        assert out is not x and not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)

    def test_sigmoid_into_strided_view(self):
        x = np.random.default_rng(3).normal(scale=20.0, size=(4, 6))
        a = np.full((4, 12), 7.0)
        out = sigmoid(x, out=a[:, ::2])
        assert np.shares_memory(out, a)
        np.testing.assert_allclose(a[:, ::2], reference_cells.sigmoid(x), rtol=0, atol=2.3e-16)
        np.testing.assert_array_equal(a[:, 1::2], 7.0)


    def test_sigmoid_float32_saturates_without_warning(self):
        # tanh(x / 2) rounds to -1 or 1 in float32 beyond about |x| = 18: the
        # result saturates to exactly 0 or 1, in the input's dtype, with no
        # RuntimeWarning
        x = np.array([-1e4, -100.0, 100.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
            sigmoid(x, out=x)
        assert out.dtype == np.float32 and x.dtype == np.float32
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(x, out)

    def test_sigmoid_float32_matches_reference(self):
        # float32 round-off of the float64 two-branch reference: 2**-23 is
        # one float32 ulp at 1, the largest the result takes
        x = np.linspace(-40.0, 40.0, 200_001, dtype=np.float32)
        out = sigmoid(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference_cells.sigmoid(x), rtol=0, atol=2.0 ** -23)

    def test_sigmoid_float32_exact_points(self):
        assert sigmoid(np.float32(0)) == 0.5
        x = np.array([-40.0, 40.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_activations_keep_the_input_dtype(self, dtype):
        x = np.array([-2.0, 0.0, 3.0], dtype=dtype)
        assert sigmoid(x).dtype == dtype
        assert relu(x).dtype == dtype
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 3.0])


class TestInitParams:
    def test_float32_of_the_float64_draws(self):
        # the draws stay those of float64 parameters, rounded once
        out = init_params(5, 7, "uniform-scaled", make_rng(42))
        bound = 1.0 / np.sqrt(7)
        expected = make_rng(42).uniform(-bound, bound, size=(5, 7)).astype(np.float32)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, expected)
        assert init_params(1, 3, "zeros", make_rng(0)).dtype == np.float32

    def test_zeros(self):
        out = init_params(2, 2, "zeros", make_rng(0))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_uniform_scaled_bound(self):
        # fan_in = 4 -> entries in [-0.5, 0.5]
        out = init_params(100, 4, "uniform-scaled", make_rng(1))
        assert np.all(np.abs(out) <= 0.5)

    def test_seed_determinism(self):
        a = init_params(5, 7, "uniform-scaled", make_rng(42))
        b = init_params(5, 7, "uniform-scaled", make_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            init_params(0, 3, "zeros", make_rng(0))

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            init_params(2, 2, "orthogonal", make_rng(0))


class TestRng:
    def test_identical_seed_identical_draws(self):
        a = make_rng(123).normal(size=100)
        b = make_rng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_derive_rng_varies_with_keys(self):
        a = derive_rng(0, "alpha", 1).normal(size=10)
        b = derive_rng(0, "alpha", 2).normal(size=10)
        c = derive_rng(0, "alpha", 1).normal(size=10)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_string_keys_stable(self):
        a = derive_rng(7, "jitter-emg", 3).uniform(size=5)
        b = derive_rng(7, "jitter-emg", 3).uniform(size=5)
        np.testing.assert_array_equal(a, b)
