import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxcosine.numerics import (
    gradient_check,
    make_rng,
    sigmoid,
    sigmoid_grad,
    softmax,
    tanh_grad,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_sigmoid_tanh_at_zero():
    assert sigmoid(0.0) == 0.5
    assert np.tanh(0.0) == 0.0
    assert sigmoid_grad(sigmoid(0.0)) == 0.25


@given(finite_floats)
def test_sigmoid_symmetry(x):
    assert sigmoid(-x) == pytest.approx(1.0 - sigmoid(x), abs=1e-12)


def test_sigmoid_saturates():
    assert sigmoid(1e6) == 1.0
    assert 0.0 <= sigmoid(-1e6) < 1e-25
    assert np.isfinite(sigmoid(1e308)) and np.isfinite(sigmoid(-1e308))


# the edges of the clip, signed zeros, infinities, NaN and subnormals
SIGMOID_EDGES = [0.0, -0.0, 60.0, -60.0, np.nextafter(60.0, 61.0), np.nextafter(-60.0, -61.0),
                 np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(SIGMOID_EDGES)), min_size=1, max_size=40),
       st.sampled_from(["new", "in_place", "strided_in_place"]))
def test_sigmoid_bitwise_equals_clipped_formula(values, layout):
    x = np.array(values)
    expected = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    if layout == "new":
        got = sigmoid(x)
    elif layout == "in_place":
        got = sigmoid(x, out=x)
    else:  # the sigmoid gates of an LSTM step: a column slice of each row
        rows = np.zeros((len(values), 3))
        rows[:, 1] = values
        got = sigmoid(rows[:, 1], out=rows[:, 1])
        assert got.base is rows and not np.any(rows[:, [0, 2]])
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


def test_tanh_grad_matches_definition():
    t = np.tanh(0.7)
    assert tanh_grad(t) == pytest.approx(1.0 - t * t)


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))


def test_softmax_hand_example():
    p = np.log([1.0, 2.0, 3.0])
    assert np.allclose(softmax(p), [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


@given(st.lists(finite_floats, min_size=2, max_size=6), finite_floats)
def test_softmax_shift_invariance(values, shift):
    p = np.array(values)
    assert np.max(np.abs(softmax(p + shift) - softmax(p))) < 1e-12


def test_softmax_contract():
    rng = make_rng(3)
    for _ in range(100):
        p = rng.standard_normal(3) * 10
        out = softmax(p)
        assert np.all(out > 0) and np.all(out < 1)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.argmax(out) == np.argmax(p)


def test_gradient_check_quadratic():
    err = gradient_check(lambda t: float(t[0] ** 2), np.array([3.0]), np.array([6.0]))
    assert err < 1e-9


def test_gradient_check_constant():
    err = gradient_check(lambda t: 1.0, np.array([0.3, -0.7]), np.zeros(2))
    assert err == 0.0


def test_gradient_check_rejects_analytic_of_another_shape():
    with pytest.raises(ValueError, match="analytic gradient shape mismatch"):
        gradient_check(lambda t: float(t.sum()), np.array([1.0, 2.0]), np.ones(3))


def test_gradient_check_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        gradient_check(lambda t: float("nan"), np.array([1.0]), np.array([0.0]))


def test_rng_reproducibility():
    a = make_rng(12345).random(10**6)
    b = make_rng(12345).random(10**6)
    assert np.array_equal(a, b)


def test_rng_distinct_seeds_differ():
    assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))
