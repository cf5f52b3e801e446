import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat.isotonic import pava_monotone, sieve_pava


def max_min_fit(values, weights):
    """Textbook max-min characterization of the isotonic LS fit (slow)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = v.size
    out = np.empty(m)
    for i in range(m):
        best = -np.inf
        for a in range(i + 1):
            worst = np.inf
            for b in range(i, m):
                mean = np.dot(w[a : b + 1], v[a : b + 1]) / np.sum(w[a : b + 1])
                worst = min(worst, mean)
            best = max(best, worst)
        out[i] = best
    return out


def level_set_stops(values):
    """Ends of the runs of equal values: adjacent PAVA blocks have strictly
    increasing means, so each run is one pooled block."""
    return [*(np.flatnonzero(np.diff(values)) + 1).tolist(), len(values)]


def test_pava_frozen_examples():
    np.testing.assert_allclose(pava_monotone([3.0, 1.0, 2.0]), [2.0, 2.0, 2.0])
    fit = pava_monotone([1.0, 2.0, 0.5, 4.0])
    np.testing.assert_allclose(fit, [1.0, 1.25, 1.25, 4.0])
    stops = level_set_stops(fit)
    assert stops == [1, 3, 4]
    np.testing.assert_allclose(fit[np.array(stops) - 1], [1.0, 1.25, 4.0])


def test_pava_returns_the_fitted_array():
    fit = pava_monotone([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    assert type(fit) is np.ndarray
    assert fit.dtype == float and fit.shape == (3,)
    assert repr(fit) == "array([2., 2., 2.])"


def test_pava_already_monotone_is_identity():
    x = [0.5, 0.5, 1.0, 2.0]
    np.testing.assert_array_equal(pava_monotone(x), x)


def test_pava_validation():
    with pytest.raises(ValueError):
        pava_monotone([1.0, -0.5])
    with pytest.raises(ValueError):
        pava_monotone([1.0, np.inf])
    with pytest.raises(ValueError):
        pava_monotone([[1.0, 2.0]])
    with pytest.raises(ValueError):
        pava_monotone([1.0, 2.0], [1.0])


def gcm_slopes(values, weights):
    """Slopes of the greatest convex minorant of the cumulative sum diagram,
    read off its lower convex hull (independent of PAVA's pooling)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    xi = np.concatenate([[0.0], np.cumsum(w)])
    eta = np.concatenate([[0.0], np.cumsum(w * v)])
    hull = [0]
    for j in range(1, xi.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (xi[b] - xi[a]) * (eta[j] - eta[a]) - (eta[b] - eta[a]) * (xi[j] - xi[a])
            if cross > 0:
                break
            hull.pop()
        hull.append(j)
    out = np.empty(v.size)
    for a, b in zip(hull[:-1], hull[1:]):
        out[a:b] = (eta[b] - eta[a]) / (xi[b] - xi[a])
    return out


def test_gcm_matches_pava_and_frozen():
    np.testing.assert_allclose(pava_monotone([5.0, 3.0]), [4.0, 4.0])
    np.testing.assert_allclose(gcm_slopes([5.0, 3.0], [1.0, 1.0]), [4.0, 4.0])
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.uniform(0.0, 3.0, 9)
        w = rng.uniform(0.5, 2.0, 9)
        np.testing.assert_allclose(pava_monotone(v, w), gcm_slopes(v, w), atol=1e-12)
    with pytest.raises(ValueError):
        pava_monotone("not values")


def test_gcm_touches_diagram_at_block_ends():
    # PAVA is the slope of the greatest convex minorant of the cumulative sum
    # diagram: the fit's weighted cumulative sums meet the data's at every
    # block end and never exceed them
    for seed in (11, 12, 13, 14):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 3.0, 12)
        w = rng.uniform(0.5, 2.0, 12)
        fit = pava_monotone(v, w)
        diagram = np.concatenate([[0.0], np.cumsum(w * v)])
        minorant = np.concatenate([[0.0], np.cumsum(w * fit)])
        for stop in level_set_stops(fit):
            assert minorant[stop] == pytest.approx(diagram[stop], abs=1e-12)
        assert np.all(minorant <= diagram + 1e-12)


def test_pava_matches_max_min_on_all_ternary_inputs():
    levels = [0.5, 1.0, 2.0]
    w = np.ones(6)
    worst = 0.0
    for combo in itertools.product(levels, repeat=6):
        fit = pava_monotone(list(combo))
        oracle = max_min_fit(combo, w)
        worst = max(worst, float(np.max(np.abs(fit - oracle))))
    assert worst <= 1e-9


def test_pava_matches_max_min_with_weights():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        v = rng.choice([0.5, 1.0, 2.0, 3.0], 7)
        w = rng.uniform(0.2, 3.0, 7)
        worst = max(worst, float(np.max(np.abs(pava_monotone(v, w) - max_min_fit(v, w)))))
    assert worst <= 1e-9


def test_pava_minimizes_gaussian_objective_over_grid():
    # PAVA is the exact minimizer of sum w (log y + x/y) over nondecreasing y,
    # so every nondecreasing grid candidate must do at least as badly
    def obj(y, x, w):
        return float(np.dot(w, np.log(y) + x / y))

    rng = np.random.default_rng(5)
    grid = np.linspace(0.25, 3.0, 12)
    candidates = [np.array(c) for c in itertools.combinations_with_replacement(grid, 4)]
    for _ in range(5):
        x = rng.uniform(0.3, 2.8, 4)
        w = rng.uniform(0.5, 2.0, 4)
        best = obj(pava_monotone(x, w), x, w)
        for cand in candidates:
            assert obj(cand, x, w) >= best - 1e-12


def test_sieve_pava_frozen_layout():
    # n=10, p=1, k_n=3: knots at t = 3, 6, 10; chunks (2..3), (4..6), (7..10),
    # matching the cells ((j-1)/3, j/3] the step curve evaluates at u = t/10
    sq = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0])
    curve = sieve_pava(sq, n=10, p=1, k_n=3, eps=0.1)
    assert curve.knots == 3
    np.testing.assert_allclose(curve.knot_values, [1.0, 2.0, 4.0])
    # cells are left-open: u in ((j-1)/3, j/3]
    np.testing.assert_allclose(curve.values(np.array([0.2, 0.5, 0.9])), [1.0, 2.0, 4.0])
    # every residual now evaluates with its own chunk's value: t=3 lies in
    # cell 1 (3/10 <= 1/3) and t=6 in cell 2, so PAVA minimizes the evaluated
    # conditional objective exactly
    u = np.arange(2, 11) / 10.0
    np.testing.assert_allclose(curve.values(u), [1, 1, 2, 2, 2, 4, 4, 4, 4])


def test_sieve_pava_pools_decreasing_chunks():
    sq = np.array([4.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    curve = sieve_pava(sq, n=10, p=1, k_n=3, eps=0.1)
    np.testing.assert_allclose(curve.knot_values, [2.0, 2.0, 2.0])


def test_sieve_pava_copies_first_value_before_admissible_knot():
    # n=8, p=3, k_n=4: jmin = ceil(4*4/8) = 2, so knot 1 copies knot 2
    sq = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    curve = sieve_pava(sq, n=8, p=3, k_n=4, eps=0.05)
    assert curve.knots == 4
    assert curve.knot_values[0] == curve.knot_values[1]


def test_sieve_pava_clips_to_bounds():
    sq = np.array([0.0, 0.0, 0.0, 100.0, 100.0, 100.0, 10000.0, 10000.0, 10000.0])
    curve = sieve_pava(sq, n=10, p=1, k_n=3, eps=0.5)
    np.testing.assert_allclose(curve.knot_values, [0.25, 4.0, 4.0])


def test_sieve_pava_validation():
    with pytest.raises(ValueError, match="expected 9"):
        sieve_pava(np.ones(10), n=10, p=1, k_n=3, eps=0.1)
    with pytest.raises(ValueError):
        sieve_pava(np.ones(9), n=10, p=1, k_n=0, eps=0.1)
    with pytest.raises(ValueError):
        sieve_pava(np.ones(9), n=10, p=1, k_n=3, eps=1.5)
    with pytest.raises(ValueError):
        sieve_pava(-np.ones(9), n=10, p=1, k_n=3, eps=0.1)
    with pytest.raises(ValueError):
        sieve_pava(np.ones(0), n=3, p=3, k_n=2, eps=0.1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k_n": 2.7}, "k_n must be an integer"),
        ({"n": 10.9}, "n must be an integer"),
        ({"p": 1.5}, "p must be an integer"),
        ({"p": -1}, "p must be at least 0"),
        ({"eps": "0.5x"}, "eps must be a finite number"),
        ({"eps": float("nan")}, "eps must be a finite number"),
        ({"eps": None}, "eps must be a finite number"),
    ],
)
def test_sieve_pava_converts_each_argument_once(kwargs, message):
    args = {"n": 10, "p": 1, "k_n": 3, "eps": 0.1, **kwargs}
    with pytest.raises(ValueError, match=message):
        sieve_pava(np.ones(9), **args)


def test_sieve_pava_accepts_numeric_strings_and_integral_floats():
    sq = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0])
    expected = sieve_pava(sq, n=10, p=1, k_n=3, eps=0.5).knot_values
    got = sieve_pava(sq, n=10.0, p=np.int64(1), k_n=3.0, eps="0.5").knot_values
    np.testing.assert_array_equal(got, expected)


def test_sieve_pava_one_knot_is_clipped_global_mean():
    sq = np.array([1.0, 2.0, 3.0, 4.0])
    curve = sieve_pava(sq, n=5, p=1, k_n=1, eps=0.2)
    np.testing.assert_allclose(curve.knot_values, [2.5])


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_pava_properties(values):
    fit = pava_monotone(values)
    assert np.all(np.diff(fit) >= 0)
    assert np.sum(fit) == pytest.approx(np.sum(values), rel=1e-9, abs=1e-9)
    again = pava_monotone(fit)
    np.testing.assert_allclose(again, fit, rtol=0, atol=1e-12)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=10, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_sieve_pava_properties(p, k_n, n, seed):
    if n <= p:
        return
    rng = np.random.default_rng(seed)
    sq = rng.uniform(0.0, 5.0, n - p)
    curve = sieve_pava(sq, n=n, p=p, k_n=k_n, eps=0.1)
    vals = curve.knot_values
    assert vals.size == k_n
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals >= 0.01 - 1e-12)
    assert np.all(vals <= 100.0 + 1e-9)
