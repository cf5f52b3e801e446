import numpy as np
import pytest
from hypothesis import given, strategies as st

from locstat.curves import (
    SPEC_KEYS,
    ConstantCurve,
    FourierCurve,
    MonotoneStepCurve,
    SampledCurve,
    as_number,
    as_numbers,
    curve_from_spec,
    curve_to_spec,
)
from locstat.estimator import fit_monotone_tvar
from locstat.isotonic import sieve_pava


def test_constant_curve():
    c = ConstantCurve(2.5)
    u = np.array([0.1, 0.5, 1.0])
    assert np.all(c.values(u) == 2.5)
    assert c.values(0.3) == 2.5


def test_fourier_curve_matches_direct_formula():
    c = FourierCurve(0.2, a=[0.5, -0.1], b=[0.3, 0.0])
    u = np.linspace(0.01, 1.0, 57)
    expected = (
        0.2
        + 0.5 * np.cos(2 * np.pi * u)
        - 0.1 * np.cos(4 * np.pi * u)
        + 0.3 * np.sin(2 * np.pi * u)
    )
    np.testing.assert_allclose(c.values(u), expected, rtol=0, atol=1e-14)
    assert c.order == 2


def test_fourier_curve_constant_term_only():
    c = FourierCurve(1.5)
    assert c.order == 0
    assert c.values(0.7) == 1.5


def test_sampled_curve_left_open_cells():
    # sample i covers ((i-1)/m, i/m]
    c = SampledCurve([1.0, 2.0, 3.0, 4.0])
    assert c.values(0.25) == 1.0
    assert c.values(0.25 + 1e-9) == 2.0
    assert c.values(0.5) == 2.0
    assert c.values(0.75) == 3.0
    assert c.values(1.0) == 4.0
    assert c.values(1e-12) == 1.0


def test_sampled_curve_matches_design_points():
    vals = [1.0, 4.0, 9.0]
    c = SampledCurve(vals)
    # at u = i/m the curve returns sample i exactly
    np.testing.assert_array_equal(c.values(np.array([1 / 3, 2 / 3, 1.0])), vals)


def test_unit_time_domain_is_validated():
    c = ConstantCurve(1.0)
    with pytest.raises(ValueError):
        c.values(np.array([0.0]))
    with pytest.raises(ValueError):
        c.values(np.array([1.0 + 1e-9]))
    c.values(np.array([1e-300, 1.0]))  # both endpoints of (0, 1]


def test_monotone_step_curve_validation():
    MonotoneStepCurve([0.5, 1.0, 1.5], eps=0.5)
    with pytest.raises(ValueError):
        MonotoneStepCurve([1.0, 0.5], eps=0.5)  # decreasing
    with pytest.raises(ValueError):
        MonotoneStepCurve([0.1, 1.0], eps=0.5)  # below eps^2
    with pytest.raises(ValueError):
        MonotoneStepCurve([1.0, 5.0], eps=0.5)  # above 1/eps^2


@pytest.mark.parametrize("eps", [0.0, 1.0, 1e-300, 1e-160])
def test_eps_needs_finite_positive_bounds(eps):
    # 1e-300 squares to 0 and 1e-160 to a subnormal whose inverse overflows
    message = r"^eps must lie in \(0, 1\) with eps\^2 > 0 and 1/eps\^2 finite, got "
    with pytest.raises(ValueError, match=message):
        MonotoneStepCurve([1.0], eps=eps)
    with pytest.raises(ValueError, match=message):
        fit_monotone_tvar(np.ones(9), eps=eps)
    with pytest.raises(ValueError, match=message):
        sieve_pava(np.ones(9), 10, 3, eps)


def test_monotone_step_curve_exposes_bounds_and_knots():
    c = MonotoneStepCurve([0.5, 1.0, 2.0], eps=0.6)
    assert c.lower == pytest.approx(0.36)
    assert c.upper == pytest.approx(1 / 0.36)
    assert c.knots == 3
    vals = c.values(np.linspace(0.01, 1, 50))
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize(
    "curve",
    [
        ConstantCurve(1.3),
        FourierCurve(0.1, a=[0.2], b=[-0.3]),
        SampledCurve([1.0, 2.0, 2.5]),
        MonotoneStepCurve([0.5, 1.0, 1.5], eps=0.5),
    ],
)
def test_curve_spec_round_trip(curve):
    spec = curve_to_spec(curve)
    assert set(spec) == set(SPEC_KEYS[spec["type"]])  # the keys curve_from_spec allows
    with pytest.raises(ValueError, match="unknown .* key.*extra"):
        curve_from_spec({**spec, "extra": 1.0})
    rebuilt = curve_from_spec(spec)
    assert type(rebuilt) is type(curve)
    u = np.linspace(0.01, 1.0, 31)
    np.testing.assert_array_equal(rebuilt.values(u), curve.values(u))


@pytest.mark.parametrize(
    "spec, curve",
    [
        (curve_to_spec(FourierCurve(0.7)), FourierCurve(0.7)),  # an order-0 curve writes empty lists
        ({"type": "fourier", "a0": 0.7}, FourierCurve(0.7)),
        ({"type": "fourier", "a0": 0.1, "a": [0.2], "b": []}, FourierCurve(0.1, a=[0.2])),
    ],
)
def test_fourier_spec_accepts_empty_coefficient_lists(spec, curve):
    assert repr(curve_from_spec(spec)) == repr(curve)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "sampled", "values": {}}, r"sampled curve values must be a list, got \{\}"),
        ({"type": "sampled", "values": []}, "sampled curve values must not be empty"),
        ({"type": "sampled", "values": "12"}, "sampled curve values must be a list, got '12'"),
        ({"type": "sampled", "values": [1.0, [2.0]]}, r"sampled curve values entry must be a finite number, got \[2.0\]"),
        ({"type": "monotone_step", "values": 1.0, "eps": 0.5}, "monotone_step curve values must be a list, got 1.0"),
        ({"type": "monotone_step", "values": [1.0, None], "eps": 0.5}, "values entry must be a finite number, got None"),
        ({"type": "fourier", "a0": 0.0, "a": {}}, r"fourier curve a must be a list, got \{\}"),
        ({"type": "fourier", "a0": 0.0, "b": ["abc"]}, "fourier curve b entry must be a finite number, got 'abc'"),
    ],
)
def test_curve_from_spec_checks_array_fields(spec, message):
    with pytest.raises(ValueError, match=message):
        curve_from_spec(spec)


def test_curve_from_spec_rejects_misspelt_key():
    with pytest.raises(ValueError, match="unknown constant curve key.*valu"):
        curve_from_spec({"type": "constant", "valu": 2.0})


def test_curve_from_spec_rejects_unknown_type():
    with pytest.raises(ValueError):
        curve_from_spec({"type": "spline", "values": [1.0]})
    with pytest.raises(ValueError, match=r"unknown curve type \['constant'\]"):
        curve_from_spec({"type": ["constant"], "value": 1.0})


@pytest.mark.parametrize(
    "value, kind, expected",
    [(3, int, 3), (3.0, int, 3), ("3", int, 3), (2, float, 2.0), ("0.5", float, 0.5)],
)
def test_as_number_converts(value, kind, expected):
    number = as_number(value, "x", kind)
    assert number == expected and type(number) is kind


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (None, int, "x must be an integer, got None"),
        ("abc", int, "x must be an integer, got 'abc'"),
        ([1], int, r"x must be an integer, got \[1\]"),
        ({}, int, r"x must be an integer, got \{\}"),
        (1.5, int, "x must be an integer, got 1.5"),
        (float("inf"), int, "x must be an integer, got inf"),
        (float("nan"), float, "x must be a finite number, got nan"),
        ({}, float, r"x must be a finite number, got \{\}"),
        (-1, int, "x must be at least 0, got -1"),
        (True, int, "x must be an integer, got True"),
        (np.bool_(True), int, r"x must be an integer, got (np\.)?True_?"),
    ],
)
def test_as_number_names_rejected_value(value, kind, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_number(value, "x", kind, 0)


def test_as_numbers_needs_a_nonempty_list():
    assert as_numbers([16, 32.0], "n_list", int, 8) == (16, 32)
    assert as_numbers(np.array([0.5, 1.0]), "etas", float) == (0.5, 1.0)
    for values in (None, 64, 1.5, "abc", {}, {"a": 1}):
        with pytest.raises(ValueError, match="^n_list must be a list, got "):
            as_numbers(values, "n_list")
    with pytest.raises(ValueError, match="^n_list must not be empty$"):
        as_numbers([], "n_list")
    with pytest.raises(ValueError, match="^n_list entry must be at least 8, got 4$"):
        as_numbers([4, 64], "n_list", int, 8)


@given(
    st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=1, max_size=12),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
)
def test_sampled_curve_is_piecewise_constant(vals, u):
    c = SampledCurve(vals)
    m = len(vals)
    i = int(np.ceil(u * m - 1e-9))
    i = min(max(i, 1), m)
    assert c.values(u) == vals[i - 1]


@given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=8))
def test_monotone_step_accepts_any_sorted_values_in_range(vals):
    vals = sorted(vals)
    c = MonotoneStepCurve(vals, eps=0.7)  # bounds [0.49, 2.04...]
    out = c.values(np.linspace(0.05, 1.0, 20))
    assert np.all(np.diff(out) >= 0)
