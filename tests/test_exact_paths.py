"""The exact lag-space and separable paths against the mesh they replace.

Passing a spectrum as a callable forces the midpoint-mesh path, which stays
as the oracle: every exact path must agree with it to rounding.
"""

import numpy as np
import pytest

import locstat.process as process
from locstat.curves import ConstantCurve, FourierCurve, SampledCurve
from locstat.espec import limit_covariance
from locstat.estimator import inverse_l2_distance
from locstat.likelihood import SpectrumField, divergence_sandwich, kl_contrast, kl_divergence, whittle_contrast
from locstat.process import TvARModel, simulate_tvar, spectral_density
from locstat.spectral import (
    FrequencyGrid,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    spectral_functional_limit,
)

GRID = FrequencyGrid(128)
CELLS = 32
TOL = dict(rel=1e-12, abs=1e-14)

CASES = {
    "ar1_step_variance": lambda: TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0])),
    "constant_ar2": lambda: TvARModel(2, [ConstantCurve(-0.5), ConstantCurve(0.3)], ConstantCurve(1.7)),
    "time_varying_ar2": lambda: TvARModel(
        2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], SampledCurve([1.0, 1.5, 2.0])
    ),
}
OTHER = SpectrumField.from_coefficients([0.3, -0.1], SampledCurve([0.8, 1.1, 1.4]))


def mesh(field):
    field = process.as_field(field)
    return lambda u, lam: field.values(u, lam)


PAIR_CONSUMERS = {
    "inverse_l2_distance": lambda g, f: inverse_l2_distance(g, f, grid=GRID, u_grid_size=CELLS),
    "divergence_sandwich": lambda g, f: divergence_sandwich(g, f, grid=GRID, u_grid_size=CELLS),
    "kl_contrast": lambda g, f: kl_contrast(g, f, grid=GRID, u_grid_size=CELLS),
    "kl_divergence": lambda g, f: kl_divergence(g, f, grid=GRID, u_grid_size=CELLS),
}


def assert_close(fast, oracle):
    if isinstance(oracle, dict):
        assert fast.keys() == oracle.keys()
        for key in oracle:
            assert fast[key] == pytest.approx(oracle[key], **TOL), key
    else:
        assert fast == pytest.approx(oracle, **TOL)


@pytest.mark.parametrize("consumer", sorted(PAIR_CONSUMERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_pair_consumers_match_mesh_oracle(case, consumer):
    f = CASES[case]()
    compute = PAIR_CONSUMERS[consumer]
    for g in (OTHER, f):  # g = f exercises the values near 0
        for a, b in ((g, f), (f, g)):
            assert_close(compute(a, b), compute(mesh(a), mesh(b)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_spectral_functional_limit_matches_mesh_oracle(case):
    f = CASES[case]()
    weights = [
        ar_inverse_weight(f),
        ar_inverse_weight(CASES["time_varying_ar2"](), scale=0.5),
        constant_weight(1.3),
        lag_curve_weight({0: 1.0, 1: FourierCurve(0.2, a=[0.3]), 3: -0.4}),
    ]
    for phi in weights:
        fast = spectral_functional_limit(phi, f, u_grid_size=CELLS)
        oracle = spectral_functional_limit(phi, mesh(f), grid=GRID, u_grid_size=CELLS)
        assert fast == pytest.approx(oracle, **TOL)


def test_inverse_weight_functional_is_two_pi():
    # phi = 1/f integrates against f to 2 pi at every u
    f = CASES["time_varying_ar2"]()
    assert spectral_functional_limit(ar_inverse_weight(f), f) == pytest.approx(2 * np.pi, rel=1e-14)


def test_ar_autocov_matches_quadrature_of_the_density():
    model = CASES["time_varying_ar2"]()
    u = (np.arange(7) + 0.5) / 7
    grid = FrequencyGrid(512)
    dens = spectral_density(model, u[:, None], grid.nodes[None, :])
    phases = np.exp(1j * np.outer(grid.nodes, np.arange(6)))
    quad = (dens @ phases).real * grid.weight
    np.testing.assert_allclose(process.ar_autocov(model, u, 5), quad, rtol=1e-12, atol=1e-14)
    # and of f^2, through the squared transfer polynomial
    quad_sq = (dens ** 2 @ phases).real * grid.weight
    np.testing.assert_allclose(process.ar_autocov(model, u, 5, squared=True), quad_sq, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("case", sorted(CASES))
def test_limit_covariance_matches_mesh_oracle(case):
    f = CASES[case]()
    weights = [
        ar_inverse_weight(f),
        constant_weight(1.3),
        lag_curve_weight({0: 1.0, 1: FourierCurve(0.2, a=[0.3]), 3: -0.4}),
    ]
    for phi_j in weights:
        for phi_k in weights:
            fast = limit_covariance(phi_j, phi_k, f, u_grid_size=CELLS)
            oracle = limit_covariance(phi_j, phi_k, mesh(f), grid=GRID, u_grid_size=CELLS)
            assert fast == pytest.approx(oracle, **TOL)


def forbid_density(monkeypatch):
    def forbidden(*args):
        raise AssertionError("density evaluated on the mesh")

    monkeypatch.setattr(process, "spectral_density", forbidden)


def test_constant_coefficient_paths_never_evaluate_the_density(monkeypatch):
    f = CASES["ar1_step_variance"]()
    g = CASES["constant_ar2"]()
    forbid_density(monkeypatch)
    for compute in PAIR_CONSUMERS.values():
        compute(g, f)
    spectral_functional_limit(ar_inverse_weight(g), f)
    limit_covariance(ar_inverse_weight(g), constant_weight(1.0), f)


def test_limit_covariance_on_a_time_varying_ar_field_never_evaluates_the_density(monkeypatch):
    f = CASES["time_varying_ar2"]()
    forbid_density(monkeypatch)
    limit_covariance(ar_inverse_weight(f), ar_inverse_weight(f), f)


def test_callable_fields_are_evaluated_once_per_call():
    calls = {"g": 0, "f": 0}

    def counted(name, field):
        def values(u, lam):
            calls[name] += 1
            return process.as_field(field).values(u, lam)

        return values

    g, f = counted("g", CASES["time_varying_ar2"]()), counted("f", OTHER)
    x = simulate_tvar(OTHER.ar_model, 64, seed=5)
    for compute, used in (
        (lambda: whittle_contrast(x, g, grid=GRID), {"g": 1, "f": 0}),
        (lambda: kl_contrast(g, f, grid=GRID, u_grid_size=CELLS), {"g": 1, "f": 1}),
        (lambda: kl_divergence(g, f, grid=GRID, u_grid_size=CELLS), {"g": 1, "f": 1}),
        (lambda: kl_divergence(g, OTHER, grid=GRID, u_grid_size=CELLS), {"g": 1, "f": 0}),
        (lambda: divergence_sandwich(g, f, grid=GRID, u_grid_size=CELLS), {"g": 1, "f": 1}),
    ):
        calls.update(g=0, f=0)
        compute()
        assert calls == used


@pytest.mark.parametrize("consumer", ["kl_contrast", "kl_divergence"])
def test_kl_on_time_varying_ar_fields_never_evaluates_the_density(monkeypatch, consumer):
    g, f = CASES["time_varying_ar2"](), OTHER
    forbid_density(monkeypatch)
    for a, b in ((g, f), (f, g), (g, g)):
        PAIR_CONSUMERS[consumer](a, b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_whittle_lag_path_matches_quadrature_oracle(case):
    f = CASES[case]()
    n = 64
    x = simulate_tvar(f, n, seed=11)
    for g in (f, OTHER):
        # J has degree n - 1 in lam and 1/g degree p, so 2n nodes integrate J/g
        # exactly; the grid sum of log g aliases far below rounding
        oracle = whittle_contrast(x, mesh(g), grid=FrequencyGrid(2 * n))
        assert whittle_contrast(x, g) == pytest.approx(oracle, **TOL)


def test_time_varying_sandwich_falls_back_to_the_mesh(monkeypatch):
    calls = []
    density = process.spectral_density
    monkeypatch.setattr(process, "spectral_density", lambda *a: calls.append(1) or density(*a))
    divergence_sandwich(CASES["time_varying_ar2"](), OTHER, grid=GRID, u_grid_size=CELLS)
    assert calls


@pytest.mark.parametrize("consumer", sorted(PAIR_CONSUMERS))
def test_exact_paths_reject_nonpositive_variance_like_the_mesh(consumer):
    bad = TvARModel(1, [ConstantCurve(0.2)], SampledCurve([1.0, -1.0]), validate=False)
    compute = PAIR_CONSUMERS[consumer]
    for a, b in ((bad, OTHER), (OTHER, bad)):
        with pytest.raises(ValueError, match="strictly positive on the mesh"):
            compute(mesh(a), mesh(b))
        with pytest.raises(ValueError, match="strictly positive on the mesh"):
            compute(a, b)
