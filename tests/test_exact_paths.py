"""The exact lag-space paths, and the sandwich's per-run path, against the
mesh they replace.

The midpoint-mesh sums of the ``_mesh`` test helper stay as the oracle: every
exact path must agree with them to rounding, on the library's own midpoint
grid in u.
"""

import sys

import numpy as np
import pytest

import _mesh
import locstat.process as process
from locstat.curves import ConstantCurve, FourierCurve, SampledCurve
from locstat.espec import COVARIANCE_CELLS, limit_covariance
from locstat.estimator import DISTANCE_CELLS, inverse_l2_distance
from locstat.likelihood import (
    SANDWICH_CELLS,
    divergence_sandwich,
    kl_contrast,
    kl_divergence,
    log_riemann_remainder,
    whittle_contrast,
)
from locstat.process import TvARModel, simulate_tvar, spectral_density
from locstat.spectral import (
    TIME_CELLS,
    FrequencyGrid,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    spectral_functional_limit,
)

GRID = FrequencyGrid(128)
TOL = dict(rel=1e-12, abs=1e-14)

CASES = {
    "ar1_step_variance": lambda: TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0])),
    "constant_ar2": lambda: TvARModel(2, [ConstantCurve(-0.5), ConstantCurve(0.3)], ConstantCurve(1.7)),
    "time_varying_ar2": lambda: TvARModel(
        2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], SampledCurve([1.0, 1.5, 2.0])
    ),
    # a few runs of equal coefficient rows, each many u-cells long
    "step_ar1": lambda: TvARModel(1, [SampledCurve([0.2, 0.5, -0.3])], SampledCurve([1.0, 1.5, 2.0])),
}
OTHER = TvARModel.from_coefficients([0.3, -0.1], SampledCurve([0.8, 1.1, 1.4]))

PAIR_CONSUMERS = {
    "inverse_l2_distance": inverse_l2_distance,
    "divergence_sandwich": divergence_sandwich,
    "kl_contrast": kl_contrast,
    "kl_divergence": kl_divergence,
}
# the mesh of each oracle: the library's u-grid, and for the sandwich, whose
# sups are taken on the mesh, its frequency grid too
ORACLE_MESHES = {
    "inverse_l2_distance": (GRID, DISTANCE_CELLS),
    "divergence_sandwich": (FrequencyGrid(), SANDWICH_CELLS),
    "kl_contrast": (GRID, TIME_CELLS),
    "kl_divergence": (GRID, TIME_CELLS),
}
MESH_ORACLES = {name: lambda g, f, name=name: getattr(_mesh, name)(g, f, *ORACLE_MESHES[name]) for name in PAIR_CONSUMERS}


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
    compute, oracle = PAIR_CONSUMERS[consumer], MESH_ORACLES[consumer]
    for a, b in ((OTHER, f), (f, OTHER), (f, f)):  # g = f exercises the values near 0
        assert_close(compute(a, b), oracle(a, b))


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
        fast = spectral_functional_limit(phi, f)
        oracle = _mesh.spectral_functional_limit(phi, f, GRID, TIME_CELLS)
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
            fast = limit_covariance(phi_j, phi_k, f)
            oracle = _mesh.limit_covariance(phi_j, phi_k, f, GRID, COVARIANCE_CELLS)
            assert fast == pytest.approx(oracle, **TOL)


def forbid_density(monkeypatch):
    def forbidden(*args):
        raise AssertionError("density evaluated on the mesh")

    # in every locstat module that holds spectral_density, so that a mesh
    # evaluation is seen whichever module makes it
    for name, module in list(sys.modules.items()):
        if name.startswith("locstat") and getattr(module, "spectral_density", None) is spectral_density:
            monkeypatch.setattr(module, "spectral_density", forbidden)


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


@pytest.mark.parametrize("consumer", ["divergence_sandwich", "kl_contrast", "kl_divergence"])
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
        oracle = _mesh.whittle_contrast(x, g, FrequencyGrid(2 * n))
        assert whittle_contrast(x, g) == pytest.approx(oracle, **TOL)


@pytest.mark.parametrize("consumer", sorted(PAIR_CONSUMERS))
def test_exact_paths_reject_nonpositive_variance_like_the_mesh(consumer):
    bad = TvARModel(1, [ConstantCurve(0.2)], SampledCurve([1.0, -1.0]), validate=False)
    compute, oracle = PAIR_CONSUMERS[consumer], MESH_ORACLES[consumer]
    for a, b in ((bad, OTHER), (OTHER, bad)):
        with pytest.raises(ValueError, match="strictly positive on the mesh"):
            oracle(a, b)
        with pytest.raises(ValueError, match="strictly positive on the mesh"):
            compute(a, b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_log_riemann_remainder_matches_mesh_oracle(case):
    f = CASES[case]()
    for n in (1, 33, 64):
        oracle = _mesh.log_riemann_remainder(f, n, GRID, TIME_CELLS)
        assert log_riemann_remainder(f, n) == pytest.approx(oracle, **TOL)


def _spectrum_consumers(spectrum):
    # every library call that takes a spectrum, fed spectrum in each spectrum
    # position in turn
    x = simulate_tvar(OTHER, 32, seed=1)
    phi = constant_weight(1.0)
    calls = {
        "_as_model": lambda: process._as_model(spectrum),
        "whittle_contrast": lambda: whittle_contrast(x, spectrum),
        "log_riemann_remainder": lambda: log_riemann_remainder(spectrum, 16),
        "spectral_functional_limit": lambda: spectral_functional_limit(phi, spectrum),
        "limit_covariance": lambda: limit_covariance(phi, phi, spectrum),
    }
    for name, compute in PAIR_CONSUMERS.items():
        calls[f"{name}(g)"] = lambda compute=compute: compute(spectrum, OTHER)
        calls[f"{name}(f)"] = lambda compute=compute: compute(OTHER, spectrum)
    return calls


@pytest.mark.parametrize("consumer", sorted(_spectrum_consumers(None)))
def test_callable_spectra_are_refused(consumer):
    callable_spectrum = lambda u, lam: spectral_density(OTHER, u, lam)  # noqa: E731
    with pytest.raises(ValueError, match="expected a TvARModel"):
        _spectrum_consumers(callable_spectrum)[consumer]()


def _grid_size_consumers(size):
    # the one public grid size left: every time integral has a fixed resolution
    return {"FrequencyGrid": lambda: FrequencyGrid(size)}


@pytest.mark.parametrize("size", [0, 2.7, -4, "abc", None])
@pytest.mark.parametrize("consumer", sorted(_grid_size_consumers(None)))
def test_grid_sizes_are_checked_once(consumer, size):
    # a size that is not an even integer >= 2 is refused by the one
    # conversion, which names the parameter
    with pytest.raises(ValueError, match="grid size"):
        _grid_size_consumers(size)[consumer]()
    # an integral float is the same size
    assert repr(_grid_size_consumers(8.0)[consumer]()) == repr(_grid_size_consumers(8)[consumer]())
