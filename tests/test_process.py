import csv
import json
import re
import warnings

import numpy as np
import pytest

import _mesh
from locstat.curves import ConstantCurve, FourierCurve, SampledCurve
from locstat.espec import limit_covariance
from locstat.estimator import inverse_l2_distance
from locstat.likelihood import divergence_sandwich, kl_divergence
import locstat.process as process
from locstat.process import (
    SpectrumField,
    TimeSeries,
    TvARModel,
    ar_autocov,
    check_stability,
    model_from_json,
    model_to_json,
    simulate_tvar,
    simulate_tvar_batch,
    spectral_density,
    transfer_abs2,
    tv_covariance,
    white_noise_model,
)
from locstat.spectral import FrequencyGrid, ar_inverse_weight, constant_weight, spectral_functional_limit


def test_check_stability_known_polynomials():
    # 1 + 1.5 z + 0.56 z^2 has roots -1.25 and -25/14, both outside the unit circle
    assert check_stability(np.array([1.5, 0.56]))
    # order 1: root is -1/a, stable iff |a| < 1
    assert check_stability(np.array([0.99]))
    assert not check_stability(np.array([1.0]))
    assert not check_stability(np.array([1.2]))
    # empty / zero coefficients are trivially stable
    assert check_stability(np.array([]))
    assert check_stability(np.array([0.0, 0.0]))


def test_check_stability_margin():
    # root at -1/0.9 = -1.111..., inside the 0.2 margin
    assert check_stability(np.array([0.9]), delta=0.0)
    assert not check_stability(np.array([0.9]), delta=0.2)


def test_model_validation_rejects_unstable_region():
    # alpha(u) = 1.2 cos(2 pi u) exceeds 1 in modulus near u = 0 and 1
    with pytest.raises(ValueError):
        TvARModel(1, [FourierCurve(0.0, a=[1.2])], ConstantCurve(1.0))


def test_validation_checks_each_distinct_coefficient_row_once(monkeypatch):
    calls = []
    check = process.check_stability
    monkeypatch.setattr(process, "check_stability", lambda *a: calls.append(a) or check(*a))
    TvARModel(2, [ConstantCurve(0.5), ConstantCurve(-0.2)], SampledCurve([1.0, 2.0]))
    assert len(calls) == 1
    calls.clear()
    TvARModel(1, [SampledCurve([0.1, 0.5, 0.1, 0.5])], ConstantCurve(1.0))
    assert len(calls) == 2


def test_validation_names_the_first_violating_u():
    # rows 1.5 (cell 2) and 1.2 (cell 3) both violate; sorted, 1.2 comes
    # first, but the first violating u lies in cell 2, at 129/512
    with pytest.raises(ValueError, match=r"u=0\.251953$"):
        TvARModel(1, [SampledCurve([0.5, 1.5, 1.2, 0.5])], ConstantCurve(1.0))
    # a smoothly varying curve that violates near u = 0 fails at the first node
    with pytest.raises(ValueError, match=r"u=0\.001953$"):
        TvARModel(1, [FourierCurve(0.0, a=[1.2])], ConstantCurve(1.0))


def test_model_validation_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        TvARModel(0, [], FourierCurve(0.1, a=[0.5]))  # dips negative


def test_simulation_is_deterministic():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    a = simulate_tvar(m, 100, seed=42)
    b = simulate_tvar(m, 100, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_tvar(m, 100, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_sign_convention_of_coefficients():
    # x_t + alpha x_{t-1} = e_t.  alpha = -0.9 means x_t = 0.9 x_{t-1} + e_t:
    # strong positive lag-1 correlation.  alpha = +0.9 flips the sign.
    pos = TvARModel(1, [ConstantCurve(-0.9)], ConstantCurve(1.0))
    neg = TvARModel(1, [ConstantCurve(0.9)], ConstantCurve(1.0))
    for model, sign in [(pos, 1.0), (neg, -1.0)]:
        x = simulate_tvar(model, 4000, seed=1).values
        r1 = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert sign * r1 > 0.7


def simulate_oracle(model, n, seed, burn_in=None):
    """The scalar recursion, one numpy float64 at a time, for one seed."""
    burn_in = model.burn_in if burn_in is None else burn_in
    total = burn_in + n
    eps = np.random.default_rng(seed).standard_normal(total)
    u = np.empty(total)
    u[:burn_in] = 1.0 / n
    u[burn_in:] = np.arange(1, n + 1) / n
    sig = np.sqrt(model.sigma2.values(u))
    if model.p == 0:
        return sig[burn_in:] * eps[burn_in:]
    a = model.alpha_matrix(u)
    x = np.zeros(total)
    for t in range(total):
        acc = sig[t] * eps[t]
        for j in range(1, min(model.p, t) + 1):
            acc -= a[t, j - 1] * x[t - j]
        x[t] = acc
    return x[burn_in:]


ORACLE_MODELS = {
    "white-tv-variance": TvARModel(0, [], FourierCurve(1.0, a=[0.3])),
    "ar1": TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0])),
    "ar2-time-varying": TvARModel(
        2, [FourierCurve(0.3, a=[0.2]), SampledCurve([-0.2, 0.1, 0.3])], FourierCurve(1.0, a=[0.3]), burn_in=50
    ),
    # without burn-in, n = 1 stops before the first full-order step
    "ar3-time-varying": TvARModel(
        3,
        [FourierCurve(0.2, a=[0.1]), SampledCurve([-0.2, 0.1]), FourierCurve(0.05, b=[0.05])],
        SampledCurve([1.0, 2.0]),
        burn_in=0,
    ),
}
# ROW_FORM_MIN values that run every batch through one form of the recursion
FORMS = {"float loop": 10**9, "row form": 1}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize(
    "n, seeds, burn_in",
    [(40, [3, 1, 4, 1, 5], None), (33, [7, 8, 9, 10], 0), (1, [2, 6, 5, 3], None), (64, [11], 3), (50, [12, 13], None)],
)
def test_batch_rows_equal_scalar_oracle(monkeypatch, name, n, seeds, burn_in):
    model = ORACLE_MODELS[name]
    for row_form_min in FORMS.values():
        monkeypatch.setattr(process, "ROW_FORM_MIN", row_form_min)
        batch = simulate_tvar_batch(model, n, seeds, burn_in)
        assert batch.shape == (len(seeds), n)
        for row, seed in zip(batch, seeds):
            np.testing.assert_array_equal(row, simulate_oracle(model, n, seed, burn_in))
    for seed in seeds:
        np.testing.assert_array_equal(simulate_tvar(model, n, seed, burn_in).values, simulate_oracle(model, n, seed, burn_in))


def test_batch_of_no_seeds_is_empty():
    assert simulate_tvar_batch(ORACLE_MODELS["ar1"], 16, []).shape == (0, 16)


@pytest.mark.parametrize("chunk", [1, 7, 20])
def test_batch_does_not_depend_on_replication_chunk(monkeypatch, chunk):
    model = ORACLE_MODELS["ar2-time-varying"]
    seeds = list(range(100, 120))
    expected = np.array([simulate_oracle(model, 48, seed) for seed in seeds])
    monkeypatch.setattr(process, "REPLICATION_CHUNK", chunk)
    for row_form_min in FORMS.values():
        monkeypatch.setattr(process, "ROW_FORM_MIN", row_form_min)
        np.testing.assert_array_equal(simulate_tvar_batch(model, 48, seeds), expected)


def test_batch_rejects_bad_sizes():
    with pytest.raises(ValueError):
        simulate_tvar_batch(ORACLE_MODELS["ar1"], 0, [1])
    with pytest.raises(ValueError):
        simulate_tvar_batch(ORACLE_MODELS["ar1"], 8, [1], burn_in=-1)


def test_white_noise_fast_path_matches_generic_loop():
    # an order-1 model with zero coefficient must consume the stream exactly
    # like the order-0 fast path
    trivial = TvARModel(1, [ConstantCurve(0.0)], ConstantCurve(2.0))
    flat = white_noise_model(2.0)
    a = simulate_tvar(trivial, 257, seed=9)
    b = simulate_tvar(flat, 257, seed=9)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=0)


def test_white_noise_variance_scale():
    x = simulate_tvar(white_noise_model(4.0), 20000, seed=3).values
    assert abs(np.var(x) - 4.0) < 0.15


def test_burn_in_default_and_override():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    a = simulate_tvar(m, 64, seed=5)
    b = simulate_tvar(m, 64, seed=5, burn_in=m.burn_in)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_tvar(m, 64, seed=5, burn_in=0)
    assert not np.array_equal(a.values, c.values)


def test_burn_in_carried_by_model_json():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0), burn_in=77)
    m2 = model_from_json(model_to_json(m))
    assert m2.burn_in == 77
    np.testing.assert_array_equal(
        simulate_tvar(m, 50, seed=0).values, simulate_tvar(m2, 50, seed=0).values
    )


def test_transfer_and_spectral_density_closed_form():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.3))
    lam = np.linspace(-np.pi, np.pi, 11)
    u = np.full(lam.shape, 0.5)
    # |1 + 0.5 e^{i lam}|^2 = 1.25 + cos(lam)
    np.testing.assert_allclose(transfer_abs2([0.5], lam), 1.25 + np.cos(lam), atol=1e-14)
    np.testing.assert_allclose(
        spectral_density(m, u, lam), 1.3 / (2 * np.pi) / (1.25 + np.cos(lam)), atol=1e-14
    )


def test_transfer_abs2_broadcasts_coefficient_rows():
    m = TvARModel(2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], ConstantCurve(1.0))
    u = (np.arange(9) + 0.5) / 9
    lam = FrequencyGrid(16).nodes
    coeffs = m.alpha_matrix(u)[:, None, :]  # (U, 1, p)
    expected = np.empty((len(u), len(lam)))
    for row, c in enumerate(coeffs[:, 0, :]):
        acc = np.ones(lam.shape, dtype=complex)
        for j in range(1, len(c) + 1):
            acc = acc + c[j - 1] * np.exp(1j * lam * j)
        expected[row] = np.abs(acc) ** 2
    np.testing.assert_array_equal(transfer_abs2(coeffs, lam), expected)


def _tv_ar2():
    return TvARModel(2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], SampledCurve([1.0, 1.5, 2.0]))


_OTHER = SpectrumField.from_coefficients([0.4], 1.2)
_GRID = FrequencyGrid(32)
_PHI = constant_weight(1.5)
_FIELD_CONSUMERS = {
    # (library call, its mesh oracle): the model path is exact; the midpoint
    # sum of f/g aliases by 2.6e-4 on 32 nodes and by 1.1e-14 on 128
    "kl_divergence": (
        lambda f: kl_divergence(_OTHER, f, u_grid_size=16),
        lambda f: _mesh.kl_divergence(_OTHER, f, FrequencyGrid(128), 16),
    ),
    "divergence_sandwich": (
        lambda f: divergence_sandwich(f, _OTHER, grid=_GRID, u_grid_size=16),
        lambda f: _mesh.divergence_sandwich(f, _OTHER, _GRID, 16),
    ),
    "inverse_l2_distance": (
        lambda f: inverse_l2_distance(_OTHER, f, u_grid_size=16),
        lambda f: _mesh.inverse_l2_distance(_OTHER, f, _GRID, 16),
    ),
    "spectral_functional_limit": (
        lambda f: spectral_functional_limit(ar_inverse_weight(_tv_ar2()), f, u_grid_size=16),
        lambda f: _mesh.spectral_functional_limit(ar_inverse_weight(_tv_ar2()), f, _GRID, 16),
    ),
    # the model path is exact; the midpoint sum of f^2 aliases by 1.4e-3 on
    # 32 nodes and by 5.6e-16 on 256
    "limit_covariance": (
        lambda f: limit_covariance(_PHI, _PHI, f, u_grid_size=16),
        lambda f: _mesh.limit_covariance(_PHI, _PHI, f, FrequencyGrid(256), 16),
    ),
}


@pytest.mark.parametrize("consumer", sorted(_FIELD_CONSUMERS))
def test_model_field_and_callable_give_equal_results(consumer):
    model = _tv_ar2()
    compute, oracle = _FIELD_CONSUMERS[consumer]
    from_model = compute(model)
    assert compute(SpectrumField.from_model(model)) == from_model
    # the mesh oracle sums the density, the callable spectral_density(model, u, lam)
    assert oracle(model) == pytest.approx(from_model, rel=1e-12, abs=1e-14)


def test_tv_covariance_stationary_ar1_closed_form():
    # x_t + 0.5 x_{t-1} = e_t: phi = -0.5, c(0) = 1/(1-phi^2) = 4/3,
    # c(1) = phi c(0) = -2/3
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    assert tv_covariance(m, 0.5, 0) == pytest.approx(4 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, 1) == pytest.approx(-2 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, -1) == pytest.approx(-2 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, 2) == pytest.approx(1 / 3, abs=1e-12)


def test_tv_covariance_stationary_ar2_closed_form():
    # x_t = phi1 x_{t-1} + phi2 x_{t-2} + sigma e_t, i.e. alpha = (-phi1, -phi2)
    phi1, phi2, s2 = 0.5, -0.3, 1.7
    m = TvARModel(2, [ConstantCurve(-phi1), ConstantCurve(-phi2)], ConstantCurve(s2))
    c0 = s2 * (1 - phi2) / ((1 + phi2) * ((1 - phi2) ** 2 - phi1 ** 2))
    rho = [1.0, phi1 / (1 - phi2)]
    for _ in range(3):
        rho.append(phi1 * rho[-1] + phi2 * rho[-2])
    expected = c0 * np.array(rho)
    for k in range(5):
        assert tv_covariance(m, 0.3, k) == pytest.approx(expected[k], rel=0, abs=1e-13)
        assert tv_covariance(m, 0.3, -k) == pytest.approx(expected[k], rel=0, abs=1e-13)
    np.testing.assert_allclose(ar_autocov(m, [0.2, 0.9], 4), [expected, expected], rtol=0, atol=1e-13)


def test_ar_autocov_white_noise_and_shape():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    cov = ar_autocov(m, np.array([[0.25], [0.75]]), 2)
    assert cov.shape == (2, 1, 3)
    np.testing.assert_array_equal(cov[:, 0, :], [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ar_autocov(m, [0.5], -1)


def test_tv_covariance_tracks_local_variance():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    assert tv_covariance(m, 0.25, 0) == pytest.approx(1.0, abs=1e-12)
    assert tv_covariance(m, 0.75, 0) == pytest.approx(3.0, abs=1e-12)
    assert tv_covariance(m, 0.75, 1) == pytest.approx(0.0, abs=1e-12)


def test_simulated_variance_follows_step_curve():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    x = simulate_tvar(m, 40000, seed=8).values
    assert abs(np.var(x[:20000]) - 1.0) < 0.1
    assert abs(np.var(x[20000:]) - 3.0) < 0.25


def test_time_series_csv_round_trip(tmp_path):
    x = simulate_tvar(white_noise_model(1.0), 37, seed=11)
    path = tmp_path / "x.csv"
    x.to_csv(path)
    y = TimeSeries.from_csv(path)
    np.testing.assert_array_equal(x.values, y.values)
    assert y.n == 37


# The csv-module writer and reader the series format was defined by, kept as
# the oracles of TimeSeries.to_csv and from_csv.
def csv_writer_oracle(values, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"])
        for v in values:
            writer.writerow([repr(float(v))])


def csv_reader_oracle(path):
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            cell = row[0].strip()
            if lineno == 0 and cell.lower() == "x":
                continue
            rows.append(float(cell))
    return np.array(rows)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1, 1 / 3, 1.7976931348623157e308, 2.0**-1022, 123456789.0]


@pytest.mark.parametrize("n", [1, 37, 16384])
def test_to_csv_bytes_equal_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    TimeSeries(values).to_csv(tmp_path / "new.csv")
    csv_writer_oracle(values, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert TimeSeries.from_csv(tmp_path / "new.csv").values.tobytes() == values.tobytes()


SERIES_TEXTS = {
    "no header": "0.1\n-0.0\n5e-324\n1e16\n",
    "X header": "X\n0.1\n2.5\n",
    "x header, CRLF": "x\r\n0.1\r\n-3.25e-7\r\n",
    "LF, no final newline": "x\n0.1\n7",
    "blank lines": "x\n\n0.1\n\n\n2.5\n\n",
    "whitespace around cells": "  x  \n  0.1\n\t2.5 \n 1e16\t\n",
    "whitespace-only lines": "x\n   \n0.1\n\t\n2.5\n",
    "blank first cell": "x\n ,9\n0.1\n",
    "underscore digits": "x\n1_000.5\n0.1\n",
    "multi-column": "x,y,z\n0.1,9,9\n2.5,abc\n-1e-300,1,2\n",
    "multi-column, no header": "0.1,2\n2.5,3\n",
    "one value": "x\n42\n",
}


@pytest.mark.parametrize("text", SERIES_TEXTS.values(), ids=SERIES_TEXTS.keys())
def test_from_csv_matches_csv_reader(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    assert TimeSeries.from_csv(path).values.tobytes() == csv_reader_oracle(path).tobytes()


@pytest.mark.parametrize("text", ["x\r\n0.1\r\n2.5\r\n", "X\n0.1\n\n2.5\n", "0.1\n2.5\n", "x,y\n0.1,1\n2.5,2\n"])
def test_from_csv_parses_well_formed_files_without_the_line_scan(tmp_path, monkeypatch, text):
    # the line-by-line scan is the path for lines loadtxt refuses; a
    # well-formed file, with or without its header, never reaches it
    def refuse(path, header):
        raise AssertionError("line scan used")

    monkeypatch.setattr(process, "_scan_series", refuse)
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    assert TimeSeries.from_csv(path).values.tolist() == [0.1, 2.5]


@pytest.mark.parametrize(
    "text, line, cell",
    [
        ("x\n0.1\nabc\n", 3, "'abc'"),
        ("x\r\n0.1\r\n\r\n2.5\r\n1.2.3\r\n", 5, "'1.2.3'"),
        ("0.1\n\n#note\n", 3, "'#note'"),
        ("x\n   \nabc,1\n", 3, "'abc'"),
        ("0.1\nx\n", 2, "'x'"),
    ],
    ids=["after header", "CRLF after a blank line", "comment", "after a whitespace line", "header below line 1"],
)
def test_from_csv_names_file_and_line_of_a_bad_cell(tmp_path, text, line, cell):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {cell} is not a number")):
        TimeSeries.from_csv(path)


@pytest.mark.parametrize(
    "text, line, cell",
    [
        ("x\n0.1\nnan\n", 3, "'nan'"),
        ("x\r\n0.1\r\n\r\n-inf\r\n", 4, "'-inf'"),
        ("0.1\n1e999,2\n", 2, "'1e999'"),
        ("x\n   \n0.1\n NaN \n", 4, "'NaN'"),
    ],
    ids=["nan after header", "CRLF after a blank line", "overflow, no header", "after a whitespace line"],
)
def test_from_csv_names_file_and_line_of_a_non_finite_cell(tmp_path, text, line, cell):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {cell} is not finite")):
        TimeSeries.from_csv(path)


@pytest.mark.parametrize("text", ["", "x\n", "x\r\n\r\n", "\n\n"])
def test_from_csv_without_observations_is_refused_without_warning(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no observations (need a nonempty series)")):
            TimeSeries.from_csv(path)


def test_from_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        TimeSeries.from_csv(tmp_path / "none.csv")


def test_rescaled_times():
    x = TimeSeries(np.zeros(4))
    np.testing.assert_allclose(x.rescaled_times(), [0.25, 0.5, 0.75, 1.0])


def test_model_json_round_trip_all_curve_types():
    m = TvARModel(
        2,
        [FourierCurve(0.3, a=[0.1], b=[0.05]), ConstantCurve(0.1)],
        SampledCurve([1.0, 2.0]),
        delta=0.05,
    )
    text = model_to_json(m)
    m2 = model_from_json(text)
    assert m2.p == 2 and m2.delta == 0.05
    np.testing.assert_array_equal(
        simulate_tvar(m, 64, seed=2).values, simulate_tvar(m2, 64, seed=2).values
    )
    # accepts an already-parsed dict too
    m3 = model_from_json(json.loads(text))
    assert m3.p == 2


def test_model_json_from_file(tmp_path):
    m = white_noise_model(1.5)
    path = tmp_path / "model.json"
    path.write_text(model_to_json(m))
    m2 = model_from_json(str(path))
    assert m2.p == 0
    assert m2.sigma2(0.5) == 1.5


@pytest.mark.parametrize(
    "edit, unknown",
    [
        (lambda d: d.update(burnin=5), "burnin"),
        (lambda d: d["sigma2"].update(valu=2.0), "valu"),
        (lambda d: d["alpha"][0].update(a1=[0.1]), "a1"),
    ],
)
def test_model_json_rejects_unknown_keys(edit, unknown):
    payload = TvARModel(1, [FourierCurve(0.3, a=[0.1])], ConstantCurve(1.0)).describe()
    assert set(payload) == set(process.MODEL_KEYS)
    edit(payload)
    with pytest.raises(ValueError, match=f"unknown .*key.* {unknown}"):
        model_from_json(payload)


def test_describe_mentions_order_and_burn_in():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0), burn_in=123)
    d = m.describe()
    assert d["p"] == 1
    assert d["burn_in"] == 123


def test_alpha_matrix_shape():
    m = TvARModel(2, [ConstantCurve(0.5), ConstantCurve(-0.1)], ConstantCurve(1.0))
    u = np.array([0.2, 0.9])
    a = m.alpha_matrix(u)
    assert a.shape == (2, 2)
    np.testing.assert_allclose(a[:, 0], 0.5)
    np.testing.assert_allclose(a[:, 1], -0.1)
