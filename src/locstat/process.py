"""Time-varying autoregressions and their local spectra.

The model simulated and fitted throughout this package is

    X_t + sum_{j=1}^p alpha_j(t/n) X_{t-j} = sigma(t/n) eps_t,

with the AR terms on the LEFT-hand side.  The simulation recursion therefore
NEGATES the coefficient sum:

    X_t = -sum_j alpha_j(t/n) X_{t-j} + sigma(t/n) eps_t.

This is the opposite sign of most AR toolkits; a process with positive
lag-one autocorrelation has a negative alpha_1 here.  The local spectral
density at rescaled time u is

    f(u, lam) = sigma^2(u) / (2 pi) * |1 + sum_j alpha_j(u) e^{i lam j}|^{-2}.

This module is the one place that evaluates such spectra: the transfer
polynomial, the coefficient autocorrelation that turns frequency integrals
against 1/f into finite lag sums, the Yule-Walker autocovariances that do the
same for integrals against f, and the SpectrumField wrapper every population
functional and contrast accepts.  Every spectrum the package integrates is
such a model's, so each of those integrals is a finite lag sum or the
Kolmogorov identity rather than a frequency mesh.
"""

import json
import warnings

import numpy as np

from .curves import ConstantCurve, Curve, as_number, check_spec_keys, curve_from_spec, curve_to_spec

__all__ = [
    "TimeSeries",
    "TvARModel",
    "SpectrumField",
    "as_field",
    "check_stability",
    "simulate_tvar",
    "simulate_tvar_batch",
    "transfer_abs2",
    "coeff_autocorr",
    "ar_autocov",
    "spectral_density",
    "tv_covariance",
    "white_noise_model",
    "model_to_json",
    "model_from_json",
]

DEFAULT_BURN_IN = 1000
REPLICATION_CHUNK = 256  # replications drawn and run together by simulate_tvar_batch
# Fewer replications than this run one at a time as float loops: measured at
# p = 1, 16 is where one row-form chunk becomes cheaper than 16 float loops.
ROW_FORM_MIN = 16
STABILITY_GRID = 512
MODEL_KEYS = ("p", "alpha", "sigma2", "delta", "burn_in")  # TvARModel.describe()


def check_stability(coeffs, delta=0.0):
    """Check that 1 + sum_j coeffs[j-1] z^j has no root in |z| <= 1 + delta.

    Parameters
    ----------
    coeffs : sequence of float
        AR coefficients alpha_1, ..., alpha_p.  Empty means white noise,
        which is always stable.
    delta : float
        Stability margin, >= 0.

    Returns
    -------
    bool
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.size and not np.all(np.isfinite(coeffs)):
        raise ValueError("AR coefficients must be finite")
    if delta < 0:
        raise ValueError("stability margin must be nonnegative")
    if coeffs.size == 0 or not np.any(coeffs):
        return True
    # highest degree first for np.roots; trailing zero alphas reduce the degree
    poly = np.concatenate([coeffs[::-1], [1.0]])
    roots = np.roots(poly)
    if roots.size == 0:
        return True
    return bool(np.min(np.abs(roots)) > 1.0 + delta)


def _series_cells(path, header):
    """(1-based line, first cell) of each line of a CSV series whose first
    cell is not blank, skipping the first line when header is 1."""
    cells = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            cell = line.split(",", 1)[0].strip()
            if cell and lineno > header:
                cells.append((lineno, cell))
    return cells


def _scan_series(path, header):
    """The first cells of a CSV series parsed line by line.

    Raises ValueError naming the file and the 1-based line of the first cell
    that is not a number.
    """
    values = []
    for lineno, cell in _series_cells(path, header):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: {cell!r} is not a number") from None
    return values


class TimeSeries:
    """A finite real-valued series with optional provenance.

    Parameters
    ----------
    values : array_like
        Observations x_1, ..., x_n.
    seed : int, optional
        RNG seed the series was generated from, if any.
    provenance : dict, optional
        Free-form description of how the series arose (model spec, burn-in).
    """

    def __init__(self, values, seed=None, provenance=None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("need a nonempty 1-d array of observations")
        if not np.all(np.isfinite(v)):
            raise ValueError("observations must be finite")
        self.values = v
        self.seed = seed
        self.provenance = provenance

    @property
    def n(self):
        return len(self.values)

    def rescaled_times(self):
        """The design points t/n for t = 1..n."""
        return np.arange(1, self.n + 1) / self.n

    def to_csv(self, path):
        """Write a header 'x', then repr of one value per line, each line
        ending in CRLF (the bytes csv.writer writes for these rows)."""
        with open(path, "w", newline="") as fh:
            fh.write("x\r\n" + "\r\n".join(map(repr, self.values.tolist())) + "\r\n")

    @classmethod
    def from_csv(cls, path):
        """Read the first column of a CSV series, such as one written by
        :meth:`to_csv`.

        The first line may be a header 'x' (any case).  Line ends may be LF or
        CRLF, cells may carry surrounding whitespace, blank lines are skipped,
        and further columns are ignored.

        Raises
        ------
        OSError
            If the file cannot be opened.
        ValueError
            Naming the file and the 1-based line of the first cell that is
            not a number or not finite, or naming the file when it holds no
            observations.
        """
        with open(path) as fh:
            first = fh.readline()
        header = int(first.split(",", 1)[0].strip().lower() == "x")
        try:
            with warnings.catch_warnings():
                # an empty file, or one holding only the header, parses to no
                # rows, refused below with the file's name
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(path, delimiter=",", usecols=0, skiprows=header, ndmin=1, comments=None)
        except ValueError:
            # loadtxt refuses whitespace-only lines and rows with an empty
            # first cell, and its row numbers start after the header
            values = np.array(_scan_series(path, header))
        if values.size == 0:
            raise ValueError(f"{path}: no observations (need a nonempty series)")
        finite = np.isfinite(values)
        if not finite.all():
            # the cells are looked up only now, so a good file is read once
            lineno, cell = _series_cells(path, header)[int(np.argmin(finite))]
            raise ValueError(f"{path}, line {lineno}: {cell!r} is not finite")
        return cls(values)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"TimeSeries(n={self.n}, seed={self.seed!r})"


class TvARModel:
    """Time-varying AR(p) model with curve-valued coefficients.

    Parameters
    ----------
    p : int
        Autoregressive order, >= 0.
    alpha : sequence of Curve
        Coefficient curves alpha_1, ..., alpha_p.
    sigma2 : Curve
        Innovation variance curve, must be strictly positive.
    delta : float
        Stability margin used when validating the coefficient curves.
    burn_in : int
        Default warm-up length used by :func:`simulate_tvar`.

    Raises
    ------
    ValueError
        If the coefficient curves violate the root condition at any point of
        a uniform validation grid, or sigma2 is not positive there.
    """

    def __init__(self, p, alpha, sigma2, delta=0.0, burn_in=DEFAULT_BURN_IN, validate=True):
        p = as_number(p, "p", int, 0)
        alpha = tuple(alpha)
        if len(alpha) != p:
            raise ValueError(f"expected {p} coefficient curves, got {len(alpha)}")
        for c in alpha:
            if not isinstance(c, Curve):
                raise ValueError("alpha entries must be Curve instances")
        if not isinstance(sigma2, Curve):
            raise ValueError("sigma2 must be a Curve instance")
        self.p = p
        self.alpha = alpha
        self.sigma2 = sigma2
        self.delta = as_number(delta, "delta", float, 0)
        self.burn_in = as_number(burn_in, "burn_in", int, 0)
        self.validated = False
        if validate:
            self.validate()

    def validate(self, grid_size=STABILITY_GRID):
        u = np.arange(1, grid_size + 1) / grid_size
        s2 = self.sigma2.values(u)
        if np.min(s2) <= 0:
            raise ValueError("sigma2 must be strictly positive on (0, 1]")
        if self.p:
            coeffs = self.alpha_matrix(u)
            # one root check per distinct row, taken in order of first
            # occurrence so that the error names the first violating u
            _, first = np.unique(coeffs, axis=0, return_index=True)
            for i in np.sort(first):
                if not check_stability(coeffs[i], self.delta):
                    raise ValueError(
                        f"AR polynomial violates the root condition at u={u[i]:.6f}"
                    )
        self.validated = True

    def alpha_matrix(self, u):
        """Evaluate all coefficient curves at u; shape (len(u), p)."""
        u = np.asarray(u, dtype=float)
        if self.p == 0:
            return np.zeros(u.shape + (0,))
        return np.stack([c.values(u) for c in self.alpha], axis=-1)

    def describe(self):
        return {
            "p": self.p,
            "alpha": [curve_to_spec(c) for c in self.alpha],
            "sigma2": curve_to_spec(self.sigma2),
            "delta": self.delta,
            "burn_in": self.burn_in,
        }

    def __repr__(self):
        return f"TvARModel(p={self.p}, alpha={list(self.alpha)!r}, sigma2={self.sigma2!r})"


def white_noise_model(sigma2=1.0):
    """Convenience constructor for the order-0 model."""
    return TvARModel(0, (), ConstantCurve(sigma2))


def simulate_tvar(model, n, seed, burn_in=None):
    """Simulate n observations of a time-varying AR model.

    The recursion X_t = -sum_j alpha_j(t/n) X_{t-j} + sigma(t/n) eps_t is run
    for burn_in + n steps with standard normal innovations; during burn-in the
    coefficients are frozen at their u = 1/n values.  The same
    (model, n, seed, burn_in) always produces bit-identical output.  This is
    the one-seed case of :func:`simulate_tvar_batch`, which simulates many
    replications at once with the same values.

    Parameters
    ----------
    model : TvARModel
    n : int
        Number of observations returned, >= 1.
    seed : int
        Seed for numpy's default generator.
    burn_in : int, optional
        Number of warm-up steps discarded, >= 0; defaults to model.burn_in.

    Returns
    -------
    TimeSeries
    """
    values = simulate_tvar_batch(model, n, [seed], burn_in)[0]
    burn_in = int(model.burn_in if burn_in is None else burn_in)
    prov = {"model": model.describe(), "burn_in": burn_in, "n": int(n)}
    return TimeSeries(values, seed=seed, provenance=prov)


def _simulation_steps(model, n, burn_in=None):
    """The steps the simulator runs: (burn_in, sigma2, alpha).

    The recursion runs burn_in + n steps; step s has rescaled time 1/n during
    the burn-in (the coefficients are frozen there) and (s - burn_in + 1)/n
    after it.  sigma2 holds the innovation variance and alpha the coefficient
    row of each step, shapes (burn_in + n,) and (burn_in + n, p).
    """
    n = as_number(n, "n", int, 1)
    burn_in = as_number(model.burn_in if burn_in is None else burn_in, "burn_in", int, 0)
    u = np.empty(burn_in + n)
    u[:burn_in] = 1.0 / n
    u[burn_in:] = np.arange(1, n + 1) / n
    return burn_in, model.sigma2.values(u), model.alpha_matrix(u)


def _covariance_band(model, n, max_lag):
    """Exact covariances of the n values :func:`simulate_tvar` returns.

    Row s - 1, column k holds C(s, k) = Cov(X_s, X_{s-k}) for s = 1..n and
    k = 0..max_lag, zero where s - k < 1 - burn_in.  The simulator's
    recursion, started from zeros and run through the burn-in, gives them
    exactly: the innovation at step s is independent of the past, so with
    L = max(max_lag, p)

        C(s, k) = -sum_j alpha_j(s) Cov(X_{s-j}, X_{s-k}),   1 <= k <= L,
        C(s, 0) = sigma^2(s) - sum_j alpha_j(s) C(s, j).

    Time O((burn_in + n) L p), memory O((burn_in + n) L).
    """
    burn_in, s2, a = _simulation_steps(model, n)
    p = model.p
    L = max(int(max_lag), p)
    a, s2 = a.tolist(), s2.tolist()
    C = []  # C[s][k], s counted from the first burn-in step
    for s in range(len(s2)):
        at = a[s]
        row = [0.0] * (L + 1)
        for k in range(1, min(L, s) + 1):
            acc = 0.0
            for j in range(1, min(p, s) + 1):
                # Cov(X_{s-j}, X_{s-k}) sits in the row of the later step
                acc -= at[j - 1] * (C[s - j][k - j] if j <= k else C[s - k][j - k])
            row[k] = acc
        row[0] = s2[s] - sum(at[j - 1] * row[j] for j in range(1, min(p, s) + 1))
        C.append(row)
    return np.array(C[burn_in:])[:, : int(max_lag) + 1]


def simulate_tvar_batch(model, n, seeds, burn_in=None):
    """Simulate one replication of a time-varying AR model per seed.

    Row r is bit-identical to ``simulate_tvar(model, n, seeds[r],
    burn_in).values``: each seed keeps its own innovation stream, and the
    recursion runs once over time with the replications as the vector
    dimension, doing the same floating-point operations in the same order
    for every replication.  Replications are drawn and run
    ``REPLICATION_CHUNK`` at a time, so memory is
    O(REPLICATION_CHUNK (burn_in + n)) besides the result, and the chunking
    changes no value because the replications never mix.

    With fewer than ``ROW_FORM_MIN`` seeds each replication runs alone as a
    loop over Python floats, which costs about 0.12 us per step and
    replication; a chunk of row arrays costs about 2 us per step however
    many replications it holds (p = 1, 1512 steps, one BLAS thread, 2-core
    VM), so the row form wins from about 16 replications on.

    Parameters
    ----------
    model : TvARModel
    n : int
        Number of observations per replication, >= 1.
    seeds : sequence of int
        One seed for numpy's default generator per replication.
    burn_in : int, optional
        Number of warm-up steps discarded, >= 0; defaults to model.burn_in.

    Returns
    -------
    ndarray of shape (len(seeds), n)
    """
    burn_in, s2, a = _simulation_steps(model, n, burn_in)
    sig = np.sqrt(s2)
    cols = [c.tolist() for c in a.T]
    n = int(n)
    seeds = list(seeds)
    total = burn_in + n

    out = np.empty((len(seeds), n))
    step = REPLICATION_CHUNK if len(seeds) >= ROW_FORM_MIN else 1
    for start in range(0, len(seeds), step):
        chunk = seeds[start : start + step]
        eps = np.stack([np.random.default_rng(s).standard_normal(total) for s in chunk], axis=1)
        drive = sig[:, None] * eps  # (time, replication)
        if not cols:
            out[start : start + len(chunk)] = drive[burn_in:].T
            continue
        # Python floats for one replication, rows of replications otherwise:
        # the float loop is the faster one for a few replications
        x = drive[:, 0].tolist() if len(chunk) == 1 else list(drive)
        _recursion(x, cols)
        out[start : start + len(chunk)] = np.array(x[burn_in:]).reshape(n, len(chunk)).T
    return out


def _recursion(x, cols):
    """Run X_t = x_t - sum_j cols[j-1][t] X_{t-j} over x in place.

    x holds the drive sigma(t) eps_t, one entry per step: Python floats for
    one replication, or row arrays holding one value per replication; cols
    holds the p >= 1 coefficient columns as lists of floats.  Step t
    subtracts its terms in the order j = 1..min(p, t), the order every
    simulator output is defined by.
    """
    p = len(cols)
    total = len(x)
    lags = list(enumerate(cols, 1))
    # the first p steps have fewer than p predecessors
    for t in range(1, min(p, total)):
        acc = x[t]
        for j, c in lags[:t]:
            acc = acc - c[t] * x[t - j]
        x[t] = acc
    if p == 1:
        (c,) = cols
        prev = x[0]
        for t in range(1, total):
            prev = x[t] = x[t] - c[t] * prev
        return
    for t in range(p, total):
        acc = x[t]
        for j, c in lags:
            acc = acc - c[t] * x[t - j]
        x[t] = acc


def transfer_abs2(coeffs, lam):
    """|1 + sum_j coeffs[..., j-1] e^{i lam j}|^2.

    The last axis of coeffs holds alpha_1, ..., alpha_p; the leading axes
    broadcast against lam, so one call evaluates a constant coefficient
    vector on a frequency array or per-point coefficients on a mesh.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    lam = np.asarray(lam, dtype=float)
    acc = np.ones(np.broadcast_shapes(coeffs.shape[:-1], lam.shape), dtype=complex)
    for j in range(1, coeffs.shape[-1] + 1):
        acc = acc + coeffs[..., j - 1] * np.exp(1j * lam * j)
    return np.abs(acc) ** 2


def coeff_autocorr(model, u, m):
    """sum_i a_i(u) a_{i+|m|}(u) for the sequence (1, alpha_1(u), ..., alpha_p(u)).

    These are the lag coefficients c(u, m) of the squared transfer
    polynomial, |1 + sum_j alpha_j(u) e^{i lam j}|^2 = sum_{|m|<=p} c(u, m)
    e^{i lam m}, so integrals against 1/f reduce to sums over |m| <= p.
    Zero for |m| > p.
    """
    u = np.asarray(u, dtype=float)
    p = model.p
    a = model.alpha_matrix(u)
    coeff = [np.ones(u.shape)] + [a[..., j] for j in range(p)]
    m = abs(int(m))
    acc = np.zeros(u.shape)
    for i in range(0, p - m + 1):
        acc = acc + coeff[i] * coeff[i + m]
    return acc


def ar_autocov(model, u, max_lag, squared=False):
    """Local autocovariances c_f(u, k) = int f(u, lam) e^{i lam k} dlam.

    For k = 0..max_lag, from the Yule-Walker equations
    c(k) + sum_j alpha_j c(|k - j|) = sigma^2 [k = 0], k = 0..p, and the
    recursion c(k) = -sum_j alpha_j c(k - j) beyond lag p.  The
    (p+1) x (p+1) system is solved once per distinct coefficient row at unit
    variance and scaled by sigma^2(u), so a constant-coefficient model costs
    one solve however long u is.  The equations hold for stable coefficients
    only, so an unvalidated model is validated first.

    With squared=True the same is returned for f^2 instead,
    int f(u, lam)^2 e^{i lam k} dlam: f^2 = (sigma^4 / 2 pi) f_B with f_B the
    unit-variance spectrum of the squared transfer polynomial B = A^2,
    which has order 2p and the roots of A, so it is stable whenever A is.

    Parameters
    ----------
    model : TvARModel
    u : array_like
        Rescaled times in (0, 1].
    max_lag : int
        Largest lag returned, >= 0.
    squared : bool
        Coefficients of f^2 rather than of f.

    Returns
    -------
    ndarray of shape u.shape + (max_lag + 1,)
    """
    u = np.asarray(u, dtype=float)
    max_lag = int(max_lag)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if not model.validated:
        model.validate()
    rows, inverse = np.unique(model.alpha_matrix(u).reshape(u.size, model.p), axis=0, return_inverse=True)
    a = np.concatenate([np.ones((len(rows), 1)), rows], axis=1)  # (1, alpha_1, ..., alpha_p)
    if squared:
        a = np.stack([np.convolve(row, row) for row in a])  # the coefficients of B = A^2
    p = a.shape[1] - 1
    system = np.zeros((len(rows), p + 1, p + 1))
    for k in range(p + 1):
        for j in range(p + 1):
            system[:, k, abs(k - j)] += a[:, j]
    rhs = np.zeros((len(rows), p + 1, 1))
    rhs[:, 0, 0] = 1.0
    cov = np.zeros((len(rows), max(max_lag, p) + 1))
    cov[:, : p + 1] = np.linalg.solve(system, rhs)[..., 0]
    for k in range(p + 1, max_lag + 1):
        cov[:, k] = np.sum(-a[:, 1:] * cov[:, k - p : k][:, ::-1], axis=1)
    out = cov[inverse.reshape(-1), : max_lag + 1].reshape(u.shape + (max_lag + 1,))
    s2 = model.sigma2.values(u)[..., None]
    return s2 * s2 / (2 * np.pi) * out if squared else s2 * out


def spectral_density(model, u, lam):
    """Local spectral density f(u, lam) of a TvARModel.

    Parameters
    ----------
    model : TvARModel
    u : array_like
        Rescaled times in (0, 1]; broadcast against lam.
    lam : array_like
        Frequencies in radians; broadcast against u.

    Returns
    -------
    ndarray
        f(u, lam) = sigma^2(u)/(2 pi) |1 + sum_j alpha_j(u) e^{i lam j}|^{-2}.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    ub, lb = np.broadcast_arrays(u, lam)
    s2 = model.sigma2.values(ub)
    if model.p == 0:
        return s2 / (2 * np.pi) * np.ones(lb.shape)
    # a separate statement: folded into the return expression, s2 / (2 pi)
    # would stay allocated through the transfer loop, one more mesh-sized
    # array at peak
    w = transfer_abs2(model.alpha_matrix(ub), lb)
    return s2 / (2 * np.pi) / w


class SpectrumField:
    """Strictly positive spectrum g(u, lam) of a TvARModel, with a label.

    Every population functional and contrast takes its candidate spectra in
    this form, so each of them is exact in the model's coefficients.
    """

    def __init__(self, model, label=""):
        if not isinstance(model, TvARModel):
            raise ValueError(f"SpectrumField needs a TvARModel, got {model!r}")
        self.ar_model = model
        self.label = label

    @classmethod
    def from_model(cls, model, label=""):
        return cls(model, label=label or "tvAR spectrum")

    @classmethod
    def from_coefficients(cls, alpha, sigma2, validate=True, label=""):
        """AR-backed field from a constant coefficient vector and a variance curve."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        if not isinstance(sigma2, Curve):
            sigma2 = ConstantCurve(sigma2)
        model = TvARModel(
            len(alpha),
            [ConstantCurve(a) for a in alpha],
            sigma2,
            validate=validate,
        )
        return cls(model, label=label or "fitted tvAR spectrum")

    def values(self, u, lam):
        return spectral_density(self.ar_model, u, lam)

    def __repr__(self):
        return f"SpectrumField(label={self.label!r})"


def as_field(g):
    """The SpectrumField of a SpectrumField or TvARModel g."""
    if isinstance(g, SpectrumField):
        return g
    if isinstance(g, TvARModel):
        return SpectrumField.from_model(g)
    raise ValueError(f"expected a SpectrumField or TvARModel, got {g!r}")


def tv_covariance(model, u, k):
    """Local covariance c(u, k) = int f(u, lam) e^{i lam k} dlam.

    Exact: one Yule-Walker solve through :func:`ar_autocov`.

    Parameters
    ----------
    model : TvARModel
    u : float
        Rescaled time in (0, 1].
    k : int
        Lag; c(u, -k) = c(u, k).

    Returns
    -------
    float
    """
    k = abs(int(k))
    return float(ar_autocov(model, np.array([float(u)]), k)[0, k])


def model_to_json(model, path=None):
    """Serialize a TvARModel to JSON text (and optionally a file)."""
    payload = model.describe()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def model_from_json(source, what="model"):
    """Load a TvARModel from a JSON string, dict, or file path.

    Raises ValueError on a key that :meth:`TvARModel.describe` does not write
    (the message calls such keys "unknown <what> key(s)") and on a missing
    sigma2.
    """
    if isinstance(source, dict):
        payload = source
    else:
        text = str(source)
        if "{" not in text:
            with open(text) as fh:
                text = fh.read()
        payload = json.loads(text)
    check_spec_keys(payload, MODEL_KEYS, what, required=("sigma2",))
    alpha = payload.get("alpha", [])
    if not isinstance(alpha, (list, tuple)):
        raise ValueError(f"{what} alpha must be a list of curve specs, got {alpha!r}")
    alpha = [curve_from_spec(s) for s in alpha]
    sigma2 = curve_from_spec(payload["sigma2"])
    return TvARModel(
        payload.get("p", len(alpha)),
        alpha,
        sigma2,
        delta=payload.get("delta", 0.0),
        burn_in=payload.get("burn_in", DEFAULT_BURN_IN),
    )
