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
against 1/f into finite lag sums and the Yule-Walker autocovariances that do
the same for integrals against f.  Every spectrum the package integrates is
a TvARModel's, so each of those integrals is a finite lag sum or the
Kolmogorov identity rather than a frequency mesh.
"""

import warnings

import numpy as np

from .curves import ConstantCurve, Curve, _as_curve, as_number, check_spec_keys, curve_from_spec, curve_to_spec

__all__ = [
    "TimeSeries",
    "TvARModel",
    "SpectrumField",
    "check_stability",
    "simulate_tvar",
    "simulate_tvar_batch",
    "transfer_abs2",
    "coeff_autocorr",
    "ar_autocov",
    "spectral_density",
    "white_noise_model",
    "model_from_json",
    "DEFAULT_BURN_IN",
]

DEFAULT_BURN_IN = 1000
REPLICATION_CHUNK = 256  # replications drawn and run together by simulate_tvar_batch
# values per time block of simulate_tvar_batch and TimeSeries.to_csv (512 KB
# of float64): 256-step blocks for a chunk of 256 replications
SIM_BLOCK_VALUES = 1 << 16
STABILITY_GRID = 512
MODEL_KEYS = ("p", "alpha", "sigma2", "delta", "burn_in")  # TvARModel.describe()


def check_stability(coeffs, delta=0.0):
    """Check that 1 + sum_j coeffs[j-1] z^j has no root in |z| <= 1 + delta.

    Decided by the Schur-Cohn (Levinson step-down) recursion, without
    finding the roots: see :func:`_root_condition`, of which this is the
    one-row case.  The tests use ``np.roots`` as its oracle.

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
    delta = as_number(delta, "delta", float, 0)
    return bool(_root_condition(coeffs.reshape(1, -1), delta)[0])


def _root_condition(coeffs, delta):
    """For each row c of an (m, p) array, whether A(z) = 1 + sum_j c_j z^j
    has no root in |z| <= 1 + delta; a boolean array of length m.

    The Schur-Cohn step-down (Jury 1964; Brockwell & Davis 1991), on all
    rows at once: scale to A((1 + delta) w), so that the condition is on
    |w| <= 1; then, for m = p, ..., 1, take k = c_m, require |k| < 1, and
    lower the degree by c_j <- (c_j - k c_{m-j}) / (1 - k^2), j < m.  A zero
    trailing coefficient gives k = 0, which lowers the degree unchanged.
    Rows that have failed carry k = 0, so they stay finite; rows that are
    not finite fail.
    """
    c = coeffs * (1.0 + delta) ** np.arange(1, coeffs.shape[1] + 1)
    ok = np.ones(len(c), dtype=bool)
    with np.errstate(all="ignore"):
        while c.shape[1]:
            k = c[:, -1]
            ok &= np.abs(k) < 1.0
            k = np.where(ok, k, 0.0)[:, None]
            head = c[:, :-1]
            c = (head - k * head[:, ::-1]) / (1.0 - k * k)
    return ok


def _scan_series(path, header):
    """The first cells of a CSV series parsed line by line, skipping the
    first line when header is 1 and lines whose first cell is blank.

    Raises ValueError naming the file and the 1-based line of the first cell
    that is not a number or not finite.
    """
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            cell = line.split(",", 1)[0].strip()
            if not cell or lineno <= header:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: {cell!r} is not a number") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}, line {lineno}: {cell!r} is not finite")
            values.append(value)
    return np.array(values)


class TimeSeries:
    """A finite real-valued series.

    Parameters
    ----------
    values : array_like
        Observations x_1, ..., x_n.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("need a nonempty 1-d array of observations")
        if not np.all(np.isfinite(v)):
            raise ValueError("observations must be finite")
        self.values = v

    @property
    def n(self):
        return len(self.values)

    def to_csv(self, path):
        """Write a header 'x', then repr of one value per line, each line
        ending in CRLF (the bytes csv.writer writes for these rows).  The
        lines are joined and written ``SIM_BLOCK_VALUES`` values at a time,
        so memory does not grow with the series."""
        with open(path, "w", newline="") as fh:
            fh.write("x\r\n")
            for start in range(0, self.n, SIM_BLOCK_VALUES):
                fh.write("\r\n".join(map(repr, self.values[start : start + SIM_BLOCK_VALUES].tolist())) + "\r\n")

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
            values = None
        if values is None or not np.isfinite(values).all():
            # the file is scanned only now, so a good file is read once
            values = _scan_series(path, header)
        if values.size == 0:
            raise ValueError(f"{path}: no observations (need a nonempty series)")
        return cls(values)

    def __repr__(self):
        return f"TimeSeries(n={self.n})"


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
        Warm-up steps the simulator runs and discards, >= 0.

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

    def validate(self):
        """Check sigma2 > 0 and the root condition at u = k / STABILITY_GRID."""
        u = np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID
        s2 = self.sigma2.values(u)
        if np.min(s2) <= 0:
            raise ValueError("sigma2 must be strictly positive on (0, 1]")
        if self.p:
            coeffs = self.alpha_matrix(u)
            bad = ~_root_condition(coeffs, self.delta)
            if bad.any():
                i = int(np.argmax(bad))
                if not np.all(np.isfinite(coeffs[i])):
                    raise ValueError("AR coefficients must be finite")
                raise ValueError(f"AR polynomial violates the root condition at u={u[i]:.6f}")
        self.validated = True

    def alpha_matrix(self, u):
        """Evaluate all coefficient curves at u; shape (len(u), p)."""
        u = np.asarray(u, dtype=float)
        if self.p == 0:
            return np.zeros(u.shape + (0,))
        return np.stack([c.values(u) for c in self.alpha], axis=-1)

    @classmethod
    def from_coefficients(cls, alpha, sigma2, validate=True):
        """Model with constant coefficients alpha and variance sigma2, a Curve
        or a positive number."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return cls(len(alpha), [ConstantCurve(a) for a in alpha], _as_curve(sigma2), validate=validate)

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


def simulate_tvar(model, n, seed):
    """Simulate n observations of a time-varying AR model.

    The recursion X_t = -sum_j alpha_j(t/n) X_{t-j} + sigma(t/n) eps_t is run
    for model.burn_in + n steps with standard normal innovations; during the
    burn-in the coefficients are frozen at their u = 1/n values.  The same
    (model, n, seed) always produces bit-identical output.  This is the
    one-seed case of :func:`simulate_tvar_batch`, which simulates many
    replications at once with the same values.

    Parameters
    ----------
    model : TvARModel
    n : int
        Number of observations returned, >= 1.
    seed : int
        Seed for numpy's default generator.

    Returns
    -------
    TimeSeries
    """
    return TimeSeries(simulate_tvar_batch(model, n, [seed])[0])


def _step_times(start, stop, burn_in, n):
    """Rescaled times of the simulator's steps start..stop-1: 1/n before step
    burn_in (the coefficients are frozen there), and step s >= burn_in at
    (s - burn_in + 1)/n."""
    u = np.empty(stop - start)
    frozen = min(max(burn_in - start, 0), stop - start)
    u[:frozen] = 1.0 / n
    u[frozen:] = np.arange(start + frozen - burn_in + 1, stop - burn_in + 1) / n
    return u


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
    n = as_number(n, "n", int, 1)
    burn_in, p = model.burn_in, model.p
    u = _step_times(0, burn_in + n, burn_in, n)  # the simulator's steps
    a, s2 = model.alpha_matrix(u).tolist(), model.sigma2.values(u).tolist()
    L = max(int(max_lag), p)
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


def _row_form_min(p):
    """The fewest replications for which one row-form chunk of an order-p
    recursion runs faster than that many float loops.

    Per step, a chunk's row costs about 1.4 us per lag however many
    replications it holds, and a float loop about 0.1 us per lag plus 0.05 us
    per replication, or 0.1 us in all at p = 1, whose loop carries the
    previous value (one BLAS thread, 2-core VM).  Their ratio, 14 at p = 1,
    12 at p = 2 and 3, and 13 at p = 4, tending to 14, is the rule.  Sweeps
    of 4-48 replications (burn_in 1000 + n 512) put the crossover at 13-15
    replications at p = 1, 10-11 at p = 2, 12-13 at p = 3 and 13-15 at
    p = 4.  Without lags there is no loop, the forms cost the same, and the
    row form is taken.
    """
    row, floats = 28 * p, 2 if p == 1 else 2 * p + 1  # in units of 0.05 us
    return -(-row // floats)


def simulate_tvar_batch(model, n, seeds):
    """Simulate one replication of a time-varying AR model per seed.

    Row r is bit-identical to ``simulate_tvar(model, n,
    seeds[r]).values``: each seed keeps its own innovation stream, and the
    recursion runs once over time with the replications as the vector
    dimension, doing the same floating-point operations in the same order
    for every replication.  Replications are drawn and run
    ``REPLICATION_CHUNK`` at a time, and each chunk runs through time in
    blocks of B = ``SIM_BLOCK_VALUES`` // width steps in one reused
    (p + B, width) buffer: per block, each replication's generator draws
    that block's normals, sigma and the coefficients are evaluated at that
    block's times only, the recursion runs in place with the top p rows
    carrying the previous block's last values (zeros before the first), and
    the steps past the burn-in are copied into the result.  Normals drawn in
    pieces continue one stream exactly and the curves are evaluated
    pointwise, so neither the chunking nor the blocking changes a value, and
    memory is the result plus one block buffer (512 KB) and the chunk's
    generators however long model.burn_in + n is.

    A batch of fewer than :func:`_row_form_min` seeds, 12-14 at p = 1-4,
    runs its replications in turn as loops over Python floats through the
    same blocks, and its block also counts the 32 bytes a Python float takes
    with its list slot in each of the p + 1 lists the loop holds: 7281 steps
    for one replication at p = 1.  A larger batch runs every chunk, its last
    one too, in the row form.

    Parameters
    ----------
    model : TvARModel
    n : int
        Number of observations per replication, >= 1.
    seeds : sequence of int
        One seed for numpy's default generator per replication.

    Returns
    -------
    ndarray of shape (len(seeds), n)
    """
    n = as_number(n, "n", int, 1)
    burn_in = model.burn_in
    seeds = list(seeds)
    p, total = model.p, burn_in + n

    out = np.empty((len(seeds), n))
    if not seeds:
        return out
    # every chunk but the last is full width, so the chunk width decides the
    # form of the recursion and the block size for the whole batch
    width = min(REPLICATION_CHUNK, len(seeds))
    floats = width < _row_form_min(p)
    # a step holds one buffer value per replication, and in the float loops
    # a Python float (32 bytes with its list slot) in each of p + 1 lists
    block = max(1, SIM_BLOCK_VALUES // (width + 4 * (p + 1) * floats))
    # rows [0, p) hold the last values of the previous block, zeros before a
    # chunk's first block, the rows after them the drive sigma(t) eps_t,
    # which the recursion turns into the series in place
    buf = np.empty((p + block, width))
    for start in range(0, len(seeds), width):
        gens = [np.random.default_rng(seed) for seed in seeds[start : start + width]]
        buf[:p] = 0.0
        for t0 in range(0, total, block):
            b = min(block, total - t0)
            u = _step_times(t0 - p, t0 + b, burn_in, n)
            x = buf[: p + b, : len(gens)]
            drive = x[p:]
            for k, gen in enumerate(gens):
                drive[:, k] = gen.standard_normal(b)
            drive *= np.sqrt(model.sigma2.values(u[p:]))[:, None]
            if p:
                cols = [c.tolist() for c in model.alpha_matrix(u).T]
                if floats:
                    # Python floats: the faster loop for a few replications
                    for k in range(len(gens)):
                        values = x[:, k].tolist()
                        _recursion(values, cols)
                        x[:, k] = values
                else:
                    _recursion(list(x), cols)
                buf[:p, : len(gens)] = x[b:]
            if t0 + b > burn_in:
                first = max(burn_in - t0, 0)
                out[start : start + len(gens), t0 + first - burn_in : t0 + b - burn_in] = drive[first:].T
    return out


def _recursion(x, cols):
    """Run X_t = x_t - sum_j cols[j-1][t] X_{t-j} over x[p:] in place.

    x holds the p values before the block, zeros at the start of a series,
    and the drive sigma(t) eps_t from there on, one entry per step: Python
    floats for one replication, or the row views of one (time, replication)
    array; ``acc -= ...`` rebinds a float and updates a row in place, so one
    loop serves both.  cols holds the p >= 1 coefficient columns as lists of
    floats aligned with x.  Step t subtracts its terms in the order j = 1..p,
    the order every simulator output is defined by; a zero predecessor
    subtracts a signed zero, which leaves a nonzero drive as it is.
    """
    p = len(cols)
    if p == 1 and isinstance(x[0], float):
        # carrying the previous value is the cheapest float step
        (c,) = cols
        prev = x[0]
        for t in range(1, len(x)):
            prev = x[t] = x[t] - c[t] * prev
        return
    lags = list(enumerate(cols, 1))
    for t in range(p, len(x)):
        acc = x[t]
        for j, c in lags:
            acc -= c[t] * x[t - j]
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


def coeff_autocorr(model, u):
    """c(u, m) = sum_i a_i(u) a_{i+m}(u) for m = 0..p and the sequence
    (1, alpha_1(u), ..., alpha_p(u)); shape u.shape + (p + 1,).

    These are the lag coefficients of the squared transfer polynomial,
    |1 + sum_j alpha_j(u) e^{i lam j}|^2 = sum_{|m|<=p} c(u, |m|) e^{i lam m},
    so integrals against 1/f reduce to sums over |m| <= p.  The coefficient
    curves are evaluated once, and each c(u, m) is summed over i in order.
    """
    u = np.asarray(u, dtype=float)
    p = model.p
    coeff = np.concatenate([np.ones(u.shape + (1,)), model.alpha_matrix(u)], axis=-1)
    acc = np.zeros(u.shape + (p + 1,))
    for i in range(p + 1):
        acc[..., : p + 1 - i] += coeff[..., i : i + 1] * coeff[..., i:]
    return acc


def _coefficient_runs(a):
    """(rows, owner) for the runs of equal consecutive rows of an (m, p)
    array a: the first row of each run, and the run that each row of a
    belongs to, so rows[owner] equals a."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = np.any(a[1:] != a[:-1], axis=1)
    return a[first], np.cumsum(first) - 1


def ar_autocov(model, u, max_lag, squared=False):
    """Local autocovariances c_f(u, k) = int f(u, lam) e^{i lam k} dlam.

    For k = 0..max_lag (c_f is even in k), from the Yule-Walker equations
    c(k) + sum_j alpha_j c(|k - j|) = sigma^2 [k = 0], k = 0..p, and the
    recursion c(k) = -sum_j alpha_j c(k - j) beyond lag p.  The
    (p+1) x (p+1) system is solved once per run of equal coefficient rows
    (:func:`_coefficient_runs`) at unit variance and scaled by sigma^2(u), so
    a constant-coefficient model costs one solve however long u is.  The
    equations hold for stable coefficients only, so an unvalidated model is
    validated first.

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
    max_lag = as_number(max_lag, "max_lag", int, 0)
    if not model.validated:
        model.validate()
    rows, owner = _coefficient_runs(model.alpha_matrix(u).reshape(u.size, model.p))
    a = np.concatenate([np.ones((len(rows), 1)), rows], axis=1)  # (1, alpha_1, ..., alpha_p)
    if squared:
        a = np.array([np.convolve(row, row) for row in a]).reshape(len(a), 2 * a.shape[1] - 1)  # B = A^2
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
    out = cov[owner, : max_lag + 1].reshape(u.shape + (max_lag + 1,))
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
    # a separate statement: folded into the return expression, s2 / (2 pi)
    # would stay allocated through the transfer loop, one more mesh-sized
    # array at peak
    w = transfer_abs2(model.alpha_matrix(ub), lb)
    return s2 / (2 * np.pi) / w


def _as_model(g):
    """g itself, a TvARModel: the one spectrum type that every population
    functional and contrast takes, so each is exact in the model's
    coefficients.  Raises ValueError for anything else."""
    if not isinstance(g, TvARModel):
        raise ValueError(f"expected a TvARModel, got {g!r}")
    return g


class SpectrumField:
    """Two constructors of a spectrum, each returning a TvARModel:
    from_model checks that its argument is one and from_coefficients builds
    one with constant coefficients."""

    from_model = staticmethod(_as_model)
    from_coefficients = staticmethod(TvARModel.from_coefficients)


def model_from_json(payload, what="model"):
    """Load a TvARModel from a parsed JSON object, such as the dict
    :meth:`TvARModel.describe` returns.

    Raises ValueError on a payload that is not a dict ("<what> must be a JSON
    object, got ..."), on a key that describe does not write ("unknown <what>
    key(s)") and on a missing sigma2.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {payload!r}")
    check_spec_keys(payload, MODEL_KEYS, what, required=("sigma2",))
    alpha = payload.get("alpha", [])
    if not isinstance(alpha, (list, tuple)):
        raise ValueError(f"{what} alpha must be a list of curve specs, got {alpha!r}")
    alpha = [curve_from_spec(s) for s in alpha]
    sigma2 = curve_from_spec(payload["sigma2"])
    options = {key: payload[key] for key in ("delta", "burn_in") if key in payload}
    return TvARModel(payload.get("p", len(alpha)), alpha, sigma2, **options)
