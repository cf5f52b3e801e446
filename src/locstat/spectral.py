"""Pre-periodogram and empirical spectral functionals.

The pre-periodogram localizes the periodogram at each time point: for a
series x_1..x_n and 1-based time t,

    J(t/n, lam) = (1/2 pi) sum_k x_i x_j e^{-i lam k},
    i = floor(t + 1/2 + k/2),  j = floor(t + 1/2 - k/2),

where the sum runs over the lags k whose both indices stay in 1..n.  It is
real and even in lam but not nonnegative; averaged over t it reproduces the
ordinary periodogram, and integrated over lam it returns x_t^2.

Weight functions phi(u, lam) carry their lag coefficients in the unnormalized
convention

    c_phi(u, j) = int_{-pi}^{pi} phi(u, lam) e^{i lam j} dlam,

so that phi(u, lam) = (1/2 pi) sum_j c_phi(u, j) e^{-i lam j}.  All matrix
and norm bounds in this module are stated for that convention.
"""

import numpy as np

from .curves import _as_curve, as_number
from .process import TimeSeries, _as_model, ar_autocov, coeff_autocorr

__all__ = [
    "FrequencyGrid",
    "PrePeriodogram",
    "TestFunction",
    "NormReport",
    "ResourceLimitError",
    "periodogram",
    "spectral_functional",
    "spectral_functional_limit",
    "quadratic_form_matrix",
    "weight_norms",
    "constant_weight",
    "lag_curve_weight",
    "ar_inverse_weight",
]

DEFAULT_GRID_SIZE = 1024
MAX_DENSE_N = 4096
VARIATION_GRID = 2048
TIME_CELLS = 4096  # midpoint cells in u of spectral_functional_limit and kl_contrast
GRID_CHUNK_ROWS = 64  # pre-periodogram rows filled per pass of evaluate_grid
GRID_BLOCK_NODES = 64  # grid nodes per cosine block in evaluate_grid, small enough to stay in cache


class ResourceLimitError(RuntimeError):
    """Raised when a dense matrix would exceed the documented size cap."""


class FrequencyGrid:
    """Symmetric midpoint grid on [-pi, pi].

    Nodes lam_m = -pi + 2 pi (m + 1/2)/M for m = 0..M-1, all with weight
    2 pi / M.  The grid integrates trigonometric polynomials of degree < M
    exactly and contains -lam for every node lam.
    """

    def __init__(self, size=DEFAULT_GRID_SIZE):
        size = as_number(size, "grid size", int, 2)
        if size % 2:
            raise ValueError(f"grid size must be even, got {size!r}")
        self.size = size
        self.nodes = -np.pi + 2 * np.pi * (np.arange(size) + 0.5) / size
        self.weight = 2 * np.pi / size

    def __repr__(self):
        return f"FrequencyGrid(size={self.size})"


def _time_grid(size):
    """Midpoints (i + 1/2)/size, i = 0..size-1, of a uniform grid on (0, 1)."""
    return (np.arange(size) + 0.5) / size


def _series_values(series):
    # a TimeSeries or array_like, checked by the one series validator
    return TimeSeries(getattr(series, "values", series)).values


def _lag_index(n, k):
    """Admissible 1-based times t at lag k and the slices of x holding the
    pair x_i x_j: i = floor(t + 1/2 + k/2) = t + ceil(k/2) and
    j = floor(t + 1/2 - k/2) = t - floor(k/2), so the admissible t are one
    run and each index a shifted copy of it."""
    k = int(k)
    a, b = -(-k // 2), k // 2
    lo = max(1, 1 - a, 1 + b)
    hi = max(min(n, n - a, n + b), lo - 1)
    return np.arange(lo, hi + 1), slice(lo - 1 + a, hi + a), slice(lo - 1 - b, hi - b)


class PrePeriodogram:
    """Lag-product representation of a series' pre-periodogram."""

    def __init__(self, series):
        self.x = _series_values(series)
        self.n = len(self.x)
        self._cosines = (None, None)  # (grid size, cosine blocks) of the last evaluate_grid

    def lag_products(self, k):
        """All admissible products at lag k.

        Returns
        -------
        t : ndarray of int
            1-based time points where lag k is admissible.
        products : ndarray
            x_i x_j with i = floor(t + 1/2 + k/2), j = floor(t + 1/2 - k/2).
        """
        t, i, j = _lag_index(self.n, as_number(k, "k"))
        return t, self.x[i] * self.x[j]

    def _rows(self, times):
        if times is None:
            return np.arange(1, self.n + 1)
        rows = np.asarray(times)
        # an integer too large for int64 makes an object array, refused here too
        if rows.ndim != 1 or (
            rows.size and not (np.issubdtype(rows.dtype, np.integer) and 1 <= rows.min() and rows.max() <= self.n)
        ):
            raise ValueError(f"times must be a 1-d sequence of integers in 1..{self.n}")
        return rows

    def evaluate_grid(self, grid, times=None):
        """Matrix of J(t/n, lam_m) for the requested t (rows) and grid nodes.

        Uses the cosine representation J = (P_0 + 2 sum_{k>=1} P_k cos(k lam))
        / (2 pi) with the lag products P_k of :meth:`lag_products`: lag 2m
        pairs x_{t+m} x_{t-m}, lag 2m+1 pairs x_{t+m+1} x_{t-m}.  On the M
        nodes of a FrequencyGrid cos(k lam) has period 2M in k, so each row's
        even and odd products are summed over m modulo p = min(M, n // 2 + 1),
        then multiplied by the cosine matrix of the 2p lags below 2p.  J is
        even in lam and the grid holds -lam for every node, so only the M/2
        positive nodes are computed and the others mirror them.

        Row t has min(t, n + 1 - t) even and min(t, n - t) odd admissible
        products, so a block of rows forms and sums only the periods up to
        its longest row's last admissible lag; products past a row's own
        last lag are zeros of the padding around x.  Rows are filled
        GRID_CHUNK_ROWS at a time and each row's arithmetic is its own, so a
        row's values do not depend on which other rows are requested or on
        the chunk size.  Memory is O(GRID_CHUNK_ROWS n + min(M, n) M) beyond
        the result, time O(sum_t min(t, n - t) + rows min(M, n) M) for rows
        requested in time order.  The cosine matrix of the last grid size is
        kept, so rows asked for block by block on one grid build it once.

        Parameters
        ----------
        grid : FrequencyGrid
        times : sequence of int, optional
            1-based time points, one row each in the given order; all of
            1..n when omitted.

        Returns
        -------
        ndarray, shape (len(times), grid.size)
        """
        rows = self._rows(times)
        n, M = self.n, grid.size
        half = n // 2 + 1
        period = min(M, half)  # per parity: lags 2m and 2(m + M) share a cosine
        width = -(-half // period) * period
        # Zero-padded 2x (2 is the weight of every lag but 0) and reversed x:
        # 2 x_{t+m} = ahead[width + t - 1 + m], x_{t-m} = behind[width + n - t + m],
        # both zero outside 1..n.
        pad = np.zeros(width)
        ahead = np.concatenate([pad, 2.0 * self.x, pad])
        behind = np.concatenate([pad, self.x[::-1], pad])
        if self._cosines[0] != M:
            lags = np.concatenate([np.arange(0, 2 * period, 2), np.arange(1, 2 * period, 2)])
            positive = grid.nodes[M // 2 :]
            self._cosines = M, [
                (col, np.cos(np.outer(lags, positive[col : col + GRID_BLOCK_NODES])))
                for col in range(0, M // 2, GRID_BLOCK_NODES)
            ]
        cos_blocks = self._cosines[1]
        chunk = min(GRID_CHUNK_ROWS, len(rows))
        even = np.empty((chunk, width))
        odd = np.empty((chunk, width))
        folded = np.empty((chunk, 2 * period))
        out = np.empty((len(rows), M))
        out_positive = out[:, M // 2 :]
        for start in range(0, len(rows), GRID_CHUNK_ROWS):
            ts = rows[start : start + GRID_CHUNK_ROWS].tolist()
            c = len(ts)
            # the periods that hold an admissible product of some row of the block
            f_even = -(-max(min(t, n + 1 - t) for t in ts) // period)
            f_odd = -(-max(min(t, n - t) for t in ts) // period)
            w_even, w_odd = f_even * period, f_odd * period
            for r, t in enumerate(ts):
                back = behind[width + n - t :]
                np.multiply(ahead[width + t - 1 : width + t - 1 + w_even], back[:w_even], out=even[r, :w_even])
                np.multiply(ahead[width + t : width + t + w_odd], back[:w_odd], out=odd[r, :w_odd])
                even[r, 0] = self.x[t - 1] * self.x[t - 1]
            np.sum(even[:c, :w_even].reshape(c, f_even, period), axis=1, out=folded[:c, :period])
            np.sum(odd[:c, :w_odd].reshape(c, f_odd, period), axis=1, out=folded[:c, period:])
            # one vector-matrix product per row and block: the BLAS kernel of a
            # matrix product, and so its rounding, changes with the number of rows
            for col, cos in cos_blocks:
                out_positive[start : start + c, col : col + GRID_BLOCK_NODES] = (folded[:c, None, :] @ cos)[:, 0]
        out[:, : M // 2] = out_positive[:, ::-1]
        return np.divide(out, 2 * np.pi, out=out)


def periodogram(series, lam):
    """Ordinary periodogram I(lam) = |sum_t x_t e^{-i lam t}|^2 / (2 pi n).

    Parameters
    ----------
    series : TimeSeries or array_like
    lam : FrequencyGrid or array_like
        Evaluation frequencies.
    """
    x = _series_values(series)
    nodes = lam.nodes if isinstance(lam, FrequencyGrid) else np.asarray(lam, dtype=float)
    n = len(x)
    t = np.arange(1, n + 1)
    dft = np.exp(-1j * np.outer(nodes, t)) @ x
    return np.abs(dft) ** 2 / (2 * np.pi * n)


class TestFunction:
    """Weight function phi(u, lam), given by its lag coefficients.

    Parameters
    ----------
    lag_fn : callable
        lag_fn(u, j) -> int phi(u, lam) e^{i lam j} dlam for integer j,
        vectorized over the array u.
    lag_support : int
        Smallest J >= 0 with lag_fn(u, j) = 0 for all |j| > J.  Required:
        every functional of the weight is a finite lag sum.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, lag_fn, lag_support):
        self._lag_fn = lag_fn
        self.lag_support = as_number(lag_support, "lag support", int, 0)

    def values(self, u, lam):
        """phi(u, lam) = (1/2 pi) sum_{|j|<=J} c_phi(u, j) cos(j lam), u and
        lam broadcast; the real weight that the lag coefficients fix."""
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(np.broadcast_shapes(u.shape, lam.shape))
        for j in range(-self.lag_support, self.lag_support + 1):
            out += self.lag(u, j) * np.cos(j * lam)
        return out / (2 * np.pi)

    def lag(self, u, j):
        """Lag coefficient c_phi(u, j), unnormalized convention."""
        u = np.asarray(u, dtype=float)
        if abs(int(j)) > self.lag_support:
            return np.zeros(u.shape)
        return np.asarray(self._lag_fn(u, int(j)), dtype=float)

    def __repr__(self):
        return f"TestFunction(lag_support={self.lag_support})"


def constant_weight(value=1.0):
    """phi(u, lam) = value; single lag coefficient 2 pi value at j = 0."""
    value = as_number(value, "weight value", float)

    def lag_fn(u, j):
        return np.full(np.shape(u), 2 * np.pi * value if j == 0 else 0.0)

    return TestFunction(lag_fn, lag_support=0)


def lag_curve_weight(curves):
    """Weight built from real, even-in-lag coefficient curves.

    Parameters
    ----------
    curves : dict
        Maps nonnegative lag j to a Curve (or constant) giving the lag
        coefficient c_phi(u, j); negative lags mirror the positive ones.
        The weight is phi(u, lam) = (1/2 pi) sum_j c_phi(u, j) e^{-i lam j},
        real and even in lam.
    """
    table = {}
    for j, c in curves.items():
        # nonnegative lags only; negatives mirror
        table[as_number(j, "lag", int, 0)] = _as_curve(c)
    if not table:
        raise ValueError("need at least one lag coefficient curve")
    support = max(table)

    def lag_fn(u, j):
        c = table.get(abs(int(j)))
        if c is None:
            return np.zeros(np.shape(u))
        return c.values(np.asarray(u, float))

    return TestFunction(lag_fn, lag_support=support)


def ar_inverse_weight(model, scale=1.0):
    """Inverse-spectrum weight of an AR model: phi = scale / f.

    With scale = 1 this is 2 pi |1 + sum alpha_j(u) e^{i lam j}|^2 / sigma^2(u),
    the weight whose spectral functional drives the quasi-likelihood; with
    scale = 1/(2 pi) it is the normalized version |...|^2 / sigma^2.  Lag
    support equals the model order.
    """
    scale = as_number(scale, "weight scale", float)

    def lag_fn(u, j):
        # TestFunction.lag passes u as an array and only the lags |j| <= p
        return scale * (4 * np.pi ** 2) * coeff_autocorr(model, u, j) / model.sigma2.values(u)

    return TestFunction(lag_fn, lag_support=model.p)


def quadratic_form_matrix(phi, n):
    """Dense kernel matrix with entries c_phi(floor((r+s)/2)/n, r-s).

    For 1-based indices r, s in 1..n.  It represents the spectral functional
    as a quadratic form: mean-over-t of int phi J dlam equals
    x' M x / (2 pi n).  Requires n <= 4096.
    """
    n = as_number(n, "n", int, 1)
    if n > MAX_DENSE_N:
        raise ResourceLimitError(f"dense kernel capped at n = {MAX_DENSE_N}")
    U = np.zeros((n, n))
    K = min(phi.lag_support, n - 1)
    for d in range(-K, K + 1):
        r = np.arange(max(1, 1 + d), min(n, n + d) + 1)
        s = r - d
        mids = (r + s) // 2
        U[r - 1, s - 1] = phi.lag(mids / n, d)
    return U


def spectral_functional(series, phi, path="lag", grid=None):
    """Empirical spectral functional mean_t int phi(t/n, lam) J(t/n, lam) dlam.

    Three algebraically equivalent computation paths are provided so they can
    be cross-checked:

    - "lag": exact lag-product sum using the weight's lag coefficients;
    - "quadrature": frequency-grid Riemann sum against the pre-periodogram
      (grid argument required), formed GRID_CHUNK_ROWS rows at a time so
      that memory is O(GRID_CHUNK_ROWS grid.size) besides the grid's own
      cosine blocks;
    - "matrix": quadratic form x' M x / (2 pi n) with the dense kernel.

    Parameters
    ----------
    series : TimeSeries or array_like
    phi : TestFunction
    path : {"lag", "quadrature", "matrix"}
    grid : FrequencyGrid, required for the quadrature path

    Returns
    -------
    float
    """
    x = _series_values(series)
    n = len(x)

    if path == "lag":
        return float(_lag_functionals(x[None, :], phi)[0])

    if path == "quadrature":
        if grid is None:
            raise ValueError("quadrature path requires an explicit FrequencyGrid")
        pre = PrePeriodogram(x)
        total = 0.0
        for start in range(1, n + 1, GRID_CHUNK_ROWS):
            t = np.arange(start, min(start + GRID_CHUNK_ROWS, n + 1))
            block = pre.evaluate_grid(grid, times=t)
            total += float(np.sum(phi.values(t[:, None] / n, grid.nodes[None, :]) * block))
        return total * grid.weight / n

    if path == "matrix":
        U = quadratic_form_matrix(phi, n)
        return float(x @ U @ x) / (2 * np.pi * n)

    raise ValueError(f"unknown path {path!r}")


def _lag_functionals(X, phi):
    """The lag path of :func:`spectral_functional` for every row of X.

    sum_k sum_t c_phi(t/n, -k) P_k(t) / (2 pi n), with the weights of each
    lag built once for all rows.  Each row's products are a fresh array
    dotted on its own, as for a single series: OpenBLAS's ddot can round
    differently on row views of one product matrix, and every row must equal
    the single-series value bit for bit.
    """
    R, n = X.shape
    acc = np.zeros(R)
    K = min(phi.lag_support, n - 1)
    for k in range(-K, K + 1):
        t, i, j = _lag_index(n, k)
        w = phi.lag(t / n, -k)
        for r, x in enumerate(X):
            acc[r] += float(np.dot(w, x[i] * x[j]))
    return acc / (2 * np.pi * n)


def spectral_functional_limit(phi, f):
    """Population functional int_0^1 int phi(u, lam) f(u, lam) dlam du.

    The frequency integral is exact by Parseval:
    (1/2 pi) sum_{|j|<=J} c_phi(u, j) c_f(u, j) over the lag support J of phi,
    with the local autocovariances c_f of :func:`~locstat.process.ar_autocov`;
    the time integral is the midpoint rule of TIME_CELLS cells.

    Parameters
    ----------
    phi : TestFunction
    f : TvARModel
    """
    model = _as_model(f)
    u = _time_grid(TIME_CELLS)
    J = phi.lag_support
    cov = ar_autocov(model, u, J)
    total = sum(phi.lag(u, j) * cov[:, abs(j)] for j in range(-J, J + 1))
    return float(np.mean(total) / (2 * np.pi))


class NormReport:
    """Norm summary of a weight function.

    Attributes
    ----------
    l2 : float
        L2 norm of phi on (0,1] x [-pi, pi].
    l2_discrete : float
        Same with the time integral replaced by the mean over t/n.
    lag_sup_sum : float
        Sum over lags of the sup over time of |c_phi(u, j)|.
    variation_sup : float
        Sup over lags of the total variation of c_phi(., j).
    variation_sum : float
        Sum over lags of the same total variations.
    """

    def __init__(self, l2, l2_discrete, lag_sup_sum, variation_sup, variation_sum):
        self.l2 = float(l2)
        self.l2_discrete = float(l2_discrete)
        self.lag_sup_sum = float(lag_sup_sum)
        self.variation_sup = float(variation_sup)
        self.variation_sum = float(variation_sum)

    def __repr__(self):
        return (
            f"NormReport(l2={self.l2:.6g}, l2_discrete={self.l2_discrete:.6g}, "
            f"lag_sup_sum={self.lag_sup_sum:.6g}, variation_sup={self.variation_sup:.6g}, "
            f"variation_sum={self.variation_sum:.6g})"
        )


def weight_norms(phi, n):
    """Compute the NormReport of a weight.

    Sups and total variations are taken over the union of a uniform
    VARIATION_GRID-point grid and the design points t/n, so every value that
    enters the dense kernel for this n is covered.  L2 norms use the lag-space
    Parseval identity int phi(u,.)^2 dlam = (1/2 pi) sum_j c_phi(u, j)^2, the
    time integral a midpoint rule with VARIATION_GRID cells.

    Parameters
    ----------
    phi : TestFunction
    n : int
        Sample size whose design points are included in the sup grids.
    """
    n = as_number(n, "n", int, 1)
    J = phi.lag_support
    sup_grid = np.union1d(np.arange(1, VARIATION_GRID + 1) / VARIATION_GRID, np.arange(1, n + 1) / n)
    mid_grid = _time_grid(VARIATION_GRID)
    design = np.arange(1, n + 1) / n

    sq_mid = np.zeros(mid_grid.shape)
    sq_design = np.zeros(design.shape)
    lag_sup_sum = 0.0
    variation_sup = 0.0
    variation_sum = 0.0
    for j in range(-J, J + 1):
        on_sup = phi.lag(sup_grid, j)
        lag_sup_sum += float(np.max(np.abs(on_sup)))
        tv = float(np.sum(np.abs(np.diff(on_sup))))
        variation_sup = max(variation_sup, tv)
        variation_sum += tv
        sq_mid += phi.lag(mid_grid, j) ** 2
        sq_design += phi.lag(design, j) ** 2

    l2 = np.sqrt(np.mean(sq_mid) / (2 * np.pi))
    l2_discrete = np.sqrt(np.mean(sq_design) / (2 * np.pi))
    return NormReport(l2, l2_discrete, lag_sup_sum, variation_sup, variation_sum)
