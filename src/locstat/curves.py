"""Parameter curves on rescaled time.

Every time-varying quantity in this package (AR coefficients, innovation
variances) is a function of rescaled time u in (0, 1].  The curve classes here
share a single interface: ``values(u)`` evaluates the curve at an array of
rescaled times and raises ``ValueError`` outside the domain.
"""

import math

import numpy as np

__all__ = [
    "Curve",
    "ConstantCurve",
    "FourierCurve",
    "SampledCurve",
    "MonotoneStepCurve",
    "curve_to_spec",
    "curve_from_spec",
    "check_spec_keys",
    "as_number",
    "as_numbers",
]

# the keys curve_to_spec writes for each curve type
SPEC_KEYS = {
    "constant": ("type", "value"),
    "fourier": ("type", "a0", "a", "b"),
    "monotone_step": ("type", "values", "eps"),
    "sampled": ("type", "values"),
}
SPEC_REQUIRED = {"constant": ("value",), "fourier": (), "monotone_step": ("values", "eps"), "sampled": ("values",)}


def _as_unit_time(u):
    u = np.asarray(u, dtype=float)
    if u.size and (np.min(u) <= 0.0 or np.max(u) > 1.0):
        raise ValueError("rescaled time must lie in (0, 1]")
    if u.size and not np.all(np.isfinite(u)):
        raise ValueError("rescaled time must be finite")
    return u


def _step_index(u, k):
    # cell j covers ((j-1)/k, j/k]; the nudge keeps exactly representable
    # boundaries u = j/k inside cell j despite float rounding
    idx = np.ceil(u * k - 1e-9).astype(int)
    return np.clip(idx, 1, k)


class Curve:
    """A real-valued function of rescaled time u in (0, 1]."""

    def values(self, u):
        raise NotImplementedError


class ConstantCurve(Curve):
    """Curve that takes a single value everywhere."""

    def __init__(self, value):
        self.value = as_number(value, "curve value", float)

    def values(self, u):
        u = _as_unit_time(u)
        return np.full(u.shape, self.value)

    def __repr__(self):
        return f"ConstantCurve({self.value!r})"


class FourierCurve(Curve):
    """Low-order trigonometric polynomial in rescaled time.

    Evaluates a0 + sum_j a_j cos(2 pi j u) + b_j sin(2 pi j u).

    Parameters
    ----------
    a0 : float
        Constant term.
    a, b : sequences of float
        Cosine and sine coefficients for j = 1, ..., order.  The shorter list
        is zero-padded.
    """

    def __init__(self, a0, a=(), b=()):
        self.a0 = as_number(a0, "a0", float)
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.a.ndim != 1 or self.b.ndim != 1:
            raise ValueError("coefficient lists must be one-dimensional")
        width = max(len(self.a), len(self.b))
        self.a = np.pad(self.a, (0, width - len(self.a)))
        self.b = np.pad(self.b, (0, width - len(self.b)))
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("curve coefficients must be finite")

    @property
    def order(self):
        return len(self.a)

    def values(self, u):
        u = _as_unit_time(u)
        out = np.full(u.shape, self.a0)
        for j in range(1, self.order + 1):
            out = out + self.a[j - 1] * np.cos(2 * np.pi * j * u)
            out = out + self.b[j - 1] * np.sin(2 * np.pi * j * u)
        return out

    def __repr__(self):
        return f"FourierCurve({self.a0!r}, a={self.a.tolist()!r}, b={self.b.tolist()!r})"


class SampledCurve(Curve):
    """Piecewise-constant curve from m samples.

    Sample i (1-based) is the value on ((i-1)/m, i/m], so the curve is
    right-continuous at the cell boundaries and total on (0, 1].
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("need a nonempty 1-d array of samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve samples must be finite")
        self.samples = v

    def values(self, u):
        u = _as_unit_time(u)
        idx = _step_index(u, len(self.samples))
        return self.samples[idx - 1]

    def __repr__(self):
        return f"SampledCurve({self.samples.tolist()!r})"


class MonotoneStepCurve(SampledCurve):
    """Sampled curve whose samples are nondecreasing and bounded.

    The samples, or knot values, must be nondecreasing and lie in
    [eps^2, 1/eps^2]; knot j (1-based, j = 1..k) is the value on
    ((j-1)/k, j/k].  This is the shape produced by the sieve variance
    estimator.

    Parameters
    ----------
    values : sequence of float
        Knot values, nondecreasing.
    eps : float
        Bound parameter in (0, 1); lower bound eps^2, upper bound 1/eps^2.
    """

    def __init__(self, values, eps):
        self.eps = _check_eps(eps)
        super().__init__(values)
        v = self.samples
        if np.any(np.diff(v) < 0):
            raise ValueError("knot values must be nondecreasing")
        slack = 1e-12 * max(1.0, self.upper)
        if v[0] < self.lower - slack or v[-1] > self.upper + slack:
            raise ValueError("knot values must lie within [eps^2, 1/eps^2]")

    @property
    def knot_values(self):
        """The samples, read-only as an attribute."""
        return self.samples

    @property
    def knots(self):
        return len(self.samples)

    @property
    def lower(self):
        return self.eps ** 2

    @property
    def upper(self):
        return 1.0 / self.eps ** 2

    def __repr__(self):
        return f"MonotoneStepCurve({self.samples.tolist()!r}, eps={self.eps!r})"


def curve_to_spec(curve):
    """Serialize a curve to a JSON-compatible dict."""
    if isinstance(curve, ConstantCurve):
        return {"type": "constant", "value": curve.value}
    if isinstance(curve, FourierCurve):
        return {"type": "fourier", "a0": curve.a0, "a": curve.a.tolist(), "b": curve.b.tolist()}
    # a MonotoneStepCurve is a SampledCurve, so it is tested first
    if isinstance(curve, MonotoneStepCurve):
        return {"type": "monotone_step", "values": curve.samples.tolist(), "eps": curve.eps}
    if isinstance(curve, SampledCurve):
        return {"type": "sampled", "values": curve.samples.tolist()}
    raise ValueError(f"cannot serialize curve of type {type(curve).__name__}")


def check_spec_keys(spec, allowed, what, required=()):
    """Raise ValueError naming the keys of the dict spec outside allowed, or
    the keys of required that it lacks."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(unknown)}; allowed: {', '.join(allowed)}")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"{what} lacks required key(s) {', '.join(missing)}")


def as_number(value, name, kind=int, minimum=None):
    """value converted by kind (int or float) for the parameter called name.

    Raises ValueError naming the parameter and the value where kind rejects
    it or it is a boolean (null, true, a list, an object, a non-numeric
    string), where an int would drop a fraction or a float is not finite,
    and where the number lies below minimum.
    """
    try:
        number = kind(value)
        exact = math.isfinite(number) and float(number) == float(value) and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return number


def _check_eps(eps):
    """eps as a float, checked as the parameter of the bounds [eps^2, 1/eps^2]:
    0 < eps < 1, with eps^2 > 0 and 1/eps^2 finite."""
    eps = as_number(eps, "eps", float)
    if not (0.0 < eps < 1.0 and eps ** 2 > 0.0 and math.isfinite(1.0 / eps ** 2)):
        raise ValueError(f"eps must lie in (0, 1) with eps^2 > 0 and 1/eps^2 finite, got {eps!r}")
    return eps


def _as_curve(c):
    """c itself if it is a Curve, else the ConstantCurve of the number c."""
    return c if isinstance(c, Curve) else ConstantCurve(c)


def as_numbers(values, name, kind=int, minimum=None):
    """Nonempty tuple of the entries of the list values, each converted by
    :func:`as_number`; raises ValueError when values is not a list (a string,
    an object or a single number) or is empty."""
    if isinstance(values, (str, dict)) or not hasattr(values, "__iter__"):
        raise ValueError(f"{name} must be a list, got {values!r}")
    numbers = tuple(as_number(v, f"{name} entry", kind, minimum) for v in values)
    if not numbers:
        raise ValueError(f"{name} must not be empty")
    return numbers


def _coefficients(values, name):
    # an order-0 Fourier curve writes empty coefficient lists, which as_numbers refuses
    if isinstance(values, (list, tuple)) and not values:
        return ()
    return as_numbers(values, name, float)


def curve_from_spec(spec):
    """Deserialize a curve from the dict produced by :func:`curve_to_spec`.

    Raises ValueError on a key that curve_to_spec does not write for the type
    and on a missing key that the type needs.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("curve spec must be a dict with a 'type' key")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in SPEC_KEYS:
        raise ValueError(f"unknown curve type {kind!r}")
    check_spec_keys(spec, SPEC_KEYS[kind], f"{kind} curve", SPEC_REQUIRED[kind])
    if kind == "constant":
        return ConstantCurve(spec["value"])
    # the array fields are checked here, at the spec boundary, so that the
    # constructors keep their ndarray path (the fit builds a MonotoneStepCurve
    # on every iteration)
    if kind == "fourier":
        a, b = (_coefficients(spec.get(key, []), f"fourier curve {key}") for key in ("a", "b"))
        return FourierCurve(spec.get("a0", 0.0), a, b)
    values = as_numbers(spec["values"], f"{kind} curve values", float)
    if kind == "monotone_step":
        return MonotoneStepCurve(values, spec["eps"])
    return SampledCurve(values)
