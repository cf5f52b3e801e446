"""Nonparametric spectral estimation for locally stationary time series.

The package simulates Gaussian processes with time-varying autoregressive
structure, evaluates quasi-likelihood contrasts built from the
pre-periodogram, and fits models whose innovation variance is a monotone
step function, with Monte Carlo harnesses that check the supporting
identities, tail bounds, and convergence rates.

Sign convention (read this first): an order-p model here satisfies

    x[t] + alpha_1(t/n) x[t-1] + ... + alpha_p(t/n) x[t-p] = sigma(t/n) e[t],

coefficients on the LEFT of the equation, so simulation subtracts the
coefficient sum.  Most AR toolkits put the coefficients on the right;
negate when converting.
"""

from . import curves, espec, estimator, harness, isotonic, likelihood, process, spectral
from .curves import *
from .process import *
from .spectral import *
from .likelihood import *
from .isotonic import *
from .estimator import *
from .espec import *
from .harness import *

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package exports exactly those
__all__ = [
    "__version__",
    *curves.__all__,
    *process.__all__,
    *spectral.__all__,
    *likelihood.__all__,
    *isotonic.__all__,
    *estimator.__all__,
    *espec.__all__,
    *harness.__all__,
]
