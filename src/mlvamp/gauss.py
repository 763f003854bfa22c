"""Stable scalar-Gaussian primitives shared by the denoisers and the SE recursion.

Everything here is vectorized over numpy arrays and safe in the far tails
(masses and Mills ratios go through erfcx).
"""
from functools import lru_cache

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# exp_cut returns exactly 0 below this argument.  e^-690 ~ 2e-300 is 1e8
# times the smallest normal double (2.2e-308), so the values that
# log_ndtr_mills and the relu branch weights build from it, by factors
# above 1e-2, stay normal.
EXP_CUT = -690.0


def any_true(mask):
    """np.any(mask) for a per-trial array, plain truth for a scalar: the
    guards run on every denoise, where np.any's wrapper would cost more
    than the test."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def exp_cut(a):
    """exp(a), or exactly 0 where a < EXP_CUT.

    An np.exp that underflows to 0 cost about 20 times a normal one, and
    one with a subnormal result over 100 times (BENCH_17.json).  The cut
    changes a value by less than e^EXP_CUT ~ 2e-300 in absolute terms, and
    only where exp(a) is already below that.  A NaN stays NaN."""
    q = np.exp(np.maximum(a, EXP_CUT))
    q *= a >= EXP_CUT
    return q


def log_ndtr_mills(x):
    """(log Phi(x), phi(x) / Phi(x)) from one erfcx evaluation per element.

    With e = erfcx(|x|/sqrt(2)) and q = exp(-x^2/2), Phi(-|x|) = e q / 2.
    For x <= 0 that is Phi(x) itself, taken in logs (log(e/2) - x^2/2) so
    that neither factor underflows, and phi/Phi = sqrt(2/pi)/e.  For x > 0
    it is the upper tail, so log Phi(x) = log1p(-e q / 2) and
    phi/Phi = q / (sqrt(2 pi) (1 - e q / 2)), both to full precision.

    q comes from exp_cut, so for x > sqrt(-2 EXP_CUT) ~ 37.1, where both
    results are below e^EXP_CUT ~ 2e-300, they are returned as exactly 0,
    and no result is subnormal.  The x <= 0 branch does not read q.
    """
    x = np.asarray(x, dtype=float)
    e = special.erfcx(np.abs(x) / _SQRT2)
    half_sq = 0.5 * x * x
    q = exp_cut(-half_sq)
    upper = 0.5 * e * q
    pos = x > 0
    log_cdf = np.where(pos, np.log1p(-upper), np.log(0.5 * e) - half_sq)
    mills = np.where(pos, _INV_SQRT_2PI * q / (1.0 - upper), _SQRT_2_OVER_PI / e)
    return log_cdf, mills


def relu_gauss_moments(mu, var):
    """First and second moments of max(0, Z) for Z ~ N(mu, var)."""
    sigma = np.sqrt(var)
    t = mu / sigma
    cdf = special.ndtr(t)
    pdf = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    m1 = mu * cdf + sigma * pdf
    m2 = (mu * mu + var) * cdf + mu * sigma * pdf
    return m1, np.maximum(m2, 0.0)


@lru_cache(maxsize=32)
def gh_nodes(n):
    """Gauss-Hermite nodes/weights in probabilists' form: E[f(Z)] ~ sum w f(x), Z ~ N(0,1)."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return x, w / np.sqrt(2.0 * np.pi)


@lru_cache(maxsize=32)
def gl_nodes_unit(n):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


