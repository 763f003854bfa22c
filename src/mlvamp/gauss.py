"""Stable scalar-Gaussian primitives shared by the denoisers and the SE recursion.

Everything here is vectorized over numpy arrays and safe in the far tails
(ratios go through erfcx, masses through log_ndtr).
"""
from functools import lru_cache

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_LOG_2PI = np.log(2.0 * np.pi)


def any_true(mask):
    """np.any(mask) for a per-trial array, plain truth for a scalar: the
    guards run on every denoise, where np.any's wrapper would cost more
    than the test."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def log_norm_pdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(var) + _LOG_2PI)


def phi_over_ndtr(t):
    """phi(t) / Phi(t), stable for t << 0 (inverse Mills ratio of the lower tail)."""
    return _SQRT_2_OVER_PI / special.erfcx(-np.asarray(t, dtype=float) / _SQRT2)


def phi_over_survival(t):
    """phi(t) / (1 - Phi(t)), stable for t >> 0."""
    return _SQRT_2_OVER_PI / special.erfcx(np.asarray(t, dtype=float) / _SQRT2)


def truncnorm_upper_moments(mu, sigma, bound=0.0):
    """Mean and variance of N(mu, sigma^2) conditioned on X < bound."""
    beta = (bound - mu) / sigma
    h = phi_over_ndtr(beta)
    mean = mu - sigma * h
    var = sigma**2 * np.maximum(1.0 - beta * h - h * h, 0.0)
    return mean, var


def truncnorm_lower_moments(mu, sigma, bound=0.0):
    """Mean and variance of N(mu, sigma^2) conditioned on X > bound."""
    alpha = (bound - mu) / sigma
    g = phi_over_survival(alpha)
    mean = mu + sigma * g
    var = sigma**2 * np.maximum(1.0 + alpha * g - g * g, 0.0)
    return mean, var


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


