"""Componentwise MMSE denoisers for the nonlinear stages and the input prior.

A nonlinear stage couples a scalar input z_in to an output z_out = phi(z_in, xi)
through an activation phi and optional additive Gaussian noise xi.  Given
Gaussian pseudo-observations r_plus (on z_in, precision gamma_plus) and
r_minus (on z_out, precision gamma_minus), the posterior factorizes
componentwise and we need its first two moments on both sides.

For the supported activations (relu, identity) the moments have closed forms
built from truncated Gaussians.
An output observed through channel noise is the middle case of the
noiseless channel with r_minus = y and gamma_minus = 1/noise_var.

The precisions are scalars, or (T, 1) columns for a batch of T observations
whose r arrays are (T, N); each row then gets what the call with its own
scalar precisions returns.
"""
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ObservationError
from .gauss import (
    any_true,
    log_norm_pdf,
    truncnorm_lower_moments,
    truncnorm_upper_moments,
)

VAR_FLOOR = 1e-15

SUPPORTED_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class ScalarChannel:
    """Scalar map z_out = phi(z_in) + noise with i.i.d. Gaussian noise.

    ``noise_var == 0`` means the stage is deterministic.  The sigmoid/probit
    output channel is reserved and not implemented.
    """

    activation: str = "relu"
    noise_var: float = 0.0

    def __post_init__(self):
        if self.activation not in SUPPORTED_ACTIVATIONS:
            raise NotImplementedError(
                f"activation {self.activation!r} not supported "
                f"(supported: {SUPPORTED_ACTIVATIONS})"
            )
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")

    def apply(self, z, xi=None):
        out = np.maximum(z, 0.0) if self.activation == "relu" else np.asarray(z, float)
        if xi is not None:
            out = out + xi
        return out


@dataclass
class DenoiseResult:
    """Componentwise posterior moments on both sides of a stage."""

    mean_in: np.ndarray
    mean_out: np.ndarray
    var_in: np.ndarray
    var_out: np.ndarray


def _floor(v):
    return np.maximum(v, VAR_FLOOR)


def _relu_branch_weights(r_plus, gamma_plus, r_minus, v_obs):
    """Log masses of the z_in < 0 / z_in > 0 branches and the positive-branch
    Gaussian parameters, for obs model r_minus ~ N(relu(z_in), v_obs).

    ``v_obs = inf`` (everywhere, or in some rows of a batch) drops the output
    observation entirely.
    """
    vp = 1.0 / gamma_plus
    sp = np.sqrt(vp)
    drop = np.isinf(v_obs)
    if not any_true(~drop):
        log_w_neg = special.log_ndtr(-r_plus / sp)
        log_w_pos = special.log_ndtr(r_plus / sp)
        m_t = np.asarray(r_plus, float)
        v_t = np.broadcast_to(np.asarray(vp, float), np.shape(m_t))
        return log_w_neg, log_w_pos, m_t, v_t
    mixed = any_true(drop)
    if mixed:   # rows without an output message: replaced below
        v_obs = np.where(drop, 1.0, v_obs)
    vs = v_obs + vp
    m_t = (v_obs * r_plus + vp * r_minus) / vs
    v_t = v_obs * vp / vs
    log_w_neg = log_norm_pdf(r_minus, 0.0, v_obs) + special.log_ndtr(-r_plus / sp)
    log_w_pos = log_norm_pdf(r_minus, r_plus, vs) + special.log_ndtr(m_t / np.sqrt(v_t))
    out = (log_w_neg, log_w_pos, m_t, np.broadcast_to(np.asarray(v_t, float), np.shape(m_t)))
    if mixed:
        dropped = _relu_branch_weights(r_plus, gamma_plus, r_minus, np.inf)
        out = tuple(np.where(drop, a, b) for a, b in zip(dropped, out))
    return out


def _mix(w_a, m_a, v_a, w_b, m_b, v_b):
    """Moments of a two-component mixture, safe when a weight underflows to 0."""
    m_a = np.where(w_a > 0, m_a, 0.0)
    v_a = np.where(w_a > 0, v_a, 0.0)
    m_b = np.where(w_b > 0, m_b, 0.0)
    v_b = np.where(w_b > 0, v_b, 0.0)
    mean = w_a * m_a + w_b * m_b
    ex2 = w_a * (v_a + m_a**2) + w_b * (v_b + m_b**2)
    return mean, np.maximum(ex2 - mean**2, 0.0)


def _obs_variance(gamma_minus, noise_var):
    """Variance of r_minus about z_out's noiseless value; inf where
    gamma_minus = 0 drops the pseudo-observation."""
    gm = np.asarray(gamma_minus, dtype=float)
    return np.divide(1.0, gm, out=np.full_like(gm, np.inf), where=gm > 0) + noise_var


def _noisy_output_terms(r_minus, gamma_minus, noise_var):
    """(c0, a, v_c) with z_out | z_in ~ N(c0 + a z_in, v_c): the channel noise
    combined with the gamma_minus pseudo-observation r_minus."""
    gm = np.maximum(gamma_minus, 0.0)
    v_c = 1.0 / (gm + 1.0 / noise_var)
    return v_c * gm * r_minus, v_c / noise_var, v_c


def _relu_posterior(r_plus, r_minus, gamma_plus, gamma_minus, noise_var):
    """Closed-form posterior moments for the relu channel, with r_minus a
    pseudo-observation of z_out with precision gamma_minus."""
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    v_obs = _obs_variance(gamma_minus, noise_var)

    log_w_neg, log_w_pos, m_t, v_t = _relu_branch_weights(
        r_plus, gamma_plus, r_minus, v_obs)
    log_norm = np.logaddexp(log_w_neg, log_w_pos)
    if np.any(np.isneginf(log_norm)):
        raise ObservationError(
            "posterior mass underflows to zero (inconsistent observation)",
            context={"r_plus": r_plus, "r_minus": r_minus},
        )
    with np.errstate(under="ignore"):
        w_neg = np.exp(log_w_neg - log_norm)
        w_pos = np.exp(log_w_pos - log_norm)

    sp = np.sqrt(1.0 / gamma_plus)
    m_neg, v_neg = truncnorm_upper_moments(r_plus, sp, 0.0)
    m_pos, v_pos = truncnorm_lower_moments(m_t, np.sqrt(v_t), 0.0)
    mean_in, var_in = _mix(w_neg, m_neg, v_neg, w_pos, m_pos, v_pos)

    if noise_var == 0.0:
        mean_out, var_out = _mix(w_neg, 0.0 * m_pos, 0.0 * v_pos, w_pos, m_pos, v_pos)
    else:
        c0, a, v_c = _noisy_output_terms(r_minus, gamma_minus, noise_var)
        mean_out, var_out = _mix(
            w_neg, c0, np.full_like(m_t, v_c),
            w_pos, c0 + a * m_pos, a * a * v_pos + v_c,
        )
    return mean_in, _floor(var_in), mean_out, _floor(var_out)


def _identity_posterior(r_plus, r_minus, gamma_plus, gamma_minus, noise_var):
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    v_obs = _obs_variance(gamma_minus, noise_var)
    drop = np.isinf(v_obs)
    g_eff = 1.0 / v_obs                  # 0 where dropped
    prior = r_plus + 0.0 * r_minus
    var_in = np.full_like(prior, np.where(drop, 1.0 / gamma_plus,
                                          1.0 / (gamma_plus + g_eff)))
    mean_in = np.where(drop, prior, (gamma_plus * r_plus + g_eff * r_minus) * var_in)

    if noise_var == 0.0:
        return mean_in, _floor(var_in), mean_in.copy(), _floor(var_in.copy())
    c0, a, v_c = _noisy_output_terms(r_minus, gamma_minus, noise_var)
    mean_out = c0 + a * mean_in
    var_out = a * a * var_in + v_c
    return mean_in, _floor(var_in), mean_out, _floor(var_out)


def denoise_middle(ch, r_plus, r_minus, gamma_plus, gamma_minus):
    """Posterior moments of (z_in, z_out) under the belief of a middle stage.

    gamma_minus = 0 is allowed and drops the output pseudo-observation
    (iteration-0 initialization).
    """
    if any_true(gamma_plus <= 0) or any_true(~np.isfinite(gamma_plus)):
        raise ValueError("gamma_plus must be positive and finite")
    if any_true(gamma_minus < 0):
        raise ValueError("gamma_minus must be >= 0")
    if ch.activation == "relu":
        mi, vi, mo, vo = _relu_posterior(r_plus, r_minus, gamma_plus,
                                         gamma_minus, ch.noise_var)
    else:
        mi, vi, mo, vo = _identity_posterior(r_plus, r_minus, gamma_plus,
                                             gamma_minus, ch.noise_var)
    return DenoiseResult(mi, mo, vi, vo)


def denoise_input(r_minus, gamma_minus):
    """Posterior (mean, var) of the standard-Gaussian input layer.

    Conjugate update of the N(0, 1) prior with a pseudo-observation of
    precision gamma_minus; gamma_minus = 0 returns the prior.
    """
    if any_true(gamma_minus < 0):
        raise ValueError("gamma_minus must be >= 0")
    r_minus = np.asarray(r_minus, dtype=float)
    var = 1.0 / (1.0 + gamma_minus)
    return gamma_minus * r_minus * var, var


def denoise_output_nonlinear(ch, y, r_plus, gamma_plus):
    """Posterior (mean_in, var_in) of z_{L-1} when z_L = y is observed
    through a nonlinear channel (see the module docstring)."""
    if any_true(gamma_plus <= 0):
        raise ValueError("gamma_plus must be positive")
    y = np.asarray(y, dtype=float)
    r_plus = np.asarray(r_plus, dtype=float)
    if ch.noise_var > 0:
        res = denoise_middle(ScalarChannel(ch.activation), r_plus, y, gamma_plus,
                             1.0 / ch.noise_var)
        return res.mean_in, res.var_in
    # Deterministic channels (gamma- = inf, which has no middle form): the
    # observation pins the input (identity) or pins/truncates it (relu).
    if ch.activation == "identity":
        return y.copy(), np.full_like(y, VAR_FLOOR)
    if np.any(y < 0):
        raise ObservationError("y < 0 is impossible under a deterministic relu channel",
                               context={"y": y})
    sp = np.sqrt(1.0 / gamma_plus)
    m_trunc, v_trunc = truncnorm_upper_moments(r_plus, sp, 0.0)
    mean = np.where(y > 0, y, m_trunc)
    var = np.where(y > 0, VAR_FLOOR, v_trunc)
    return mean, _floor(var)
