"""Componentwise MMSE denoisers for the nonlinear stages and the input prior.

A nonlinear stage (``network.NonlinearStage``) couples a scalar input z_in to
an output z_out = phi(z_in) + xi through its activation phi and optional
additive Gaussian noise xi of variance ``noise_var``; the denoisers take the
stage itself and read only those two fields.  Given Gaussian
pseudo-observations r_plus (on z_in, precision gamma_plus) and r_minus (on
z_out, precision gamma_minus), the posterior factorizes componentwise and
we need its first two moments on both sides.

For the supported activations (relu, identity) the moments have closed forms
built from truncated Gaussians.
An output observed through channel noise is the middle case of the
noiseless stage with r_minus = y and gamma_minus = 1/noise_var.

The precisions are scalars, or (T, 1) columns for a batch of T observations
whose r arrays are (T, N); each row then gets what the call with its own
scalar precisions returns.  A gamma_minus column is 0 in every row or in
none: the engine starts every trial without an output message and gives
them all one in the same update.
"""
from dataclasses import dataclass

import numpy as np

from .errors import ObservationError
from .gauss import any_true, exp_cut, log_ndtr_mills
from .network import observed_as_middle

VAR_FLOOR = 1e-15
# Below TAIL_X, _truncated_moments takes its factors from a continued fraction
# of TAIL_TERMS terms, exact to rounding there; above it the direct forms lose
# at most 2 eps x^4 (4.4e-8) in the variance and eps x^2 in the mean.  Over a
# third of the engine's elements sit below x = -10, and down to x = -38, where
# a branch's mass exp(-x^2 / 2) underflows, their weights are tiny but not 0:
# a cutoff nearer 0 would put the fraction on most relu calls.
TAIL_X = -100.0
TAIL_TERMS = 4

@dataclass
class DenoiseResult:
    """Componentwise posterior moments on both sides of a stage (None on a
    side that was not asked for)."""

    mean_in: np.ndarray
    mean_out: np.ndarray
    var_in: np.ndarray
    var_out: np.ndarray


def _floor(v):
    return np.maximum(v, VAR_FLOOR)


def _through_noise(mean, var, r_minus, gamma_minus, noise_var):
    """Moments of z_out given those of its noiseless value f: z_out | f is
    N(c0 + a f, v_c), the channel noise combined with the gamma_minus
    pseudo-observation r_minus."""
    if noise_var == 0.0:
        return mean, var
    gm = np.maximum(gamma_minus, 0.0)
    v_c = 1.0 / (gm + 1.0 / noise_var)
    a = v_c / noise_var
    return v_c * gm * r_minus + a * mean, a * a * var + v_c


def _mills_tail(t):
    """(h - t, 1 + t h - h^2) for h = phi(t) / Phi(-t) at t > -TAIL_X, from
    Laplace's continued fraction h = t + 1/(t + 2/(t + 3/(t + ...))): with d
    the fraction from its second term, h - t = c = 1/(t + d) and
    1 + t h - h^2 = 1 - c (t + c) = (d - c) / (t + d), free of cancellation.
    The fraction is cut after K = TAIL_TERMS terms and the rest estimated as
    (K + 1) / (t + (K + 2) / t)."""
    d = (TAIL_TERMS + 1) / (t + (TAIL_TERMS + 2) / t)
    for k in range(TAIL_TERMS, 1, -1):
        np.add(t, d, out=d)
        np.divide(k, d, out=d)
    c = 1.0 / (t + d)
    return c, (d - c) / (t + d)


def _truncated_moments(sd, var, x, mills, weight):
    """Mean and variance of N(mu, var) on the half line z / sd > 0, where
    sd = +-sqrt(var) (a negative sd keeps z < 0), x = mu / sd and mills is
    h = phi(x) / Phi(x): sd (x + h) and var (1 - h (x + h)).  For x << 0
    these lose about eps x^2 and 2 eps x^4 relative to cancellation, so
    below TAIL_X both factors come from _mills_tail, unless no element there
    has a nonzero mixture weight: a branch of weight 0 adds exactly nothing
    to the posterior moments, whatever its own (finite) moments are."""
    offset = np.asarray(x + mills)
    ratio = np.asarray(1.0 - mills * offset)
    tail = x < TAIL_X
    if any_true(tail) and any_true(tail & (weight > 0)):
        tail = np.flatnonzero(tail)
        offset.reshape(-1)[tail], ratio.reshape(-1)[tail] = _mills_tail(-np.take(x, tail))
    return sd * offset, var * np.maximum(ratio, 0.0)


def _negative_branch(r_plus, gamma_plus):
    """The relu posterior's z_in < 0 branch, which reads r_plus and
    gamma_plus alone: x_neg = r_plus / -sqrt(1/gamma_plus), whose branch mass
    is Phi(x_neg), with (log Phi(x_neg), phi(x_neg) / Phi(x_neg))."""
    x_neg = r_plus / -np.sqrt(1.0 / gamma_plus)
    return (x_neg,) + log_ndtr_mills(x_neg)


def _branch_weights(d):
    """(w_pos, w_neg) = (1 / (1 + e^-d), 1 / (1 + e^d)), from one exponential
    e^-|d| taken by exp_cut: a light weight below e^EXP_CUT is exactly 0 and
    none is subnormal."""
    e = exp_cut(-np.abs(d))
    heavy = 1.0 / (1.0 + e)
    light = e * heavy
    return np.where(d >= 0, heavy, light), np.where(d >= 0, light, heavy)


def _relu_posterior(r_plus, r_minus, gamma_plus, gamma_minus, noise_var, side,
                    branch):
    """Closed-form posterior moments for the relu channel, with r_minus a
    pseudo-observation of z_out with precision gamma_minus.

    The posterior of z_in is a mixture of N(r_plus, 1/gamma_plus) on z_in < 0
    and N(m_t, v_t) on z_in > 0, the latter combining r_plus with r_minus;
    d is the log ratio of the z_in > 0 branch mass to the z_in < 0 one.  Where
    gamma_minus = 0 (in every row: denoise_middle rejects a mixed column)
    r_minus carries nothing: m_t = r_plus, v_t = 1/gamma_plus and only the
    truncations weigh the branches.  ``branch`` (_negative_branch if None)
    supplies the z_in < 0 branch.  Returns (mean_in, var_in, mean_out,
    var_out) with None for a side not asked for.
    """
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    vp = 1.0 / gamma_plus
    if not any_true(gamma_minus > 0):   # no output message
        m_t, v_t, d_obs = r_plus, vp, 0.0
    else:   # v_obs: the variance of r_minus about z_out's noiseless value
        v_obs = 1.0 / gamma_minus + noise_var
        vs = v_obs + vp
        m_t = (v_obs * r_plus + vp * r_minus) / vs
        v_t = v_obs * vp / vs
        with np.errstate(invalid="ignore"):   # inf - inf: no mass anywhere
            d_obs = 0.5 * (r_minus * r_minus / v_obs - (r_minus - r_plus) ** 2 / vs
                           + np.log(v_obs / vs))
    s_t = np.sqrt(v_t)
    x_neg, log_neg, mills_neg = (branch or _negative_branch)(r_plus, gamma_plus)
    x_pos = m_t / s_t   # the z_in > 0 branch mass is Phi(x_pos)
    log_pos, mills_pos = log_ndtr_mills(x_pos)
    d = d_obs + log_pos - log_neg
    if np.isnan(d).any():   # both branch masses underflow
        raise ObservationError(
            "posterior mass underflows to zero (inconsistent observation)",
            context={"r_plus": r_plus, "r_minus": r_minus},
        )
    w_pos, w_neg = _branch_weights(d)
    m_pos, v_pos = _truncated_moments(s_t, v_t, x_pos, mills_pos, w_pos)

    mean_in = var_in = mean_out = var_out = None
    if side != "out":
        m_neg, v_neg = _truncated_moments(-np.sqrt(vp), vp, x_neg, mills_neg, w_neg)
        mean_in = w_neg * m_neg + w_pos * m_pos
        var_in = _floor(w_neg * v_neg + w_pos * v_pos
                        + w_neg * w_pos * (m_neg - m_pos) ** 2)
    if side != "in":   # z_out's noiseless value is 0 on z_in < 0, z_in above
        mean_out, var_out = _through_noise(
            w_pos * m_pos, w_pos * (v_pos + w_neg * m_pos * m_pos),
            r_minus, gamma_minus, noise_var)
        var_out = _floor(var_out)
    return mean_in, var_in, mean_out, var_out


def _identity_posterior(r_plus, r_minus, gamma_plus, gamma_minus, noise_var, side):
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    prior = r_plus + 0.0 * r_minus
    if not any_true(gamma_minus > 0):   # no output message
        var_in = np.full_like(prior, 1.0 / gamma_plus)
        mean_in = prior
    else:
        g_eff = 1.0 / (1.0 / gamma_minus + noise_var)
        var_in = np.full_like(prior, 1.0 / (gamma_plus + g_eff))
        mean_in = (gamma_plus * r_plus + g_eff * r_minus) * var_in
    mean_out = var_out = None
    if side != "in":
        mean_out, var_out = _through_noise(mean_in.copy(), var_in, r_minus,
                                           gamma_minus, noise_var)
        var_out = _floor(var_out)
    if side == "out":
        return None, None, mean_out, var_out
    return mean_in, _floor(var_in), mean_out, var_out


def denoise_middle(stage, r_plus, r_minus, gamma_plus, gamma_minus, side=None,
                   branch=None):
    """Posterior moments of (z_in, z_out) under the belief of a middle
    nonlinear stage.

    gamma_minus = 0 is allowed and drops the output pseudo-observation
    (iteration-0 initialization); a gamma_minus column that is 0 in some
    rows and positive in others raises ValueError.  ``side="in"`` computes
    only the z_in moments and ``side="out"`` only the z_out ones (the other
    fields are None); the default computes both.  A side's values do not
    depend on whether the other side was computed.  ``branch``, a callable
    that returns what _negative_branch does (one memo, say, that a relu
    stage's calls share), gives the z_in < 0 branch.
    """
    if side not in (None, "in", "out"):
        raise ValueError(f"side must be 'in', 'out' or None, not {side!r}")
    if any_true(gamma_plus <= 0) or any_true(~np.isfinite(gamma_plus)):
        raise ValueError("gamma_plus must be positive and finite")
    if any_true(gamma_minus < 0):
        raise ValueError("gamma_minus must be >= 0")
    if any_true(gamma_minus == 0) and any_true(gamma_minus > 0):
        raise ValueError("gamma_minus must be 0 in every row or in none")
    args = (r_plus, r_minus, gamma_plus, gamma_minus, stage.noise_var, side)
    if stage.activation == "relu":
        mi, vi, mo, vo = _relu_posterior(*args, branch)
    else:
        mi, vi, mo, vo = _identity_posterior(*args)
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


def denoise_output_nonlinear(stage, y, r_plus, gamma_plus):
    """Posterior (mean_in, var_in) of z_{L-1} when z_L = y is the output of
    the nonlinear stage (see the module docstring)."""
    if any_true(gamma_plus <= 0):
        raise ValueError("gamma_plus must be positive")
    y = np.asarray(y, dtype=float)
    r_plus = np.asarray(r_plus, dtype=float)
    if stage.noise_var > 0:
        middle, gp, gm = observed_as_middle(stage, gamma_plus)
        res = denoise_middle(middle, r_plus, y, gp, gm, side="in")
        return res.mean_in, res.var_in
    # Deterministic stages (gamma- = inf, which has no middle form): the
    # observation pins the input (identity) or pins/truncates it (relu).
    if stage.activation == "identity":
        return y.copy(), np.full_like(y, VAR_FLOOR)
    if np.any(y < 0):
        raise ObservationError("y < 0 is impossible under a deterministic relu channel",
                               context={"y": y})
    vp = 1.0 / gamma_plus
    sp = -np.sqrt(vp)   # z_in < 0 where y = 0
    x = r_plus / sp
    m_trunc, v_trunc = _truncated_moments(sp, vp, x, log_ndtr_mills(x)[1], 1.0)
    mean = np.where(y > 0, y, m_trunc)
    var = np.where(y > 0, VAR_FLOOR, v_trunc)
    return mean, _floor(var)
