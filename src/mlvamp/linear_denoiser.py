"""MMSE estimation for linear stages via componentwise 2x2 solves in SVD
coordinates.

With W = V_out diag(s) V_in, the joint Gaussian belief over (z_in, z_out)
decouples componentwise after transforming with the orthogonal factors.  A
stage with noise xi ~ N(0, I/nu) is the deterministic stage (nu = inf) seen
through its noise, which lies in series with the output message (r-, gamma-):
the noiseless output x = s z_in + b_bar sees that message at precision
c gamma-, and the output belief is the blend c x + w u_out with variance
c^2 var_x + 1 / (gamma- + nu), where c = nu / (gamma- + nu) and
w = gamma- / (gamma- + nu) (c = 1, w = 0 at nu = inf).  So one
equality-constrained solve serves every nu.

The factors are thin (r = len(s) directions).  The other n_in - r input and
n_out - r output components are the s = 0 case, where z- keeps r+ and z+ is
the same blend c b + w r-.  So, with (g-, g+) the noiseless means,

    z- = V_in^T (g- - u_in) + r+
    z+ = V_out c (g+ - b_bar) + w r- + c b

with u_in = V_in r+ and u_out = V_out^T r-.  The cost is the matvecs with
V_in and V_out, which the stage applies itself (``LinearStage.svd_in`` and
its kin), to one message or to a batch of T, (T, N) means with (T, 1)
precision columns, as one matrix product with T rows.  A call transforms
back only the side asked for, and the caller may pass the two input
transforms, so that a stage's forward and reverse calls share them.  The
observed stage is the deterministic stage (nu = inf) whose output message
r- = y has gamma- = nu.
"""
from dataclasses import dataclass

import numpy as np

from .errors import MlvampError
from .gauss import any_true


def component_variances(s, gamma_plus, gamma_minus):
    """Posterior variances (var_in, var_out) of the noiseless belief per
    component for singular values s (an array, or a plain number).

    gamma_minus = 0 is permitted (uninformative output message) while
    gamma_plus > 0.
    """
    denom = gamma_plus + gamma_minus * s * s
    if any_true(denom <= 0):
        raise MlvampError("singular constrained solve: both precisions vanish")
    var_in = 1.0 / denom
    return var_in, s * s * var_in


def component_solve(u_in, u_out, s, b_bar, gamma_plus, gamma_minus):
    """Noiseless posterior means and variances (g_minus, g_plus, var_in,
    var_out) of one or a batch of transformed components; see the module
    docstring."""
    var_in, var_out = component_variances(s, gamma_plus, gamma_minus)
    g_minus = (gamma_plus * u_in + gamma_minus * s * (u_out - b_bar)) * var_in
    return g_minus, s * g_minus + b_bar, var_in, var_out


def _mean_with_rest(v, n, v_rest):
    """Mean over n components of v followed by n - len(v) copies of v_rest,
    per row of a batch."""
    total = np.sum(v, axis=-1, keepdims=v.ndim > 1)
    return (total + (n - v.shape[-1]) * v_rest) / n


def mean_variances(stage, gamma_plus, gamma_minus, nu, variances=None):
    """Mean posterior variances (over N_in, over N_out) at noise precision
    ``nu``: ``variances`` (``component_variances`` of stage.s at c gamma-
    unless given) over the singular directions and their s = 0 values past
    them, the output side seen through the noise."""
    c = 1.0 / (1.0 + gamma_minus / nu)
    if variances is None:
        variances = component_variances(stage.s, gamma_plus, gamma_minus * c)
    rest_in, rest_out = component_variances(0.0, gamma_plus, gamma_minus * c)
    mean_out = _mean_with_rest(variances[1], stage.n_out, rest_out)
    return (_mean_with_rest(variances[0], stage.n_in, rest_in),
            c * c * mean_out + 1.0 / (gamma_minus + nu))


@dataclass
class LinearDenoised:
    """Belief means (None for a side not asked for) and mean variances."""

    z_hat_minus: np.ndarray
    z_hat_plus: np.ndarray
    var_in_mean: float          # (T, 1) columns for a batch
    var_out_mean: float


def _solve(stage, r_plus, r_minus, gamma_plus, gamma_minus, nu, side, transforms):
    """The stage's belief at noise precision ``nu``; see ``denoise_linear``."""
    if side not in ("minus", "plus", "both"):
        raise ValueError(f"side must be 'minus', 'plus' or 'both', not {side!r}")
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    if (r_plus.ndim not in (1, 2) or r_plus.shape[:-1] != r_minus.shape[:-1]
            or (r_plus.shape[-1], r_minus.shape[-1]) != (stage.n_in, stage.n_out)):
        raise ValueError("r vectors do not match stage dimensions")
    svd_in, svd_out = transforms or (stage.svd_in, stage.svd_out)
    u_in, u_out = svd_in(r_plus), svd_out(r_minus)
    c, w = 1.0 / (1.0 + gamma_minus / nu), gamma_minus / (gamma_minus + nu)
    g_minus, g_plus, var_in, var_out = component_solve(
        u_in, u_out, stage.s, stage.b_bar, gamma_plus, gamma_minus * c)
    z_hat_minus = z_hat_plus = None
    if side != "plus":
        z_hat_minus = stage.from_svd_in(g_minus - u_in) + r_plus
    if side != "minus":
        z_hat_plus = (stage.from_svd_out(c * (g_plus - stage.b_bar))
                      + w * r_minus + c * stage.b)
    return LinearDenoised(z_hat_minus, z_hat_plus, *mean_variances(
        stage, gamma_plus, gamma_minus, nu, (var_in, var_out)))


def denoise_linear(stage, r_plus, r_minus, gamma_plus, gamma_minus,
                   side="both", transforms=None):
    """Belief means z- and z+ of a middle linear stage (see the module
    docstring) plus the mean posterior variances on the input (over N_in)
    and output (over N_out) sides.  Only the means of ``side`` ("minus",
    "plus" or "both") are transformed back.  ``transforms``, a stand-in for
    (stage.svd_in, stage.svd_out), may share input transforms across calls.
    """
    return _solve(stage, r_plus, r_minus, gamma_plus, gamma_minus, stage.nu,
                  side, transforms)


def denoise_linear_observed(stage, y, r_plus, gamma_plus, transforms=None):
    """Belief on z_{L-1} when the stage output is observed as y: the middle
    solve at nu = inf with r- = y, gamma- = stage.nu and side "minus", equal
    to the dense ridge solve (g+ I + nu W^T W)^{-1} (g+ r+ + nu W^T (y - b)).
    ``transforms`` as in ``denoise_linear``: here of r+ and y.
    """
    if not np.isfinite(stage.nu):
        raise MlvampError("observed linear stage requires finite noise precision")
    if any_true(gamma_plus <= 0):
        raise ValueError("gamma_plus must be positive")
    return _solve(stage, r_plus, y, gamma_plus, stage.nu, np.inf, "minus", transforms)
