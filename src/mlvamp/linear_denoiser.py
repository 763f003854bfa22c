"""MMSE estimation for linear stages via componentwise 2x2 solves in SVD
coordinates.

With W = V_out diag(s) V_in, the joint Gaussian belief over (z_in, z_out)
decouples componentwise after transforming with the orthogonal factors.  Each
component solves the 2x2 system P u = d with

    P = [[g+ + nu s^2, -nu s], [-nu s, g- + nu]]
    d = [g+ u_in - nu s b_bar, g- u_out + nu b_bar]

whose inverse diagonal yields the posterior variances.  nu = inf is the
deterministic stage and is solved as the exact equality-constrained limit.

The cost is the matvecs with V_in and V_out.  A call transforms back only
the side asked for, and a shared StageTransforms lets the forward and the
reverse call of a stage reuse each other's input transforms.
"""
from dataclasses import dataclass

import numpy as np

from .errors import MlvampError


def component_solve(u_in, u_out, s, b_bar, gamma_plus, gamma_minus, nu):
    """Posterior means and variances (g_minus, g_plus, var_in, var_out) of
    one or a batch of transformed components; see the module docstring.

    gamma_minus = 0 is permitted (uninformative output message); the formulas
    stay regular because det = nu * gamma_plus > 0.
    """
    if np.isinf(nu):
        denom = gamma_plus + gamma_minus * s * s
        if np.any(denom <= 0):
            raise MlvampError("singular constrained solve: both precisions vanish")
        var_in = 1.0 / denom
        g_minus = (gamma_plus * u_in + gamma_minus * s * (u_out - b_bar)) * var_in
        g_plus = s * g_minus + b_bar
        var_out = s * s * var_in
        return g_minus, g_plus, var_in, var_out
    a11 = gamma_plus + nu * s * s
    a22 = gamma_minus + nu
    # a11 a22 - (nu s)^2 without its cancellation when nu s^2 >> gamma_plus
    det = gamma_plus * a22 + nu * s * s * gamma_minus
    if np.any(det <= 0):
        raise MlvampError("singular 2x2 belief precision (zero precisions?)")
    d1 = gamma_plus * u_in - nu * s * b_bar
    d2 = gamma_minus * u_out + nu * b_bar
    g_minus = (a22 * d1 + nu * s * d2) / det
    g_plus = (nu * s * d1 + a11 * d2) / det
    return g_minus, g_plus, a22 / det, a11 / det


def component_variances(s, gamma_plus, gamma_minus, nu):
    """Posterior variances (var_in, var_out) per component for given singular
    values; shared with the SE linear error functions."""
    s = np.asarray(s, dtype=float)
    if np.isinf(nu):
        var_in = 1.0 / (gamma_plus + gamma_minus * s * s)
        return var_in, s * s * var_in
    a11 = gamma_plus + nu * s * s
    a22 = gamma_minus + nu
    det = a11 * a22 - (nu * s) ** 2
    return a22 / det, a11 / det


class StageTransforms:
    """Input transforms of one linear stage, kept while their source arrays
    stay the same: V_in r+, V_out^T r- and the measurement terms of y.  The
    key is the array's identity, so callers that share an instance must
    never modify a message in place."""

    def __init__(self, stage):
        self.stage = stage
        self._held = {}

    def _get(self, key, src, compute):
        held = self._held.get(key)
        if held is None or held[0] is not src:
            held = self._held[key] = (src, compute(src))
        return held[1]

    def u_in(self, r_plus):
        return self._get("in", r_plus, lambda r: self.stage.v_in @ r)

    def u_out(self, r_minus):
        return self._get("out", r_minus, lambda r: self.stage.v_out.T @ r)

    def observed(self, y):
        """(nu s^2, nu s (y_bar - b_bar)) over the input coordinates, with
        y_bar = V_out^T y and zeros beyond the rank."""
        return self._get("y", y, self._observed_terms)

    def _observed_terms(self, y):
        st = self.stage
        r = min(len(st.s), st.n_in)
        s_in = st.s_padded(st.n_in)
        y_res = np.zeros(st.n_in)
        y_res[:r] = (st.v_out.T @ y)[:r] - st.b_bar[:r]
        return st.nu * s_in * s_in, st.nu * s_in * y_res


def _padded(v, n):
    """v followed by zeros up to length n."""
    if len(v) == n:
        return v
    out = np.zeros(n)
    out[:len(v)] = v
    return out


@dataclass
class LinearDenoised:
    """Belief means (None for a side not asked for) and mean variances."""

    z_hat_minus: np.ndarray
    z_hat_plus: np.ndarray
    var_in_mean: float
    var_out_mean: float


def denoise_linear(stage, r_plus, r_minus, gamma_plus, gamma_minus,
                   side="both", transforms=None):
    """Belief means of a middle linear stage, Eq.-style

        z_hat_plus  = V_out G+(V_in r+, V_out^T r-, s, b_bar, g+, g-)
        z_hat_minus = V_in^T G-(...)

    plus the mean posterior variances on the input (over N_in) and output
    (over N_out) sides.  Only the means of ``side`` ("minus", "plus" or
    "both") are transformed back; ``transforms`` may share input transforms
    across calls.
    """
    if side not in ("minus", "plus", "both"):
        raise ValueError(f"side must be 'minus', 'plus' or 'both', not {side!r}")
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    n_in, n_out = stage.n_in, stage.n_out
    if r_plus.shape != (n_in,) or r_minus.shape != (n_out,):
        raise ValueError("r vectors do not match stage dimensions")
    transforms = transforms or StageTransforms(stage)

    # coordinates past the rank, or with no partner on the other side, are
    # the s = 0 case of the 2x2 solve; their zero padding never reaches a mean
    n_max = max(n_in, n_out)
    g_minus, g_plus, var_in, var_out = component_solve(
        _padded(transforms.u_in(r_plus), n_max),
        _padded(transforms.u_out(r_minus), n_max),
        stage.s_padded(n_max), _padded(stage.b_bar, n_max),
        gamma_plus, gamma_minus, stage.nu)
    g_minus, var_in = g_minus[:n_in], var_in[:n_in]
    g_plus, var_out = g_plus[:n_out], var_out[:n_out]

    return LinearDenoised(
        z_hat_minus=stage.v_in.T @ g_minus if side != "plus" else None,
        z_hat_plus=stage.v_out @ g_plus if side != "minus" else None,
        var_in_mean=float(np.mean(var_in)),
        var_out_mean=float(np.mean(var_out)),
    )


@dataclass
class ObservedLinearDenoised:
    z_hat_minus: np.ndarray
    var_in_mean: float


def denoise_linear_observed(stage, y, r_plus, gamma_plus, transforms=None):
    """Posterior mean of z_{L-1} when the stage output y is observed exactly.

    The gamma_minus pseudo-observation is replaced by the measurement
    likelihood, still componentwise in SVD coordinates; equivalent to the
    dense ridge solve (g+ I + nu W^T W)^{-1} (g+ r+ + nu W^T (y - b)).
    ``transforms`` may share the transforms of r+ and y across calls.
    """
    if not np.isfinite(stage.nu):
        raise MlvampError("observed linear stage requires finite noise precision")
    if gamma_plus <= 0:
        raise ValueError("gamma_plus must be positive")
    y = np.asarray(y, dtype=float)
    r_plus = np.asarray(r_plus, dtype=float)
    if y.shape != (stage.n_out,) or r_plus.shape != (stage.n_in,):
        raise ValueError("dimension mismatch with stage")
    transforms = transforms or StageTransforms(stage)

    nu_s2, nu_s_y = transforms.observed(y)
    prec = gamma_plus + nu_s2
    g = (gamma_plus * transforms.u_in(r_plus) + nu_s_y) / prec
    var_in = 1.0 / prec
    return ObservedLinearDenoised(
        z_hat_minus=stage.v_in.T @ g,
        var_in_mean=float(np.mean(var_in)),
    )
