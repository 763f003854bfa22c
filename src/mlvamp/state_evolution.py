"""Scalar state-evolution recursion predicting the per-layer error variances.

The recursion is the engine's own sweep (``engine.sweep``) with every vector
denoise replaced by a scalar error function: the expected posterior variance
of a stage's input/output under the matched scalar channel

    R+ ~ N(0, tau_prev - 1/gamma+),   Z_in ~ N(R+, 1/gamma+),
    Z_out = phi(Z_in) + xi,           R- = Z_out + N(0, 1/gamma-).

The recursion reads one description per stage (``stats_from_network``): a
linear stage's spectrum as ``LayerStatistics``, and a nonlinear stage as the
network's ``NonlinearStage`` itself, the same object the engine's denoisers
take.  Each error function takes its variances from its stage's vector
denoiser.
Linear stages average the componentwise 2x2 variances over the empirical
singular values (``mean_variances``), so they are exact at any size.  The
observed stage enters as a middle stage (``network.observed_as_middle``).
Relu stages are integrated numerically over (R+, R-), with Z_in integrated
out analytically: given R+ the law of R- is a closed-form two-branch mixture
(``_relu_r_minus_law``).  Every axis that crosses a relu layer is split
there: the R+ axis at +-6/sqrt(gamma+) around r+ = 0, where
P(z_in < 0 | r+) switches from 1 to 0 (a layer far narrower than the R+
spread at high precision), and the z_in > 0 branch's R- axis around the
branch switch and the r- = 0 layer.  Each piece gets CDF-mapped
Gauss-Legendre nodes.  After the last iteration every relu stage is
re-evaluated at doubled node counts; the worst relative change is kept as
``SEState.quad_rel_err``.
Predicted MSE per layer and half-iteration is 1/eta_bar.
"""
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .engine import EngineOptions, MessageState, sweep
from .errors import MlvampError
from .gauss import gh_nodes, gl_nodes_unit, relu_gauss_moments
from .linear_denoiser import mean_variances
from .network import observed_as_middle
from .scalar_denoiser import denoise_middle

_NEG_NOISE_NODES = 63      # r- axis of the z_in < 0 branch (Gauss-Hermite)
_T_PIECE_NODES = 20        # per piece of the three-piece t axis of the z_in > 0 branch
_KINK_PIECE_NODES = 15     # per piece of the three-piece R+ axis
# half-width of a layer in units of its smoothing scale: 1/sqrt(gamma+) on the
# R+ axis; on the t axis sqrt(v_e gamma+) at the branch switch and
# sqrt(v_e / (1/gamma+ + v_e)) at r- = 0
_KINK_HALF_WIDTH = 6.0


@dataclass
class LayerStatistics:
    """Scalar-limit description of a linear stage: the empirical singular
    values, the noise precision, the bias energy mean(b^2) over the N_out
    outputs and the componentwise bias mean (the one piece of the
    original-coordinate bias that survives the Haar rotations: it shifts the
    law of the stage output that the next activation sees)."""

    n_in: int
    n_out: int
    s: np.ndarray
    nu: float
    b_sq_mean: float = 0.0
    b_mean: float = 0.0

    @property
    def kind(self):
        return "linear"


def stats_from_network(net):
    """The SE's description of each stage: LayerStatistics for a linear
    stage, the stage itself for a nonlinear one."""
    return [LayerStatistics(n_in=st.n_in, n_out=st.n_out, s=np.array(st.s), nu=st.nu,
                            b_sq_mean=float(np.mean(st.b**2)),
                            b_mean=float(np.mean(st.b)))
            if st.kind == "linear" else st for st in net.stages]


def tau_mean_chain(stats):
    """(tau0, mean) per variable: second moment and componentwise mean of z_l.

    tau0_0 = 1, mean_0 = 0 (standard Gaussian input).  Linear stages use
    independence of (S, B, Xi): tau = E[S^2] tau_prev + E[B^2] + 1/nu, and a
    rotationally generic weight matrix leaves mean = mean(b).  Nonlinear
    stages push the componentwise law N(mean, tau - mean^2) through phi.
    """
    tau = [1.0]
    mean = [0.0]
    for ell in range(1, len(stats) + 1):
        stat = stats[ell - 1]
        prev, m_prev = tau[ell - 1], mean[ell - 1]
        if stat.kind == "linear":
            if not np.all(np.isfinite(stat.s)):
                raise MlvampError("unbounded singular-value samples")
            tau.append(float(np.sum(stat.s**2) / stat.n_out * prev
                             + stat.b_sq_mean + 1.0 / stat.nu))
            mean.append(stat.b_mean)
        elif stat.activation == "relu":
            v = max(prev - m_prev**2, 1e-30)
            m1, m2 = relu_gauss_moments(m_prev, v)
            tau.append(float(m2) + stat.noise_var)
            mean.append(float(m1))
        else:   # identity
            tau.append(prev + stat.noise_var)
            mean.append(m_prev)
    n = len(stats)
    return np.array(tau[:n]), np.array(mean[:n])


def error_input(gamma_minus):
    """Endpoint error for the standard-Gaussian input layer."""
    return 1.0 / (1.0 + gamma_minus)


def _as_middle(stats, j, gamma_plus, gamma_minus):
    """(stat, gamma+, gamma-) of stage j, between variables j and j+1, as a
    middle stage."""
    if j == len(stats) - 1:
        return observed_as_middle(stats[j], gamma_plus[j])
    return stats[j], gamma_plus[j], gamma_minus[j + 1]


def error_linear(stat, gamma_plus, gamma_minus):
    """(E+, E-) for a middle linear stage: ``denoise_linear``'s mean variances.

    Gaussian conditional variances do not depend on the observation values,
    so these are exact closed forms over the empirical singular values and
    the s = 0 rest on either side.
    """
    e_minus, e_plus = mean_variances(stat, gamma_plus, gamma_minus, stat.nu)
    return e_plus, e_minus


def error_observed_linear(stat, gamma_plus):
    """E- for the final linear stage with its output observed exactly."""
    stat, gamma_plus, gamma_minus = observed_as_middle(stat, gamma_plus)
    return mean_variances(stat, gamma_plus, gamma_minus, stat.nu)[0]


def _cdf_mapped(a, b, n_nodes):
    """Nodes x and weights w with sum w f(x) ~ E[f(X); a < X < b], X ~ N(0, 1).

    Gauss-Legendre in the CDF variable, broadcast over array bounds (one row
    of nodes per bound pair).  Pieces in the upper half line are mirrored
    through the survival function so their tail masses keep full precision.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    flip = a > 0
    lo = special.ndtr(np.where(flip, -b, a))[..., None]
    hi = special.ndtr(np.where(flip, -a, b))[..., None]
    u, uw = gl_nodes_unit(n_nodes)
    x = special.ndtri(np.maximum(lo + u * (hi - lo), 1e-300))
    return np.where(flip[..., None], -x, x), (hi - lo) * uw


def _outer_nodes(tau_prev, gamma_plus, mean_prev=0.0, refine=1):
    """Nodes for R+ ~ N(mean_prev, (tau_prev - mean_prev^2) - 1/gamma+);
    clamps a negative variance.

    The relu integrands switch branch across the layer |r+| < ~1/sqrt(gamma+)
    (where P(z_in < 0 | r+) = Phi(-r+ sqrt(gamma+)) falls from 1 to 0), which
    is far narrower than the R+ spread at high precision.  The axis is split
    at +-_KINK_HALF_WIDTH/sqrt(gamma+) into three pieces, each with
    CDF-mapped Gauss-Legendre nodes; empty pieces are dropped.
    """
    v_r = (tau_prev - mean_prev**2) - 1.0 / gamma_plus
    clamped = v_r < 0
    v_r = max(v_r, 0.0)
    if v_r == 0.0:
        return np.full(1, mean_prev), np.ones(1), clamped
    sd = math.sqrt(v_r)
    kink = _KINK_HALF_WIDTH / math.sqrt(gamma_plus)
    edges = np.array([-np.inf, (-kink - mean_prev) / sd, (kink - mean_prev) / sd, np.inf])
    x, w = _cdf_mapped(edges[:-1], edges[1:], _KINK_PIECE_NODES * refine)
    keep = w > 0
    return mean_prev + sd * x[keep], w[keep], clamped


def _relu_r_minus_law(r_nodes, gamma_plus, v_e, refine=1):
    """Nodes and weights for R- given R+ = r_nodes through a relu channel.

    R- = relu(Z_in) + N(0, v_e) with Z_in ~ N(R+, 1/gamma+).  Z_in is
    integrated out analytically: given R+ = r the law of R- is

        Phi(-r sqrt(gamma+)) N(0, v_e)  +  N(r, 1/gamma+ + v_e) Phi(m_t / sqrt(v_t))

    with (m_t, v_t) the z_in > 0 posterior of ``scalar_denoiser._relu_posterior``.
    The first part gets Gauss-Hermite nodes in r-/sqrt(v_e); the second is
    integrated in t = (r- - r)/sqrt(1/gamma+ + v_e) over three CDF-mapped
    Gauss-Legendre pieces, the middle one spanning the Phi switch (m_t = 0)
    and the r- = 0 layer.  Returns (r_minus, weights), both
    (len(r_nodes), n); each row of weights sums to one.
    """
    vp = 1.0 / gamma_plus
    rows = len(r_nodes)
    e_x, e_w = gh_nodes(_NEG_NOISE_NODES * refine)
    r_neg = np.broadcast_to(math.sqrt(v_e) * e_x, (rows, e_x.size))
    w_neg = special.ndtr(-r_nodes / math.sqrt(vp))[:, None] * e_w

    s2 = math.sqrt(vp + v_e)
    t_switch, h_switch = -r_nodes * s2 / vp, math.sqrt(v_e / vp)
    t_zero, h_zero = -r_nodes / s2, math.sqrt(v_e) / s2
    lo = np.minimum(t_switch - _KINK_HALF_WIDTH * h_switch,
                    t_zero - _KINK_HALF_WIDTH * h_zero)
    hi = np.maximum(t_switch + _KINK_HALF_WIDTH * h_switch,
                    t_zero + _KINK_HALF_WIDTH * h_zero)
    inf = np.full(rows, np.inf)
    t, w_t = _cdf_mapped(np.stack([-inf, lo, hi], axis=1),
                         np.stack([lo, hi, inf], axis=1),
                         _T_PIECE_NODES * refine)
    t, w_t = t.reshape(rows, -1), w_t.reshape(rows, -1)
    m_t = r_nodes[:, None] + vp * t / s2
    w_pos = w_t * special.ndtr(m_t / math.sqrt(vp * v_e) * s2)
    return (np.hstack([r_neg, r_nodes[:, None] + s2 * t]),
            np.hstack([w_neg, w_pos]))


def _relu_errors(stage, gamma_plus, gamma_minus, tau_prev, mean_prev, refine=1,
                 side=None):
    """Expected posterior variances ((E+, E-), clamped) of a relu stage and
    the R+ clamp flag.  ``refine`` multiplies every node count; ``side``
    ("out" for E+, "in" for E-) leaves the other error None.
    """
    r_nodes, w_o, clamped = _outer_nodes(tau_prev, gamma_plus, mean_prev, refine)
    if gamma_minus <= 0:   # no output message: one R- node that carries nothing
        r_minus, w_m = np.zeros((len(r_nodes), 1)), np.ones((len(r_nodes), 1))
    else:
        r_minus, w_m = _relu_r_minus_law(r_nodes, gamma_plus,
                                         1.0 / gamma_minus + stage.noise_var, refine)
    # R+ as a column: the z_in < 0 branch depends on r+ alone
    res = denoise_middle(stage, r_nodes[:, None], r_minus, gamma_plus, gamma_minus,
                         side)
    return tuple(None if v is None else float(w_o @ np.sum(v * w_m, axis=1))
                 for v in (res.var_out, res.var_in)), clamped


def error_nonlinear(stage, gamma_plus, gamma_minus, tau_prev, mean_prev=0.0,
                    side=None):
    """(E+, E-, r_plus_var_clamped) for a middle nonlinear stage.

    Identity variances do not depend on (r+, r-): one ``denoise_middle``
    point gives them.  Relu channels integrate the posterior variances over
    the (R+, R-) law: a kink-split R+ axis (``_outer_nodes``) and, per R+
    node, the two-branch R- law of ``_relu_r_minus_law``.  ``mean_prev``
    shifts the input law: the stage input is N(mean_prev, tau_prev -
    mean_prev^2) componentwise (nonzero when the preceding bias has a mean).
    ``side="out"`` computes only E+ and ``side="in"`` only E- (the other
    is None).
    """
    if stage.activation == "identity":
        res = denoise_middle(stage, 0.0, 0.0, gamma_plus, gamma_minus, side)
        e_plus, e_minus = (None if v is None else float(v)
                           for v in (res.var_out, res.var_in))
        return e_plus, e_minus, False
    (e_plus, e_minus), clamped = _relu_errors(stage, gamma_plus, gamma_minus,
                                              tau_prev, mean_prev, side=side)
    return e_plus, e_minus, clamped


@dataclass
class SEState:
    """``quad_rel_err`` is the worst relative change of a relu stage's
    expected variances when every node count doubles, at the last iteration's
    precisions (0 when no stage is a relu)."""

    tau0: np.ndarray
    records: list = field(default_factory=list)
    clamp_total: int = 0
    variance_clamps: int = 0
    quad_rel_err: float = 0.0


def quadrature_rel_err(stats, records, tau0, means):
    """Node-doubling error estimate of the relu quadrature.

    Each relu stage j is called with its middle-stage precisions
    (``_as_middle``) in both sweep directions, so re-evaluating it at those
    precisions of the given records, once at the standard and once at
    doubled node counts, reproduces the calls the records came from.
    """
    worst = 0.0
    for rec in records:
        for j, stat in enumerate(stats):
            if stat.kind != "nonlinear" or stat.activation != "relu":
                continue
            args = (*_as_middle(stats, j, rec.gamma_plus, rec.gamma_minus),
                    tau0[j], means[j])
            base, _ = _relu_errors(*args)
            fine, _ = _relu_errors(*args, refine=2)
            worst = max(worst, *(abs(b / f - 1) for b, f in zip(base, fine)))
    return worst


def run_se(stats, n_iter, options=None):
    """Run the scalar recursion for n_iter iterations (2*n_iter half-iterations).

    The engine's ``sweep`` drives it, so the visit order, the precision
    algebra and the damping are the engine's own; each variable's belief
    variance comes from the scalar error function of its neighbouring stage.
    Initialization is gamma- = 0 everywhere.
    """
    if n_iter < 1:
        raise MlvampError("n_iter must be >= 1")
    opts = options or EngineOptions()
    n = len(stats)
    tau0, means = tau_mean_chain(stats)
    state = MessageState(r_plus=[None] * n, r_minus=[None] * n,
                         gamma_plus=np.zeros(n), gamma_minus=np.zeros(n))
    gp, gm = state.gamma_plus, state.gamma_minus
    se = SEState(tau0=tau0)

    def stage_error(j, side):
        """E+ (side 0) or E- (side 1) of stage j, between variables j and j+1."""
        if stats[j].kind == "linear":
            if j == n - 1:   # its own entry point, timed apart by perfbench
                return error_observed_linear(stats[j], gp[j])
            return error_linear(stats[j], gp[j], gm[j + 1])[side]
        errors = error_nonlinear(*_as_middle(stats, j, gp, gm), tau0[j], means[j],
                                 side=("out", "in")[side])
        se.variance_clamps += int(errors[2])
        return errors[side]

    denoisers = {
        "forward": lambda ell: (None, error_input(gm[0]) if ell == 0
                                else stage_error(ell - 1, 0)),
        "reverse": lambda ell: (None, stage_error(ell, 1)),
    }
    for _ in range(n_iter):
        for direction in ("forward", "reverse"):
            rec = sweep(state, direction, denoisers[direction], opts)
            rec.z_hat = None
            rec.nmse_db = 10.0 * np.log10((1.0 / rec.eta) / tau0)
            se.records.append(rec)
            se.clamp_total += rec.clamp_events
        state.k += 1
    se.quad_rel_err = quadrature_rel_err(stats, se.records[-2:], tau0, means)
    return se


def se_state_to_json(se):
    return {
        "tau0": se.tau0.tolist(),
        "clamp_total": se.clamp_total,
        "variance_clamps": se.variance_clamps,
        "quad_rel_err": se.quad_rel_err,
        "records": [{key: val.tolist() if isinstance(val, np.ndarray) else val
                     for key, val in vars(r).items() if key != "z_hat"}
                    for r in se.records],
    }
