"""Forward/reverse message-passing sweeps over the stage chain.

Messages are Gaussian pseudo-observations (r+, gamma+) flowing up the chain
and (r-, gamma-) flowing down.  Each sweep visits every hidden variable,
computes the belief moments with the stage-appropriate denoiser and turns the
average posterior variance into the extrinsic message:

    eta = 1 / <var>,  alpha = gamma_opp * <var>,  gamma_new = eta - gamma_opp,
    r_new = (eta * z_hat - gamma_opp * r_opp) / gamma_new.

Initialization is r- = 0, gamma- = 0 for all layers; that first forward pass
takes the eta = 1/<var> route since gamma_opp/alpha is 0/0 there.
"""
from dataclasses import dataclass

import numpy as np

from .errors import EngineError, MlvampError
from .linear_denoiser import denoise_linear, denoise_linear_observed
from .scalar_denoiser import (
    ScalarChannel,
    denoise_input,
    denoise_middle,
    denoise_output_nonlinear,
)

VAR_FLOOR = 1e-15


@dataclass
class EngineOptions:
    max_iter: int = 50
    gamma_min: float = 1e-8
    gamma_max: float = 1e11
    alpha_min: float = 1e-6
    damping: float = 1.0          # 1 = off; <1 blends with the previous iterate
    store_estimates: bool = True


def precision_update(alpha, gamma_opposite,
                     gamma_min=1e-8, gamma_max=1e11, alpha_min=1e-6):
    """eta = gamma_opp / alpha and gamma_new = eta - gamma_opp, with clamps.

    alpha is clamped into [alpha_min, 1 - alpha_min] and gamma_new into
    [gamma_min, gamma_max]; eta is recomputed after clamping so that
    eta = gamma_new + gamma_opp holds exactly.  Returns
    (eta, gamma_new, clamped).
    """
    if not np.isfinite(alpha):
        raise MlvampError(f"non-finite alpha {alpha!r} in precision update")
    a = min(max(alpha, alpha_min), 1.0 - alpha_min)
    clamped = a != alpha
    eta = gamma_opposite / a
    g = eta - gamma_opposite
    g_cl = min(max(g, gamma_min), gamma_max)
    clamped = clamped or (g_cl != g)
    return g_cl + gamma_opposite, g_cl, clamped


def extrinsic_mean(eta, z_hat, gamma_opposite, r_opposite, gamma_new):
    """r = (eta * z_hat - gamma_opp * r_opp) / gamma_new."""
    if gamma_new <= 0:
        raise MlvampError("gamma_new must be positive (clamp upstream)")
    return (eta * z_hat - gamma_opposite * r_opposite) / gamma_new


def posterior_to_message(var_mean, gamma_opposite, opts):
    """Turn an average posterior variance into (eta, alpha, gamma_new, events).

    gamma_opposite = 0 (iteration-0 initialization) takes the direct
    eta = 1/var route with alpha = 0; that path is not counted as a clamp.
    """
    v = max(float(var_mean), VAR_FLOOR)
    if gamma_opposite <= 0:
        eta_raw = 1.0 / v
        g = min(max(eta_raw, opts.gamma_min), opts.gamma_max)
        return g, 0.0, g, 0
    eta, g, clamped = precision_update(
        gamma_opposite * v, gamma_opposite,
        gamma_min=opts.gamma_min, gamma_max=opts.gamma_max,
        alpha_min=opts.alpha_min)
    return eta, gamma_opposite / eta, g, int(clamped)


@dataclass
class MessageState:
    r_plus: list
    r_minus: list
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    k: int = 0


@dataclass
class IterationRecord:
    """Snapshot of one half-iteration (one forward or reverse sweep)."""

    k: int
    half_iter: int
    direction: str
    z_hat: list
    eta: np.ndarray
    alpha: np.ndarray
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    nmse_db: np.ndarray = None
    clamp_events: int = 0


def init_state(net):
    dims = net.dims[:-1]
    return MessageState(
        r_plus=[np.zeros(d) for d in dims],
        r_minus=[np.zeros(d) for d in dims],
        gamma_plus=np.zeros(len(dims)),
        gamma_minus=np.zeros(len(dims)),
    )


def _nmse_db(truth, estimate):
    err = float(np.sum((truth - estimate) ** 2))
    ref = float(np.sum(truth**2))
    if ref <= 0:
        raise ValueError("zero-norm truth vector")
    return max(10.0 * np.log10(max(err, 1e-300) / ref), -200.0)


def _channel(stage):
    return ScalarChannel(stage.activation, stage.noise_var)


def _denoise_forward(net, state, ell):
    """Belief mean/variance of z_ell from factor ell (output side)."""
    if ell == 0:
        mean, var = denoise_input(state.r_minus[0], state.gamma_minus[0])
        return mean, float(var)
    stage = net.stages[ell - 1]
    if stage.kind == "linear":
        res = denoise_linear(stage, state.r_plus[ell - 1], state.r_minus[ell],
                             state.gamma_plus[ell - 1], state.gamma_minus[ell])
        return res.z_hat_plus, res.var_out_mean
    res = denoise_middle(_channel(stage), state.r_plus[ell - 1],
                         state.r_minus[ell], state.gamma_plus[ell - 1],
                         state.gamma_minus[ell])
    return res.mean_out, float(np.mean(res.var_out))


def _denoise_reverse(net, y, state, ell):
    """Belief mean/variance of z_ell from factor ell+1 (input side)."""
    if ell == net.n_layers - 1:
        stage = net.stages[-1]
        if stage.kind == "linear":
            res = denoise_linear_observed(stage, y, state.r_plus[ell],
                                          state.gamma_plus[ell])
            return res.z_hat_minus, res.var_in_mean
        mean, var = denoise_output_nonlinear(_channel(stage), y,
                                             state.r_plus[ell],
                                             state.gamma_plus[ell])
        return mean, float(np.mean(var))
    stage = net.stages[ell + 1 - 1]
    if stage.kind == "linear":
        res = denoise_linear(stage, state.r_plus[ell], state.r_minus[ell + 1],
                             state.gamma_plus[ell], state.gamma_minus[ell + 1])
        return res.z_hat_minus, res.var_in_mean
    res = denoise_middle(_channel(stage), state.r_plus[ell],
                         state.r_minus[ell + 1], state.gamma_plus[ell],
                         state.gamma_minus[ell + 1])
    return res.mean_in, float(np.mean(res.var_in))


def _dump(state, ell, direction):
    return {"k": state.k, "layer": ell, "direction": direction,
            "gamma_plus": state.gamma_plus.copy(),
            "gamma_minus": state.gamma_minus.copy()}


def _sweep(net, y, state, opts, truth, direction):
    n = net.n_layers
    order = range(n) if direction == "forward" else range(n - 1, -1, -1)
    etas = np.zeros(n)
    alphas = np.zeros(n)
    z_hats = [None] * n
    nmse = np.full(n, np.nan) if truth is not None else None
    events = 0
    damp = opts.damping
    for ell in order:
        try:
            if direction == "forward":
                z_hat, vbar = _denoise_forward(net, state, ell)
                g_opp, r_opp = state.gamma_minus[ell], state.r_minus[ell]
            else:
                z_hat, vbar = _denoise_reverse(net, y, state, ell)
                g_opp, r_opp = state.gamma_plus[ell], state.r_plus[ell]
        except MlvampError as exc:
            raise EngineError(
                f"denoiser failed at layer {ell} ({direction}, k={state.k}): {exc}",
                state_dump=_dump(state, ell, direction)) from exc
        eta, alpha, g_new, ev = posterior_to_message(vbar, g_opp, opts)
        r_new = extrinsic_mean(eta, z_hat, g_opp, r_opp, g_new)
        if damp < 1.0 and state.k >= 1:
            if direction == "forward":
                g_new = damp * g_new + (1 - damp) * state.gamma_plus[ell]
                r_new = damp * r_new + (1 - damp) * state.r_plus[ell]
            else:
                g_new = damp * g_new + (1 - damp) * state.gamma_minus[ell]
                r_new = damp * r_new + (1 - damp) * state.r_minus[ell]
            eta = g_new + g_opp
        if direction == "forward":
            state.gamma_plus[ell] = g_new
            state.r_plus[ell] = r_new
        else:
            state.gamma_minus[ell] = g_new
            state.r_minus[ell] = r_new
        etas[ell], alphas[ell] = eta, alpha
        events += ev
        if opts.store_estimates:
            z_hats[ell] = np.array(z_hat, dtype=float, copy=True)
        if truth is not None:
            nmse[ell] = _nmse_db(truth.z[ell], z_hat)
    half = 2 * state.k + (1 if direction == "forward" else 2)
    return IterationRecord(
        k=state.k, half_iter=half, direction=direction,
        z_hat=z_hats if opts.store_estimates else None,
        eta=etas, alpha=alphas,
        gamma_plus=state.gamma_plus.copy(), gamma_minus=state.gamma_minus.copy(),
        nmse_db=nmse, clamp_events=events)


def forward_pass(net, y, state, opts=None, truth=None):
    return _sweep(net, y, state, opts or EngineOptions(), truth, "forward")


def backward_pass(net, y, state, opts=None, truth=None):
    return _sweep(net, y, state, opts or EngineOptions(), truth, "reverse")


def run(net, y, options=None, truth=None):
    """Run max_iter iterations (two half-iterations each); returns the
    per-half-iteration records.  ``truth`` (a Trajectory) enables per-layer
    NMSE tracking."""
    opts = options or EngineOptions()
    y = np.asarray(y, dtype=float)
    if y.shape != (net.dims[-1],):
        raise MlvampError(
            f"observation length {y.shape} does not match network output "
            f"dimension {net.dims[-1]}")
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise MlvampError(f"observation has {bad} non-finite entries of {y.size}")
    state = init_state(net)
    records = []
    for _ in range(opts.max_iter):
        records.append(forward_pass(net, y, state, opts, truth))
        records.append(backward_pass(net, y, state, opts, truth))
        state.k += 1
    return records
