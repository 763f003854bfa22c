"""Forward/reverse message-passing sweeps over the stage chain.

Messages are Gaussian pseudo-observations (r+, gamma+) flowing up the chain
and (r-, gamma-) flowing down.  Each sweep visits every hidden variable,
computes the belief moments with the stage-appropriate denoiser and turns the
average posterior variance into the extrinsic message:

    eta = 1 / <var>,  alpha = gamma_opp * <var>,  gamma_new = eta - gamma_opp,
    r_new = (eta * z_hat - gamma_opp * r_opp) / gamma_new.

Initialization is r- = 0, gamma- = 0 for all layers; that first forward pass
takes the eta = 1/<var> route since gamma_opp/alpha is 0/0 there.

``sweep`` holds the only copy of the visit order, the precision algebra and
the damping blend.  ``run`` drives it with the vector denoisers below; the
state evolution drives it with scalar error functions and no means.
"""
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EngineError, MlvampError
from .linear_denoiser import StageTransforms, denoise_linear, denoise_linear_observed
from .scalar_denoiser import (
    VAR_FLOOR,
    ScalarChannel,
    denoise_input,
    denoise_middle,
    denoise_output_nonlinear,
)


@dataclass
class EngineOptions:
    max_iter: int = 50
    gamma_min: float = 1e-8
    gamma_max: float = 1e11
    alpha_min: float = 1e-6
    damping: float = 1.0          # 1 = off; <1 blends with the previous iterate
    store_estimates: bool = True


def precision_update(alpha, gamma_opposite, gamma_min=EngineOptions.gamma_min,
                     gamma_max=EngineOptions.gamma_max,
                     alpha_min=EngineOptions.alpha_min):
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
    """Snapshot of one half-iteration (one forward or reverse sweep).

    The state evolution's records carry no estimates (``z_hat`` None); an
    engine run without truth carries no ``nmse_db``.
    """

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


def nmse_db(truth, estimate):
    """10 log10(||truth - estimate||^2 / ||truth||^2), clipped below at -200 dB."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("truth and estimate must have equal dimensions")
    ref = float(np.sum(truth**2))
    if ref <= 0:
        raise ValueError("zero-norm truth vector")
    err = float(np.sum((truth - estimate) ** 2))
    if err == 0:
        return -200.0
    return max(10.0 * np.log10(err / ref), -200.0)


def _channel(stage):
    return ScalarChannel(stage.activation, stage.noise_var)


def _belief(net, y, state, transforms, ell, forward):
    """Belief mean/variance of z_ell: from factor ell (the stage below it) in
    the forward sweep, from factor ell+1 (the stage above) in the reverse."""
    if forward and ell == 0:
        mean, var = denoise_input(state.r_minus[0], state.gamma_minus[0])
        return mean, float(var)
    i = ell - 1 if forward else ell
    stage = net.stages[i]
    if i == net.n_layers - 1:   # the observed stage, reached in reverse only
        if stage.kind == "linear":
            res = denoise_linear_observed(stage, y, state.r_plus[i],
                                          state.gamma_plus[i], transforms=transforms[i])
            return res.z_hat_minus, res.var_in_mean
        mean, var = denoise_output_nonlinear(_channel(stage), y, state.r_plus[i],
                                             state.gamma_plus[i])
        return mean, float(np.mean(var))
    args = (state.r_plus[i], state.r_minus[i + 1],
            state.gamma_plus[i], state.gamma_minus[i + 1])
    if stage.kind == "linear":
        res = denoise_linear(stage, *args, side="plus" if forward else "minus",
                             transforms=transforms[i])
        return ((res.z_hat_plus, res.var_out_mean) if forward
                else (res.z_hat_minus, res.var_in_mean))
    res = denoise_middle(_channel(stage), *args)
    return ((res.mean_out, float(np.mean(res.var_out))) if forward
            else (res.mean_in, float(np.mean(res.var_in))))


def _dump(state, ell, direction):
    return {"k": state.k, "layer": ell, "direction": direction,
            "gamma_plus": state.gamma_plus.copy(),
            "gamma_minus": state.gamma_minus.copy()}


def sweep(state, direction, denoise, opts):
    """One forward or reverse half-iteration over every hidden variable.

    ``denoise(ell)`` returns the belief (z_hat, vbar) of variable ell; a
    z_hat of None (the state evolution) updates only the precisions, leaving
    the means untouched.  Damping blends (gamma, r) with the previous
    iterate from k = 1 on.  A non-finite updated message (gamma, or r when
    the means move) raises EngineError.  Every message update is bound to a
    fresh array and none is modified in place, which lets ``run`` key its
    reused transforms on array identity.  Returns the half-iteration's
    IterationRecord (without NMSE).
    """
    n = len(state.gamma_plus)
    if direction == "forward":
        order = range(n)
        g_own, r_own = state.gamma_plus, state.r_plus
        g_opp, r_opp = state.gamma_minus, state.r_minus
    else:
        order = range(n - 1, -1, -1)
        g_own, r_own = state.gamma_minus, state.r_minus
        g_opp, r_opp = state.gamma_plus, state.r_plus
    etas, alphas = np.zeros(n), np.zeros(n)
    z_hats = [None] * n
    events = 0
    damp = opts.damping
    blend = damp < 1.0 and state.k >= 1
    for ell in order:
        try:
            z_hat, vbar = denoise(ell)
        except MlvampError as exc:
            raise EngineError(
                f"denoiser failed at layer {ell} ({direction}, k={state.k}): {exc}",
                state_dump=_dump(state, ell, direction)) from exc
        eta, alpha, g_new, ev = posterior_to_message(vbar, g_opp[ell], opts)
        if z_hat is not None:
            r_new = extrinsic_mean(eta, z_hat, g_opp[ell], r_opp[ell], g_new)
            r_own[ell] = damp * r_new + (1 - damp) * r_own[ell] if blend else r_new
        if blend:
            g_new = damp * g_new + (1 - damp) * g_own[ell]
            eta = g_new + g_opp[ell]
        g_own[ell] = g_new
        if not np.isfinite(g_new) or (z_hat is not None
                                      and not np.all(np.isfinite(r_own[ell]))):
            raise EngineError(
                f"non-finite message at layer {ell} ({direction}, k={state.k})",
                state_dump=_dump(state, ell, direction))
        etas[ell], alphas[ell] = eta, alpha
        events += ev
        z_hats[ell] = z_hat
    half = 2 * state.k + (1 if direction == "forward" else 2)
    return IterationRecord(
        k=state.k, half_iter=half, direction=direction, z_hat=z_hats,
        eta=etas, alpha=alphas,
        gamma_plus=state.gamma_plus.copy(), gamma_minus=state.gamma_minus.copy(),
        clamp_events=events)


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
    # both sweeps share these: sweep never modifies a message in place
    transforms = [StageTransforms(st) if st.kind == "linear" else None
                  for st in net.stages]
    records = []
    for _ in range(opts.max_iter):
        for forward, direction in ((True, "forward"), (False, "reverse")):
            denoise = partial(_belief, net, y, state, transforms, forward=forward)
            rec = sweep(state, direction, denoise, opts)
            if truth is not None:
                rec.nmse_db = np.array([nmse_db(truth.z[ell], z)
                                        for ell, z in enumerate(rec.z_hat)])
            if not opts.store_estimates:
                rec.z_hat = None
            records.append(rec)
        state.k += 1
    return records
