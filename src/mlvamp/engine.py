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

``run`` also takes T observations at once, the matrix-valued form of the
iteration: every message is then a (T, N) array with a (T, 1) column of
per-trial precisions, and the precision algebra and its clamps apply to
each trial separately.  All trials leave gamma = 0 in the same first pass.
"""
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import scalar_denoiser
from .errors import EngineError, MlvampError
from .gauss import any_true
from .linear_denoiser import denoise_linear, denoise_linear_observed
from .scalar_denoiser import (
    VAR_FLOOR,
    denoise_input,
    denoise_middle,
    denoise_output_nonlinear,
)


# The precision clamps: every updated gamma lies in [GAMMA_MIN, GAMMA_MAX]
# and every alpha in [ALPHA_MIN, 1 - ALPHA_MIN].
GAMMA_MIN = 1e-8
GAMMA_MAX = 1e11
ALPHA_MIN = 1e-6


@dataclass
class EngineOptions:
    max_iter: int = 50
    damping: float = 1.0          # 1 = off; <1 blends with the previous iterate
    store_estimates: bool = True


def precision_update(alpha, gamma_opposite):
    """eta = gamma_opp / alpha and gamma_new = eta - gamma_opp, with clamps.

    alpha is clamped into [ALPHA_MIN, 1 - ALPHA_MIN] and gamma_new into
    [GAMMA_MIN, GAMMA_MAX]; eta is recomputed after clamping so that
    eta = gamma_new + gamma_opp holds exactly.  Scalars or per-trial arrays;
    returns (eta, gamma_new, clamped), ``clamped`` per element.
    """
    if any_true(~np.isfinite(alpha)):
        raise MlvampError(f"non-finite alpha {alpha!r} in precision update")
    a = _clip(alpha, ALPHA_MIN, 1.0 - ALPHA_MIN)
    eta = gamma_opposite / a
    g = eta - gamma_opposite
    g_cl = _clip(g, GAMMA_MIN, GAMMA_MAX)
    return g_cl + gamma_opposite, g_cl, (a != alpha) | (g_cl != g)


def _clip(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def extrinsic_mean(eta, z_hat, gamma_opposite, r_opposite, gamma_new):
    """r = (eta * z_hat - gamma_opp * r_opp) / gamma_new."""
    if any_true(gamma_new <= 0):
        raise MlvampError("gamma_new must be positive (clamp upstream)")
    return (eta * z_hat - gamma_opposite * r_opposite) / gamma_new


def posterior_to_message(var_mean, gamma_opposite):
    """Turn an average posterior variance into (eta, alpha, gamma_new, clamped).

    gamma_opposite = 0 (iteration-0 initialization) takes the direct
    eta = 1/var route with alpha = 0; that path is not counted as a clamp.
    A per-trial column is all zero (the first pass) or all positive, since
    every update leaves gamma >= GAMMA_MIN > 0, so the route is chosen once
    per call; a column that mixes the two raises ValueError.
    """
    v = np.maximum(var_mean, VAR_FLOOR)
    if not any_true(gamma_opposite > 0):
        g = _clip(1.0 / v, GAMMA_MIN, GAMMA_MAX)
        return g, 0.0, g, False
    if any_true(gamma_opposite == 0):
        raise ValueError("gamma_opposite must be 0 in every row or in none")
    eta, g, clamped = precision_update(gamma_opposite * v, gamma_opposite)
    return eta, gamma_opposite / eta, g, clamped


@dataclass
class MessageState:
    """Messages per hidden variable: means r of shape (N,), precisions of
    shape (L,); for a batch of T observations (T, N) means and (L, T, 1)
    precisions, one column per variable."""

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


def init_state(net, batch=None):
    """Zero messages for one observation, or for ``batch`` observations."""
    dims = net.dims[:-1]
    rows, col = ((), ()) if batch is None else ((batch,), (batch, 1))
    return MessageState(
        r_plus=[np.zeros(rows + (d,)) for d in dims],
        r_minus=[np.zeros(rows + (d,)) for d in dims],
        gamma_plus=np.zeros((len(dims),) + col),
        gamma_minus=np.zeros((len(dims),) + col),
    )


def nmse_db(truth, estimate):
    """10 log10(||truth - estimate||^2 / ||truth||^2), clipped below at -200 dB;
    one value per row of (T, N) arrays."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("truth and estimate must have equal dimensions")
    ref = (truth**2).sum(axis=-1)
    if any_true(ref <= 0):
        raise ValueError("zero-norm truth vector")
    ratio = ((truth - estimate) ** 2).sum(axis=-1) / ref
    # ratios below 1e-30 (0 included) clip to -200 dB either way
    db = np.maximum(10.0 * np.log10(np.maximum(ratio, 1e-30)), -200.0)
    return float(db) if np.ndim(db) == 0 else db


def _avg(var):
    """Mean over each observation's components: a scalar for one
    observation, a (T, 1) column for a batch."""
    return np.mean(var, axis=-1, keepdims=var.ndim > 1)


def _belief(net, y, state, held, ell, forward):
    """Belief mean/variance of z_ell: from factor ell (the stage below it) in
    the forward sweep, from factor ell+1 (the stage above) in the reverse.
    ``held[i]`` is what stage i's two calls share (see ``run``)."""
    if forward and ell == 0:
        return denoise_input(state.r_minus[0], state.gamma_minus[0])
    i = ell - 1 if forward else ell
    stage = net.stages[i]
    if i == net.n_layers - 1:   # the observed stage, reached in reverse only
        if stage.kind == "linear":
            res = denoise_linear_observed(stage, y, state.r_plus[i],
                                          state.gamma_plus[i], transforms=held[i])
            return res.z_hat_minus, res.var_in_mean
        mean, var = denoise_output_nonlinear(stage, y, state.r_plus[i],
                                             state.gamma_plus[i])
        return mean, _avg(var)
    args = (state.r_plus[i], state.r_minus[i + 1],
            state.gamma_plus[i], state.gamma_minus[i + 1])
    if stage.kind == "linear":
        res = denoise_linear(stage, *args, side="plus" if forward else "minus",
                             transforms=held[i])
        return ((res.z_hat_plus, res.var_out_mean) if forward
                else (res.z_hat_minus, res.var_in_mean))
    res = denoise_middle(stage, *args, side="out" if forward else "in", branch=held[i])
    return ((res.mean_out, _avg(res.var_out)) if forward
            else (res.mean_in, _avg(res.var_in)))


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
    fresh array and none is modified in place, which lets a ``Reuse`` key
    on a message's identity.  Returns the half-iteration's IterationRecord
    (without NMSE); for a batch its precisions keep the state's (L, T, 1)
    shape and ``clamp_events`` is a (T, 1) column.
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
    etas, alphas = np.zeros_like(g_own), np.zeros_like(g_own)
    clamps = np.zeros(g_own.shape, dtype=int)
    z_hats = [None] * n
    damp = opts.damping
    blend = damp < 1.0 and state.k >= 1
    for ell in order:
        try:
            z_hat, vbar = denoise(ell)
        except MlvampError as exc:
            raise EngineError(
                f"denoiser failed at layer {ell} ({direction}, k={state.k}): {exc}",
                state_dump=_dump(state, ell, direction)) from exc
        eta, alpha, g_new, clamped = posterior_to_message(vbar, g_opp[ell])
        if z_hat is not None:
            r_new = extrinsic_mean(eta, z_hat, g_opp[ell], r_opp[ell], g_new)
            r_own[ell] = damp * r_new + (1 - damp) * r_own[ell] if blend else r_new
        if blend:
            g_new = damp * g_new + (1 - damp) * g_own[ell]
            eta = g_new + g_opp[ell]
        g_own[ell] = g_new
        if any_true(~np.isfinite(g_new)) or (
                z_hat is not None and not np.all(np.isfinite(r_own[ell]))):
            raise EngineError(
                f"non-finite message at layer {ell} ({direction}, k={state.k})",
                state_dump=_dump(state, ell, direction))
        etas[ell], alphas[ell], clamps[ell] = eta, alpha, clamped
        z_hats[ell] = z_hat
    half = 2 * state.k + (1 if direction == "forward" else 2)
    events = clamps.sum(axis=0)
    return IterationRecord(
        k=state.k, half_iter=half, direction=direction, z_hat=z_hats,
        eta=etas, alpha=alphas,
        gamma_plus=state.gamma_plus.copy(), gamma_minus=state.gamma_minus.copy(),
        clamp_events=int(events) if events.ndim == 0 else events)


class Reuse:
    """fn(src, *args), kept while src is the same array (see ``sweep``) and
    args have the same values (copied: the precisions change in place)."""

    def __init__(self, fn):
        self.fn, self._key, self._value = fn, None, None

    def __call__(self, src, *args):
        key = self._key
        if (key is None or key[0] is not src
                or not all(map(np.array_equal, key[1], args))):
            self._key = (src, [np.copy(a) for a in args])
            self._value = self.fn(src, *args)
        return self._value


def check_inputs(net, y, truth):
    """Reject a y whose width is not the network output, a truth list that
    does not match a batch, non-finite entries and a truth layer of zero
    norm, which no NMSE can refer to, naming the trial of a batch (and the
    layer).  Returns the truth per hidden layer, the T truths stacked for a
    (T, M) y, or None without a truth."""
    if y.ndim not in (1, 2) or y.shape[-1] != net.dims[-1]:
        raise MlvampError(
            f"observation length {y.shape} does not match network output "
            f"dimension {net.dims[-1]}")
    batch = y.ndim == 2
    if batch and truth is not None and len(truth) != len(y):
        raise MlvampError(f"{len(truth)} truth trajectories for {len(y)} observations")
    bad = np.count_nonzero(~np.isfinite(np.atleast_2d(y)), axis=1)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        whose = f"observation of trial {t}" if batch else "observation"
        raise MlvampError(f"{whose} has {bad[t]} non-finite entries of {y.shape[-1]}")
    if truth is None:
        return None
    n = len(net.dims) - 1   # the layers z_0 .. z_(L-1): all but y
    truth_z = truth.z[:n] if not batch else [
        np.array([tr.z[ell] for tr in truth]) for ell in range(n)]
    for ell, tz in enumerate(truth_z):
        zero = np.flatnonzero(np.sum(np.atleast_2d(tz) ** 2, axis=1) <= 0)
        if zero.size:
            whose = f"truth of trial {zero[0]}" if batch else "truth"
            raise MlvampError(f"{whose} has zero norm at layer {ell}")
    return truth_z


def _trial_record(rec, t):
    """Trial t's record out of a batch record."""
    return replace(
        rec, z_hat=None if rec.z_hat is None else [z[t] for z in rec.z_hat],
        nmse_db=None if rec.nmse_db is None else rec.nmse_db[t],
        clamp_events=int(rec.clamp_events[t, 0]),
        **{f: getattr(rec, f)[:, t, 0]
           for f in ("eta", "alpha", "gamma_plus", "gamma_minus")})


def run(net, y, options=None, truth=None):
    """Run max_iter iterations (two half-iterations each); returns the
    per-half-iteration records.  ``truth`` (a Trajectory) enables per-layer
    NMSE tracking.

    A (T, M) ``y`` runs its T observations as one batch, each linear
    transform as one product with T rows; ``truth`` is then a list of T
    trajectories or None.  The result is every trial's records in turn
    (trial-major), as T single-observation runs would return them.
    """
    opts = options or EngineOptions()
    y = np.asarray(y, dtype=float)
    truth_z = check_inputs(net, y, truth)
    batch = len(y) if y.ndim == 2 else None
    state = init_state(net, batch)
    # what a stage's forward and reverse calls share: a linear stage's input
    # transforms, a relu stage's z_in < 0 branch
    held = [(Reuse(st.svd_in), Reuse(st.svd_out)) if st.kind == "linear"
            else Reuse(scalar_denoiser._negative_branch) if st.activation == "relu"
            else None for st in net.stages]
    records = []
    for _ in range(opts.max_iter):
        for forward, direction in ((True, "forward"), (False, "reverse")):
            denoise = partial(_belief, net, y, state, held, forward=forward)
            rec = sweep(state, direction, denoise, opts)
            if truth is not None:   # (L,), or (T, L) for a batch
                rec.nmse_db = np.array([nmse_db(tz, z)
                                        for tz, z in zip(truth_z, rec.z_hat)]).T
            if not opts.store_estimates:
                rec.z_hat = None
            records.append(rec)
        state.k += 1
    if batch is None:
        return records
    return [_trial_record(rec, t) for t in range(batch) for rec in records]
