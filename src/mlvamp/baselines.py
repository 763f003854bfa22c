"""MAP estimation and SGLD posterior sampling over the network input.

Both baselines work on the Hamiltonian

    H(z0) = nu/2 ||y - A f(z0) - b||^2 + 1/2 ||z0||^2        (constants dropped)

where f is the deterministic composition of the hidden stages and the final
stage is a linear measurement with noise precision nu.  Gradients are exact
reverse-mode through the chain; the relu subgradient at the kink is 0.
A baseline step is one gradient call, which also returns H at the iterate;
a loss that is NaN or above DIVERGENCE_LOSS raises ``DivergenceError``.

Linear stages are applied through their dense Wᵀ (C-order, n_in x n_out:
x Wᵀ + b forward, Wᵀ g back), which streams n_in n_out doubles per pass.  A
relu leaves exact zeros, so a stage whose input is a relu output with fewer
than half its entries nonzero takes the half-density route: it uses the rows
Wᵀ[act] of its k active inputs, a block read once forward and again,
cache-hot, backward (0.27 M doubles of Wᵀ against 1.36 M dense, at the
paper network's true z0).  A run keeps that block in an active-row store
per stage (``row_stores``) and, per call, copies only the rows of inputs
that turned active: on the paper network (rho 0.4) MAP leaves a stage's
active set as it was in 66-97% of calls, and SGLD changes 0.1-2% of its
rows per step.  A standalone call starts from empty stores, so it copies
all k rows, in input order.  At half density or more the dense product
stays.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, MlvampError

DIVERGENCE_LOSS = 1e12
# Adaptive-moment (Adam) decay rates and denominator guard of map_estimate.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_network(net):
    """ConfigError unless the baselines can run on ``net``: deterministic
    hidden stages and a final linear stage with finite noise."""
    meas = net.stages[-1]
    if meas.kind != "linear" or math.isinf(meas.nu):
        raise ConfigError("baselines need a final linear stage with finite noise")
    for st in net.stages[:-1]:
        if (st.kind == "linear" and math.isfinite(st.nu)) or \
                (st.kind == "nonlinear" and st.noise_var > 0):
            raise ConfigError("baselines require deterministic hidden stages")


@dataclass(eq=False)
class HamiltonianContext:
    """Deterministic hidden chain + noisy linear measurement of y.  Holds
    each linear stage's dense Wᵀ, C-order n_in x n_out (``wts``, one entry
    per stage of ``net``, None where nonlinear), made once here: 5.4 MB on
    the paper network, against 8.2 MB of factors.  The context keeps no
    per-run state: the active-row stores that copy Wᵀ rows are made per MAP
    or SGLD run (``row_stores``), at most n_in // 2 rows per relu-fed stage,
    and a call copies only the rows of inputs that turned active."""

    net: object
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        check_network(self.net)
        meas = self.net.stages[-1]
        if self.y.shape != (meas.n_out,):
            raise MlvampError("observation does not match measurement dimension")
        bad = np.count_nonzero(~np.isfinite(self.y))
        if bad:
            raise MlvampError(f"observation has {bad} non-finite entries of {self.y.size}")
        self.meas = meas
        self.hidden = self.net.stages[:-1]
        self.n0 = self.net.n0
        self.wts = [st.to_dense().T.copy() if st.kind == "linear" else None
                    for st in self.net.stages]


class _ActiveRows:
    """The rows Wᵀ[act] of one relu-fed stage's active inputs, kept across a
    run's gradient calls in a C-order buffer of n_in // 2 rows (``np.empty``,
    so pages no row reaches are never resident); the route keeps the count k
    below that.  ``units`` maps slot -> input, ``pos`` input -> slot or -1."""

    def __init__(self, wt):
        self.wt, self.k = wt, 0
        self.block = np.empty((wt.shape[0] // 2, wt.shape[1]))
        self.units = np.empty(wt.shape[0] // 2, dtype=np.intp)
        self.pos = np.full(wt.shape[0], -1, dtype=np.intp)

    def update(self, x):
        """(units[:k], block[:k]) for the inputs with x != 0 (a NaN stays
        active), copying only the rows that change: rows left at or above
        the new count k move down into freed slots, and newly active rows
        take the freed slots left below k, then are appended.  A fresh
        store appends in ``flatnonzero`` order."""
        units, pos, block, k = self.units, self.pos, self.block, self.k
        act = x != 0
        flip = np.flatnonzero(act != (pos >= 0))
        if flip.size:
            on = act[flip]
            new, gone = flip[on], flip[~on]
            k1 = self.k = k + new.size - gone.size
            if gone.size:
                free = pos[gone]
                pos[gone] = -1
                low = free[free < k1]
                src = k1 + np.flatnonzero(pos[units[k1:k]] >= 0)
                moved, slots = low[:src.size], low[src.size:]
                units[moved] = units[src]
                block[moved] = block[src]
                pos[units[moved]] = moved
                fill, new = new[:slots.size], new[slots.size:]
                units[slots] = fill
                block[slots] = self.wt[fill]
                pos[fill] = slots
            tail = slice(k1 - new.size, k1)
            units[tail] = new
            pos[new] = np.arange(k1 - new.size, k1)
            # mode="clip" (the indices are in range) lets take write the
            # appended rows straight into the buffer, with no temporary
            np.take(self.wt, new, axis=0, out=block[tail], mode="clip")
        return units[:self.k], block[:self.k]


def row_stores(ctx):
    """A fresh active-row store for each linear stage whose input is a relu
    output, None elsewhere: one set serves a whole MAP or SGLD run."""
    stores, after_relu = [], False
    for st, wt in zip(ctx.net.stages, ctx.wts):
        stores.append(_ActiveRows(wt) if wt is not None and after_relu else None)
        after_relu = wt is None and st.activation == "relu"
    return stores


def _forward(ctx, z0, rows=None):
    """All activations x_0 = z0 .. x_H (measurement input), A x_H + b, and
    per stage its gathered (units, Wᵀ[units]) or None (dense or nonlinear).
    A relu output under half density is gathered through its store in
    ``rows`` (fresh stores where None)."""
    xs, blocks = [np.asarray(z0, dtype=float)], []
    for st, wt, store in zip(ctx.net.stages, ctx.wts,
                              row_stores(ctx) if rows is None else rows):
        x, blk = xs[-1], None
        if wt is None:
            xs.append(st.apply(x))
        elif store is not None and 2 * np.count_nonzero(x) < x.size:
            blk = store.update(x)
            xs.append(x[blk[0]] @ blk[1] + st.b)
        else:
            xs.append(x @ wt + st.b)
        blocks.append(blk)
    return xs, blocks


def _checked_input(ctx, z0):
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (ctx.n0,) or not np.all(np.isfinite(z0)):
        raise ValueError("z0 must be a finite vector of the input dimension")
    return z0


def _loss(ctx, z0, meas_out):
    """H at z0 from meas_out = A f(z0) + b, and the residual meas_out - y."""
    resid = meas_out - ctx.y
    return 0.5 * ctx.meas.nu * float(resid @ resid) + 0.5 * float(z0 @ z0), resid


def hamiltonian(ctx, z0, rows=None):
    z0 = _checked_input(ctx, z0)
    return _loss(ctx, z0, _forward(ctx, z0, rows)[0][-1])[0]


def grad_hamiltonian(ctx, z0, rows=None):
    """Exact gradient of H; also returns (H, measurement input) for reuse.
    A gathered stage scatters blk @ g over its units into zeros; the relu
    mask before it zeroes the same entries.  ``rows`` as in ``_forward``."""
    z0 = np.asarray(z0, dtype=float)
    xs, blocks = _forward(ctx, z0, rows)
    loss, resid = _loss(ctx, z0, xs[-1])
    g = ctx.meas.nu * resid
    for st, wt, blk, x_in in zip(reversed(ctx.net.stages), reversed(ctx.wts),
                                 reversed(blocks), reversed(xs[:-1])):
        if blk is not None:
            g_in = np.zeros(x_in.size)
            g_in[blk[0]] = blk[1] @ g
            g = g_in
        elif wt is not None:
            g = wt @ g
        elif st.activation == "relu":
            g = g * (x_in > 0)
        # identity passes the gradient through unchanged
    return g + z0, loss, xs[-2]


def _check_loss(trace, what):
    """DivergenceError if the last loss is NaN or above DIVERGENCE_LOSS."""
    if not trace[-1] <= DIVERGENCE_LOSS:
        raise DivergenceError(f"{what} diverged", trace=np.array(trace))


@dataclass
class MapResult:
    z0_hat: np.ndarray
    losses: np.ndarray


def map_estimate(ctx, steps=500, step_size=0.01, seed=0, init=None):
    """Adaptive-moment gradient descent on H (BETA1, BETA2, EPS).

    ``init=None`` starts at the prior mean (zero), which lands in markedly
    better basins than a random start on stiff relu chains; ``init="random"``
    draws N(0, I) from ``seed`` (useful for restarts).  A start where the
    gradient is exactly zero, which Adam never leaves, raises MlvampError.
    ``losses`` holds H at the start and after every step: each step's
    gradient supplies H at its iterate, and one ``hamiltonian`` call gives H
    at the last.
    """
    if init is None:
        x = np.zeros(ctx.n0)
    elif isinstance(init, str) and init == "random":
        x = np.random.default_rng(seed).standard_normal(ctx.n0)
    else:
        x = _checked_input(ctx, np.array(init, dtype=float))
    losses, rows = [], row_stores(ctx)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, steps + 1):
        g, loss, _ = grad_hamiltonian(ctx, x, rows)
        losses.append(loss)
        _check_loss(losses, "MAP optimization")
        if t == 1 and not np.any(g):
            raise MlvampError("MAP start is a stationary point (gradient exactly "
                              "zero, e.g. no first-layer relu unit active at "
                              "z0 = 0); try init=\"random\"")
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        x = x - step_size * m_hat / (np.sqrt(v_hat) + EPS)
    losses.append(hamiltonian(ctx, x, rows))
    _check_loss(losses, "MAP optimization")
    return MapResult(z0_hat=x, losses=np.array(losses))


@dataclass
class SgldResult:
    z0_mean: np.ndarray
    recon_mean: np.ndarray
    z0_samples: np.ndarray
    loss_trace: np.ndarray
    n_averaged: int


def sgld_run(ctx, steps=10000, lam=0.002, burn_in=5000, seed=0):
    """Langevin sampling z_{k+1} = z_k - lam grad H + sqrt(2 lam) w_k, with
    z_0 ~ N(0, I) and the w_k drawn from ``seed``.

    Post-burn-in samples are kept and averaged into a posterior-mean input
    estimate and a posterior-mean reconstruction (the measurement-stage input
    pushed through the hidden chain).
    """
    if lam <= 0:
        raise MlvampError("lambda must be positive")
    if not 0 <= burn_in < steps:
        raise MlvampError("burn_in must be >= 0 and smaller than steps")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(ctx.n0)
    samples = np.empty((steps - burn_in, ctx.n0))
    recon_sum = None
    n_avg = 0
    losses = np.empty(steps)
    scale, rows = math.sqrt(2.0 * lam), row_stores(ctx)
    for k in range(steps):
        g, loss, recon = grad_hamiltonian(ctx, x, rows)
        losses[k] = loss
        _check_loss(losses[:k + 1], "SGLD")
        if k >= burn_in:
            samples[n_avg] = x
            recon_sum = recon.copy() if recon_sum is None else recon_sum + recon
            n_avg += 1
        x = x - lam * g + scale * rng.standard_normal(ctx.n0)
    return SgldResult(z0_mean=samples.mean(axis=0), recon_mean=recon_sum / n_avg,
                      z0_samples=samples, loss_trace=losses, n_averaged=n_avg)
