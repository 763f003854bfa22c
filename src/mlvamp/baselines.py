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
than half its entries nonzero takes the half-density route: it gathers the
rows Wᵀ[act] of its k active inputs once per call and uses that block for
both passes.  It reads k n_out doubles of Wᵀ once, where the dense route
reads n_in n_out twice, and rereads its copy cache-hot.  At the paper
network's true z0 (rho = 0.4, about 31% of each relu layer active) a call
reads 0.27 M doubles of Wᵀ against 1.36 M dense.  At half density or more
the dense product stays, since the gather would copy most of the matrix.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MlvampError

DIVERGENCE_LOSS = 1e12
# Adaptive-moment (Adam) decay rates and denominator guard of map_estimate.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class HamiltonianContext:
    """Deterministic hidden chain + noisy linear measurement of y.  Holds
    each linear stage's dense Wᵀ, C-order n_in x n_out (``wts``, one entry
    per stage of ``net``, None where nonlinear), made once here: 5.4 MB on
    the paper network, against 8.2 MB of factors.  Its rows are what the
    half-density route gathers: 0.27 M of the 1.36 M doubles a dense call
    reads, at the paper network's true z0."""

    net: object
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        meas = self.net.stages[-1]
        if meas.kind != "linear" or math.isinf(meas.nu):
            raise MlvampError("baselines need a final linear stage with finite noise")
        for st in self.net.stages[:-1]:
            noisy = (st.kind == "linear" and math.isfinite(st.nu)) or \
                    (st.kind == "nonlinear" and st.noise_var > 0)
            if noisy:
                raise MlvampError("baselines require deterministic hidden stages")
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


def _forward(ctx, z0):
    """All activations x_0 = z0 .. x_H (measurement input), A x_H + b, and
    per stage its gathered (act, Wᵀ[act]) or None (dense or nonlinear).  A
    relu output under half density is gathered; act keeps a NaN entry."""
    xs, blocks = [np.asarray(z0, dtype=float)], []
    after_relu = False
    for st, wt in zip(ctx.net.stages, ctx.wts):
        x, blk = xs[-1], None
        if wt is None:
            xs.append(st.apply(x))
        elif after_relu and 2 * np.count_nonzero(x) < x.size:
            act = np.flatnonzero(x)
            blk = act, wt[act]
            xs.append(x[act] @ blk[1] + st.b)
        else:
            xs.append(x @ wt + st.b)
        blocks.append(blk)
        after_relu = wt is None and st.activation == "relu"
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


def hamiltonian(ctx, z0):
    z0 = _checked_input(ctx, z0)
    return _loss(ctx, z0, _forward(ctx, z0)[0][-1])[0]


def grad_hamiltonian(ctx, z0):
    """Exact gradient of H; also returns (H, measurement input) for reuse.
    A gathered stage scatters blk @ g over act into zeros; the relu mask
    before it zeroes the same entries."""
    z0 = np.asarray(z0, dtype=float)
    xs, blocks = _forward(ctx, z0)
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
    draws N(0, I) from ``seed`` (useful for restarts).  ``losses`` holds H at
    the start and after every step: each step's gradient supplies H at its
    iterate, and one ``hamiltonian`` call gives H at the last.
    """
    if init is None:
        x = np.zeros(ctx.n0)
    elif isinstance(init, str) and init == "random":
        x = np.random.default_rng(seed).standard_normal(ctx.n0)
    else:
        x = _checked_input(ctx, np.array(init, dtype=float))
    losses = []
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, steps + 1):
        g, loss, _ = grad_hamiltonian(ctx, x)
        losses.append(loss)
        _check_loss(losses, "MAP optimization")
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        x = x - step_size * m_hat / (np.sqrt(v_hat) + EPS)
    losses.append(hamiltonian(ctx, x))
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
    scale = math.sqrt(2.0 * lam)
    for k in range(steps):
        g, loss, recon = grad_hamiltonian(ctx, x)
        losses[k] = loss
        _check_loss(losses[:k + 1], "SGLD")
        if k >= burn_in:
            samples[n_avg] = x
            recon_sum = recon.copy() if recon_sum is None else recon_sum + recon
            n_avg += 1
        x = x - lam * g + scale * rng.standard_normal(ctx.n0)
    return SgldResult(z0_mean=samples.mean(axis=0), recon_mean=recon_sum / n_avg,
                      z0_samples=samples, loss_trace=losses, n_averaged=n_avg)
