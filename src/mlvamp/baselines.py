"""MAP estimation and SGLD posterior sampling over the network input.

Both baselines work on the Hamiltonian

    H(z0) = nu/2 ||y - A f(z0) - b||^2 + 1/2 ||z0||^2        (constants dropped)

where f is the deterministic composition of the hidden stages and the final
stage is a linear measurement with noise precision nu.  Gradients are exact
reverse-mode through the chain; the relu subgradient at the kink is 0.
A baseline step is one gradient call, which also returns H at the iterate;
a loss that is NaN or above DIVERGENCE_LOSS raises ``DivergenceError``.

Linear stages are applied through their dense W (W x + b forward, g W back):
a full-rank W streams n_in n_out doubles per pass, its thin factors
r (n_in + n_out) (0.68 M against 1.03 M on the paper network).  Only a stage
of rank r < n_in n_out / (n_in + n_out) would stream more; the builder makes
none.
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
    """Deterministic hidden chain + noisy linear measurement of y.  Holds the
    dense W of each stage (``weights``, None where nonlinear; ``w_meas``),
    made once here: 5.4 MB on the paper network, against 8.2 MB of factors."""

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
        self.weights = [st.to_dense() if st.kind == "linear" else None
                        for st in self.hidden]
        self.w_meas = meas.to_dense()


def _forward(ctx, z0):
    """All intermediate activations x_0 = z0 .. x_H = measurement input."""
    xs = [np.asarray(z0, dtype=float)]
    for st, w in zip(ctx.hidden, ctx.weights):
        xs.append(st.apply(xs[-1]) if w is None else w @ xs[-1] + st.b)
    return xs


def _checked_input(ctx, z0):
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (ctx.n0,) or not np.all(np.isfinite(z0)):
        raise ValueError("z0 must be a finite vector of the input dimension")
    return z0


def _loss(ctx, z0, x_meas):
    """H at z0 from x_meas = f(z0), and the residual A x_meas + b - y."""
    resid = ctx.w_meas @ x_meas + ctx.meas.b - ctx.y
    return 0.5 * ctx.meas.nu * float(resid @ resid) + 0.5 * float(z0 @ z0), resid


def hamiltonian(ctx, z0):
    z0 = _checked_input(ctx, z0)
    return _loss(ctx, z0, _forward(ctx, z0)[-1])[0]


def grad_hamiltonian(ctx, z0):
    """Exact gradient of H; also returns (H, measurement input) for reuse."""
    z0 = np.asarray(z0, dtype=float)
    xs = _forward(ctx, z0)
    loss, resid = _loss(ctx, z0, xs[-1])
    g = ctx.meas.nu * (resid @ ctx.w_meas)
    for st, w, x_in in zip(reversed(ctx.hidden), reversed(ctx.weights),
                           reversed(xs[:-1])):
        if w is not None:
            g = g @ w
        elif st.activation == "relu":
            g = g * (x_in > 0)
        # identity passes the gradient through unchanged
    return g + z0, loss, xs[-1]


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
    if burn_in >= steps:
        raise MlvampError("burn_in must be smaller than steps")
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
