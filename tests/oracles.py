"""Independent reference computations used by the tests.

Everything here solves the relevant problems by brute force (dense linear
algebra, covariance propagation, Monte Carlo, fine panel and tensor
quadrature, 50-digit mpmath quadrature) without touching the message passing
code paths it is used to check.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from mlvamp.errors import MlvampError
from mlvamp.gauss import gh_nodes
from mlvamp.network import NetworkSpec, NonlinearStage, svd_decompose_stage
from mlvamp.scalar_denoiser import denoise_middle, denoise_output_nonlinear

_LOG_2PI = np.log(2.0 * np.pi)


def log_norm_pdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(var) + _LOG_2PI)


def empirical_layer_moments(traj):
    """Per-layer second moments (1/N) ||z_l||^2.  Every V is orthogonal, so
    these equal the second moments of the SVD-coordinate truth."""
    return np.array([float(np.mean(z**2)) for z in traj.z])


def _mp_half_line(f, mean, var, sign):
    """mpmath integral of f(z) exp(-(z - mean)^2 / (2 var)) over sign * z > 0.

    The exponent is shifted so the integrand peaks at 1 (mpmath's quad stops
    on an absolute error estimate, so an integrand of size e^-100 comes back
    with no correct digits) and the shift is multiplied back outside.  Breaks
    sit at the peak, or at multiples of the decay length var / |mean| where
    the Gaussian is cut off before its peak.
    """
    import mpmath as mp

    m = sign * mean    # mirrored so that the half line is u > 0
    sd = mp.sqrt(var)
    if m > 0:
        pts = [0] + [p for p in (m - 8 * sd, m) if p > 0] + [m + 8 * sd, m + 40 * sd, mp.inf]
        return mp.quad(lambda u: f(sign * u) * mp.exp(-(u - m) ** 2 / (2 * var)), pts)
    scale = min(sd, var / -m) if m < 0 else sd
    pts = [0, scale, 4 * scale, 16 * scale, 64 * scale, mp.inf]
    return mp.exp(-m * m / (2 * var)) * mp.quad(
        lambda u: f(sign * u) * mp.exp(-u * (u - 2 * m) / (2 * var)), pts)


def truncated_gaussian_reference(mean, var, sign, dps=50):
    """(mean, variance) of N(mean, var) restricted to sign * z > 0, by
    dps-digit mpmath quadrature."""
    import mpmath as mp

    with mp.workdps(dps):
        m, v = mp.mpf(mean), mp.mpf(var)
        mass = _mp_half_line(lambda z: 1, m, v, sign)
        mu = _mp_half_line(lambda z: z, m, v, sign) / mass
        return float(mu), float(_mp_half_line(lambda z: (z - mu) ** 2, m, v, sign) / mass)


def relu_posterior_reference(r_plus, r_minus, gamma_plus, gamma_minus, dps=50):
    """(mean_in, var_in, mean_out, var_out) of the noiseless relu stage's
    posterior p(z) ~ exp(-gp/2 (z - r+)^2 - gm/2 (relu(z) - r-)^2), z the
    stage input, by dps-digit mpmath quadrature over the two half lines;
    variances are integrated about the mean, so no moment difference cancels.
    """
    import mpmath as mp

    with mp.workdps(dps):
        rp, rm, gp, gm = (mp.mpf(a) for a in (r_plus, r_minus, gamma_plus, gamma_minus))
        vt = 1 / (gp + gm)
        # (half line, Gaussian mean and variance in z, constant factor)
        branches = ((-1, rp, 1 / gp, mp.exp(-gm * rm ** 2 / 2)),
                    (1, (gp * rp + gm * rm) * vt, vt,
                     mp.exp(-gp * gm * vt * (rp - rm) ** 2 / 2)))

        def integral(f):
            return sum(w * _mp_half_line(f, m, v, sign) for sign, m, v, w in branches)

        mass = integral(lambda z: 1)
        mean_in = integral(lambda z: z) / mass
        var_in = integral(lambda z: (z - mean_in) ** 2) / mass
        mean_out = integral(lambda z: max(z, 0)) / mass
        var_out = integral(lambda z: (max(z, 0) - mean_out) ** 2) / mass
        return tuple(float(a) for a in (mean_in, var_in, mean_out, var_out))


def dense_joint_linear_solve(W, b, nu, r_plus, r_minus, gamma_plus, gamma_minus):
    """Mean of the joint Gaussian belief over (z_in, z_out) for a linear stage.

    Minimizes nu/2 ||z_out - W z_in - b||^2 + gm/2 ||z_out - r-||^2
              + gp/2 ||z_in - r+||^2 by a full (n_in + n_out) solve.
    """
    n_out, n_in = W.shape
    H = np.zeros((n_in + n_out, n_in + n_out))
    c = np.zeros(n_in + n_out)
    H[:n_in, :n_in] = gamma_plus * np.eye(n_in) + nu * W.T @ W
    H[:n_in, n_in:] = -nu * W.T
    H[n_in:, :n_in] = -nu * W
    H[n_in:, n_in:] = (gamma_minus + nu) * np.eye(n_out)
    c[:n_in] = gamma_plus * r_plus - nu * W.T @ b
    c[n_in:] = gamma_minus * r_minus + nu * b
    mean = np.linalg.solve(H, c)
    cov = np.linalg.inv(H)
    return (mean[:n_in], mean[n_in:],
            np.mean(np.diag(cov)[:n_in]), np.mean(np.diag(cov)[n_in:]))


def dense_constrained_linear_solve(W, b, r_plus, r_minus, gamma_plus, gamma_minus):
    """Deterministic-stage limit: minimize the two quadratics subject to
    z_out = W z_in + b."""
    n_in = W.shape[1]
    A = gamma_plus * np.eye(n_in) + gamma_minus * W.T @ W
    z_in = np.linalg.solve(A, gamma_plus * r_plus + gamma_minus * W.T @ (r_minus - b))
    return z_in, W @ z_in + b


def ridge_solve(W, b, nu, y, r_plus, gamma_plus):
    """Posterior mean of z_in given y = W z_in + b + noise."""
    n_in = W.shape[1]
    A = gamma_plus * np.eye(n_in) + nu * W.T @ W
    return np.linalg.solve(A, gamma_plus * r_plus + nu * W.T @ (y - b))


def _factor_t_apply(stage, g):
    """W^T g through the thin factors."""
    return stage.v_in.T @ (stage.s * (stage.v_out.T @ g))


def thin_factor_gradient(ctx, z0):
    """(grad H, H, measurement input) of a baselines ``HamiltonianContext``,
    with every linear stage applied through its thin factors
    (``LinearStage.apply`` forward, V_in^T diag(s) V_out^T g back) instead of
    the dense W the context holds."""
    z0 = np.asarray(z0, dtype=float)
    xs = [z0]
    for st in ctx.hidden:
        xs.append(st.apply(xs[-1]))
    resid = ctx.meas.apply(xs[-1]) - ctx.y
    loss = 0.5 * ctx.meas.nu * float(resid @ resid) + 0.5 * float(z0 @ z0)
    g = ctx.meas.nu * _factor_t_apply(ctx.meas, resid)
    for st, x_in in zip(reversed(ctx.hidden), reversed(xs[:-1])):
        if st.kind == "linear":
            g = _factor_t_apply(st, g)
        elif st.activation == "relu":
            g = g * (x_in > 0)
    return g + z0, loss, xs[-1]


def gaussian_chain_posterior(net, y):
    """Exact per-layer posterior means and average variances for a chain of
    linear and identity stages: covariance propagation, then every
    conditioning on y through one Cholesky factor L of Cov(y), so that
    diag(C_j Cov(y)^-1 C_j^T) is the column sums of (L^-1 C_j^T)^2."""
    mus = [np.zeros(net.n0)]
    sigs = [np.eye(net.n0)]
    cross = [np.eye(net.n0)]  # cross[j] = Cov(z_j, z_current)
    for st in net.stages:
        if st.kind == "linear":
            A = st.to_dense()
            nv = 0.0 if math.isinf(st.nu) else 1.0 / st.nu
            mus.append(A @ mus[-1] + st.b)
            cross = [cj @ A.T for cj in cross]
            sig = A @ sigs[-1] @ A.T + nv * np.eye(st.n_out)
        else:
            if st.activation != "identity":
                raise ValueError("gaussian_chain_posterior needs a Gaussian chain")
            # z_out = z_in + noise: the mean and the cross-covariances carry over
            mus.append(mus[-1])
            sig = sigs[-1] + st.noise_var * np.eye(st.n)
        sigs.append(sig)
        cross.append(sig)
    chol = linalg.cholesky(sigs[-1], lower=True)
    innov = linalg.cho_solve((chol, True), y - mus[-1])
    means, avg_vars = [], []
    for j in range(len(net.stages)):
        cj = cross[j]
        means.append(mus[j] + cj @ innov)
        x = linalg.solve_triangular(chol, cj.T, lower=True)
        avg_vars.append(float(np.mean(np.diag(sigs[j]) - np.sum(x * x, axis=0))))
    return means, avg_vars


class DenseLinearStage:
    """A linear stage kept as its dense W, for the dense oracles alone.

    It has what gaussian_chain_posterior, stats_from_network and
    sample_trajectory read of a LinearStage: ``to_dense()`` is W itself, s
    holds the square roots of the eigenvalues of W's smaller Gram matrix,
    clipped at 0, in descending order (no rank cut; about a third of the
    time of ``np.linalg.svd(W, compute_uv=False)`` at 4096 x 4096), and
    ``sample_output`` draws its noise as LinearStage does.  It has no
    factors, so the engine cannot run on it."""

    kind = "linear"

    def __init__(self, W, b, nu):
        self.W, self.b, self.nu = W, b, nu
        gram = W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
        self.s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))[::-1]
        self.n_out, self.n_in = W.shape

    def to_dense(self):
        return self.W

    def sample_output(self, z, rng):
        out = self.W @ z + self.b
        if np.isfinite(self.nu):
            out = out + rng.normal(0.0, 1.0 / math.sqrt(self.nu), self.n_out)
        return out


def make_gaussian_chain(n, seed, n_pairs=1, nu_lin=30.0, id_noise=0.05, nu_meas=25.0,
                        n_meas=None, dense=False):
    """Random alternating (linear, identity+noise) chain ending in a noisy
    linear measurement; fully Gaussian, so the dense oracle applies.  With
    ``dense`` the same W are kept as DenseLinearStage, unfactored."""
    rng = np.random.default_rng(seed)
    linear = DenseLinearStage if dense else svd_decompose_stage
    stages = []
    d = n
    for _ in range(n_pairs):
        W = rng.normal(0, 1 / np.sqrt(d), (n, d))
        stages.append(linear(W, rng.normal(0, 0.3, n), nu=nu_lin))
        stages.append(NonlinearStage("identity", id_noise, n))
        d = n
    m = n_meas or n
    W = rng.normal(0, 1 / np.sqrt(n), (m, n))
    stages.append(linear(W, np.zeros(m), nu=nu_meas))
    return NetworkSpec(n0=n, stages=stages)


def _gl_panels(edges, n_nodes):
    """Composite Gauss-Legendre nodes/weights over consecutive panels.

    ``edges`` has shape (P + 1, ...): panel boundaries along the first axis,
    broadcast over any trailing axes (rows with their own panels).
    Zero-length panels get zero weights.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x.reshape((-1,) + (1,) * (edges.ndim - 1))
    weights = half[:, None] * w.reshape((-1,) + (1,) * (edges.ndim - 1))
    shape = (-1,) + edges.shape[1:]
    return nodes.reshape(shape), weights.reshape(shape)


def _split_panels(cuts, n_panels):
    """Edges of ``n_panels`` equal panels on each interval between cuts
    (along the first axis; trailing axes are rows with their own cuts)."""
    cuts = np.asarray(cuts, float)
    parts = [np.linspace(a, b, n_panels + 1)[:-1] for a, b in zip(cuts[:-1], cuts[1:])]
    return np.concatenate(parts + [cuts[-1:]])


def relu_stage_error_reference(gamma_plus, gamma_minus, tau_prev, mean_prev,
                               noise_var=0.0, observed=False, refine=1):
    """Expected posterior variances of a relu stage by a 2-D panel rule.

    The scalar law is R+ ~ N(mean_prev, tau_prev - mean_prev^2 - 1/gamma+),
    Z_in ~ N(R+, 1/gamma+), R- = relu(Z_in) + N(0, v_e), with
    v_e = 1/gamma- + noise_var for a middle stage and v_e = noise_var when the
    output is observed (``observed=True``; ``gamma_minus`` is then unused).
    Z_in is integrated out analytically: given R+ = r, the law of R- is

        Phi(-r sqrt(gamma+)) N(0, v_e)  +  N(r, 1/gamma+ + v_e) Phi(m_t / sqrt(v_t))

    with (m_t, v_t) the z_in > 0 posterior, and each part is integrated over
    R- by composite Gauss-Legendre panels (the second with a refined window
    around the Phi switch).  The R+ axis gets uniform panels over 12 standard
    deviations plus refined panels across the kink layer |r| < 12/sqrt(gamma+).
    The per-point posterior variances are the scalar denoiser's closed forms,
    which are checked against Monte Carlo on their own.  Returns (E+, E-) for
    a middle stage and E- for an observed one.  ``refine`` multiplies every
    panel count, for convergence checks.
    """
    vp = 1.0 / gamma_plus
    v_r = tau_prev - mean_prev**2 - vp
    if v_r <= 0:
        raise ValueError("R+ variance must be positive for the reference rule")
    v_e = noise_var if observed else 1.0 / gamma_minus + noise_var
    sd, n_nodes, big = math.sqrt(v_r), 8, 12.0

    # outer axis R+
    cuts = [mean_prev - big * sd, mean_prev + big * sd]
    kink = big * math.sqrt(vp)
    edges = set(_split_panels(cuts, 48 * refine))
    lo, hi = max(-kink, cuts[0]), min(kink, cuts[1])
    if lo < hi:
        edges |= set(_split_panels([lo, hi], 24 * refine))
    r, w_r = _gl_panels(np.array(sorted(edges)), n_nodes)
    w_r = w_r * np.exp(-0.5 * ((r - mean_prev) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    # z_in < 0 part: R- = noise, integrated in s = R- / sqrt(v_e)
    s, w_s = _gl_panels(_split_panels([-big, big], 48 * refine), n_nodes)
    w_s = w_s * np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
    rm_neg = np.broadcast_to(math.sqrt(v_e) * s[None, :], (r.size, s.size))
    mass_neg = special.ndtr(-r / math.sqrt(vp))

    # z_in > 0 part: R- = r + s2 t, density phi(t) Phi(m_t / sqrt(v_t))
    s2 = math.sqrt(vp + v_e)
    t_switch = -r * s2 / vp            # m_t = 0
    t_zero = -r / s2                   # R- = 0
    width = big * math.sqrt(v_e / vp)
    a = np.clip(np.minimum(t_switch, t_zero) - width, -big, big)
    b = np.clip(np.maximum(t_switch, t_zero) + width, -big, big)
    row_cuts = np.stack([np.full_like(r, -big), a, b, np.full_like(r, big)])
    t, w_t = _gl_panels(_split_panels(row_cuts, 16 * refine), n_nodes)
    t, w_t = t.T, w_t.T                                  # (rows, nodes)
    m_t = r[:, None] + vp * t / s2
    v_t = vp * v_e / (vp + v_e)
    w_t = w_t * np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi) \
        * special.ndtr(m_t / math.sqrt(v_t))
    rm_pos = r[:, None] + s2 * t

    stage = NonlinearStage("relu", noise_var, 1)

    def variances(r_minus):
        rp = np.broadcast_to(r[:, None], r_minus.shape)
        if observed:
            return (denoise_output_nonlinear(stage, r_minus, rp, gamma_plus)[1],)
        res = denoise_middle(stage, rp, r_minus, gamma_plus, gamma_minus)
        return res.var_out, res.var_in

    out = []
    for v_neg, v_pos in zip(variances(rm_neg), variances(rm_pos)):
        per_row = mass_neg * (v_neg @ w_s) + np.sum(v_pos * w_t, axis=1)
        out.append(float(w_r @ per_row))
    return out[0] if observed else tuple(out)


def _cdf_mapped_pieces(a, b, n_nodes):
    """Nodes x and weights w with sum w f(x) ~ E[f(X); a < X < b], X ~ N(0, 1),
    for array bounds (one row of Gauss-Legendre nodes in the CDF variable per
    bound pair; pieces in the upper half line go through the survival
    function)."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    flip = a > 0
    lo = special.ndtr(np.where(flip, -b, a))[..., None]
    hi = special.ndtr(np.where(flip, -a, b))[..., None]
    u, uw = np.polynomial.legendre.leggauss(n_nodes)
    u, uw = 0.5 * (u + 1.0), 0.5 * uw
    x = special.ndtri(np.maximum(lo + u * (hi - lo), 1e-300))
    return np.where(flip[..., None], -x, x), (hi - lo) * uw


def relu_stage_error_tensor(gamma_plus, gamma_minus, tau_prev, mean_prev,
                            noise_var=0.0, observed=False, kink_nodes=15,
                            neg_nodes=63, zin_nodes=20, pos_nodes=41):
    """Expected posterior variances of a relu stage by a 3-D tensor rule.

    Same scalar law and return values as ``relu_stage_error_reference``, but
    Z_in is integrated numerically instead of analytically.  The R+ axis is
    split at +-6/sqrt(gamma+) into three CDF-mapped Gauss-Legendre pieces of
    ``kink_nodes`` each.  Per R+ node the law of R- is split on the sign of
    z_in: z_in < 0 leaves noise alone (``neg_nodes`` Gauss-Hermite nodes);
    z_in > 0 draws z_in from the truncated prior, split at 6 sqrt(v_e) above
    0 (two CDF-mapped pieces of ``zin_nodes``), plus noise (``pos_nodes``
    Gauss-Hermite nodes).
    """
    vp = 1.0 / gamma_plus
    sp = math.sqrt(vp)
    v_r = tau_prev - mean_prev**2 - vp
    if v_r <= 0:
        raise ValueError("R+ variance must be positive for the tensor rule")
    v_e = noise_var if observed else 1.0 / gamma_minus + noise_var
    sd, big = math.sqrt(v_r), 6.0

    edges = np.array([-np.inf, (-big * sp - mean_prev) / sd,
                      (big * sp - mean_prev) / sd, np.inf])
    x, w_r = _cdf_mapped_pieces(edges[:-1], edges[1:], kink_nodes)
    r, w_r = mean_prev + sd * x.ravel(), w_r.ravel()
    rows = r.size

    e_x, e_w = np.polynomial.hermite_e.hermegauss(neg_nodes)
    e_w = e_w / math.sqrt(2 * math.pi)
    rm_neg = np.broadcast_to(math.sqrt(v_e) * e_x, (rows, e_x.size))
    w_neg = special.ndtr(-r / sp)[:, None] * e_w

    lo = -r / sp
    cut = lo + big * math.sqrt(v_e) / sp
    x, w_z = _cdf_mapped_pieces(np.stack([lo, cut], axis=1),
                                np.stack([cut, np.full(rows, np.inf)], axis=1),
                                zin_nodes)
    z = np.maximum(r[:, None] + sp * x.reshape(rows, -1), 0.0)
    w_z = w_z.reshape(rows, -1)
    n_x, n_w = np.polynomial.hermite_e.hermegauss(pos_nodes)
    n_w = n_w / math.sqrt(2 * math.pi)
    rm_pos = (z[:, :, None] + math.sqrt(v_e) * n_x).reshape(rows, -1)
    w_pos = (w_z[:, :, None] * n_w).reshape(rows, -1)

    r_minus, w_m = np.hstack([rm_neg, rm_pos]), np.hstack([w_neg, w_pos])
    r_plus = np.broadcast_to(r[:, None], r_minus.shape)
    ch = NonlinearStage("relu", noise_var, 1)
    if observed:
        var = denoise_output_nonlinear(ch, r_minus, r_plus, gamma_plus)[1]
        return float(w_r @ np.sum(var * w_m, axis=1))
    res = denoise_middle(ch, r_plus, r_minus, gamma_plus, gamma_minus)
    return (float(w_r @ np.sum(res.var_out * w_m, axis=1)),
            float(w_r @ np.sum(res.var_in * w_m, axis=1)))


class MonteCarloError(MlvampError):
    """Importance-sampling oracle produced an unreliable estimate."""

    def __init__(self, message, ess=None):
        super().__init__(message)
        self.ess = ess


@dataclass
class McMoments:
    mean_in: float
    var_in: float
    mean_out: float
    var_out: float
    se_mean_in: float
    se_var_in: float
    se_mean_out: float
    se_var_out: float
    ess: float
    n_samples: int


def _block_se(values):
    values = np.asarray(values)
    return values.std(ddof=1) / np.sqrt(len(values))


def mc_oracle_moments(ch, r_plus, r_minus, gamma_plus, gamma_minus,
                      n_samples=10**6, seed=0, n_blocks=50):
    """Importance-sampling estimate of the middle-stage posterior moments.

    Draws z_in from an equal mixture of the prior pseudo-belief, a
    likelihood-informed Gaussian and a kink-centered component (the relu
    posterior can concentrate in a boundary layer at 0 that neither of the
    first two covers), then weights by the target density.  The proposal only
    affects efficiency (never the estimand), so this stays a valid oracle for
    the analytic paths.  Standard errors come from ``n_blocks`` contiguous
    blocks.
    """
    if n_samples < 10**4:
        raise ValueError("n_samples must be at least 1e4 for the oracle")
    rng = np.random.default_rng(seed)
    vp = 1.0 / gamma_plus

    if gamma_minus > 0:
        v_obs = 1.0 / gamma_minus + ch.noise_var
        if ch.activation == "relu":
            vs = v_obs + vp
            mi_ = (v_obs * r_plus + vp * r_minus) / vs
            vi_ = v_obs * vp / vs
        else:
            vi_ = 1.0 / (gamma_plus + 1.0 / v_obs)
            mi_ = (gamma_plus * r_plus + r_minus / v_obs) * vi_
    else:
        mi_, vi_ = r_plus, vp

    mk_, vk_ = 0.0, min(vp, vi_)
    comp = rng.integers(0, 3, size=n_samples)
    z = np.where(comp == 0, rng.normal(r_plus, np.sqrt(vp), size=n_samples),
                 np.where(comp == 1,
                          rng.normal(mi_, np.sqrt(vi_), size=n_samples),
                          rng.normal(mk_, np.sqrt(vk_), size=n_samples)))
    log_q = np.logaddexp(
        np.logaddexp(log_norm_pdf(z, r_plus, vp), log_norm_pdf(z, mi_, vi_)),
        log_norm_pdf(z, mk_, vk_)) - np.log(3.0)
    z_out = ch.apply(z)
    if ch.noise_var > 0:
        z_out = z_out + rng.normal(0.0, np.sqrt(ch.noise_var), size=n_samples)
    log_w = log_norm_pdf(z, r_plus, vp) - log_q
    if gamma_minus > 0:
        log_w = log_w - 0.5 * gamma_minus * (z_out - r_minus) ** 2
    with np.errstate(under="ignore"):
        w = np.exp(log_w - np.max(log_w))
    sw = w.sum()
    ess = sw * sw / np.dot(w, w)
    if ess < 100:
        raise MonteCarloError(
            f"effective sample size {ess:.1f} below 100; oracle unreliable", ess=ess)

    def moments(wv, a):
        m = np.dot(wv, a) / wv.sum()
        v = np.dot(wv, (a - m) ** 2) / wv.sum()
        return m, v

    mean_in, var_in = moments(w, z)
    mean_out, var_out = moments(w, z_out)

    blocks = [[], [], [], []]
    for wb, zb, ob in zip(np.array_split(w, n_blocks),
                          np.array_split(z, n_blocks),
                          np.array_split(z_out, n_blocks)):
        if wb.sum() <= 0:
            continue
        mb, vb = moments(wb, zb)
        mo, vo = moments(wb, ob)
        for lst, val in zip(blocks, (mb, vb, mo, vo)):
            lst.append(val)
    ses = [_block_se(b) for b in blocks]
    return McMoments(mean_in, var_in, mean_out, var_out,
                     ses[0], ses[1], ses[2], ses[3], ess, n_samples)


# ---------------------------------------------------------------------------
# Generic quadrature path for the scalar posterior moments (scalar arguments).
# ---------------------------------------------------------------------------

class QuadratureError(MlvampError):
    """The generic quadrature path did not reach the requested accuracy.

    Carries the best estimate and the estimated truncation error so the
    caller can inspect what went wrong instead of silently using a bad value.
    """

    def __init__(self, message, estimate=None, error_estimate=None, context=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.context = context or {}


def _log_likelihood_factory(ch, r_minus, gamma_minus, observed):
    """Effective log-likelihood of z_in after marginalizing z_out analytically."""
    if observed:
        v_obs = ch.noise_var
    elif gamma_minus <= 0:
        return None, np.inf
    else:
        v_obs = 1.0 / gamma_minus + ch.noise_var

    def loglik(z):
        return log_norm_pdf(r_minus, ch.apply(z), v_obs)

    return loglik, v_obs


def _piece_envelopes(ch, r_plus, gamma_plus, r_minus, v_obs):
    """Integration pieces (lo, hi, envelope mu, envelope var) for the z_in axis."""
    vp = 1.0 / gamma_plus
    if ch.activation == "relu":
        if np.isinf(v_obs):
            m_t, v_t = r_plus, vp
        else:
            vs = v_obs + vp
            m_t = (v_obs * r_plus + vp * r_minus) / vs
            v_t = v_obs * vp / vs
        return [(-np.inf, 0.0, r_plus, vp), (0.0, np.inf, m_t, v_t)]
    # identity: single smooth piece, envelope at the Gaussian product
    if np.isinf(v_obs):
        return [(-np.inf, np.inf, r_plus, vp)]
    g_eff = 1.0 / v_obs
    v_post = 1.0 / (gamma_plus + g_eff)
    m_post = (gamma_plus * r_plus + g_eff * r_minus) * v_post
    return [(-np.inf, np.inf, m_post, v_post)]


def _piece_nodes(lo, hi, mu_e, v_e, n_nodes):
    """Quadrature nodes z and log-weights for one piece.

    Full-line pieces use Gauss-Hermite against the Gaussian envelope; bounded
    or half-bounded pieces use Gauss-Legendre panels on an envelope-derived
    window, split at mu_e and mu_e +- 2 sigma so nodes cluster where the
    envelope lives.  ``sum exp(log_w + log_f)`` approximates the piece
    integral of exp(log_f).
    """
    sig = np.sqrt(v_e)
    if np.isinf(lo) and np.isinf(hi):
        x, w = gh_nodes(n_nodes)
        z = mu_e + sig * x
        return z, np.log(w) - log_norm_pdf(z, mu_e, v_e)
    a = max(lo, mu_e - 12.0 * sig) if np.isfinite(lo) else mu_e - 12.0 * sig
    b = min(hi, mu_e + 12.0 * sig) if np.isfinite(hi) else mu_e + 12.0 * sig
    if b <= a:
        # envelope center far outside the piece: boundary-layer window
        if np.isfinite(hi):
            a, b = hi - 12.0 * sig, hi
        else:
            a, b = lo, lo + 12.0 * sig
    cuts = sorted({a, b} | {c for c in (mu_e - 2 * sig, mu_e, mu_e + 2 * sig)
                            if a < c < b})
    x01, w01 = np.polynomial.legendre.leggauss(n_nodes)
    zs, lws = [], []
    for p_lo, p_hi in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (p_hi - p_lo)
        zs.append(0.5 * (p_lo + p_hi) + half * x01)
        lws.append(np.log(half * w01))
    return np.concatenate(zs), np.concatenate(lws)


def _quad_pass(ch, r_plus, gamma_plus, loglik, pieces, n_nodes):
    """One quadrature evaluation: per-piece log-masses and conditional moments."""
    vp = 1.0 / gamma_plus
    piece_logz, piece_stats = [], []
    for lo, hi, mu_e, v_e in pieces:
        z, log_w = _piece_nodes(lo, hi, mu_e, v_e, n_nodes)
        log_f = log_norm_pdf(z, r_plus, vp)
        if loglik is not None:
            log_f = log_f + loglik(z)
        log_term = log_f + log_w
        shift = np.max(log_term)
        if not np.isfinite(shift):
            continue
        with np.errstate(under="ignore"):
            r = np.exp(log_term - shift)
        z0 = np.sum(r)
        if z0 <= 0:
            continue
        m1 = np.sum(r * z) / z0
        m2 = np.sum(r * z * z) / z0
        phi = ch.apply(z)
        p1 = np.sum(r * phi) / z0
        p2 = np.sum(r * phi * phi) / z0
        piece_logz.append(shift + np.log(z0))
        piece_stats.append((m1, m2, p1, p2))
    if not piece_logz:
        raise QuadratureError("likelihood evaluates to zero on the whole grid")
    piece_logz = np.array(piece_logz)
    log_total = special.logsumexp(piece_logz)
    pw = np.exp(piece_logz - log_total)
    agg = np.zeros(4)
    for p, st in zip(pw, piece_stats):
        agg += p * np.array(st)
    m1, m2, p1, p2 = agg
    return log_total, m1, max(m2 - m1 * m1, 0.0), p1, max(p2 - p1 * p1, 0.0)


def quad_moments(ch, r_plus, r_minus, gamma_plus, gamma_minus,
                 n_nodes=63, tol=1e-8, observed=False):
    """Generic numerical-integration path for the scalar posterior moments.

    Splits the relu domain at the kink, integrates each piece against a
    truncated-Gaussian envelope (Gauss-Legendre in the envelope CDF domain),
    and verifies the result by doubling the node count.  Raises
    QuadratureError when the two estimates disagree beyond ``tol``.
    """
    loglik, v_obs = _log_likelihood_factory(ch, r_minus, gamma_minus, observed)
    pieces = _piece_envelopes(ch, r_plus, gamma_plus, r_minus, v_obs)
    coarse = _quad_pass(ch, r_plus, gamma_plus, loglik, pieces, n_nodes)
    fine = _quad_pass(ch, r_plus, gamma_plus, loglik, pieces, 2 * n_nodes + 1)
    rel = abs(np.exp(coarse[0] - fine[0]) - 1.0)
    scale = np.sqrt(fine[2]) + abs(fine[1]) + 1e-30
    moment_err = max(abs(coarse[1] - fine[1]) / scale,
                     abs(coarse[2] - fine[2]) / (fine[2] + scale**2),
                     abs(coarse[3] - fine[3]) / scale,
                     abs(coarse[4] - fine[4]) / (fine[4] + scale**2))
    if not np.isfinite(rel) or rel > tol or moment_err > 100 * tol:
        raise QuadratureError(
            "quadrature did not converge (truncation error above tolerance)",
            estimate=fine, error_estimate=max(rel, moment_err),
            context={"r_plus": r_plus, "r_minus": r_minus,
                     "gamma_plus": gamma_plus, "gamma_minus": gamma_minus},
        )
    _, mean_in, var_in, mean_out_raw, var_out_raw = fine
    if observed or ch.noise_var == 0.0:
        mean_out, var_out = mean_out_raw, var_out_raw
    else:
        # z_out | z_in carries its own posterior spread around phi(z_in)
        gm = max(gamma_minus, 0.0)
        v_c = 1.0 / (gm + 1.0 / ch.noise_var)
        a = v_c / ch.noise_var
        c0 = v_c * gm * r_minus if gm > 0 else 0.0
        mean_out = c0 + a * mean_out_raw
        var_out = a * a * var_out_raw + v_c
    return mean_in, var_in, mean_out, var_out
