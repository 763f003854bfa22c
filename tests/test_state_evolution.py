import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import oracles
from mlvamp.engine import EngineOptions, run
from mlvamp.errors import MlvampError
from mlvamp import state_evolution
from mlvamp.network import (
    LinearStage,
    NetworkSpec,
    NonlinearStage,
    build_synthetic_network,
    observed_as_middle,
    sample_trajectory,
)
from mlvamp.scalar_denoiser import (
    VAR_FLOOR,
    denoise_middle,
    denoise_output_nonlinear,
)
from mlvamp.state_evolution import (
    LayerStatistics,
    error_input,
    error_linear,
    error_nonlinear,
    error_observed_linear,
    quadrature_rel_err,
    run_se,
    se_state_to_json,
    stats_from_network,
    tau_mean_chain,
)

RELU_STAT = NonlinearStage("relu", 0.0, 1)

# (stats index, gamma+, gamma-) of each relu stage of the paper network at
# the damped SE fixed point (50 iterations, damping 0.85)
PAPER_RELU_FIXED_POINT = [(1, 6.1e3, 6.3e3), (3, 3.2e4, 3.6e3), (5, 9.0e4, 6.2e3)]


@pytest.fixture(scope="module")
def paper_chain():
    net = build_synthetic_network([20, 100, 500, 784], 0.4, 10.0, 30.0, 300, 0)
    stats = stats_from_network(net)
    return (net, stats) + tuple(tau_mean_chain(stats))


def sample_relu_law(rng, n, tau, mean, gp, v_e):
    """Draws (R+, Z_out, R-) of the SE's scalar relu law."""
    rp = rng.normal(mean, math.sqrt(tau - mean**2 - 1 / gp), n)
    z_out = np.maximum(rp + rng.normal(0, math.sqrt(1 / gp), n), 0.0)
    return rp, z_out, z_out + rng.normal(0, math.sqrt(v_e), n)


def padded(s, n):
    """Singular values s followed by zeros up to length n >= len(s)."""
    return np.concatenate([s, np.zeros(n - len(s))])


def linear_stat(s, n_in, n_out, nu, b_sq_mean=0.0, b_mean=0.0):
    return LayerStatistics(n_in=n_in, n_out=n_out,
                           s=np.asarray(s, float), b_sq_mean=b_sq_mean,
                           nu=nu, b_mean=b_mean)


class TestTau0:
    def test_unit_gaussian_input(self):
        stats = [linear_stat(np.ones(4), 4, 4, math.inf)]
        assert tau_mean_chain(stats)[0][0] == 1.0

    def test_relu_on_standard_normal(self):
        stats = [linear_stat(np.ones(4), 4, 4, math.inf),
                 NonlinearStage("relu", 0.0, 4),
                 linear_stat(np.ones(4), 4, 4, 1.0)]
        tau = tau_mean_chain(stats)[0]
        assert tau[1] == pytest.approx(1.0)
        assert tau[2] == pytest.approx(0.5)

    def test_linear_layer_matches_mc(self):
        net = build_synthetic_network([20, 100, 500, 784], 0.4, 10.0, 30.0, 300, 0)
        stats = stats_from_network(net)
        tau, mean = tau_mean_chain(stats)
        # Monte-Carlo of the scalar limit model for variable 1 (first linear)
        rng = np.random.default_rng(0)
        n = 10**6
        stat = stats[0]
        s_out = padded(stat.s, stat.n_out)
        idx = rng.integers(0, stat.n_out, n)
        q = s_out[idx] * rng.normal(0, math.sqrt(tau[0]), n) + net.stages[0].b[idx]
        est = np.mean(q**2)
        se = np.std(q**2) / math.sqrt(n)
        assert abs(est - tau[1]) < 3 * se

    def test_mean_chain_matches_simulation(self):
        # second moments and componentwise means of the sampled layers track
        # the scalar chain at the wide layers
        net = build_synthetic_network([50, 300, 1000], 0.4, 5.0, 25.0, 400, 1)
        tau, mean = tau_mean_chain(stats_from_network(net))
        moms = np.mean([[np.mean(z**2) for z in sample_trajectory(net, s).z[:4]]
                        for s in range(20)], axis=0)
        means = np.mean([[np.mean(z) for z in sample_trajectory(net, s).z[:4]]
                         for s in range(20)], axis=0)
        for ell in (1, 2, 3):
            assert moms[ell] == pytest.approx(tau[ell], rel=0.1)
            assert means[ell] == pytest.approx(mean[ell], abs=0.08)

    def test_bias_energy_outside_thin_factor(self):
        # V_out spans 3 of 8 output directions; tau counts all of mean(b^2)
        rng = np.random.default_rng(0)
        s = np.array([0.5, 1.0, 2.0])
        st = LinearStage(v_out=oracles.haar_orthogonal(8, rng),
                         v_in=oracles.haar_orthogonal(3, rng),
                         s=s, b=rng.normal(1.0, 1.0, 8), nu=4.0)
        net = NetworkSpec(n0=3, stages=[st, NonlinearStage("relu", 0.0, 8)])
        tau, mean = tau_mean_chain(stats_from_network(net))
        assert np.mean(st.b_bar**2) * 3 < 0.9 * np.sum(st.b**2)
        assert tau[1] == pytest.approx(np.sum(s**2) / 8 + np.mean(st.b**2) + 0.25,
                                       rel=1e-12)
        assert mean[1] == pytest.approx(np.mean(st.b), rel=1e-12)

    def test_unbounded_singular_values_rejected(self):
        stats = [linear_stat([np.inf], 2, 2, 1.0)]
        with pytest.raises(MlvampError):
            tau_mean_chain(stats)[0]


class TestErrorFunctions:
    def test_input_endpoint(self):
        assert error_input(0.0) == 1.0
        assert error_input(3.0) == pytest.approx(0.25)

    def test_identity_channel_closed_form(self):
        stat = NonlinearStage("identity", 0.0, 1)
        ep, em, _ = error_nonlinear(stat, 2.0, 3.0, 1.0)
        assert ep == pytest.approx(1 / 5.0, rel=1e-10)
        assert em == pytest.approx(1 / 5.0, rel=1e-10)

    def test_relu_matches_mc_chain(self):
        gp, gm, tau = 1.0, 1.0, 1.0
        ep, em, _ = error_nonlinear(RELU_STAT, gp, gm, tau)
        rng = np.random.default_rng(0)
        n = 10**6
        rp = rng.normal(0, math.sqrt(tau - 1 / gp), n)
        z = rp + rng.normal(0, math.sqrt(1 / gp), n)
        zo = np.maximum(z, 0)
        rm = zo + rng.normal(0, math.sqrt(1 / gm), n)
        res = denoise_middle(RELU_STAT, rp, rm, gp, gm)
        mse_out = (res.mean_out - zo) ** 2
        mse_in = (res.mean_in - z) ** 2
        assert abs(ep - np.mean(mse_out)) < 3 * np.std(mse_out) / math.sqrt(n)
        assert abs(em - np.mean(mse_in)) < 3 * np.std(mse_in) / math.sqrt(n)

    def test_relu_matches_mc_at_paper_fixed_point(self, paper_chain):
        # at these precisions the R+ kink layer is ~0.01 wide, far below the
        # R+ spread; the expected posterior variances must match a Monte
        # Carlo average of the same variances over the scalar law
        _, stats, tau, mean = paper_chain
        n = 10**6
        for ell, gp, gm in PAPER_RELU_FIXED_POINT:
            ep, em, _ = error_nonlinear(stats[ell], gp, gm, tau[ell], mean[ell])
            rp, _, rm = sample_relu_law(np.random.default_rng(ell), n,
                                        tau[ell], mean[ell], gp, 1 / gm)
            res = denoise_middle(RELU_STAT, rp, rm, gp, gm)
            for est, v in ((ep, res.var_out), (em, res.var_in)):
                assert abs(est - np.mean(v)) < 4 * np.std(v) / math.sqrt(n)

    def test_observed_relu_matches_mc_at_high_precision(self, paper_chain):
        _, _, tau, mean = paper_chain
        n = 10**6
        for ell, gp, nv in ((5, 1e3, 1e-3), (3, 1e4, 1e-4)):
            stat = NonlinearStage("relu", nv, 1)
            em = error_nonlinear(*observed_as_middle(stat, gp), tau[ell], mean[ell],
                                 side="in")[1]
            rp, _, y = sample_relu_law(np.random.default_rng(ell), n,
                                       tau[ell], mean[ell], gp, nv)
            _, v = denoise_output_nonlinear(stat, y, rp, gp)
            assert abs(em - np.mean(v)) < 4 * np.std(v) / math.sqrt(n)

    def test_relu_matches_panel_reference_over_precision_grid(self, paper_chain):
        # independent 2-D panel rule (z_in integrated out analytically) at the
        # paper's (tau, mean) for every relu stage, gamma+- in [1e-2, 1e6]
        _, stats, tau, mean = paper_chain
        grid = 10.0 ** np.arange(-2, 7, 2)
        noisy = NonlinearStage("relu", 1e-3, 1)
        worst = 0.0
        for ell in (1, 3, 5):
            for gp in grid:
                if tau[ell] - mean[ell]**2 <= 1 / gp:
                    continue  # R+ variance clamps to zero: no integral
                for gm in grid:
                    ref = oracles.relu_stage_error_reference(gp, gm, tau[ell], mean[ell])
                    got = error_nonlinear(stats[ell], gp, gm, tau[ell], mean[ell])[:2]
                    worst = max(worst, *(abs(g / r - 1) for g, r in zip(got, ref)))
                ref = oracles.relu_stage_error_reference(
                    gp, None, tau[ell], mean[ell], noise_var=noisy.noise_var,
                    observed=True)
                got = error_nonlinear(*observed_as_middle(noisy, gp), tau[ell],
                                      mean[ell], side="in")[1]
                worst = max(worst, abs(got / ref - 1))
        assert worst <= 1e-3

    def test_relu_matches_tensor_rule_at_double_nodes(self, paper_chain):
        # structurally different 3-D rule (z_in integrated numerically) with
        # every node count doubled, on a coarse precision grid
        _, stats, tau, mean = paper_chain
        double = dict(kink_nodes=30, neg_nodes=126, zin_nodes=40, pos_nodes=82)
        noisy = NonlinearStage("relu", 1e-3, 1)
        worst = 0.0
        for ell in (1, 3, 5):
            for gp in (1e1, 1e4):
                for gm in (1e-1, 1e2, 1e5):
                    ref = oracles.relu_stage_error_tensor(gp, gm, tau[ell], mean[ell],
                                                          **double)
                    got = error_nonlinear(stats[ell], gp, gm, tau[ell], mean[ell])[:2]
                    worst = max(worst, *(abs(g / r - 1) for g, r in zip(got, ref)))
                ref = oracles.relu_stage_error_tensor(
                    gp, None, tau[ell], mean[ell], noise_var=noisy.noise_var,
                    observed=True, **double)
                got = error_nonlinear(*observed_as_middle(noisy, gp), tau[ell],
                                      mean[ell], side="in")[1]
                worst = max(worst, abs(got / ref - 1))
        assert worst <= 1e-3

    def test_observed_noisy_relu_matches_panel_reference(self, paper_chain):
        _, _, tau, mean = paper_chain
        worst = 0.0
        for nv in (1e-2, 1e-4):
            stat = NonlinearStage("relu", nv, 1)
            for ell in (1, 5):
                for gp in 10.0 ** np.arange(1, 7, 1):
                    ref = oracles.relu_stage_error_reference(
                        gp, None, tau[ell], mean[ell], noise_var=nv, observed=True)
                    got = error_nonlinear(*observed_as_middle(stat, gp), tau[ell],
                                          mean[ell], side="in")[1]
                    worst = max(worst, abs(got / ref - 1))
        assert worst <= 1e-3

    def test_rplus_variance_clamp_flagged(self):
        _, _, clamped = error_nonlinear(RELU_STAT, 0.5, 1.0, 1.0)  # tau < 1/gp
        assert clamped

    def test_linear_zero_singulars_decoupled(self):
        stat = linear_stat(np.zeros(3), 3, 3, nu=4.0)
        ep, em = error_linear(stat, 2.0, 3.0)
        assert em == pytest.approx(0.5)
        assert ep == pytest.approx(1 / 7.0)

    def test_linear_hard_constraint(self):
        stat = linear_stat(np.ones(3), 3, 3, nu=math.inf)
        ep, em = error_linear(stat, 2.0, 3.0)
        assert ep == pytest.approx(0.2)
        assert em == pytest.approx(0.2)

    def test_measurement_layer_matches_mc(self):
        # E- averages over the input-side spectrum (784 with zero padding),
        # E+ over the output-side spectrum (300, all nonzero); the MC oracle
        # simulates the scalar channel on each population separately: the
        # noiseless solve at c gm, blended with rm through the noise
        from mlvamp.linear_denoiser import component_solve

        net = build_synthetic_network([20, 100, 500, 784], 0.4, 10.0, 30.0, 300, 0)
        stat = stats_from_network(net)[-1]
        gp, gm = 3.0, 0.7
        ep, em = error_linear(stat, gp, gm)
        rng = np.random.default_rng(1)
        n = 10**6

        def mc(side_dim):
            s_pad = padded(stat.s, side_dim)
            s = s_pad[rng.integers(0, side_dim, n)]
            p0 = rng.normal(0, 1, n) / math.sqrt(gp)
            q0 = s * p0 + rng.normal(0, 1, n) / math.sqrt(stat.nu)
            rm = q0 + rng.normal(0, 1, n) / math.sqrt(gm)
            c, w = stat.nu / (gm + stat.nu), gm / (gm + stat.nu)
            g_minus, x_hat, _, _ = component_solve(np.zeros(n), rm, s, np.zeros(n),
                                                   gp, c * gm)
            return (g_minus - p0) ** 2, (c * x_hat + w * rm - q0) ** 2

        err_in, _ = mc(stat.n_in)
        _, err_out = mc(stat.n_out)
        assert abs(em - np.mean(err_in)) < 3 * np.std(err_in) / math.sqrt(n)
        assert abs(ep - np.mean(err_out)) < 3 * np.std(err_out) / math.sqrt(n)

    def test_observed_linear_formula(self):
        stat = linear_stat(np.array([1.0, 2.0]), 3, 2, nu=4.0)
        val = error_observed_linear(stat, 2.0)
        expect = np.mean([1 / (2 + 4 * 1), 1 / (2 + 4 * 4), 1 / 2])
        assert val == pytest.approx(expect, rel=1e-12)

    def test_observed_linear_needs_finite_nu(self):
        with pytest.raises(MlvampError):
            error_observed_linear(linear_stat(np.ones(2), 2, 2, math.inf), 1.0)

    def test_errors_nonincreasing_in_precisions(self):
        for stat in (RELU_STAT,
                     NonlinearStage("identity", 0.1, 1)):
            last_p = last_m = np.inf
            for g in [0.1, 0.5, 2.0, 8.0, 50.0]:
                ep, em, _ = error_nonlinear(stat, g, g, 12.0)
                assert ep <= last_p + 1e-12 and em <= last_m + 1e-12
                last_p, last_m = ep, em
        stat = linear_stat(np.linspace(0.2, 2, 5), 5, 5, nu=3.0)
        last_p = last_m = np.inf
        for g in [0.1, 1.0, 10.0]:
            ep, em = error_linear(stat, g, g)
            assert ep <= last_p and em <= last_m
            last_p, last_m = ep, em


SE_GAMMA = hs.floats(-4.0, 8.0).map(lambda e: 10.0 ** e)
SE_INPUT = hs.tuples(hs.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),   # tau_prev
                     hs.floats(-0.95, 0.95))                         # mean / sqrt(tau)


def relu_errors_with_bound(gamma_plus, gamma_minus, tau_prev, mean_frac):
    """(E+, E-) of ``error_nonlinear`` for a noiseless relu stage, the
    node-doubling error estimate of each, and the R+ clamp flag."""
    mean = mean_frac * math.sqrt(tau_prev)
    e_plus, e_minus, clamped = error_nonlinear(RELU_STAT, gamma_plus, gamma_minus,
                                               tau_prev, mean)
    fine, _ = state_evolution._relu_errors(RELU_STAT, gamma_plus, gamma_minus,
                                           tau_prev, mean, refine=2)
    return ((e_plus, e_minus), tuple(abs(e - f) for e, f in zip((e_plus, e_minus), fine)),
            clamped)


class TestReluErrorProperties:
    """Expected-error properties of the SE relu stage over precisions in
    [1e-4, 1e8], each allowed the node-doubling estimate of its quadrature
    error (plus rounding)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(SE_GAMMA, SE_GAMMA, SE_INPUT)
    def test_errors_finite_and_below_message_variances(self, gamma_plus, gamma_minus,
                                                       law):
        # E- <= 1/gamma+ and E+ <= 1/gamma-: the posterior mean beats r+ and r-
        # on average, though not pointwise (the relu likelihood is not
        # log-concave)
        (e_plus, e_minus), (d_plus, d_minus), _ = relu_errors_with_bound(
            gamma_plus, gamma_minus, *law)
        for e in (e_plus, e_minus):
            assert math.isfinite(e) and e >= VAR_FLOOR * (1 - 1e-9)
        assert e_minus <= (1.0 / gamma_plus) * (1 + 1e-12) + d_minus
        assert e_plus <= (1.0 / gamma_minus) * (1 + 1e-12) + d_plus

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(SE_GAMMA, SE_GAMMA, SE_INPUT, hs.floats(0.0, 3.0).map(lambda e: 10.0 ** e),
           hs.booleans())
    def test_errors_nonincreasing_in_precisions(self, gamma_plus, gamma_minus, law,
                                                factor, raise_plus):
        lo = relu_errors_with_bound(gamma_plus, gamma_minus, *law)
        hi = relu_errors_with_bound(gamma_plus * (factor if raise_plus else 1.0),
                                    gamma_minus * (1.0 if raise_plus else factor), *law)
        # a clamped R+ variance leaves the law of z_in depending on gamma+
        assume(not lo[2] and not hi[2])
        for e_lo, e_hi, d_lo, d_hi in zip(lo[0], hi[0], lo[1], hi[1]):
            assert e_hi <= e_lo * (1 + 1e-12) + d_lo + d_hi

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(SE_GAMMA, hs.one_of(hs.just(0.0), SE_GAMMA), SE_INPUT,
           hs.sampled_from(["relu", "identity"]), hs.sampled_from([0.0, 0.3]))
    def test_one_side_bit_identical(self, gamma_plus, gamma_minus, law, activation,
                                    noise_var):
        stat = NonlinearStage(activation, noise_var, 1)
        args = (stat, gamma_plus, gamma_minus, law[0], law[1] * math.sqrt(law[0]))
        both = error_nonlinear(*args)
        assert error_nonlinear(*args, side="out") == (both[0], None, both[2])
        assert error_nonlinear(*args, side="in") == (None, both[1], both[2])


class TestRunSe:
    def test_eta_identity_exact(self):
        net = oracles.make_gaussian_chain(16, seed=1, n_pairs=1)
        se = run_se(stats_from_network(net), 8)
        for rec in se.records:
            assert np.array_equal(rec.eta, rec.gamma_plus + rec.gamma_minus)

    def test_requires_iterations(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        with pytest.raises(MlvampError):
            run_se(stats_from_network(net), 0)

    def test_gaussian_chain_parity_with_engine(self):
        # on a Gaussian chain both recursions are closed-form and identical,
        # undamped and damped; observed through the linear measurement and
        # through a noisy identity output after it
        chain = oracles.make_gaussian_chain(64, seed=3, n_pairs=2)
        observed_identity = NetworkSpec(
            n0=chain.n0, stages=chain.stages + (NonlinearStage("identity", 0.05, 64),))
        for net in (chain, observed_identity):
            traj = sample_trajectory(net, 0)
            for damping in (1.0, 0.7):
                opts = EngineOptions(max_iter=8, damping=damping)
                se = run_se(stats_from_network(net), 8, opts)
                recs = run(net, traj.z[-1], opts)
                for eng_rec, se_rec in zip(recs, se.records):
                    assert np.allclose(eng_rec.gamma_plus, se_rec.gamma_plus,
                                       rtol=1e-10)
                    assert np.allclose(eng_rec.gamma_minus, se_rec.gamma_minus,
                                       rtol=1e-10)

    def test_se_fixed_point_matches_dense_variances_smoke(self):
        # small-N smoke version of the dimension-extrapolated acceptance check
        net = oracles.make_gaussian_chain(256, seed=5, n_pairs=1)
        se = run_se(stats_from_network(net), 40)
        traj = sample_trajectory(net, 1)
        _, avg_vars = oracles.gaussian_chain_posterior(net, traj.z[-1])
        for ell in range(net.n_layers):
            pred = 1.0 / se.records[-1].eta[ell]
            assert pred == pytest.approx(avg_vars[ell], rel=0.10)

    def test_paper_config_runs_clean(self):
        net = build_synthetic_network([20, 100, 500, 784], 0.4, 10.0, 30.0, 300, 0)
        se = run_se(stats_from_network(net), 10,
                    EngineOptions(damping=0.85))
        assert se.clamp_total == 0
        curve = [r.nmse_db[0] for r in se.records]
        assert curve[0] == pytest.approx(0.0, abs=1e-9)
        assert curve[-1] < -20
        # trajectory decreasing then flat
        assert all(b <= a + 1e-6 for a, b in zip(curve, curve[1:]))

    def test_paper_config_matches_engine_precision(self, paper_chain):
        # the SE's final input-layer 1/eta must sit on the engine's own
        # precision (median over trials), not merely near the simulated NMSE.
        # One trial's 1/eta spreads by ~2 dB at this size, so a 10-trial
        # median wanders by ~0.7 dB; 100 trials bring that to ~0.2 dB.  The
        # trials run as one batch, whose records are trial-major
        net, stats, _, _ = paper_chain
        opts = EngineOptions(max_iter=50, damping=0.85)
        se = run_se(stats, 50, opts)
        ys = np.array([sample_trajectory(net, (0, 71, t)).z[-1] for t in range(100)])
        per = 2 * opts.max_iter
        eng = [1 / rec.eta[0] for rec in run(net, ys, opts)[per - 1::per]]
        gap = 10 * np.log10(se.records[-1].eta[0] * np.median(eng))
        assert abs(gap) <= 0.3, f"SE vs engine 1/eta at layer 0: {gap:+.2f} dB"


    def test_quadrature_error_estimate(self, paper_chain, monkeypatch):
        # the node-doubling estimate stays small on the paper configuration,
        # tracks the error against the panel oracle at the last iteration's
        # precisions, and flags a deliberately coarse R+ rule
        _, stats, tau, mean = paper_chain
        se = run_se(stats, 50, EngineOptions(max_iter=50, damping=0.85))
        assert se_state_to_json(se)["quad_rel_err"] == se.quad_rel_err

        def oracle_err():
            worst = 0.0
            for rec in se.records[-2:]:
                for ell in (1, 3, 5):
                    args = (rec.gamma_plus[ell], rec.gamma_minus[ell + 1],
                            tau[ell], mean[ell])
                    ref = oracles.relu_stage_error_reference(*args)
                    got = error_nonlinear(stats[ell], *args)[:2]
                    worst = max(worst, *(abs(g / r - 1) for g, r in zip(got, ref)))
            return worst

        assert se.quad_rel_err <= 1e-3
        assert 0.5 <= se.quad_rel_err / oracle_err() <= 2.0
        monkeypatch.setattr(state_evolution, "_KINK_PIECE_NODES", 4)
        coarse = quadrature_rel_err(stats, se.records[-2:], tau, mean)
        assert coarse > 1e-3
        assert 0.5 <= coarse / oracle_err() <= 2.0


class TestPredictedNmse:
    def test_no_information(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        se = run_se(stats_from_network(net), 1)
        # forward half 1 at layer 0 has eta = 1/tau0 exactly (pure prior)
        assert se.records[0].nmse_db[0] == pytest.approx(0.0, abs=1e-9)

    def test_decade_arithmetic(self):
        # every record's NMSE is 10 log10((1/eta) / tau0), layer by layer
        net = oracles.make_gaussian_chain(4, seed=0)
        se = run_se(stats_from_network(net), 2)
        for rec in se.records:
            assert np.allclose(10 ** (rec.nmse_db / 10) * rec.eta * se.tau0, 1.0,
                               rtol=1e-12)
