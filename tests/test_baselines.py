import functools
import math

import numpy as np
import pytest

import oracles
from mlvamp.baselines import (
    HamiltonianContext,
    _ActiveRows,
    _forward,
    grad_hamiltonian,
    hamiltonian,
    map_estimate,
    row_stores,
    sgld_run,
)
from mlvamp.errors import DivergenceError, MlvampError
from mlvamp.experiment import paper_config
from mlvamp.network import (
    LinearStage,
    NetworkSpec,
    NonlinearStage,
    build_synthetic_network,
    sample_trajectory,
    svd_decompose_stage,
)


def small_relu_net(seed=0):
    return build_synthetic_network([6, 24, 48], rho=0.4, kappa=3.0,
                                   snr_db=25.0, n_meas=16, seed=seed)


def linear_gauss_ctx(seed=0, n0=6, m=10, nu=4.0):
    rng = np.random.default_rng(seed)
    st = svd_decompose_stage(rng.normal(size=(m, n0)), rng.normal(size=m), nu)
    net = NetworkSpec(n0=n0, stages=[st])
    y = st.sample_output(rng.standard_normal(n0), rng)
    return HamiltonianContext(net, y), st


class TestHamiltonian:
    def test_zero_at_perfect_fit(self):
        net = small_relu_net()
        ctx = HamiltonianContext(net, np.zeros(16))
        z0 = np.zeros(6)
        f = z0
        for st in net.stages[:-1]:
            f = st.apply(f)
        ctx2 = HamiltonianContext(net, net.stages[-1].apply(f))
        assert hamiltonian(ctx2, z0) == pytest.approx(0.0, abs=1e-12)

    def test_prior_term_quadratic(self):
        ctx, _ = linear_gauss_ctx()
        z = np.ones(6)
        h1 = hamiltonian(ctx, z)
        h2 = hamiltonian(ctx, 2 * z)
        # subtract the data terms computed directly
        for t, h in ((1.0, h1), (2.0, h2)):
            resid = ctx.y - ctx.meas.apply(t * z)
            data = 0.5 * ctx.meas.nu * resid @ resid
            assert h - data == pytest.approx(0.5 * t**2 * z @ z, rel=1e-12)

    def test_matches_forward_path(self):
        net = small_relu_net(seed=2)
        traj = sample_trajectory(net, 3)
        ctx = HamiltonianContext(net, traj.z[-1])
        z0 = traj.z[0]
        resid = traj.z[-1] - net.stages[-1].apply(traj.z[-2])
        expect = 0.5 * net.stages[-1].nu * resid @ resid + 0.5 * z0 @ z0
        assert hamiltonian(ctx, z0) == pytest.approx(expect, rel=1e-12)

    def test_nonfinite_input_rejected(self):
        ctx, _ = linear_gauss_ctx()
        with pytest.raises(ValueError):
            hamiltonian(ctx, np.full(6, np.nan))

    def test_nonfinite_observation_rejected(self):
        net = small_relu_net()
        y = np.zeros(16)
        y[[0, 5]] = [np.nan, np.inf]
        with pytest.raises(MlvampError, match="2 non-finite entries of 16"):
            HamiltonianContext(net, y)

    def test_noisy_hidden_stage_rejected(self):
        rng = np.random.default_rng(0)
        st1 = svd_decompose_stage(rng.normal(size=(4, 4)), np.zeros(4), nu=5.0)
        st2 = svd_decompose_stage(rng.normal(size=(4, 4)), np.zeros(4), nu=5.0)
        net = NetworkSpec(n0=4, stages=[st1, st2])
        with pytest.raises(MlvampError):
            HamiltonianContext(net, np.zeros(4))


class TestGradient:
    def test_linear_model_closed_form(self):
        ctx, st = linear_gauss_ctx(seed=1)
        W, b, nu, y = st.to_dense(), st.b, st.nu, ctx.y
        rng = np.random.default_rng(5)
        z = rng.normal(size=6)
        g, _, _ = grad_hamiltonian(ctx, z)
        ref = z + nu * W.T @ (W @ z + b - y)
        assert np.allclose(g, ref, rtol=1e-10, atol=1e-12)

    def test_finite_differences_away_from_kinks(self):
        net = small_relu_net(seed=4)
        traj = sample_trajectory(net, 1)
        ctx = HamiltonianContext(net, traj.z[-1])
        rng = np.random.default_rng(6)
        z = rng.normal(size=6)
        g, _, _ = grad_hamiltonian(ctx, z)
        eps = 1e-5
        # pre-activations at the evaluation point, to exclude kink-adjacent coords
        pre = [z]
        for st in net.stages[:-1]:
            pre.append(st.apply(pre[-1]))
        kink_ok = all(np.min(np.abs(p)) > 1e-4 for i, p in enumerate(pre)
                      if net.stages[min(i, len(net.stages) - 1)].kind == "nonlinear")
        fd = np.zeros(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = eps
            fd[i] = (hamiltonian(ctx, z + e) - hamiltonian(ctx, z - e)) / (2 * eps)
        assert np.allclose(fd, g, rtol=1e-4, atol=1e-6)

    def test_gradient_small_at_minimizer(self):
        ctx, _ = linear_gauss_ctx(seed=2)
        res = map_estimate(ctx, steps=3000, step_size=0.02, seed=0)
        g, _, _ = grad_hamiltonian(ctx, res.z0_hat)
        assert np.linalg.norm(g) < 1e-3


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


class TestDenseGradient:
    """The gradient applies each linear stage through its dense Wᵀ, or
    through the rows of its active inputs after a relu under half density;
    the thin-factor chain in tests/oracles.py gives the same values."""

    def _check(self, ctx, points):
        for z in points:
            g, loss, x_meas = grad_hamiltonian(ctx, z)
            g_ref, loss_ref, x_ref = oracles.thin_factor_gradient(ctx, z)
            assert _rel(g, g_ref) <= 1e-12
            # not _rel: x_ref is all zero when no relu unit is active
            assert np.max(np.abs(x_meas - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
            assert abs(loss - loss_ref) <= 1e-12 * loss_ref
            assert hamiltonian(ctx, z) == loss

    def test_paper_preset(self):
        # rho = 0.4 gathers after every relu at these points; rho = 0.8 never
        for rho in (0.4, 0.8):
            cfg = paper_config(rho=rho)
            net = build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                          cfg.n_meas, cfg.seed)
            traj = sample_trajectory(net, 1)
            ctx = HamiltonianContext(net, traj.z[-1])
            rng = np.random.default_rng(2)
            self._check(ctx, [traj.z[0], np.zeros(net.n0), rng.standard_normal(net.n0)])

    @staticmethod
    def _explicit_chain(rank, bias_shift=0.0):
        # 10 -> linear of the given rank -> relu -> 8 x 8 measurement; the
        # bias shift sets how many relu units are active
        rng = np.random.default_rng(0)
        low = rng.normal(size=(8, rank)) @ rng.normal(size=(rank, 10))
        hidden = svd_decompose_stage(low, rng.normal(0.0, 0.5, 8) + bias_shift,
                                     math.inf)
        assert len(hidden.s) == rank
        meas = svd_decompose_stage(rng.normal(size=(8, 8)), np.zeros(8), 20.0)
        net = NetworkSpec(n0=10, stages=[hidden, NonlinearStage("relu", 0.0, 8), meas])
        return HamiltonianContext(net, sample_trajectory(net, 0).z[-1]), rng

    def test_rank_deficient_explicit_stage(self):
        ctx, rng = self._explicit_chain(3)
        self._check(ctx, [rng.standard_normal(10) for _ in range(3)])

    @pytest.mark.parametrize("bias_shift, active", [(-1e3, 0), (1e3, 8)])
    def test_relu_layer_with_no_or_every_unit_active(self, bias_shift, active):
        # no active unit gathers an empty block; every unit takes the dense route
        ctx, rng = self._explicit_chain(8, bias_shift)
        points = [rng.standard_normal(10) for _ in range(3)]
        for z in points:
            xs, blocks = _forward(ctx, z)
            assert np.count_nonzero(xs[2]) == active
            assert (blocks[2] is None) == (active == 8)
        self._check(ctx, points)

    def test_infinite_input_gives_non_finite_loss(self):
        net = small_relu_net()
        ctx = HamiltonianContext(net, sample_trajectory(net, 0).z[-1])
        z = np.zeros(6)
        z[2] = np.inf
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(grad_hamiltonian(ctx, z)[1])

    def test_nan_stays_in_the_gathered_rows(self):
        # relu(z0) = (nan, 0, 0, 0, 0) is gathered by the 5 -> 4 stage; the
        # NaN reaches every output, as in the dense product
        rng = np.random.default_rng(1)
        hidden = svd_decompose_stage(rng.normal(size=(4, 5)), np.zeros(4), math.inf)
        meas = svd_decompose_stage(rng.normal(size=(3, 4)), np.zeros(3), 20.0)
        net = NetworkSpec(n0=5, stages=[NonlinearStage("relu", 0.0, 5), hidden,
                                        NonlinearStage("relu", 0.0, 4), meas])
        ctx = HamiltonianContext(net, np.zeros(3))
        z = np.array([np.nan, -1.0, -1.0, -1.0, -1.0])
        assert _forward(ctx, z)[1][1] is not None
        assert np.isnan(grad_hamiltonian(ctx, z)[2]).all()


@functools.cache
def paper_net(rho):
    cfg = paper_config(rho=rho)
    return build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                   cfg.n_meas, cfg.seed)


def paper_ctx(rho=0.4, trial=1):
    net = paper_net(rho)
    return HamiltonianContext(net, sample_trajectory(net, trial).z[-1])


class TestActiveRows:
    """A run keeps each relu-fed stage's gathered rows in a store that
    copies only the rows whose unit turned active."""

    @staticmethod
    def _check(store, wt, x):
        units, block = store.update(x)
        assert sorted(units) == list(np.flatnonzero(x))
        assert np.array_equal(block, wt[units])
        assert store.k == units.size <= wt.shape[0] // 2
        assert np.array_equal(store.pos[units], np.arange(units.size))
        assert np.count_nonzero(store.pos >= 0) == units.size
        return units

    def test_random_mask_sequence(self):
        n_in = 41
        rng = np.random.default_rng(3)
        wt = rng.normal(size=(n_in, 7))
        store = _ActiveRows(wt)
        x = np.where(rng.random(n_in) < 0.3, rng.normal(size=n_in), 0.0)
        # a fresh store gathers in flatnonzero order, as a standalone call
        assert np.array_equal(self._check(store, wt, x), np.flatnonzero(x))
        mask = x != 0
        for step in range(300):
            kind = step % 6  # add only, remove only, both, none, empty, dense
            on, off = np.flatnonzero(~mask), np.flatnonzero(mask)
            if kind in (0, 2) and on.size:
                mask[rng.choice(on, rng.integers(1, min(on.size, 6) + 1), replace=False)] = True
            if kind in (1, 2) and off.size:
                mask[rng.choice(off, rng.integers(1, off.size + 1), replace=False)] = False
            if kind == 4 and rng.random() < 0.3:
                mask[:] = False
            if kind == 5:
                mask[:] = False
                mask[rng.choice(n_in, n_in // 2, replace=False)] = True
            while 2 * np.count_nonzero(mask) >= n_in:  # as the route allows
                mask[rng.choice(np.flatnonzero(mask))] = False
            x = np.where(mask, rng.normal(size=n_in), 0.0)
            x[mask & (rng.random(n_in) < 0.05)] = np.nan
            self._check(store, wt, x)

    def test_only_changed_rows_are_copied(self):
        rng = np.random.default_rng(4)
        wt = rng.normal(size=(20, 3))
        store = _ActiveRows(wt)
        x = np.zeros(20)
        x[[1, 4, 6, 9, 12]] = 1.0
        store.update(x)
        store.wt = np.full_like(wt, np.nan)  # a copied row would read NaN
        x[[4, 9]], x[[2, 15, 17]] = 0.0, 1.0
        units, block = store.update(x)
        assert sorted(units[np.isnan(block).all(axis=1)]) == [2, 15, 17]
        x[2] = x[12] = 0.0
        units, block = store.update(x)
        assert np.isnan(block).all(axis=1).sum() == 2

    def test_stores_only_after_a_relu(self):
        ctx = paper_ctx()
        # linear, relu, linear, relu, linear, relu, measurement
        assert [s is not None for s in row_stores(ctx)] == \
            [False, False, True, False, True, False, True]

    def test_run_result_does_not_depend_on_earlier_runs(self):
        # each run makes its own stores; nothing is kept on the context
        def runs(ctx, order):
            out = {}
            for name in order:
                if name == "map":
                    out[name] = map_estimate(ctx, steps=200, step_size=0.01, seed=1)
                else:
                    out[name] = sgld_run(ctx, steps=200, lam=2e-5, burn_in=100, seed=1)
            return out

        fresh = [runs(paper_ctx(), (m,))[m] for m in ("map", "sgld")]
        again = runs(paper_ctx(), ("sgld", "map", "map", "sgld"))
        assert np.array_equal(fresh[0].z0_hat, again["map"].z0_hat)
        assert np.array_equal(fresh[0].losses, again["map"].losses)
        assert np.array_equal(fresh[1].z0_samples, again["sgld"].z0_samples)
        assert np.array_equal(fresh[1].recon_mean, again["sgld"].recon_mean)

    def test_final_loss_matches_a_standalone_hamiltonian(self):
        # the run's stores order the gathered rows differently from a fresh
        # gather, so the two sums agree to rounding, not bit for bit
        ctx = paper_ctx()
        res = map_estimate(ctx, steps=300, step_size=0.01, seed=1)
        assert abs(res.losses[-1] - hamiltonian(ctx, res.z0_hat)) <= 1e-14 * res.losses[-1]


class TestMapEstimate:
    def test_linear_gaussian_reaches_ridge(self):
        ctx, st = linear_gauss_ctx(seed=3)
        ref = oracles.ridge_solve(st.to_dense(), st.b, st.nu, ctx.y,
                                  np.zeros(6), 1.0)
        res = map_estimate(ctx, steps=2000, step_size=0.02, seed=0)
        assert np.max(np.abs(res.z0_hat - ref)) < 1e-4

    def test_zero_steps_returns_initializer(self):
        ctx, _ = linear_gauss_ctx()
        init = np.arange(6, dtype=float)
        res = map_estimate(ctx, steps=0, init=init)
        assert np.array_equal(res.z0_hat, init)
        assert len(res.losses) == 1

    def test_short_run_near_long_run_loss(self):
        # 500 steps at step 0.01 lands within 1% of the long-run loss
        net = small_relu_net(seed=7)
        traj = sample_trajectory(net, 2)
        ctx = HamiltonianContext(net, traj.z[-1])
        short = map_estimate(ctx, steps=500, step_size=0.01, seed=1)
        long = map_estimate(ctx, steps=5000, step_size=0.01, seed=1)
        assert short.losses[-1] <= 1.01 * long.losses[-1]

    def test_divergence_aborts_with_trace(self):
        ctx, _ = linear_gauss_ctx(seed=4, nu=50.0)
        with pytest.raises(DivergenceError) as exc:
            map_estimate(ctx, steps=200, step_size=1e5, seed=0)
        assert exc.value.trace is not None

    def test_losses_are_hamiltonian_at_the_iterates(self):
        ctx, _ = linear_gauss_ctx(seed=5)
        init = np.linspace(-1.0, 1.0, 6)
        res = map_estimate(ctx, steps=20, init=init)
        assert len(res.losses) == 21
        assert res.losses[0] == hamiltonian(ctx, init)
        assert res.losses[-1] == hamiltonian(ctx, res.z0_hat)

    @pytest.mark.parametrize("init", [np.full(6, np.nan), np.zeros(5)])
    def test_bad_init_rejected_before_the_first_step(self, init):
        ctx, _ = linear_gauss_ctx()
        with pytest.raises(ValueError):
            map_estimate(ctx, steps=10, init=init)

    def test_stationary_start_raises(self):
        # at rho 0.2 no first-layer bias is positive, so every relu unit of
        # layer 1 is off at z0 = 0 and the gradient there is exactly zero
        ctx = paper_ctx(rho=0.2)
        assert not np.any(grad_hamiltonian(ctx, np.zeros(ctx.n0))[0])
        with pytest.raises(MlvampError, match="stationary.*init=\"random\""):
            map_estimate(ctx, steps=5)
        assert np.any(map_estimate(ctx, steps=5, init="random").z0_hat)
        assert np.any(map_estimate(paper_ctx(rho=0.4), steps=5).z0_hat)

    def test_seeded_determinism(self):
        ctx, _ = linear_gauss_ctx(seed=5)
        a = map_estimate(ctx, steps=50, seed=3, init="random")
        b = map_estimate(ctx, steps=50, seed=3, init="random")
        assert np.array_equal(a.z0_hat, b.z0_hat)
        c = map_estimate(ctx, steps=50, seed=4, init="random")
        assert not np.array_equal(a.z0_hat, c.z0_hat)


class TestSgld:
    def test_update_replays_the_seeded_draws(self):
        # z_0 and every w_k come from default_rng(seed), in that order
        ctx, _ = linear_gauss_ctx(seed=6)
        lam, steps, burn_in = 0.01, 40, 30
        res = sgld_run(ctx, steps=steps, lam=lam, burn_in=burn_in, seed=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        losses, samples = [], []
        for k in range(steps):
            g, loss, _ = grad_hamiltonian(ctx, x)
            losses.append(loss)
            if k >= burn_in:
                samples.append(x)
            x = x - lam * g + math.sqrt(2 * lam) * rng.standard_normal(6)
        assert np.array_equal(res.loss_trace, losses)
        assert np.array_equal(res.z0_samples, samples)
        assert np.array_equal(res.z0_mean, np.mean(samples, axis=0))

    def test_one_dim_gaussian_posterior(self):
        # 1-D linear model: posterior N(nu y/(nu+1), 1/(nu+1))
        st = LinearStage(v_out=np.eye(1), v_in=np.eye(1), s=np.ones(1),
                         b=np.zeros(1), nu=1.0)
        net = NetworkSpec(n0=1, stages=[st])
        y = np.array([1.5])
        ctx = HamiltonianContext(net, y)
        res = sgld_run(ctx, steps=10**5, lam=0.02, burn_in=10**4, seed=0)
        post_mean, post_var = 1.5 / 2.0, 0.5
        assert abs(res.z0_mean[0] - post_mean) < 0.05 * max(abs(post_mean), 1)
        assert abs(np.var(res.z0_samples) - post_var) < 0.05 * post_var

    def test_seeded_determinism(self):
        ctx, _ = linear_gauss_ctx(seed=7)
        a = sgld_run(ctx, steps=200, lam=0.005, burn_in=100, seed=9)
        b = sgld_run(ctx, steps=200, lam=0.005, burn_in=100, seed=9)
        assert np.array_equal(a.z0_mean, b.z0_mean)
        assert np.array_equal(a.recon_mean, b.recon_mean)

    def test_parameter_validation(self):
        ctx, _ = linear_gauss_ctx()
        with pytest.raises(MlvampError):
            sgld_run(ctx, steps=10, lam=0.0, burn_in=5)
        with pytest.raises(MlvampError):
            sgld_run(ctx, steps=10, lam=0.1, burn_in=10)
        # a negative burn-in would average uninitialised sample rows
        with pytest.raises(MlvampError, match="burn_in"):
            sgld_run(ctx, steps=10, lam=0.001, burn_in=-5)


@pytest.mark.parametrize("method", ["map", "sgld"])
def test_nan_loss_raises_divergence(monkeypatch, method):
    import mlvamp.baselines as bl

    ctx, _ = linear_gauss_ctx(seed=8)
    real, losses = bl.grad_hamiltonian, []

    def nan_at_step_3(ctx, z0, rows=None):
        g, loss, x_meas = real(ctx, z0, rows)
        losses.append(math.nan if len(losses) == 3 else loss)
        return g, losses[-1], x_meas

    monkeypatch.setattr(bl, "grad_hamiltonian", nan_at_step_3)
    with pytest.raises(DivergenceError) as exc:
        if method == "map":
            map_estimate(ctx, steps=10)
        else:
            sgld_run(ctx, steps=10, lam=0.001, burn_in=5)
    trace = exc.value.trace
    assert len(losses) == 4 and len(trace) == 4
    assert np.array_equal(trace[:3], losses[:3]) and math.isnan(trace[3])
