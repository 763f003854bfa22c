import math

import numpy as np
import pytest

import oracles
from mlvamp import engine, scalar_denoiser
from mlvamp.engine import (
    GAMMA_MIN,
    EngineOptions,
    extrinsic_mean,
    init_state,
    nmse_db,
    posterior_to_message,
    precision_update,
    run,
    sweep,
)
from mlvamp.errors import EngineError, MlvampError, ObservationError
from mlvamp.linear_denoiser import denoise_linear, denoise_linear_observed
from mlvamp.network import (
    LinearStage,
    NetworkSpec,
    NonlinearStage,
    sample_trajectory,
    svd_decompose_stage,
)
from mlvamp.scalar_denoiser import denoise_input, denoise_middle


class TestPrecisionUpdate:
    def test_formula(self):
        eta, g, clamped = precision_update(0.25, 0.5)
        assert (eta, g) == (2.0, 1.5) and not clamped
        eta, g, clamped = precision_update(0.5, 1.0)
        assert (eta, g) == (2.0, 1.0) and not clamped

    def test_degenerate_alpha_hits_floor(self, monkeypatch):
        monkeypatch.setattr(engine, "ALPHA_MIN", 0.0)
        eta, g, clamped = precision_update(1 - 1e-12, 0.5)
        assert clamped
        assert g == GAMMA_MIN == 1e-8
        assert eta == g + 0.5

    def test_alpha_clamp_flagged(self):
        _, _, clamped = precision_update(1 - 1e-12, 0.5)
        assert clamped

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(MlvampError):
            precision_update(float("nan"), 1.0)

    def test_per_trial_routes_and_clamps(self, monkeypatch):
        # a batch column gives each trial what its scalar call gives: the
        # first-pass route for an all-zero gamma_opp column, the clamped
        # update, with its clamps, for a positive one; a mixed column raises
        monkeypatch.setattr(engine, "GAMMA_MAX", 50.0)
        var = np.array([[0.5], [1e-3], [0.2], [1e-12]])
        for g_opp in (np.zeros((4, 1)), np.array([[0.5], [3.0], [1e3], [1.0]])):
            got = posterior_to_message(var, g_opp)
            for t in range(len(var)):
                one = posterior_to_message(var[t, 0], g_opp[t, 0])
                assert [float(np.broadcast_to(x, var.shape)[t, 0]) for x in got] == \
                    [float(x) for x in one]
        assert got[3].tolist() == [[False], [True], [True], [True]]
        # a column that mixes the two routes has no per-trial answer
        with pytest.raises(ValueError, match="in every row or in none"):
            posterior_to_message(var, np.array([[0.0], [3.0], [0.0], [1.0]]))


class TestExtrinsicMean:
    def test_formula(self):
        r = extrinsic_mean(2.0, 1.0, 0.5, 0.0, 1.5)
        assert r == pytest.approx(4.0 / 3.0)

    def test_uninformative_opposite(self):
        z = np.array([0.3, -0.7])
        r = extrinsic_mean(2.0, z, 0.0, np.zeros(2), 2.0)
        assert np.allclose(r, z)

    def test_algebraic_inverse(self):
        rng = np.random.default_rng(0)
        eta, g_opp, g_new = 3.0, 1.2, 1.8
        z = rng.normal(size=4)
        r_opp = rng.normal(size=4)
        r = extrinsic_mean(eta, z, g_opp, r_opp, g_new)
        back = (g_new * r + g_opp * r_opp) / eta
        assert np.allclose(back, z, atol=1e-12)


class TestRun:
    def test_single_stage_conjugate_posterior(self):
        rng = np.random.default_rng(1)
        n = 6
        st = svd_decompose_stage(rng.normal(size=(n, n)), np.zeros(n), nu=5.0)
        net = NetworkSpec(n0=n, stages=[st])
        traj = sample_trajectory(net, 2)
        y = traj.z[-1]
        recs = run(net, y, EngineOptions(max_iter=1))
        W = st.to_dense()
        ref = np.linalg.solve(np.eye(n) + 5.0 * W.T @ W, 5.0 * W.T @ y)
        assert np.allclose(recs[-1].z_hat[0], ref, rtol=1e-8, atol=1e-8)

    def test_gaussian_chain_matches_dense_posterior(self):
        net = oracles.make_gaussian_chain(10, seed=4, n_pairs=2)
        traj = sample_trajectory(net, 5)
        y = traj.z[-1]
        recs = run(net, y, EngineOptions(max_iter=80))
        means, _ = oracles.gaussian_chain_posterior(net, y)
        for ell in range(net.n_layers):
            assert np.max(np.abs(recs[-1].z_hat[ell] - means[ell])) < 1e-6

    def test_eta_identity_exact(self):
        net = oracles.make_gaussian_chain(8, seed=6, n_pairs=1)
        traj = sample_trajectory(net, 7)
        recs = run(net, traj.z[-1], EngineOptions(max_iter=10))
        for rec in recs:
            assert np.array_equal(rec.eta, rec.gamma_plus + rec.gamma_minus)

    def test_zero_iterations(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        assert run(net, np.zeros(4), EngineOptions(max_iter=0)) == []

    def test_damping_same_fixed_point(self):
        net = oracles.make_gaussian_chain(8, seed=9, n_pairs=1)
        traj = sample_trajectory(net, 3)
        y = traj.z[-1]
        plain = run(net, y, EngineOptions(max_iter=120, damping=1.0))
        damped = run(net, y, EngineOptions(max_iter=120, damping=0.7))
        for ell in range(net.n_layers):
            assert np.max(np.abs(plain[-1].z_hat[ell] - damped[-1].z_hat[ell])) < 1e-6

    def test_determinism(self):
        net = oracles.make_gaussian_chain(6, seed=2)
        traj = sample_trajectory(net, 1)
        a = run(net, traj.z[-1], EngineOptions(max_iter=5), truth=traj)
        b = run(net, traj.z[-1], EngineOptions(max_iter=5), truth=traj)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.gamma_plus, rb.gamma_plus)
            assert np.array_equal(ra.nmse_db, rb.nmse_db)
            for za, zb in zip(ra.z_hat, rb.z_hat):
                assert np.array_equal(za, zb)

    def test_nmse_recorded_per_layer(self):
        net = oracles.make_gaussian_chain(6, seed=2)
        traj = sample_trajectory(net, 1)
        recs = run(net, traj.z[-1], EngineOptions(max_iter=2), truth=traj)
        assert recs[0].nmse_db.shape == (net.n_layers,)
        assert np.all(np.isfinite(recs[-1].nmse_db))
        # estimates improve information flow: reverse pass beats the prior-only
        assert recs[1].nmse_db[0] < recs[0].nmse_db[0]

    def test_half_iteration_accounting(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        recs = run(net, np.zeros(4), EngineOptions(max_iter=3))
        assert [r.half_iter for r in recs] == [1, 2, 3, 4, 5, 6]
        assert [r.direction for r in recs] == ["forward", "reverse"] * 3

    def test_dimension_mismatch_rejected(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        with pytest.raises(MlvampError):
            run(net, np.zeros(5), EngineOptions(max_iter=1))

    def test_nonfinite_observation_rejected(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        y = np.zeros(4)
        y[[1, 3]] = [np.nan, np.inf]
        with pytest.raises(MlvampError, match="2 non-finite entries"):
            run(net, y, EngineOptions(max_iter=1))

    def test_batch_input_checked(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        trajs = [sample_trajectory(net, seed) for seed in (1, 2, 3)]
        y = np.array([tr.z[-1] for tr in trajs])
        opts = EngineOptions(max_iter=1)
        with pytest.raises(MlvampError, match="does not match"):
            run(net, y[:, :3], opts)
        with pytest.raises(MlvampError, match="2 truth trajectories for 3"):
            run(net, y, opts, truth=trajs[:2])
        y[2, 1] = np.inf
        with pytest.raises(MlvampError, match="trial 2 has 1 non-finite"):
            run(net, y, opts, truth=trajs)

    def test_zero_norm_truth_layer_rejected_up_front(self, monkeypatch):
        # a truth layer of zero norm has no NMSE; the run says so before any
        # sweep, naming the layer (and, in a batch, the trial)
        net = _shape_mix_network()
        trajs = [sample_trajectory(net, seed) for seed in (1, 2, 3)]
        trajs[1].z[2] = np.zeros_like(trajs[1].z[2])
        monkeypatch.setattr(engine, "sweep", None)
        opts = EngineOptions(max_iter=1)
        with pytest.raises(MlvampError, match="^truth has zero norm at layer 2$"):
            run(net, trajs[1].z[-1], opts, truth=trajs[1])
        with pytest.raises(MlvampError,
                           match="^truth of trial 1 has zero norm at layer 2$"):
            run(net, np.array([tr.z[-1] for tr in trajs]), opts, truth=trajs)

    def test_batch_matches_single_runs(self):
        # one batched run returns each trial's records, trial-major, as its
        # own run does, up to the order of the sums in the linear products
        net = _shape_mix_network()
        trajs = [sample_trajectory(net, seed) for seed in (4, 5, 6)]
        opts = EngineOptions(max_iter=12, damping=0.85)
        got = run(net, np.array([tr.z[-1] for tr in trajs]), opts, truth=trajs)
        ref = [rec for tr in trajs for rec in run(net, tr.z[-1], opts, truth=tr)]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert (a.k, a.half_iter, a.direction) == (b.k, b.half_iter, b.direction)
            for field in ("eta", "alpha", "gamma_plus", "gamma_minus"):
                assert np.allclose(getattr(a, field), getattr(b, field),
                                   rtol=1e-10, atol=0), field
            assert np.allclose(a.nmse_db, b.nmse_db, rtol=0, atol=1e-10)
            assert a.clamp_events == b.clamp_events
            for za, zb in zip(a.z_hat, b.z_hat):
                assert np.allclose(za, zb, rtol=1e-10, atol=1e-10 * np.max(np.abs(zb)))

    def test_denoiser_failure_wrapped_with_state(self):
        # a negative output is impossible under a deterministic relu, so the
        # first reverse denoise of the last hidden variable fails
        rng = np.random.default_rng(0)
        n = 5
        st = svd_decompose_stage(rng.normal(size=(n, n)), np.zeros(n), math.inf)
        net = NetworkSpec(n0=n, stages=[st, NonlinearStage("relu", 0.0, n)])
        y = np.ones(n)
        y[2] = -1.0
        with pytest.raises(EngineError) as info:
            run(net, y, EngineOptions(max_iter=1))
        dump = info.value.state_dump
        assert (dump["layer"], dump["direction"], dump["k"]) == (1, "reverse", 0)
        assert isinstance(info.value.__cause__, ObservationError)

    def test_nonfinite_message_raises_with_state(self):
        # a NaN mean with a finite variance, or a NaN variance, stops the sweep
        net = oracles.make_gaussian_chain(4, seed=0)
        for mean, var in ((np.nan, 0.5), (0.0, np.nan)):
            state = init_state(net)
            with pytest.raises(EngineError, match="non-finite message") as info:
                sweep(state, "forward",
                      lambda ell: (np.full(len(state.r_plus[ell]), mean), var),
                      EngineOptions())
            assert (info.value.state_dump["layer"], info.value.state_dump["k"]) == (0, 0)

    def test_clamp_events_counted(self, monkeypatch):
        # an absurdly tight GAMMA_MAX forces clamping that must be reported
        monkeypatch.setattr(engine, "GAMMA_MAX", 0.5)
        net = oracles.make_gaussian_chain(6, seed=2)
        traj = sample_trajectory(net, 1)
        recs = run(net, traj.z[-1], EngineOptions(max_iter=3))
        assert sum(r.clamp_events for r in recs) > 0

    @pytest.mark.parametrize("damping", [1.0, 0.85])
    def test_precisions_leave_zero_together(self, damping):
        # every gamma- is 0 in the first forward record only, and from then on
        # every gamma+ and gamma- is at least GAMMA_MIN, in every trial of a
        # batch as in a single run and in the state evolution
        from mlvamp.state_evolution import run_se, stats_from_network

        net = _shape_mix_network()
        trajs = [sample_trajectory(net, seed) for seed in (4, 5, 6)]
        opts = EngineOptions(max_iter=8, damping=damping)
        n_half = 2 * opts.max_iter
        runs = [run(net, trajs[0].z[-1], opts),
                run(net, np.array([tr.z[-1] for tr in trajs]), opts),
                run_se(stats_from_network(net), opts.max_iter, opts).records]
        for recs in runs:
            assert len(recs) % n_half == 0
            for i, rec in enumerate(recs):
                if i % n_half == 0:   # a trial's first forward record
                    assert np.all(rec.gamma_minus == 0)
                    assert np.all(rec.gamma_plus >= GAMMA_MIN)
                else:
                    assert np.all(rec.gamma_plus >= GAMMA_MIN)
                    assert np.all(rec.gamma_minus >= GAMMA_MIN)

    def test_store_estimates_off(self):
        net = oracles.make_gaussian_chain(4, seed=0)
        traj = sample_trajectory(net, 1)
        recs = run(net, traj.z[-1],
                   EngineOptions(max_iter=1, store_estimates=False), truth=traj)
        assert recs[0].z_hat is None
        assert np.all(np.isfinite(recs[0].nmse_db))

    def test_nonlinear_observed_output_end_to_end(self):
        # chain ending in a noisy relu observation exercises the
        # observed-output denoiser and its error-function mirror
        from mlvamp.state_evolution import run_se, stats_from_network

        rng = np.random.default_rng(3)
        n = 400
        st1 = svd_decompose_stage(rng.normal(0, 1 / np.sqrt(n), (n, n)),
                                  rng.normal(0, 0.2, n), math.inf)
        net = NetworkSpec(n0=n, stages=[st1, NonlinearStage("relu", 0.05, n)])
        traj = sample_trajectory(net, 1)
        recs = run(net, traj.z[-1], EngineOptions(max_iter=15), truth=traj)
        se = run_se(stats_from_network(net), 15)
        assert recs[-1].nmse_db[0] < -2.0
        assert abs(recs[-1].nmse_db[0] - se.records[-1].nmse_db[0]) < 1.0


def _shape_mix_network():
    """Every linear-stage shape the engine handles: a deterministic stage with
    n_out > n_in, a finite-nu stage with n_in > n_out, and a noisy
    measurement with more outputs than its input (n_meas > n_last)."""
    rng = np.random.default_rng(11)
    dims, nus = [6, 14, 9, 20], [math.inf, 40.0, 200.0]
    stages = []
    for i, nu in enumerate(nus):
        W = rng.normal(0, 1 / np.sqrt(dims[i]), (dims[i + 1], dims[i]))
        stages.append(svd_decompose_stage(W, rng.normal(0, 0.2, dims[i + 1]), nu))
        if i < len(nus) - 1:
            stages.append(NonlinearStage("relu", 0.0 if i == 0 else 0.01, dims[i + 1]))
    return NetworkSpec(n0=dims[0], stages=stages)


def _run_recomputing(net, y, opts, truth):
    """``run`` driven from here: every linear denoise transforms its inputs
    afresh, every relu denoise computes its z_in < 0 branch afresh, and both
    return both sides, so nothing is reused between calls."""
    state = init_state(net)

    def middle(stage, ell_in, forward):
        args = (state.r_plus[ell_in], state.r_minus[ell_in + 1],
                state.gamma_plus[ell_in], state.gamma_minus[ell_in + 1])
        if stage.kind == "linear":
            res = denoise_linear(stage, *args)
            return ((res.z_hat_plus, res.var_out_mean) if forward
                    else (res.z_hat_minus, res.var_in_mean))
        res = denoise_middle(stage, *args)
        return ((res.mean_out, float(np.mean(res.var_out))) if forward
                else (res.mean_in, float(np.mean(res.var_in))))

    def forward(ell):
        if ell == 0:
            mean, var = denoise_input(state.r_minus[0], state.gamma_minus[0])
            return mean, float(var)
        return middle(net.stages[ell - 1], ell - 1, True)

    def reverse(ell):
        if ell == net.n_layers - 1:
            res = denoise_linear_observed(net.stages[ell], y, state.r_plus[ell],
                                          state.gamma_plus[ell])
            return res.z_hat_minus, res.var_in_mean
        return middle(net.stages[ell], ell, False)

    records = []
    for _ in range(opts.max_iter):
        for direction, denoise in (("forward", forward), ("reverse", reverse)):
            rec = sweep(state, direction, denoise, opts)
            rec.nmse_db = np.array([nmse_db(truth.z[ell], z)
                                    for ell, z in enumerate(rec.z_hat)])
            records.append(rec)
        state.k += 1
    return records


class _CountingFactor(np.ndarray):
    """An orthogonal factor that counts the matvecs taken with it or with its
    transpose (views share the counter)."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __matmul__(self, other):
        self.counter[0] += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        self.counter[0] += 1
        return other @ np.asarray(self)


class TestTransformReuse:
    def test_records_match_recomputing_reference(self):
        net = _shape_mix_network()
        traj = sample_trajectory(net, 4)
        for damping in (1.0, 0.85):
            opts = EngineOptions(max_iter=12, damping=damping)
            ref = _run_recomputing(net, traj.z[-1], opts, traj)
            got = run(net, traj.z[-1], opts, truth=traj)
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                for field in ("eta", "alpha", "gamma_plus", "gamma_minus", "nmse_db"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
                assert a.clamp_events == b.clamp_events
                for za, zb in zip(a.z_hat, b.z_hat):
                    assert np.array_equal(za, zb)

    def test_factor_matvecs_per_iteration(self):
        # one iteration: V_in r+, V_out^T r-, and one back-transform per call
        # for a middle stage; V_in r+ and V_in^T g for the observed stage.
        # Once per run on top: V_out^T of a middle stage's initial r- and
        # V_out^T y of the observed stage
        net = _shape_mix_network()
        y = sample_trajectory(net, 4).z[-1]
        linear = [st for st in net.stages if st.kind == "linear"]
        counters = []
        for st in linear:
            counters.append([0])
            st.v_in = st.v_in.view(_CountingFactor)
            st.v_out = st.v_out.view(_CountingFactor)
            st.v_in.counter = st.v_out.counter = counters[-1]
        n_iter = 5
        run(net, y, EngineOptions(max_iter=n_iter, damping=0.85))
        assert [c[0] for c in counters] == [4 * n_iter + 1, 4 * n_iter + 1,
                                            2 * n_iter + 1]
        # a batch takes the same count, each a product with one row per trial
        for c in counters:
            c[0] = 0
        run(net, np.array([y, y, y]), EngineOptions(max_iter=n_iter, damping=0.85))
        assert [c[0] for c in counters] == [4 * n_iter + 1, 4 * n_iter + 1,
                                            2 * n_iter + 1]

    def test_relu_negative_branch_once_per_iteration(self, monkeypatch):
        # a relu stage's forward call computes its z_in < 0 branch and the
        # reverse call of the same iteration reuses it
        net = _shape_mix_network()
        y = sample_trajectory(net, 4).z[-1]
        evaluated = []
        branch = scalar_denoiser._negative_branch

        def counting(r_plus, gamma_plus):
            evaluated.append(r_plus.shape)
            return branch(r_plus, gamma_plus)

        monkeypatch.setattr(scalar_denoiser, "_negative_branch", counting)
        n_iter = 5
        n_relu = sum(st.kind == "nonlinear" for st in net.stages)
        for ys in (y, np.array([y, y, y])):
            evaluated.clear()
            run(net, ys, EngineOptions(max_iter=n_iter, damping=0.85))
            assert len(evaluated) == n_relu * n_iter == 10
            assert all(shape[:-1] == ys.shape[:-1] for shape in evaluated)


class TestInitState:
    def test_zero_initialization(self):
        net = oracles.make_gaussian_chain(5, seed=0, n_pairs=1)
        st = init_state(net)
        assert all(np.all(r == 0) for r in st.r_minus)
        assert np.all(st.gamma_minus == 0)
        assert len(st.r_plus) == net.n_layers
