import json
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from mlvamp.baselines import HamiltonianContext, map_estimate, sgld_run
from mlvamp.engine import EngineOptions, run
from mlvamp.errors import ConfigError, MlvampError
from mlvamp.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    config_network,
    nmse_db,
    paper_config,
    record_rows,
    run_iteration_experiment,
    run_measurement_sweep,
    se_to_rows,
    trial_seed,
)
from mlvamp.network import (
    NetworkSpec,
    NonlinearStage,
    sample_trajectory,
    svd_decompose_stage,
)


def poison_trial_1(monkeypatch):
    """Patch the experiment's sampler so that trial 1 of a seed-1 config
    observes NaN in y[0]; returns (real sampler, patched sampler)."""
    import mlvamp.experiment as exp
    real_sample = exp.sample_trajectory

    def poisoned(net, seed):
        traj = real_sample(net, seed)
        if seed == trial_seed(1, 1):
            traj.z[-1][0] = np.nan
        return traj

    monkeypatch.setattr(exp, "sample_trajectory", poisoned)
    return real_sample, poisoned


def tiny_config(**over):
    base = dict(dims=[4, 8], rho=0.4, kappa=2.0, snr_db=20.0, n_meas=6,
                n_iter=3, n_trials=2, seed=1, include_runtime=False,
                map_steps=30, sgld_steps=200, sgld_burn_in=100)
    base.update(over)
    return paper_config(**base)


class TestNmseDb:
    def test_exact_recovery_clips(self):
        z = np.array([1.0, 2.0])
        assert nmse_db(z, z) == -200.0

    def test_zero_estimator(self):
        z = np.array([1.0, -2.0, 3.0])
        assert nmse_db(z, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip(self):
        z = np.array([1.0, -1.0])
        assert nmse_db(z, -z) == pytest.approx(10 * np.log10(4.0), rel=1e-9)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse_db(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse_db(np.ones(3), np.ones(4))


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            paper_config(methods=("mlvamp", "vae"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dims": [4, 8], "foo": 1})

    @pytest.mark.parametrize("damping", [0.0, -0.5])
    def test_damping_outside_unit_interval_rejected(self, damping):
        # damping 0 freezes every message after the first iteration; a
        # negative one reaches the SE quadrature as a negative variance
        with pytest.raises(ConfigError, match="damping"):
            ExperimentConfig.from_dict({"damping": damping})

    @pytest.mark.parametrize("settings, key", [
        ({"map_steps": -1}, "map_steps"), ({"sgld_steps": -1}, "sgld_steps"),
        ({"sgld_burn_in": -5}, "sgld_burn_in"),
        ({"sgld_steps": 10, "sgld_burn_in": 10}, "sgld_burn_in"),
        ({"map_step_size": 0.0}, "map_step_size"),
        ({"map_step_size": -0.01}, "map_step_size"),
        ({"sgld_lambda": 0.0}, "sgld_lambda"),
        ({"sgld_lambda": float("nan")}, "sgld_lambda")])
    def test_bad_baseline_setting_rejected(self, settings, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(settings)

    def test_repeated_n_meas_rejected(self):
        with pytest.raises(ConfigError, match="n_meas values must be distinct"):
            ExperimentConfig.from_dict({"n_meas": [300, 200, 300]})

    def test_zero_map_steps_allowed(self):
        assert ExperimentConfig.from_dict({"map_steps": 0}).map_steps == 0

    def test_roundtrip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("settings, key", [
        ({"n_trials": 2.5}, "n_trials"), ({"n_trials": True}, "n_trials"),
        ({"seed": 1.5}, "seed"), ({"n_iter": "2"}, "n_iter"),
        ({"map_steps": 5.0}, "map_steps"), ({"sgld_steps": None}, "sgld_steps"),
        ({"sgld_burn_in": "0"}, "sgld_burn_in"),
        ({"rho": "0.4"}, "rho"), ({"kappa": None}, "kappa"),
        ({"snr_db": float("inf")}, "snr_db"), ({"damping": None}, "damping"),
        ({"damping": True}, "damping"), ({"map_step_size": "0.01"}, "map_step_size"),
        ({"sgld_lambda": [0.1]}, "sgld_lambda"),
        ({"dims": [4.7, 8.2]}, "dims"), ({"dims": "48"}, "dims"), ({"dims": []}, "dims"),
        ({"dims": [4, 0]}, "dims"), ({"dims": 48}, "dims"),
        ({"n_meas": 6.9}, "n_meas"), ({"n_meas": "6"}, "n_meas"), ({"n_meas": []}, "n_meas"),
        ({"n_meas": [4, 6.5]}, "n_meas"), ({"n_meas": 0}, "n_meas"),
        ({"include_runtime": 0}, "include_runtime"),
        ({"methods": "mlvamp"}, "methods"), ({"methods": [1]}, "methods")])
    def test_wrong_value_type_rejected(self, settings, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(settings)

    @pytest.mark.parametrize("doc", [3, [1], "mlvamp", None])
    def test_document_that_is_not_an_object_rejected(self, doc):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(doc)

    def test_numpy_scalars_accepted(self):
        cfg = paper_config(dims=[np.int64(4), np.int32(8)], n_meas=np.int64(6),
                           seed=np.uint8(3), rho=np.float32(0.25),
                           damping=np.float64(0.5), n_trials=np.int16(2))
        assert cfg.dims == [4, 8] and cfg.n_meas == 6 and cfg.rho == 0.25
        assert config_network(cfg).dims == [4, 8, 8, 6]

    def test_paper_config_is_from_dict(self):
        over = {"rho": 0.3, "n_meas": [100, 200], "methods": ["mlvamp", "map"]}
        assert paper_config(**over) == ExperimentConfig.from_dict(over)
        assert paper_config(**over).methods == ("mlvamp", "map")

    def test_paper_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dims == [20, 100, 500, 784]
        assert cfg.n_meas == 300 and cfg.n_iter == 50 and cfg.n_trials == 10
        assert cfg.rho == 0.4 and cfg.kappa == 10.0 and cfg.snr_db == 30.0


class TestIterationExperiment:
    def test_row_accounting_single_iteration(self):
        cfg = tiny_config(n_iter=1)
        res = run_iteration_experiment(cfg)
        n_layers = res.metadata["n_layers"]
        per_trial = [r for r in res.rows if r["trial"] == 0]
        assert len(per_trial) == 2 * n_layers
        assert {r["half_iter"] for r in per_trial} == {1, 2}

    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_iteration_experiment(cfg).write_csv(p1)
        run_iteration_experiment(cfg).write_csv(p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.split(b"\r\n")[0].decode()
        assert header == ",".join(CSV_COLUMNS)

    def test_runtime_column_populated_when_requested(self, tmp_path):
        cfg = tiny_config(include_runtime=True)
        res = run_iteration_experiment(cfg)
        assert all(isinstance(r["runtime_ms"], float) for r in res.rows)

    def test_se_alignment(self):
        cfg = tiny_config()
        res = run_iteration_experiment(cfg)
        assert [rec.half_iter for rec in res.se.records] == [1, 2, 3, 4, 5, 6]
        for row in res.rows:
            if row["layer"] == 0 and row["half_iter"] == 1:
                assert row["se_nmse_db"] == pytest.approx(res.se.records[0].nmse_db[0])

    def test_zero_trials_emits_se_only(self):
        cfg = tiny_config(n_trials=0)
        res = run_iteration_experiment(cfg)
        assert res.rows == []
        assert len(res.se.records) == 2 * cfg.n_iter
        assert se_to_rows(res.se)

    def test_requires_scalar_n_meas(self):
        with pytest.raises(ConfigError):
            run_iteration_experiment(tiny_config(n_meas=[4, 6]))

    def test_batch_rows_match_single_trial_runs(self):
        # every trial runs in one batch; its rows are those of the trial's
        # own engine run up to the order of the sums in the linear products
        cfg = tiny_config(n_trials=3)
        res = run_iteration_experiment(cfg)
        net = config_network(cfg)
        for trial in range(cfg.n_trials):
            traj = sample_trajectory(net, trial_seed(cfg.seed, trial))
            own = record_rows(run(net, traj.z[-1], cfg.engine_options(), truth=traj),
                              res.se, trial)
            got = [r for r in res.rows if r["trial"] == trial]
            assert len(got) == len(own)
            for a, b in zip(got, own):
                for key in ("half_iter", "layer", "clamp_events", "se_nmse_db"):
                    assert a[key] == b[key]
                assert a["nmse_db"] == pytest.approx(b["nmse_db"], rel=0, abs=1e-10)
                for key in ("gamma_plus", "gamma_minus"):
                    assert a[key] == pytest.approx(b[key], rel=1e-10)

    def test_batch_failure_isolated_to_its_trial(self, monkeypatch):
        # a non-finite observation in trial 1 fails the engine's input checks
        # before the batch: trial 1 gets the failure entry of its own run and
        # trials 0 and 2 keep the rows of their batch of two
        real_sample, poisoned = poison_trial_1(monkeypatch)
        cfg = tiny_config(n_trials=3, methods=("mlvamp", "map"))
        res = run_iteration_experiment(cfg)
        net = config_network(cfg)
        bad = poisoned(net, trial_seed(cfg.seed, 1))
        with pytest.raises(MlvampError) as info:
            run(net, bad.z[-1], cfg.engine_options(), truth=bad)
        assert res.metadata["failures"] == [{"trial": 1, "error": str(info.value)}]
        assert {(r["trial"], r["method"]) for r in res.rows} == {
            (0, "mlvamp"), (0, "map"), (2, "mlvamp"), (2, "map")}
        trajs = [real_sample(net, trial_seed(cfg.seed, trial)) for trial in (0, 2)]
        records = run(net, np.array([tr.z[-1] for tr in trajs]), cfg.engine_options(),
                      truth=trajs)
        half = len(records) // 2
        for i, trial in enumerate((0, 2)):
            own = record_rows(records[i * half:(i + 1) * half], res.se, trial)
            assert [r for r in res.rows
                    if r["trial"] == trial and r["method"] == "mlvamp"] == own

    def test_failure_inside_the_batch_reruns_trials_alone(self, monkeypatch):
        # an error the input checks cannot foresee stops the whole batch; its
        # trials re-run one at a time, so the failing trial gets the entry of
        # its own run and the others keep the rows of theirs
        import mlvamp.experiment as exp
        cfg = tiny_config(n_trials=3)
        net = config_network(cfg)
        bad_y = sample_trajectory(net, trial_seed(cfg.seed, 1)).z[-1]

        def failing(net, y, options=None, truth=None):
            if any(np.array_equal(row, bad_y) for row in np.atleast_2d(y)):
                raise MlvampError("diverged")
            return run(net, y, options, truth=truth)

        monkeypatch.setattr(exp, "run", failing)
        res = run_iteration_experiment(cfg)
        assert res.metadata["failures"] == [{"trial": 1, "error": "diverged"}]
        for trial in (0, 2):
            traj = sample_trajectory(net, trial_seed(cfg.seed, trial))
            own = record_rows(run(net, traj.z[-1], cfg.engine_options(), truth=traj),
                              res.se, trial)
            assert [r for r in res.rows if r["trial"] == trial] == own

    def test_checked_failures_leave_one_batch(self, monkeypatch):
        # in trials 4, 5, 6 and 8 of this config every relu unit of z_2 is 0;
        # they fail the truth check alone and the other six run as one batch
        import mlvamp.experiment as exp
        calls = []

        def spy(net, y, options=None, truth=None):
            calls.append(np.shape(y))
            return run(net, y, options, truth=truth)

        monkeypatch.setattr(exp, "run", spy)
        cfg = ExperimentConfig.from_dict({"dims": [6, 4], "n_meas": 3,
                                          "n_trials": 10, "n_iter": 3})
        res = run_iteration_experiment(cfg)
        assert res.metadata["failures"] == [
            {"trial": t, "error": "truth has zero norm at layer 2"} for t in (4, 5, 6, 8)]
        assert calls == [(6, 3)]
        assert {r["trial"] for r in res.rows} == {0, 1, 2, 3, 7, 9}

    def test_workers_key_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig.from_dict({"workers": 2})

    def test_out_dir_key_rejected(self):
        with pytest.raises(ConfigError, match="out_dir"):
            ExperimentConfig.from_dict({"out_dir": "run"})

    @pytest.mark.parametrize("key", ["gamma_min", "gamma_max", "alpha_min",
                                     "store_estimates"])
    def test_engine_only_key_rejected(self, key):
        # the clamps are engine constants, estimate storage an EngineOptions setting
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: 1})


class TestBaselineComparison:
    def test_methods_mlvamp_only_has_no_baseline_rows(self):
        cfg = tiny_config(methods=("mlvamp",))
        res = run_iteration_experiment(cfg)
        assert {r["method"] for r in res.rows} == {"mlvamp"}

    def test_network_the_baselines_cannot_run_rejected_before_any_trial(self):
        # a noisy hidden stage voids every baseline trial; it is a config
        # error up front rather than a failure of each trial, ML-VAMP's too
        cfg = tiny_config()
        net = config_network(cfg)
        noisy = NetworkSpec(n0=net.n0, stages=[replace(net.stages[0], nu=50.0),
                                               *net.stages[1:]])
        assert len(run_iteration_experiment(cfg, noisy).rows) == 36
        with pytest.raises(ConfigError, match="deterministic hidden stages"):
            run_iteration_experiment(replace(cfg, methods=("mlvamp", "map")), noisy)

    def test_nonfinite_observation_fails_its_baseline_trial(self, monkeypatch):
        poison_trial_1(monkeypatch)
        res = run_iteration_experiment(tiny_config(methods=("map", "sgld")))
        assert res.metadata["failures"] == [
            {"trial": 1, "error": "observation has 1 non-finite entries of 6"}]
        assert {(r["trial"], r["method"]) for r in res.rows} == {(0, "map"), (0, "sgld")}

    def test_stationary_map_start_is_a_failure_not_a_row(self):
        # at rho 0.2 no first-layer bias is positive: MAP from zero cannot
        # move, and would report its start (NMSE 0 dB) as an estimate
        res = run_iteration_experiment(tiny_config(rho=0.2, methods=("map", "sgld")))
        assert [(f["trial"], f["method"]) for f in res.metadata["failures"]] == \
            [(0, "map"), (1, "map")]
        assert all("stationary" in f["error"] for f in res.metadata["failures"])
        assert {(r["trial"], r["method"]) for r in res.rows} == {(0, "sgld"), (1, "sgld")}

    def test_final_nmse_per_trial_reads_baseline_rows(self):
        res = run_iteration_experiment(tiny_config(methods=("mlvamp", "map", "sgld")))
        for method in ("map", "sgld"):
            rows = [r for r in res.rows if r["method"] == method]
            assert len(rows) == 2
            assert res.final_nmse_per_trial(0, method) == {
                r["trial"]: r["nmse_db"] for r in rows}
        final = {r["trial"]: r["nmse_db"] for r in res.rows if r["method"] == "mlvamp"
                 and r["layer"] == 2 and r["half_iter"] == 2 * 3}
        assert res.final_nmse_per_trial(2) == final and len(final) == 2

    def test_baseline_rows_present(self):
        cfg = tiny_config(methods=("mlvamp", "map", "sgld"))
        res = run_iteration_experiment(cfg)
        methods = {r["method"] for r in res.rows}
        assert methods == {"mlvamp", "map", "sgld"}
        map_rows = [r for r in res.rows if r["method"] == "map"]
        assert len(map_rows) == cfg.n_trials
        assert all(np.isfinite(r["nmse_db"]) for r in map_rows)

    def test_shared_trajectory_across_methods(self, monkeypatch):
        # every method within a trial must see the bit-identical trajectory
        seen = []
        import mlvamp.experiment as exp
        orig = exp.sample_trajectory

        def spy(net, seed):
            traj = orig(net, seed)
            seen.append(traj.z[0].copy())
            return traj

        monkeypatch.setattr(exp, "sample_trajectory", spy)
        run_iteration_experiment(tiny_config(methods=("mlvamp", "map"), n_trials=1))
        assert len(seen) == 1  # one draw serves all methods

    def test_gaussian_chain_methods_agree_with_posterior_mean(self):
        # deterministic identity hidden stage + noisy measurement: the exact
        # posterior mean is the ridge solution; all three methods reach it
        rng = np.random.default_rng(0)
        n0, m = 8, 24
        st1 = svd_decompose_stage(rng.normal(0, 1 / math.sqrt(n0), (n0, n0)),
                                  rng.normal(0, 0.2, n0), math.inf)
        ident = NonlinearStage("identity", 0.0, n0)
        meas = svd_decompose_stage(rng.normal(0, 1 / math.sqrt(n0), (m, n0)),
                                   np.zeros(m), nu=50.0)
        net = NetworkSpec(n0=n0, stages=[st1, ident, meas])
        traj = sample_trajectory(net, 5)
        y = traj.z[-1]
        A = meas.to_dense() @ st1.to_dense()
        b = meas.to_dense() @ st1.b
        mu_post = oracles.ridge_solve(A, b, 50.0, y, np.zeros(n0), 1.0)

        recs = run(net, y, EngineOptions(max_iter=60))
        ctx = HamiltonianContext(net, y)
        z_map = map_estimate(ctx, steps=4000, step_size=0.02, seed=1).z0_hat
        z_sgld = sgld_run(ctx, steps=80000, lam=0.002, burn_in=20000,
                          seed=2).z0_mean

        ref = float(mu_post @ mu_post)
        assert np.sum((recs[-1].z_hat[0] - mu_post) ** 2) / ref < 1e-3
        assert np.sum((z_map - mu_post) ** 2) / ref < 1e-3
        assert np.sum((z_sgld - mu_post) ** 2) / ref < 1e-3


class TestSweep:
    def test_single_m_matches_iteration_experiment(self):
        cfg = tiny_config(n_meas=[6])
        sweep = run_measurement_sweep(cfg)
        res = run_iteration_experiment(tiny_config(n_meas=6))
        finals = list(res.final_nmse_per_trial(layer=0).values())
        assert sweep.summary_rows[0]["final_nmse_db"] == pytest.approx(
            float(np.median(finals)))

    def test_zero_trials_still_emits_se(self):
        cfg = tiny_config(n_meas=[4, 6], n_trials=0)
        sweep = run_measurement_sweep(cfg)
        for row in sweep.summary_rows:
            assert row["final_nmse_db"] == ""
            assert isinstance(row["se_final_nmse_db"], float)

    def test_summary_csv(self, tmp_path):
        sweep = run_measurement_sweep(tiny_config(n_meas=[4, 6]))
        path = tmp_path / "sweep.csv"
        sweep.write_summary_csv(path)
        header = path.read_bytes().split(b"\r\n")[0].decode()
        assert header.startswith("n_meas,method,final_nmse_db")


class TestGapHelpers:
    def test_median_abs_gap_shape(self):
        res = run_iteration_experiment(tiny_config())
        halves, gaps = res.median_abs_se_gap(layer=0)
        assert len(halves) == 6
        assert np.all(gaps >= 0)

    def test_gap_and_quadrature_error_written_to_json(self, tmp_path):
        res = run_iteration_experiment(tiny_config())
        res.write_json(tmp_path / "result.json")
        doc = json.loads((tmp_path / "result.json").read_text())
        halves, gaps = res.median_abs_se_gap(layer=0)
        assert doc["metadata"]["median_abs_se_gap_db"] == {
            str(h): g for h, g in zip(halves, gaps)}
        assert doc["se"]["quad_rel_err"] == res.se.quad_rel_err
