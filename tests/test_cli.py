import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mlvamp.cli import build_parser, load_config, main
from mlvamp.errors import ConfigError
from mlvamp.experiment import CSV_COLUMNS, PAPER_SWEEP_N_MEAS, ExperimentConfig


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = {"dims": [4, 8], "rho": 0.4, "kappa": 2.0, "snr_db": 20.0,
           "n_meas": 6, "n_iter": 2, "n_trials": 2, "seed": 1,
           "include_runtime": False, "map_steps": 20,
           "sgld_steps": 120, "sgld_burn_in": 60}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_module(*args):
    """``python -m mlvamp *args`` from the checkout's src; the finished process."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return subprocess.run([sys.executable, "-m", "mlvamp", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def read_header(path):
    with open(path, "rb") as fh:
        return fh.readline().rstrip(b"\r\n").decode()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestGenerateSampleInfer:
    def test_generate_and_load(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["generate", "--config", tiny_config_file, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "network.json"))

    def test_generate_explicit(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["generate", "--config", tiny_config_file, "--out", out,
                     "--explicit"]) == 0
        doc = json.loads((tmp_path / "gen" / "network.json").read_text())
        assert doc["mode"] == "explicit"
        assert "v_out" in doc["stages"][0]

    def test_sample(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        assert main(["sample", "--net", os.path.join(out, "network.json"),
                     "--seed", "3", "--out", out]) == 0
        data = np.load(os.path.join(out, "trajectory.npz"))
        assert data["z0"].shape == (4,)
        assert data["z3"].shape == (6,)

    def test_infer_with_sampled_truth(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        rc = main(["infer", "--net", os.path.join(out, "network.json"),
                   "--sample-seed", "5", "--config", tiny_config_file,
                   "--out", out])
        assert rc == 0
        assert read_header(os.path.join(out, "infer.csv")) == ",".join(CSV_COLUMNS)
        z0 = np.load(os.path.join(out, "z0_hat.npy"))
        assert z0.shape == (4,)

    def test_infer_with_observation_file(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        y = np.zeros(6)
        ypath = tmp_path / "y.npy"
        np.save(ypath, y)
        rc = main(["infer", "--net", os.path.join(out, "network.json"),
                   "--observation", str(ypath), "--config", tiny_config_file,
                   "--out", out])
        assert rc == 0

    def test_infer_rejects_observation_with_sample_seed(self, tiny_config_file, tmp_path):
        # either flag names the observation; with both, one would be dropped
        out = tmp_path / "o"
        main(["generate", "--config", tiny_config_file, "--out", str(out)])
        ypath = tmp_path / "y.npy"
        np.save(ypath, np.zeros(6))
        proc = run_module("infer", "--net", str(out / "network.json"),
                          "--config", tiny_config_file, "--observation", str(ypath),
                          "--sample-seed", "5", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "config error: --observation and --sample-seed exclude each other"]
        assert not (out / "infer.csv").exists()

    @pytest.mark.parametrize("name, write, message", [
        ("two.npy", lambda p: np.save(p, np.zeros((2, 6))), "one real vector"),
        ("text.npy", lambda p: np.save(p, np.array(["a"] * 6)), "one real vector"),
        ("empty.npy", lambda p: p.write_bytes(b""), "EOF"),
        ("cut.npy", lambda p: (np.save(p, np.zeros(6)),
                               p.write_bytes(p.read_bytes()[:-8])), "Failed to read"),
        ("object.npy", lambda p: np.save(p, np.array([1.0, None]), allow_pickle=True),
         "Object arrays"),
        ("y.npz", lambda p: np.savez(p, y=np.zeros(6)), "magic string")])
    def test_infer_rejects_bad_observation_file(self, tiny_config_file, tmp_path,
                                                capsys, name, write, message):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        ypath = tmp_path / name
        write(ypath)
        capsys.readouterr()
        rc = main(["infer", "--net", os.path.join(out, "network.json"),
                   "--observation", str(ypath), "--config", tiny_config_file,
                   "--out", out])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
        assert not os.path.exists(os.path.join(out, "infer.csv"))

    @pytest.mark.parametrize("argv, flag", [(["sample", "--seed", "-1"], "--seed"),
                                            (["infer", "--sample-seed", "-3"],
                                             "--sample-seed")])
    def test_negative_seed_rejected(self, tiny_config_file, tmp_path, capsys, argv, flag):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        capsys.readouterr()
        assert main([*argv, "--net", os.path.join(out, "network.json"),
                     "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: argument {flag}: a seed must be a nonnegative integer, "
            f"not '{argv[-1]}'"]

    def test_infer_rejects_tampered_explicit_network(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out, "--explicit"])
        path = os.path.join(out, "network.json")
        doc = json.loads(open(path).read())
        doc["stages"][0]["v_out"] = (2 * np.array(doc["stages"][0]["v_out"])).tolist()
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["infer", "--net", path, "--sample-seed", "5",
                   "--config", tiny_config_file, "--out", out])
        assert rc == 1

    def test_infer_reports_malformed_stage_without_traceback(self, tiny_config_file,
                                                             tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out, "--explicit"])
        path = os.path.join(out, "network.json")
        doc = json.loads(open(path).read())
        doc["stages"][0]["b"] = doc["stages"][0]["b"][:-1]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        proc = run_module("infer", "--net", path, "--sample-seed", "5", "--out", out)
        assert proc.returncode == 1
        assert "config error: stage 1: bias length" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("drop, message", [
        (lambda doc: doc.pop("mode"), "mode must be 'recipe' or 'explicit'"),
        (lambda doc: doc["meta"].pop("builder_args"), "no meta.builder_args"),
    ])
    def test_infer_reports_missing_document_key_without_traceback(
            self, tiny_config_file, tmp_path, drop, message):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        path = os.path.join(out, "network.json")
        doc = json.loads(open(path).read())
        drop(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        proc = run_module("infer", "--net", path, "--sample-seed", "5", "--out", out)
        assert proc.returncode == 1
        assert "config error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode, spoil, message", [
        (mode, spoil, message) for mode in ("recipe", "explicit")
        for spoil, message in [
            (lambda doc: [1], "not a network document"),
            (lambda doc: doc["stages"].__setitem__(1, 5), "stage 2: not an object"),
            (lambda doc: doc.__setitem__("stages", None), "stages must be a list"),
            (lambda doc: doc.__setitem__("meta", [1]), "meta must be an object")]
    ] + [
        ("explicit", lambda doc: doc["stages"][0].__setitem__("s", None), "stage 1:"),
        ("explicit", lambda doc: doc.__setitem__("n0", "4"), "need n0 a positive integer"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("dims", ["a"]),
         "dims must be a nonempty list of positive integers"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("dims", [4.7, 8]),
         "dims must be a nonempty list of positive integers"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("seed", -1),
         "seed must be a nonnegative integer, not -1"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("seed", True),
         "seed must be a nonnegative integer, not True"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("n_meas", 6.5),
         "n_meas must be a positive integer, not 6.5"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("snr_db", math.inf),
         "snr_db must be a finite real number, not inf"),
        ("recipe", lambda doc: doc["meta"]["builder_args"].__setitem__("kappa", math.inf),
         "kappa must be a finite real number, not inf"),
    ])
    def test_sample_reports_malformed_document_without_traceback(
            self, tiny_config_file, tmp_path, mode, spoil, message):
        # spoil edits the document in place, or returns the one to write
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out,
              *(["--explicit"] if mode == "explicit" else [])])
        path = os.path.join(out, "network.json")
        doc = json.loads(open(path).read())
        doc = spoil(doc) or doc
        with open(path, "w") as fh:
            json.dump(doc, fh)
        proc = run_module("sample", "--net", path, "--out", out)
        assert proc.returncode == 1
        assert "config error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [("n0", "4"), ("dims", [1, 2, 3])])
    def test_recipe_header_unlike_its_network_rejected(self, tiny_config_file,
                                                       tmp_path, key, value):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        path = os.path.join(out, "network.json")
        doc = json.loads(open(path).read())
        doc[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        proc = run_module("sample", "--net", path, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: network document {key} ")
        assert "Traceback" not in proc.stderr

    def test_infer_requires_input(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "o")
        main(["generate", "--config", tiny_config_file, "--out", out])
        rc = main(["infer", "--net", os.path.join(out, "network.json"),
                   "--config", tiny_config_file, "--out", out])
        assert rc == 1


class TestSeCommand:
    def test_se_outputs(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "se")
        assert main(["se", "--config", tiny_config_file, "--out", out]) == 0
        assert read_header(os.path.join(out, "se.csv")) == ",".join(CSV_COLUMNS)
        doc = json.loads((tmp_path / "se" / "se.json").read_text())
        assert len(doc["records"]) == 4


class TestExperiments:
    def test_experiment_iters(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "x")
        rc = main(["experiment-iters", "--config", tiny_config_file, "--out", out])
        assert rc == 0
        assert read_header(os.path.join(out, "iters.csv")) == ",".join(CSV_COLUMNS)
        doc = json.loads((tmp_path / "x" / "result.json").read_text())
        assert doc["metadata"]["failures"] == []

    def test_experiment_iters_deterministic_bytes(self, tiny_config_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["experiment-iters", "--config", tiny_config_file, "--out", out1])
        main(["experiment-iters", "--config", tiny_config_file, "--out", out2])
        b1 = open(os.path.join(out1, "iters.csv"), "rb").read()
        b2 = open(os.path.join(out2, "iters.csv"), "rb").read()
        assert b1 == b2

    def test_experiment_sweep(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "s")
        rc = main(["experiment-sweep", "--config", tiny_config_file,
                   "--n-meas", "4,6", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "sweep_summary.csv"))
        assert os.path.exists(os.path.join(out, "iters_M4.csv"))
        assert os.path.exists(os.path.join(out, "iters_M6.csv"))

    def test_experiment_iters_runs_requested_baseline(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "x")
        rc = main(["experiment-iters", "--config", tiny_config_file,
                   "--methods", "mlvamp,map", "--out", out])
        assert rc == 0
        rows = read_rows(os.path.join(out, "iters.csv"))
        assert {r["method"] for r in rows} == {"mlvamp", "map"}
        # result.json reports the run; the rows are the CSV's
        doc = json.loads((tmp_path / "x" / "result.json").read_text())
        assert set(doc) == {"config", "metadata", "se"}
        assert ",map," in open(os.path.join(out, "iters.csv")).read()

    def test_baselines_default_methods(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "b")
        rc = main(["baselines", "--config", tiny_config_file, "--out", out])
        assert rc == 0
        doc = json.loads((tmp_path / "b" / "baselines.json").read_text())
        assert doc["config"]["methods"] == ["mlvamp", "map", "sgld"]
        rows = read_rows(os.path.join(out, "baselines.csv"))
        assert {r["method"] for r in rows} == {"mlvamp", "map", "sgld"}
        assert read_header(os.path.join(out, "baselines.csv")) == ",".join(CSV_COLUMNS)

    def test_baselines_command(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "b")
        rc = main(["baselines", "--config", tiny_config_file,
                   "--methods", "mlvamp,map", "--out", out])
        assert rc == 0
        text = open(os.path.join(out, "baselines.csv")).read()
        assert ",map," in text

    def test_seed_override(self, tiny_config_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["experiment-iters", "--config", tiny_config_file,
              "--seed", "9", "--out", out1])
        main(["experiment-iters", "--config", tiny_config_file, "--out", out2])
        b1 = open(os.path.join(out1, "iters.csv"), "rb").read()
        b2 = open(os.path.join(out2, "iters.csv"), "rb").read()
        assert b1 != b2


def parse(*argv, command="experiment-iters"):
    return build_parser().parse_args([command, *argv])


class TestLoadConfig:
    @pytest.mark.parametrize("argv, merged", [
        (["--seed", "9"], {"seed": 9}),
        (["--trials", "3"], {"n_trials": 3}),
        (["--iters", "4"], {"n_iter": 4}),
        (["--n-meas", "5"], {"n_meas": 5}),
        (["--n-meas", "4, 6"], {"n_meas": [4, 6]}),
        (["--methods", "mlvamp, map"], {"methods": ["mlvamp", "map"]}),
        (["--no-runtime"], {"include_runtime": False}),
    ])
    def test_each_flag_is_from_dict_of_the_merged_dict(self, tiny_config_file,
                                                       argv, merged):
        doc = json.loads(open(tiny_config_file).read())
        assert load_config(parse("--config", tiny_config_file, *argv)) == \
            ExperimentConfig.from_dict({**doc, **merged})
        assert load_config(parse(*argv)) == ExperimentConfig.from_dict(merged)
        assert load_config(parse("--paper", *argv)) == ExperimentConfig.from_dict(merged)

    def test_sweep_without_config_or_n_meas_takes_the_preset_sweep(self):
        cfg = load_config(parse(command="experiment-sweep"), sweep=True)
        assert cfg == ExperimentConfig.from_dict({"n_meas": PAPER_SWEEP_N_MEAS})
        cfg = load_config(parse("--n-meas", "7", command="experiment-sweep"), sweep=True)
        assert cfg.n_meas == 7

    def test_flag_overrides_the_bad_key_it_replaces(self, tiny_config_file, tmp_path):
        # the config is checked once, after the flags apply
        path = tmp_path / "bad_trials.json"
        path.write_text(json.dumps(dict(json.loads(open(tiny_config_file).read()),
                                        n_trials=-1)))
        assert load_config(parse("--config", str(path), "--trials", "3")).n_trials == 3
        with pytest.raises(ConfigError, match="n_trials"):
            load_config(parse("--config", str(path)))

    @pytest.mark.parametrize("value", ["abc", "6.5", "4,x", ""])
    def test_bad_n_meas_flag_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match="n.meas"):
            load_config(parse("--n-meas", value))

    def test_paper_excludes_config(self, tiny_config_file):
        with pytest.raises(ConfigError, match="--paper and --config"):
            load_config(parse("--paper", "--config", tiny_config_file))


class TestExitCodes:
    @pytest.mark.parametrize("doc", [
        3, [1],
        {"n_trials": 2.5}, {"seed": 1.5}, {"n_iter": "2"}, {"rho": "0.4"},
        {"damping": None}, {"dims": [4.7, 8.2]}, {"dims": "48"}, {"n_meas": 6.9}])
    def test_wrong_value_type_exit_1(self, tiny_config_file, tmp_path, capsys, doc):
        if isinstance(doc, dict):
            doc = dict(json.loads(open(tiny_config_file).read()), **doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["experiment-iters", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "iters.csv").exists()

    @pytest.mark.parametrize("argv", [["--paper", "--n-meas", "abc"],
                                      ["--paper", "--n-meas", "6.5"],
                                      ["--paper", "--config", "CONFIG"]])
    def test_bad_flags_exit_1(self, tiny_config_file, tmp_path, argv):
        argv = [tiny_config_file if a == "CONFIG" else a for a in argv]
        proc = run_module("experiment-iters", *argv, "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "iters.csv").exists()

    def test_repeated_n_meas_in_sweep_exit_1(self, tiny_config_file, tmp_path, capsys):
        assert main(["experiment-sweep", "--config", tiny_config_file,
                     "--n-meas", "6,6", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: n_meas values must be distinct, not [6, 6]"]
        assert not (tmp_path / "out" / "sweep_summary.csv").exists()

    def test_unparsable_flag_exit_1(self, tmp_path):
        # an argument the parser rejects is a configuration error (one line,
        # exit 1): exit 2 is the code of partial trial failures
        proc = run_module("experiment-iters", "--trials", "abc",
                          "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "config error: argument --trials: invalid int value: 'abc'"]
        assert not (tmp_path / "out").exists()
        assert run_module("experiment-iters", "--help").returncode == 0

    def test_zero_norm_truth_layer_fails_its_trials_exit_2(self, tmp_path):
        # in trials 4, 5, 6 and 8 of this config every relu unit of z_2 is 0,
        # so those trials have no NMSE reference; the other trials keep rows
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dims": [6, 4], "n_meas": 3, "n_trials": 10,
                                   "n_iter": 3}))
        out = tmp_path / "out"
        proc = run_module("experiment-iters", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        doc = json.loads((out / "result.json").read_text())
        assert doc["metadata"]["failures"] == [
            {"trial": t, "error": "truth has zero norm at layer 2"} for t in (4, 5, 6, 8)]
        trials = {r["trial"] for r in read_rows(out / "iters.csv")}
        assert trials == {str(t) for t in (0, 1, 2, 3, 7, 9)}

    def test_config_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"methods": ["quantum"]}))
        assert main(["experiment-iters", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("damping", [0.0, -0.5])
    def test_damping_outside_unit_interval_exit_1(self, tiny_config_file, tmp_path,
                                                  damping):
        cfg = json.loads(open(tiny_config_file).read())
        bad = tmp_path / "damping.json"
        bad.write_text(json.dumps(dict(cfg, damping=damping)))
        assert main(["experiment-iters", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1

    def test_negative_burn_in_exit_1(self, tiny_config_file, tmp_path, capsys):
        # sgld_run would otherwise average uninitialised sample rows
        cfg = json.loads(open(tiny_config_file).read())
        bad = tmp_path / "burn_in.json"
        bad.write_text(json.dumps(dict(cfg, sgld_burn_in=-5)))
        assert main(["baselines", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
        assert "config error: sgld_burn_in" in capsys.readouterr().err

    def test_missing_config_file_exit_1(self, tmp_path):
        assert main(["experiment-iters", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_partial_trial_failure_exit_2(self, tiny_config_file, tmp_path,
                                          monkeypatch):
        # trial 1's observation is non-finite, so its engine run fails
        import mlvamp.experiment as exp
        real_sample = exp.sample_trajectory

        def poisoned(net, seed):
            traj = real_sample(net, seed)
            if seed == exp.trial_seed(1, 1):
                traj.z[-1][0] = np.nan
            return traj

        monkeypatch.setattr(exp, "sample_trajectory", poisoned)
        out = str(tmp_path / "p")
        rc = main(["experiment-iters", "--config", tiny_config_file, "--out", out])
        assert rc == 2
        # partial results still written
        doc = json.loads(open(os.path.join(out, "result.json")).read())
        assert len(doc["metadata"]["failures"]) == 1
        assert any(r["trial"] == "0" for r in read_rows(os.path.join(out, "iters.csv")))


class TestNoRuntime:
    def test_result_json_byte_reproducible(self, tiny_config_file, tmp_path):
        # without runtimes the document holds no wall-clock time
        docs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["experiment-iters", "--config", tiny_config_file,
                         "--methods", "mlvamp,map", "--no-runtime",
                         "--out", str(out)]) == 0
            docs.append((out / "result.json").read_bytes())
        assert docs[0] == docs[1]
        assert "runtimes_ms" not in json.loads(docs[0])["metadata"]


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        # `python -m mlvamp` from a checkout, with only src/ on the path
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "mlvamp", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "experiment-iters" in proc.stdout
