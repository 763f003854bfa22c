"""Command-line interface.

Subcommands: generate, sample, infer, se, experiment-iters, experiment-sweep,
baselines.  Exit codes: 0 success, 1 configuration error, 2 partial trial
failures (partial results are still written).
"""
import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .engine import run
from .errors import ConfigError, MlvampError
from .experiment import (
    PAPER_SWEEP_N_MEAS,
    ExperimentConfig,
    config_network,
    record_rows,
    run_iteration_experiment,
    run_measurement_sweep,
    se_to_rows,
    write_rows_csv,
)
from .network import load_network, sample_trajectory, save_network
from .state_evolution import run_se, se_state_to_json, stats_from_network


def _add_config_args(p):
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--paper", action="store_true",
                   help="use the built-in synthetic-experiment preset")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--n-meas", help="measurement count (comma list for sweeps)")
    p.add_argument("--methods", help="comma list from mlvamp,map,sgld")
    p.add_argument("--no-runtime", action="store_true",
                   help="leave the runtime_ms column empty (byte-reproducible CSV)")
    p.add_argument("--out", default=".", help="output directory")


def _parse_n_meas(text):
    try:
        vals = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-meas takes comma-separated integers, "
                          f"not {text!r}") from exc
    if not vals:
        raise ConfigError("empty n_meas list")
    return vals if len(vals) > 1 else vals[0]


def _seed(text):
    """An argparse type: a nonnegative integer seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"a seed must be a nonnegative integer, not {text!r}")
    return int(text)


def _load_observation(path):
    """The one real vector in the .npy file ``path``."""
    with open(path, "rb") as fh:
        try:
            y = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:   # empty, truncated, not .npy, object array
            raise ConfigError(f"--observation {path}: {exc}") from exc
    if y.ndim != 1 or y.dtype.kind not in "iuf":
        raise ConfigError(f"--observation must hold one real vector, not a "
                          f"{y.dtype} array of shape {y.shape}")
    return y


def load_config(args, sweep=False):
    """The config file's object, or the preset (with the preset sweep's
    n_meas on a sweep without --n-meas), updated by the flags given and
    checked once, by ``ExperimentConfig.from_dict``."""
    if args.paper and args.config:
        raise ConfigError("--paper and --config exclude each other")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    else:
        sweep_preset = sweep and args.n_meas is None
        d = {"n_meas": list(PAPER_SWEEP_N_MEAS)} if sweep_preset else {}
    flags = {"seed": args.seed, "n_trials": args.trials, "n_iter": args.iters,
             "n_meas": None if args.n_meas is None else _parse_n_meas(args.n_meas),
             "methods": None if args.methods is None else
             [m.strip() for m in args.methods.split(",") if m.strip()],
             "include_runtime": False if args.no_runtime else None}
    if isinstance(d, dict):   # from_dict rejects any other document
        d.update({key: val for key, val in flags.items() if val is not None})
    return ExperimentConfig.from_dict(d)


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_generate(args):
    out = _outdir(args)
    net = config_network(load_config(args))
    path = os.path.join(out, "network.json")
    save_network(net, path, mode="explicit" if args.explicit else "auto")
    print(path)
    return 0


def cmd_sample(args):
    out = _outdir(args)
    net = load_network(args.net)
    traj = sample_trajectory(net, args.seed)
    path = os.path.join(out, "trajectory.npz")
    np.savez(path, **{f"z{i}": z for i, z in enumerate(traj.z)})
    print(path)
    return 0


def cmd_infer(args):
    if args.observation is not None and args.sample_seed is not None:
        raise ConfigError("--observation and --sample-seed exclude each other")
    out = _outdir(args)
    net = load_network(args.net)
    cfg = load_config(args)
    truth = None
    if args.observation:
        y = _load_observation(args.observation)
    elif args.sample_seed is not None:
        truth = sample_trajectory(net, args.sample_seed)
        y = truth.z[-1]
    else:
        raise ConfigError("infer needs --observation or --sample-seed")
    opts = replace(cfg.engine_options(), store_estimates=True)
    records = run(net, y, opts, truth=truth)
    se = run_se(stats_from_network(net), cfg.n_iter, opts)
    rows = record_rows(records, se, trial=0)
    write_rows_csv(rows, os.path.join(out, "infer.csv"))
    # last forward-sweep estimate of the input layer (the default series)
    z0_hat = records[-2].z_hat[0]
    np.save(os.path.join(out, "z0_hat.npy"), z0_hat)
    print(os.path.join(out, "infer.csv"))
    return 0


def cmd_se(args):
    out = _outdir(args)
    cfg = load_config(args)
    net = load_network(args.net) if args.net else config_network(cfg)
    se = run_se(stats_from_network(net), cfg.n_iter, cfg.engine_options())
    write_rows_csv(se_to_rows(se), os.path.join(out, "se.csv"))
    with open(os.path.join(out, "se.json"), "w", encoding="utf-8") as fh:
        json.dump(se_state_to_json(se), fh)
    print(os.path.join(out, "se.csv"))
    return 0


def cmd_experiment(args, csv_name="iters.csv", json_name="result.json",
                   default_baselines=()):
    """experiment-iters and baselines: run exactly ``cfg.methods`` on shared
    trials; ``default_baselines`` join a request that names no baseline."""
    out = _outdir(args)
    cfg = load_config(args)
    if not set(cfg.methods) - {"mlvamp"}:
        cfg.methods += default_baselines
    result = run_iteration_experiment(cfg)
    result.write_csv(os.path.join(out, csv_name))
    result.write_json(os.path.join(out, json_name))
    print(os.path.join(out, csv_name))
    return 2 if result.partial else 0


def cmd_experiment_sweep(args):
    out = _outdir(args)
    cfg = load_config(args, sweep=True)
    sweep = run_measurement_sweep(cfg)
    for m, res in sweep.per_m.items():
        res.write_csv(os.path.join(out, f"iters_M{m}.csv"))
    sweep.write_summary_csv(os.path.join(out, "sweep_summary.csv"))
    doc = {"config": sweep.config, "summary": sweep.summary_rows,
           "metadata": sweep.metadata}
    with open(os.path.join(out, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(os.path.join(out, "sweep_summary.csv"))
    return 2 if sweep.partial else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ConfigErrors (exit 1, as any
    other configuration error); exit 2 stays for partial trial failures."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    p = _Parser(
        prog="mlvamp",
        description="Inference in multi-layer stochastic generative networks "
                    "with a state-evolution predictor and MAP/SGLD baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a network JSON document")
    _add_config_args(g)
    g.add_argument("--explicit", action="store_true",
                   help="store orthogonal factors explicitly")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sample", help="sample one trajectory from a network")
    s.add_argument("--net", required=True)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_sample)

    i = sub.add_parser("infer", help="run inference on one observation")
    _add_config_args(i)
    i.add_argument("--net", required=True)
    i.add_argument("--observation", help=".npy observation vector")
    i.add_argument("--sample-seed", type=_seed,
                   help="sample the observation (enables NMSE tracking)")
    i.set_defaults(func=cmd_infer)

    e = sub.add_parser("se", help="run the state-evolution predictor")
    _add_config_args(e)
    e.add_argument("--net")
    e.set_defaults(func=cmd_se)

    x = sub.add_parser("experiment-iters", help="NMSE-vs-iteration experiment")
    _add_config_args(x)
    x.set_defaults(func=cmd_experiment)

    w = sub.add_parser("experiment-sweep", help="final NMSE vs measurement count")
    _add_config_args(w)
    w.set_defaults(func=cmd_experiment_sweep)

    b = sub.add_parser("baselines", help="MAP/SGLD comparison on shared trials")
    _add_config_args(b)
    b.set_defaults(func=partial(cmd_experiment, csv_name="baselines.csv",
                                json_name="baselines.json",
                                default_baselines=("map", "sgld")))
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MlvampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
