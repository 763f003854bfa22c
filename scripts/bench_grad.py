"""Time the MAP/SGLD gradient and its runs on the paper dims.

    PYTHONPATH=src python scripts/bench_grad.py [--calls N] [--seed S]
    PYTHONPATH=src python scripts/bench_grad.py --runs [--seed S]

Run it once per checkout, with that checkout's ``src`` on ``PYTHONPATH``; the
BLAS thread count is fixed to min(2, CPUs) as perfbench fixes it.  The first
form prints one JSON object with, per rho in RHOS (the paper preset at that
rho, network seed ``--seed``, trials 0..TRIALS-1):

- ``true_z0_us``: the median of the trials' median ``grad_hamiltonian`` time
  over N calls at each trial's true z0;
- ``map_z0_us``: the same at each trial's 2000-step MAP estimate (step 0.01,
  started at zero, as perfbench's ``baselines-paper``);
- ``gathered_share``: the share of linear-stage calls whose input is a relu
  output with fewer than half its entries nonzero, i.e. that take the
  half-density route, over every gradient call of those MAP runs and of an
  SGLD run per trial (2000 steps, lambda 2e-5, burn-in 1000), and at the true
  z0 alone (``gathered_share_true``).  The route is read from the blocks
  ``baselines._forward`` returns, so the package's own rule decides it.  A
  run that raises (diverges, or MAP cannot leave a stationary start) counts in
  ``runs_failed``; the calls it made before count in the share, and a failed
  MAP run gives no ``map_z0_us`` point.

``--runs`` prints, per rho and trial, the wall time of each of those MAP and
SGLD runs (``map_ms``, ``sgld_ms``; None where the run raised) and, per run
and per linear stage that takes the half-density route in it, the row churn
between consecutive gradient calls: the mean of |act_t xor act_t-1| / k_t,
the share of calls with no change and the mean k_t.

The drift of the MAP and SGLD estimates between two checkouts is checked by
``scripts/compare_records.py``.
"""
import argparse
import json
import os
import statistics
import sys
import time

THREADS = str(max(1, min(2, len(os.sched_getaffinity(0)))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402

from compare_records import run_baseline  # noqa: E402

RHOS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.8)
TRIALS = 3


def _trials(rho, seed):
    from mlvamp import baselines, experiment, network

    cfg = experiment.paper_config(rho=rho, seed=seed)
    net = experiment.config_network(cfg)
    for t in range(TRIALS):
        tseed = experiment.trial_seed(seed, t)
        traj = network.sample_trajectory(net, tseed)
        yield traj, baselines.HamiltonianContext(net, traj.z[-1]), tseed


def _median_call_us(ctx, z0, calls):
    from mlvamp.baselines import grad_hamiltonian

    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        grad_hamiltonian(ctx, z0)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _masks(ctx, z0):
    """Per linear stage of one gradient call at z0: the mask of the inputs
    whose rows the half-density route gathers, or None where the stage
    takes the dense product."""
    from mlvamp import baselines

    out = []
    for wt, blk in zip(ctx.wts, baselines._forward(ctx, z0)[1]):
        if wt is not None:
            out.append(None if blk is None else np.isin(np.arange(wt.shape[0]), blk[0]))
    return out


def _routes(ctx, z0):
    """(gathered, linear) stage calls of one gradient call at z0."""
    masks = _masks(ctx, z0)
    return sum(m is not None for m in masks), len(masks)


def _run(ctx, seed, method):
    """``compare_records.run_baseline``; None where it raises (diverges, or
    MAP cannot leave its start)."""
    from mlvamp.errors import MlvampError

    try:
        return run_baseline(ctx, seed, method)
    except MlvampError:
        return None


def _recorded_runs(ctx, seed):
    """MAP and SGLD results (None where the run raised), and per method
    every z0 its gradient calls saw."""
    from mlvamp import baselines

    seen, real, results = {"map": [], "sgld": []}, baselines.grad_hamiltonian, {}
    try:
        for method, calls in seen.items():
            def recording(ctx, z0, *rows, calls=calls):
                calls.append(np.array(z0, dtype=float))
                return real(ctx, z0, *rows)

            baselines.grad_hamiltonian = recording
            results[method] = _run(ctx, seed, method)
    finally:
        baselines.grad_hamiltonian = real
    return results["map"], results["sgld"], seen


def time_gradient(calls, seed):
    out = {"calls": calls, "seed": seed, "trials": TRIALS, "blas_threads": THREADS}
    for rho in RHOS:
        true_us, map_us, g_run, n_run, g_true, n_true = [], [], 0, 0, 0, 0
        failed = 0
        for traj, ctx, tseed in _trials(rho, seed):
            true_us.append(_median_call_us(ctx, traj.z[0], calls))
            res_map, res_sgld, seen = _recorded_runs(ctx, tseed + (13,))
            failed += (res_map is None) + (res_sgld is None)
            if res_map is not None:
                map_us.append(_median_call_us(ctx, res_map.z0_hat, calls))
            for z0 in seen["map"] + seen["sgld"]:
                g, n = _routes(ctx, z0)
                g_run, n_run = g_run + g, n_run + n
            g, n = _routes(ctx, traj.z[0])
            g_true, n_true = g_true + g, n_true + n
        out[f"rho={rho}"] = {"true_z0_us": statistics.median(true_us),
                             "map_z0_us": statistics.median(map_us) if map_us else None,
                             "gathered_share": g_run / n_run,
                             "gathered_share_true": g_true / n_true,
                             "runs_failed": failed}
    return out


def _churn(ctx, z0s):
    """Per linear stage j that takes the half-density route in the run
    (``linearj``): over consecutive calls that both take it, the mean of
    |act_t xor act_t-1| / k_t, the share with no change and the mean k_t."""
    out = {}
    for j, col in enumerate(zip(*(_masks(ctx, z0) for z0 in z0s))):
        pairs = [(a, b) for a, b in zip(col, col[1:]) if a is not None and b is not None]
        if pairs:
            diff = [np.count_nonzero(a ^ b) for a, b in pairs]
            k = [np.count_nonzero(b) for _, b in pairs]
            out[f"linear{j}"] = {
                "churn": statistics.fmean(d / max(1, kt) for d, kt in zip(diff, k)),
                "unchanged": statistics.fmean(d == 0 for d in diff),
                "k": statistics.fmean(k)}
    return out


def time_runs(seed):
    out = {"seed": seed, "trials": TRIALS, "blas_threads": THREADS}
    for rho in RHOS:
        row = {"map_ms": [], "sgld_ms": [], "runs_failed": 0}
        for t, (_, ctx, tseed) in enumerate(_trials(rho, seed)):
            for method in ("map", "sgld"):
                t0 = time.perf_counter()
                res = _run(ctx, tseed + (13,), method)
                ms = 1000.0 * (time.perf_counter() - t0)
                row[f"{method}_ms"].append(None if res is None else round(ms, 1))
                row["runs_failed"] += res is None
            _, _, seen = _recorded_runs(ctx, tseed + (13,))
            for method in ("map", "sgld"):
                row[f"trial{t}/{method}_churn"] = _churn(ctx, seen[method])
        out[f"rho={rho}"] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", action="store_true")
    args = ap.parse_args(argv)
    if args.runs:
        print(json.dumps(time_runs(args.seed)))
    else:
        print(json.dumps(time_gradient(args.calls, args.seed)))


if __name__ == "__main__":
    sys.exit(main())
