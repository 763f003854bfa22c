"""Time the MAP/SGLD gradient on the paper dims, and dump its estimates.

    PYTHONPATH=src python scripts/bench_grad.py [--calls N] [--seed S]
    PYTHONPATH=src python scripts/bench_grad.py --runs [--seed S]
    PYTHONPATH=src python scripts/bench_grad.py --estimates OUT.npz [--ulp]
    python scripts/bench_grad.py --compare A.npz B.npz

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
  z0 alone (``gathered_share_true``).  The share is found from the
  activations, so it reads the same on a checkout without the route.  A run
  that raises (diverges, or MAP cannot leave a stationary start) counts in
  ``runs_failed``; the calls it made before count in the share, and a failed
  MAP run gives no ``map_z0_us`` point.

``--runs`` prints, per rho and trial, the wall time of each of those MAP and
SGLD runs (``map_ms``, ``sgld_ms``; None where the run raised) and, per run
and per linear stage that takes the half-density route in it, the row churn
between consecutive gradient calls: the mean of |act_t xor act_t-1| / k_t,
the share of calls with no change and the mean k_t.  The churn is found from
the activations, so it too reads the same on every checkout.

``--estimates`` writes the MAP ``z0_hat`` and SGLD ``z0_mean`` of paper-preset
trials 0..TRIALS-1 (the same runs); ``--ulp`` first moves y[0] of every trial
up by one ulp, which measures the drift that reordered floating-point work
can cause.  ``--compare`` prints the max |A - B| / max |B| of each array.
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

RHOS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.8)
TRIALS = 3
MAP_STEPS, MAP_STEP_SIZE = 2000, 0.01
SGLD_STEPS, SGLD_LAMBDA, SGLD_BURN_IN = 2000, 2e-5, 1000


def _trials(rho, seed):
    from mlvamp import baselines, experiment, network

    cfg = experiment.paper_config(rho=rho, seed=seed)
    net = experiment.config_network(cfg)
    for t in range(TRIALS):
        tseed = experiment.trial_seed(seed, t)
        traj = network.sample_trajectory(net, tseed)
        yield net, traj, baselines.HamiltonianContext(net, traj.z[-1]), tseed


def _median_call_us(ctx, z0, calls):
    from mlvamp.baselines import grad_hamiltonian

    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        grad_hamiltonian(ctx, z0)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _masks(net, z0):
    """Per linear stage of one gradient call at z0: its input's nonzero mask
    where the stage takes the half-density route (its input is a relu output
    with fewer than half its entries nonzero), else None."""
    x, after_relu, out = np.asarray(z0, dtype=float), False, []
    for st in net.stages:
        if st.kind == "linear":
            gathered = after_relu and 2 * np.count_nonzero(x) < x.size
            out.append(x != 0 if gathered else None)
        after_relu = st.kind == "nonlinear" and st.activation == "relu"
        x = st.apply(x)
    return out


def _routes(net, z0):
    """(gathered, linear) stage calls of one gradient call at z0."""
    masks = _masks(net, z0)
    return sum(m is not None for m in masks), len(masks)


def _run(ctx, seed, method):
    """One 2000-step run as perfbench's ``baselines-paper`` makes it; None
    where it raises (diverges, or MAP cannot leave its start)."""
    from mlvamp import baselines
    from mlvamp.errors import MlvampError

    try:
        if method == "map":
            return baselines.map_estimate(ctx, steps=MAP_STEPS, step_size=MAP_STEP_SIZE,
                                          seed=seed)
        return baselines.sgld_run(ctx, steps=SGLD_STEPS, lam=SGLD_LAMBDA,
                                  burn_in=SGLD_BURN_IN, seed=seed)
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
        for net, traj, ctx, tseed in _trials(rho, seed):
            true_us.append(_median_call_us(ctx, traj.z[0], calls))
            res_map, res_sgld, seen = _recorded_runs(ctx, tseed + (13,))
            failed += (res_map is None) + (res_sgld is None)
            if res_map is not None:
                map_us.append(_median_call_us(ctx, res_map.z0_hat, calls))
            for z0 in seen["map"] + seen["sgld"]:
                g, n = _routes(net, z0)
                g_run, n_run = g_run + g, n_run + n
            g, n = _routes(net, traj.z[0])
            g_true, n_true = g_true + g, n_true + n
        out[f"rho={rho}"] = {"true_z0_us": statistics.median(true_us),
                             "map_z0_us": statistics.median(map_us) if map_us else None,
                             "gathered_share": g_run / n_run,
                             "gathered_share_true": g_true / n_true,
                             "runs_failed": failed}
    return out


def _churn(net, z0s):
    """Per linear stage j that takes the half-density route in the run
    (``linearj``): over consecutive calls that both take it, the mean of
    |act_t xor act_t-1| / k_t, the share with no change and the mean k_t."""
    out = {}
    for j, col in enumerate(zip(*(_masks(net, z0) for z0 in z0s))):
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
        for t, (net, _, ctx, tseed) in enumerate(_trials(rho, seed)):
            for method in ("map", "sgld"):
                t0 = time.perf_counter()
                res = _run(ctx, tseed + (13,), method)
                ms = 1000.0 * (time.perf_counter() - t0)
                row[f"{method}_ms"].append(None if res is None else round(ms, 1))
                row["runs_failed"] += res is None
            _, _, seen = _recorded_runs(ctx, tseed + (13,))
            for method in ("map", "sgld"):
                row[f"trial{t}/{method}_churn"] = _churn(net, seen[method])
        out[f"rho={rho}"] = row
    return out


def dump_estimates(path, ulp, seed):
    arrays = {}
    for t, (_, traj, ctx, tseed) in enumerate(_trials(0.4, seed)):
        if ulp:
            ctx.y[0] = np.nextafter(ctx.y[0], np.inf)
        res_map, res_sgld, _ = _recorded_runs(ctx, tseed + (13,))
        arrays[f"trial{t}/map_z0_hat"] = res_map.z0_hat
        arrays[f"trial{t}/sgld_z0_mean"] = res_sgld.z0_mean
    np.savez(path, **arrays)


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    return {k: float(np.max(np.abs(a[k] - b[k])) / np.max(np.abs(b[k])))
            for k in sorted(b.files)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--estimates", metavar="OUT.npz")
    ap.add_argument("--ulp", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    ap.add_argument("--runs", action="store_true")
    args = ap.parse_args(argv)
    if args.runs:
        print(json.dumps(time_runs(args.seed)))
    elif args.compare:
        print(json.dumps(compare(*args.compare)))
    elif args.estimates:
        dump_estimates(args.estimates, args.ulp, args.seed)
    else:
        print(json.dumps(time_gradient(args.calls, args.seed)))


if __name__ == "__main__":
    sys.exit(main())
