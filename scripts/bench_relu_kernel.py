"""Time the relu posterior kernel, in the engine and in the state evolution.

    PYTHONPATH=src python scripts/bench_relu_kernel.py [--repeat R]

Run it once per checkout, with that checkout's ``src`` on ``PYTHONPATH``; it
prints one JSON object of best-of-R times in seconds:

- ``denoise_middle_both_ms`` / ``denoise_middle_one_ms``: one relu
  ``denoise_middle`` call on a (10, 500) batch, both sides and the side the
  engine's forward sweep uses (a checkout without ``side`` computes both);
- ``engine_relu_ms_per_stage_iter``: the relu time of one stage in one
  iteration of the paper preset's batched engine run (its 10 trials), on
  that run's own inputs: the forward call (side "out") and the reverse call
  (side "in") of the stage, sharing their z_in < 0 branch through the memo
  ``engine.run`` gives the stage: an ``engine.Reuse`` of
  ``scalar_denoiser._negative_branch``, or an older checkout's
  ``scalar_denoiser.NegativeBranch`` (a checkout with neither computes the
  branch in both calls).  The calls are recorded
  from one ``engine.run`` and replayed; ``engine_relu_stage_iters`` counts
  the pairs;
- ``run_se_s``: ``run_se`` on the paper preset (50 iterations, damping 0.85);
- ``run_se_tensor_s``: the same recursion with every relu stage error taken
  from the 3-D tensor rule ``tests/oracles.relu_stage_error_tensor``
  (z_in integrated numerically); calls whose R+ variance is clamped, which
  that rule does not take, keep the package rule and are counted in
  ``tensor_fallback_calls``.
"""
import argparse
import inspect
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def engine_relu_pairs(engine, net, ys, opts):
    """The relu ``denoise_middle`` calls of one ``engine.run(net, ys, opts)``
    as (forward, reverse) pairs of one stage in one iteration, each call a
    (stage, args, side).  The precision columns are copied, because the
    engine updates its precision arrays in place; the means are kept as the
    very arrays the engine passed, as a shared branch keys on them."""
    pairs, pending = [], {}
    denoise = engine.denoise_middle

    def record(stage, r_plus, r_minus, gamma_plus, gamma_minus, side=None, **kwargs):
        call = (stage, (r_plus, r_minus, np.copy(gamma_plus), np.copy(gamma_minus)), side)
        if side == "out":
            pending[id(stage)] = call
        else:
            pairs.append((pending.pop(id(stage)), call))
        return denoise(stage, r_plus, r_minus, gamma_plus, gamma_minus, side=side, **kwargs)

    engine.denoise_middle = record
    try:
        engine.run(net, ys, opts)
    finally:
        engine.denoise_middle = denoise
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    import oracles
    from mlvamp import engine, scalar_denoiser, state_evolution
    from mlvamp.experiment import paper_config, trial_seed
    from mlvamp.network import NonlinearStage, build_synthetic_network, sample_trajectory
    from mlvamp.scalar_denoiser import denoise_middle

    rng = np.random.default_rng(1)
    r_plus = rng.normal(0, 1, (10, 500))
    r_minus = np.maximum(rng.normal(0, 1, (10, 500)), 0) + rng.normal(0, 0.03, (10, 500))
    gamma_plus, gamma_minus = np.full((10, 1), 30.0), np.full((10, 1), 900.0)
    relu = NonlinearStage("relu", 0.0, 500)
    one = ({"side": "out"} if "side" in inspect.signature(denoise_middle).parameters
           else {})
    out = {
        "denoise_middle_both_ms": 1e3 * best_of(lambda: [denoise_middle(
            relu, r_plus, r_minus, gamma_plus, gamma_minus) for _ in range(20)],
            args.repeat) / 20,
        "denoise_middle_one_ms": 1e3 * best_of(lambda: [denoise_middle(
            relu, r_plus, r_minus, gamma_plus, gamma_minus, **one) for _ in range(20)],
            args.repeat) / 20,
    }

    cfg = paper_config()
    net = build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                  cfg.n_meas, cfg.seed)
    ys = np.array([sample_trajectory(net, trial_seed(cfg.seed, t)).z[-1]
                   for t in range(cfg.n_trials)])
    pairs = engine_relu_pairs(engine, net, ys, cfg.engine_options())
    if hasattr(engine, "Reuse"):
        def shared():
            return engine.Reuse(scalar_denoiser._negative_branch)
    else:
        shared = getattr(scalar_denoiser, "NegativeBranch", None)

    def replay():
        for forward, reverse in pairs:
            held = {} if shared is None else {"branch": shared()}
            for stage, args, side in (forward, reverse):
                denoise_middle(stage, *args, side=side, **held)

    out["engine_relu_ms_per_stage_iter"] = 1e3 * best_of(replay, args.repeat) / len(pairs)
    out["engine_relu_stage_iters"] = len(pairs)

    stats = state_evolution.stats_from_network(net)
    opts = cfg.engine_options()
    out["run_se_s"] = best_of(lambda: state_evolution.run_se(stats, cfg.n_iter, opts),
                              args.repeat)

    package_rule = state_evolution._relu_errors
    fallbacks = [0]

    def tensor_rule(stat, gamma_plus, gamma_minus, tau_prev, mean_prev, refine=1,
                    **kwargs):
        v_r = tau_prev - mean_prev**2 - 1.0 / gamma_plus
        if refine != 1 or v_r <= 0 or gamma_minus <= 0:
            fallbacks[0] += refine == 1
            return package_rule(stat, gamma_plus, gamma_minus, tau_prev, mean_prev,
                                refine, **kwargs)
        return oracles.relu_stage_error_tensor(gamma_plus, gamma_minus, tau_prev,
                                               mean_prev, stat.noise_var), False

    state_evolution._relu_errors = tensor_rule
    try:
        out["run_se_tensor_s"] = best_of(
            lambda: state_evolution.run_se(stats, cfg.n_iter, opts), args.repeat)
    finally:
        state_evolution._relu_errors = package_rule
    out["tensor_fallback_calls"] = fallbacks[0] // args.repeat
    out["tensor_over_package"] = out["run_se_tensor_s"] / out["run_se_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
