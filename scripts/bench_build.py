"""Time the synthetic-network builder of two checkouts and compare what they build.

    python scripts/bench_build.py --parent DIR --change DIR [--intermediate DIR]
        [--scales 1,4,8] [--repeat 3] [--seed 0] [--out BENCH_27.json]

Every build runs in its own process, with that checkout's ``src`` on
``PYTHONPATH`` and the BLAS thread count fixed to min(2, CPUs) as perfbench
fixes it.  Per scale the network is the paper preset with its dims and M
multiplied by the scale (network seed ``--seed``).  The parent and the change
alternate, and so does which of them goes first.  Each build records:

- ``build_s``: the whole ``build_synthetic_network`` call, split by the
  builder's two passes into ``gram_eigh_s`` (``_gram_eigh``: each W drawn,
  the measurement's included, its Gram matrix and that matrix's
  eigendecomposition), ``factors_s`` (``_gram_stage``: each W drawn again
  and its factor products, or its SVD) and ``other_s`` (the biases, the
  pilot trajectories and the work of any phase whose routines the checkout
  lacks);
- ``peak_rss_mb`` of the build process, ``start_rss_mb`` (its high-water
  mark when the build starts, after the imports) and, per phase,
  ``gram_eigh_rss_rise_mb`` and ``factors_rss_rise_mb``: how far
  ``ru_maxrss`` rose inside that phase's calls, and ``other_rss_rise_mb``
  the rest of the rise.  The high-water mark only grows, so the last phase
  with a rise set the peak.

The first build of each side and scale also records the worst |V^T V - I| of
every factor (V_out's columns, V_in's rows) and, for the realization check,
each linear stage's factors, s, b, b_bar and W P for a fixed Gaussian probe
P.  The change is compared with the parent stage by stage: whether all five
arrays are equal (``np.array_equal``) and which are not, the max |difference|
of V_out and of V_in, the max relative difference of s, and
max |W P - W' P| / max |W' P|.

Last, the records drift: ``scripts/compare_records.py dump`` runs in each
checkout (and ``--ulp`` in the parent), and ``compare`` reports change vs
parent next to parent-with-one-ulp vs parent; an ``--intermediate`` checkout
(part of the change) splits the drift into its two steps.
"""
import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

import compare_records

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_DIMS = [20, 100, 500, 784]
PAPER_N_MEAS = 300
# Phase -> the mlvamp.network routines timed in it; a checkout that lacks a
# routine counts its work in other_s.
PHASES = {"gram_eigh_s": ("_gram_eigh",),
          "factors_s": ("_gram_stage",)}
FIELDS = ("v_out", "v_in", "s", "b", "b_bar")


def _blas_env(src):
    env = dict(os.environ, PYTHONPATH=src)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _orth_error(v):
    return float(np.max(np.abs(v.T @ v - np.eye(v.shape[1])), initial=0.0))


def worker(scale, seed, details_path):
    """One build in this process; prints its JSON record."""
    from mlvamp import network

    depth = [0]
    spent = {phase: 0.0 for phase in PHASES}
    rise = {phase: 0.0 for phase in PHASES}

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:   # a routine called from a timed one is already counted
                return fn(*args, **kwargs)
            depth[0] += 1
            high = _max_rss_mb()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - start
                rise[phase] += _max_rss_mb() - high
                depth[0] -= 1
        return wrapper

    for phase, names in PHASES.items():
        for name in names:
            if hasattr(network, name):
                setattr(network, name, timed(phase, getattr(network, name)))

    dims = [scale * d for d in PAPER_DIMS]
    start_rss = _max_rss_mb()
    start = time.perf_counter()
    net = network.build_synthetic_network(dims, 0.4, 10.0, 30.0, scale * PAPER_N_MEAS, seed)
    out = {"build_s": time.perf_counter() - start, **spent}
    out["other_s"] = out["build_s"] - sum(spent.values())
    out["peak_rss_mb"] = _max_rss_mb()
    out["start_rss_mb"] = start_rss
    out.update({phase.removesuffix("_s") + "_rss_rise_mb": mb for phase, mb in rise.items()})
    out["other_rss_rise_mb"] = out["peak_rss_mb"] - start_rss - sum(rise.values())
    if details_path:
        linear = [st for st in net.stages if st.kind == "linear"]
        out["orth"] = [{"stage": 2 * i + 1, "shape": [st.n_out, st.n_in],
                        "v_out": _orth_error(st.v_out), "v_in": _orth_error(st.v_in.T)}
                       for i, st in enumerate(linear)]
        rng = np.random.default_rng(12345)
        arrays = {}
        for i, st in enumerate(linear):
            arrays.update({f"{name}{i}": getattr(st, name) for name in FIELDS})
            arrays[f"wp{i}"] = st.v_out @ (st.s[:, None] * (st.v_in @ rng.standard_normal((st.n_in, 4))))
        np.savez(details_path, **arrays)
    print(json.dumps(out))


def _build(checkout, scale, seed, details_path=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--scale", str(scale),
           "--seed", str(seed)]
    if details_path:
        cmd += ["--details", details_path]
    res = subprocess.run(cmd, env=_blas_env(os.path.join(checkout, "src")),
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _realization(parent_npz, change_npz):
    a, b = np.load(parent_npz), np.load(change_npz)
    rows = []
    for i in range(len([k for k in a.files if k.startswith("s")])):
        s_p, s_c = a[f"s{i}"], b[f"s{i}"]
        wp_p, wp_c = a[f"wp{i}"], b[f"wp{i}"]
        unequal = [name for name in FIELDS
                   if not np.array_equal(a[f"{name}{i}"], b[f"{name}{i}"])]
        rows.append({"stage": 2 * i + 1, "equal": not unequal, "unequal": unequal,
                     "v_out_max_abs_diff": float(np.max(np.abs(b[f"v_out{i}"] - a[f"v_out{i}"]))),
                     "v_in_max_abs_diff": float(np.max(np.abs(b[f"v_in{i}"] - a[f"v_in{i}"]))),
                     "s_max_rel_diff": float(np.max(np.abs(s_c - s_p) / s_p)),
                     "wp_max_rel_diff": float(np.max(np.abs(wp_c - wp_p)) / np.max(np.abs(wp_p)))})
    return rows


def _dump(checkout, path, ulp=False):
    cmd = [sys.executable, os.path.join(HERE, "compare_records.py"), "dump", path]
    if ulp:
        cmd.append("--ulp")
    subprocess.run(cmd, env=_blas_env(os.path.join(checkout, "src")), check=True,
                   capture_output=True)


def _compare(a, b):
    groups = compare_records.compare(a, b)
    return {"worst_rel": compare_records.worst_relative(groups), "groups": groups}


def _median_summary(parent_runs, change_runs):
    out = {}
    rises = [phase.removesuffix("_s") + "_rss_rise_mb" for phase in PHASES]
    for key in ("build_s", *PHASES, "other_s", "peak_rss_mb", *rises, "other_rss_rise_mb"):
        p = float(np.median([r[key] for r in parent_runs]))
        c = float(np.median([r[key] for r in change_runs]))
        out[key] = {"parent_median": p, "change_median": c,
                    "change_over_parent": c / p if p > 0 else None,
                    "pairs_change_lower": sum(rc[key] < rp[key] for rp, rc
                                              in zip(parent_runs, change_runs)),
                    "pairs": len(parent_runs)}
    return out


def _git_head(checkout):
    try:
        head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain"], check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + (" + uncommitted changes" if dirty else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--details", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--intermediate")
    parser.add_argument("--scales", default="1,4,8")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_27.json")
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.scale, args.seed, args.details)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    sides = {"parent": args.parent, "change": args.change}
    doc = {"description": __doc__.split("\n\n")[0],
           "command": ("python scripts/bench_build.py --parent <dir> --change <dir>"
                       + (" --intermediate <dir>" if args.intermediate else "")
                       + f" --scales {args.scales} --repeat {args.repeat} --seed {args.seed}"),
           "checkouts": {side: {"git": _git_head(path)} for side, path in sides.items()},
           "machine": {"python": platform.python_version(), "numpy": np.__version__,
                       "cpus": len(os.sched_getaffinity(0)),
                       "blas_threads": min(2, len(os.sched_getaffinity(0)))},
           "seed": args.seed, "builds": {}, "orthogonality": {}, "realization": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for scale in (int(s) for s in args.scales.split(",")):
            runs = {"parent": [], "change": []}
            for rep in range(args.repeat):
                order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
                for side in order:
                    details = os.path.join(tmp, f"{side}_x{scale}.npz") if rep == 0 else None
                    rec = _build(sides[side], scale, args.seed, details)
                    if details:
                        doc["orthogonality"].setdefault(f"x{scale}", {})[side] = rec.pop("orth")
                    runs[side].append(rec)
                    phases = ", ".join(f"{phase.removesuffix('_s')} {rec[phase]:.2f}"
                                       for phase in PHASES)
                    rises = ", ".join(
                        f"{phase.removesuffix('_s')} "
                        f"{rec[phase.removesuffix('_s') + '_rss_rise_mb']:.1f}"
                        for phase in PHASES)
                    print(f"x{scale} {side}: build {rec['build_s']:.2f} s ({phases}), "
                          f"peak {rec['peak_rss_mb']:.1f} MB (rise: {rises})", flush=True)
            doc["builds"][f"x{scale}"] = {
                "dims": [scale * d for d in PAPER_DIMS], "n_meas": scale * PAPER_N_MEAS,
                "runs": runs, "summary": _median_summary(runs["parent"], runs["change"])}
            doc["realization"][f"x{scale}"] = _realization(
                os.path.join(tmp, f"parent_x{scale}.npz"),
                os.path.join(tmp, f"change_x{scale}.npz"))

        dumps = {"parent": os.path.join(tmp, "parent.npz"),
                 "parent_ulp": os.path.join(tmp, "parent_ulp.npz"),
                 "change": os.path.join(tmp, "change.npz")}
        _dump(args.parent, dumps["parent"])
        _dump(args.parent, dumps["parent_ulp"], ulp=True)
        _dump(args.change, dumps["change"])
        records = {"command": "PYTHONPATH=<checkout>/src python scripts/compare_records.py "
                              "dump <out>.npz [--ulp]; compare <a>.npz <b>.npz",
                   "change_vs_parent": _compare(dumps["change"], dumps["parent"]),
                   "parent_ulp_vs_parent": _compare(dumps["parent_ulp"], dumps["parent"])}
        if args.intermediate:
            dumps["intermediate"] = os.path.join(tmp, "intermediate.npz")
            _dump(args.intermediate, dumps["intermediate"])
            doc["checkouts"]["intermediate"] = {"git": _git_head(args.intermediate)}
            records["intermediate_vs_parent"] = _compare(dumps["intermediate"], dumps["parent"])
            records["change_vs_intermediate"] = _compare(dumps["change"], dumps["intermediate"])
        doc["records"] = records
    for key, val in records.items():
        if isinstance(val, dict):
            print(f"records {key}: worst relative {val['worst_rel']:.3e}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
