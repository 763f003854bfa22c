"""The scripts: the drift check's ``compare`` run as a command on small
hand-made dumps, and the names the build bench times."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlvamp import network

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "compare_records.py"


def dump_arrays():
    """A dump with engine, SE and baseline keys, as ``dump`` names them."""
    rng = np.random.default_rng(0)
    return {"blas_threads": np.array(2),
            "x1/se/eta": rng.uniform(1, 2, (4, 3)),
            "x1/se/nmse_db": rng.uniform(-30, 0, (4, 3)),
            "x1/se/quad_rel_err": np.array(1e-9),
            "x1/trial0/eta": rng.uniform(1, 2, (4, 3)),
            "x1/trial0/z_hat0": rng.normal(size=(4, 5)),
            "x1/trial0/map_z0_hat": rng.normal(size=5),
            "x1/trial0/sgld_z0_mean": rng.normal(size=5)}


def compare(tmp_path, a, b, *flags):
    if not SCRIPT.exists():
        pytest.skip("scripts/compare_records.py is absent")
    paths = []
    for name, arrays in (("a.npz", a), ("b.npz", b)):
        np.savez(tmp_path / name, **arrays)
        paths.append(str(tmp_path / name))
    return subprocess.run([sys.executable, str(SCRIPT), "compare", *paths, *flags],
                          capture_output=True, text=True, timeout=120)


def groups(stdout):
    """group -> (value, flagged) of each printed line."""
    return {line.split()[0]: (float(line.split()[1]), ">" in line)
            for line in stdout.splitlines()}


def test_identical_dumps_read_zero(tmp_path):
    proc = compare(tmp_path, dump_arrays(), dump_arrays())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    read = groups(proc.stdout)
    assert {"x1/se/eta", "x1/engine/eta", "x1/engine/z_hat", "x1/baselines/map_z0_hat",
            "x1/baselines/sgld_z0_mean", "x1/se/quad_rel_err_abs",
            "x1/se/nmse_db_abs_db"} <= set(read)
    assert all(val == 0.0 and not flagged for val, flagged in read.values())


def test_moved_baseline_estimate_named(tmp_path):
    moved = dump_arrays()
    moved["x1/trial0/sgld_z0_mean"] = moved["x1/trial0/sgld_z0_mean"] * (1 + 1e-9)
    proc = compare(tmp_path, moved, dump_arrays(), "--rtol", "1e-12")
    assert proc.returncode == 1
    read = groups(proc.stdout)
    val, flagged = read["x1/baselines/sgld_z0_mean"]
    assert flagged and val == pytest.approx(1e-9, rel=1e-3)   # normwise
    assert [g for g, (_, f) in read.items() if f] == ["x1/baselines/sgld_z0_mean"]


@pytest.mark.parametrize("spoil", ["drop_key", "blas_threads"])
def test_incomparable_dumps_exit_1(tmp_path, spoil):
    other = dump_arrays()
    if spoil == "drop_key":
        del other["x1/trial0/map_z0_hat"]
    else:
        other["blas_threads"] = np.array(1)
    proc = compare(tmp_path, dump_arrays(), other)
    assert proc.returncode == 1
    assert ("map_z0_hat" if spoil == "drop_key" else "BLAS threads") in proc.stdout


def test_every_timed_build_phase_names_a_builder_routine(monkeypatch):
    # bench_build.py skips a name that mlvamp.network lacks, so a renamed
    # routine would drop out of its phase's time without a word
    monkeypatch.syspath_prepend(str(SCRIPTS))   # bench_build imports compare_records
    spec = importlib.util.spec_from_file_location("bench_build", SCRIPTS / "bench_build.py")
    bench_build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_build)
    names = [name for names in bench_build.PHASES.values() for name in names]
    assert names and [name for name in names if not hasattr(network, name)] == []
