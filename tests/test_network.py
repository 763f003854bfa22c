import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import linalg

from mlvamp import network
from mlvamp.errors import ConfigError
from mlvamp.network import (
    LinearStage,
    NonlinearStage,
    NetworkSpec,
    build_synthetic_network,
    haar_orthogonal,
    network_from_json,
    network_to_json,
    sample_trajectory,
    svd_decompose_stage,
)
from oracles import empirical_layer_moments

PAPER_DIMS = [20, 100, 500, 784]
DATA = os.path.join(os.path.dirname(__file__), "data")


def paper_net(seed=0, n_meas=300):
    return build_synthetic_network(PAPER_DIMS, rho=0.4, kappa=10.0,
                                   snr_db=30.0, n_meas=n_meas, seed=seed)


def identity_chain(n=6, n_stages=3):
    stages = []
    for i in range(n_stages):
        if i % 2 == 0:
            stages.append(LinearStage(v_out=np.eye(n), v_in=np.eye(n),
                                      s=np.ones(n), b=np.zeros(n), nu=math.inf))
        else:
            stages.append(NonlinearStage("identity", 0.0, n))
    return NetworkSpec(n0=n, stages=stages)


def recipe_document():
    """The committed recipe document of the paper network, seed 0."""
    with open(os.path.join(DATA, "paper_recipe_seed0.json"), encoding="utf-8") as fh:
        return json.load(fh)


def two_stage_explicit_document():
    rng = np.random.default_rng(4)
    net = NetworkSpec(n0=4, stages=[
        svd_decompose_stage(rng.normal(size=(6, 4)), rng.normal(size=6), 2.0),
        NonlinearStage("relu", 0.1, 6)])
    return json.loads(json.dumps(network_to_json(net, mode="explicit")))


class TestSvdDecompose:
    def test_identity_matrix(self):
        st = svd_decompose_stage(np.eye(5), np.zeros(5), math.inf)
        assert np.allclose(st.s, 1.0)
        assert np.allclose(st.to_dense(), np.eye(5), atol=1e-12)

    def test_random_rectangular_matches_dense_svd(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(8, 12))
        st = svd_decompose_stage(W, rng.normal(size=8), nu=4.0)
        rel = np.max(np.abs(st.to_dense() - W)) / np.max(np.abs(W))
        assert rel < 1e-10
        assert np.allclose(st.s, linalg.svdvals(W), rtol=1e-10, atol=1e-12)
        assert np.allclose(st.b_bar, st.v_out.T @ st.b, atol=1e-12)

    def test_zero_matrix_is_pure_bias(self):
        b = np.array([1.0, -2.0, 0.5])
        st = svd_decompose_stage(np.zeros((3, 4)), b, math.inf)
        assert len(st.s) == 0
        assert np.allclose(st.apply(np.ones(4)), b)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd_decompose_stage(np.array([[np.nan]]), np.zeros(1), 1.0)


class TestSvdCoordinates:
    @pytest.mark.parametrize("shape", [(7, 5), (5, 9)])
    def test_methods_are_the_factor_products(self, shape):
        # bit for bit, on one message and on a (T, n) batch of them; W has
        # rank 3, so both factors are thin
        rng = np.random.default_rng(5)
        W = rng.normal(size=(shape[0], 3)) @ rng.normal(size=(3, shape[1]))
        st = svd_decompose_stage(W, rng.normal(size=shape[0]), 2.0)
        assert len(st.s) == 3
        for method, factor in ((st.svd_in, st.v_in), (st.svd_out, st.v_out.T),
                               (st.from_svd_in, st.v_in.T),
                               (st.from_svd_out, st.v_out)):
            x = rng.normal(size=factor.shape[1])
            xs = rng.normal(size=(3, factor.shape[1]))
            assert np.array_equal(method(x), factor @ x)
            assert np.array_equal(method(xs), (factor @ xs.T).T)

    def test_apply_goes_through_the_coordinates(self):
        rng = np.random.default_rng(6)
        st = svd_decompose_stage(rng.normal(size=(6, 4)), rng.normal(size=6), 2.0)
        z = rng.normal(size=4)
        assert np.array_equal(st.apply(z), st.v_out @ (st.s * (st.v_in @ z)) + st.b)


class TestGramRoute:
    """The builder factors a hidden Gaussian W through its smaller Gram
    matrix, and falls back to the SVD where that would cost orthogonality."""

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    def test_tall_and_wide_match_svd(self, shape, monkeypatch):
        seq = np.random.SeedSequence(4)
        W = network._hidden_weights(seq, shape)
        b = np.random.default_rng(5).normal(size=shape[0])
        monkeypatch.setattr(network, "svd_decompose_stage", None)   # no fallback
        st = network._gram_stage(seq, shape, network._gram_eigh(seq, shape), b)
        s_ref = np.linalg.svd(W, compute_uv=False)
        assert np.max(np.abs(st.s - s_ref) / s_ref) <= 1e-13
        assert np.max(np.abs(st.to_dense() - W)) <= 1e-13
        assert st.v_out.shape == (shape[0], 120) and st.v_in.shape == (120, shape[1])
        assert st.v_out.flags.owndata and st.v_in.flags.owndata
        st.validate(1e-12)

    def test_square_hidden_layer_takes_the_svd(self, monkeypatch):
        calls = []

        def spy(W, b, nu):
            calls.append(W.shape)
            return svd_decompose_stage(W, b, nu)

        monkeypatch.setattr(network, "svd_decompose_stage", spy)
        net = build_synthetic_network([64, 64], 0.4, 10.0, 30.0, 32, 3)
        assert calls == [(64, 64)]
        net.validate(1e-10)

    @pytest.mark.parametrize("n_meas", [300, 900])   # below and above the width 784
    def test_measurement_factors_are_the_haar_draws(self, n_meas):
        # the measurement keeps the first `rank` columns / rows of the sign-fixed
        # QR of its two square draws, the last two of the builder's RNG streams
        # before the pilot's
        meas = paper_net(n_meas=n_meas).stages[-1]
        rank = min(n_meas, PAPER_DIMS[-1])
        streams = np.random.SeedSequence(0).spawn(2 * (len(PAPER_DIMS) - 1) + 3)
        u = haar_orthogonal(n_meas, np.random.default_rng(streams[-3]))
        v = haar_orthogonal(PAPER_DIMS[-1], np.random.default_rng(streams[-2]))
        assert np.max(np.abs(meas.v_out - u[:, :rank])) <= 1e-12
        assert np.max(np.abs(meas.v_in - v[:rank])) <= 1e-12

    def test_measurement_is_drawn_between_the_eighs_and_the_factors(self, monkeypatch):
        # every hidden stage's Gram eigendecomposition, then the measurement's
        # square draws, then the hidden factor products: the build's n^2
        # temporaries never meet a held W or the measurement's factors
        calls = []

        def spy(name):
            fn = getattr(network, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_gram_eigh", "_haar_columns", "_haar_rows", "_gram_stage"):
            monkeypatch.setattr(network, name, spy(name))
        paper_net()
        assert calls == (["_gram_eigh"] * 3 + ["_haar_columns", "_haar_rows"]
                         + ["_gram_stage"] * 3)

    def test_no_hidden_weights_held_across_eigh(self, monkeypatch):
        drawn, eighs = [], []
        draw, eigh = network._hidden_weights, np.linalg.eigh

        def spy_draw(seq, shape):
            W = draw(seq, shape)
            drawn.append(weakref.ref(W))
            return W

        def spy_eigh(a):
            eighs.append([ref() is None for ref in drawn])
            return eigh(a)

        monkeypatch.setattr(network, "_hidden_weights", spy_draw)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        paper_net()
        assert eighs == [[True] * i for i in range(1, 4)]

    def test_haar_rows_match_the_square_draw(self):
        # up to 5 panels of TRI_BLOCK columns; at n = 513 the last is 1 column wide.
        # R's rounding differs from that of the reference's QR, and g[:k] R^-1
        # multiplies it by cond(g): 0.2-0.5 eps cond(g) over 12 draws at n = 640
        # (cond 15186 at the n = 640 draw here; 680-5400 elsewhere)
        for n, k in ((50, 1), (200, 70), (120, 120), (513, 300), (640, 17)):
            rows = network._haar_rows(np.random.default_rng(n), n, k)
            ref = haar_orthogonal(n, np.random.default_rng(n))[:k]
            cond = np.linalg.cond(np.random.default_rng(n).standard_normal((n, n)))
            assert np.max(np.abs(rows - ref)) <= max(1e-12, np.finfo(float).eps * cond)
            assert np.max(np.abs(rows @ rows.T - np.eye(k))) <= 1e-12

    @pytest.mark.parametrize("n", [3 * network.TRI_BLOCK, 4 * network.TRI_BLOCK + 37])
    def test_householder_qr_overwrites_its_argument_with_r(self, n):
        g = np.random.default_rng(n).standard_normal((n, n))
        ref = np.linalg.qr(g, mode="r")
        before = g.copy()
        tau = network._householder_qr(g)
        r = np.triu(g)
        assert not np.array_equal(g, before) and tau.shape == (n,)
        # R is unique up to the signs of its rows
        r *= (np.sign(np.diag(r)) * np.sign(np.diag(ref)))[:, None]
        assert np.max(np.abs(r - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_haar_rows_hold_no_square_copy(self):
        # g and g[:k], plus a panel's temporaries (n x 4 TRI_BLOCK at most):
        # 2.14 n^2 doubles here; numpy's QR held g, its working copy and R, 3.13
        n, k = 1000, 400
        tracemalloc.start()
        try:
            network._haar_rows(np.random.default_rng(0), n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8

    def test_recipe_saved_by_the_svd_builder_loads(self):
        # written by the builder that factored every hidden W by np.linalg.svd
        # and formed the square Haar matrices; loading rebuilds the network and
        # checks its spectra against the stored ones to 1e-12
        with open(os.path.join(DATA, "paper_recipe_seed0.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        net = network_from_json(doc)
        assert net.dims == doc["dims"]
        assert net.meta["pilot_signal_power"] == pytest.approx(
            doc["meta"]["pilot_signal_power"], rel=1e-12)


class TestBuildSyntheticNetwork:
    def test_paper_dims_structure(self):
        net = paper_net()
        assert net.dims == [20, 100, 100, 500, 500, 784, 784, 300]
        kinds = [st.kind for st in net.stages]
        assert kinds == ["linear", "nonlinear"] * 3 + ["linear"]
        meas = net.stages[-1]
        assert meas.n_in == 784 and meas.n_out == 300
        ratio = meas.s.max() / meas.s.min()
        assert abs(ratio - 10.0) < 1e-9 * 10.0

    def test_orthogonality(self):
        net = paper_net()
        net.validate(tol=1e-10)

    def test_kappa_one_equal_singular_values(self):
        net = build_synthetic_network([4, 16], 0.4, 1.0, 20.0, 8, 1)
        s = net.stages[-1].s
        assert s.max() / s.min() == 1.0

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ConfigError):
            build_synthetic_network([4, 16], 0.4, 0.5, 20.0, 8, 1)

    def test_seeded_rebuild_bit_identical(self):
        a, b = paper_net(seed=7), paper_net(seed=7)
        for sa, sb in zip(a.stages, b.stages):
            if sa.kind == "linear":
                assert np.array_equal(sa.s, sb.s)
                assert np.array_equal(sa.b, sb.b)
                assert np.array_equal(sa.v_out, sb.v_out)
                assert np.array_equal(sa.v_in, sb.v_in)
                assert sa.nu == sb.nu

    def test_factors_thin_and_own_their_memory(self):
        for n_meas in (300, 900):   # below and above the last width 784
            for st in paper_net(n_meas=n_meas).stages:
                if st.kind == "linear":
                    r = len(st.s)
                    assert st.v_out.shape == (st.n_out, r)
                    assert st.v_in.shape == (r, st.n_in)
                    assert st.v_out.flags.owndata and st.v_in.flags.owndata

    def test_rank_deficient_measurement_flagged(self):
        net = build_synthetic_network([4, 16], 0.4, 2.0, 20.0, 24, 1)
        assert net.meta["rank_deficient_measurement"]
        assert len(net.stages[-1].s) == 16

    def test_measurement_snr_calibration(self):
        net = paper_net()
        meas = net.stages[-1]
        sigma2 = 1.0 / meas.nu
        # contract: noise variance scaled from the 10-trajectory pilot power
        pilot = net.meta["pilot_signal_power"]
        assert sigma2 == pytest.approx(pilot * 10.0**(-3.0) / 300, rel=1e-12)
        # and the realized SNR is in the right ballpark (per-trial signal
        # power fluctuates strongly at N0 = 20, so the check is loose)
        powers = [np.sum(meas.apply(sample_trajectory(net, 5000 + s).z[-2])**2)
                  for s in range(40)]
        snr = 10 * np.log10(np.mean(powers) / (300 * sigma2))
        assert abs(snr - 30.0) < 3.0


class TestSampleTrajectory:
    def test_identity_chain_passthrough(self):
        net = identity_chain()
        traj = sample_trajectory(net, 0)
        assert np.allclose(traj.z[-1], traj.z[0], atol=1e-12)

    def test_relu_positive_fraction(self):
        # pre-activation layers with N >= 500 keep a fraction ~rho positive
        net = paper_net()
        fracs = {3: [], 5: []}
        for s in range(10):
            traj = sample_trajectory(net, 1000 + s)
            for ell in fracs:
                fracs[ell].append(np.mean(traj.z[ell] > 0))
        for ell, vals in fracs.items():
            assert 0.35 <= np.mean(vals) <= 0.45, (ell, np.mean(vals))

    def test_seeded_repeatability(self):
        net = paper_net()
        t1 = sample_trajectory(net, 42)
        t2 = sample_trajectory(net, 42)
        for a, b in zip(t1.z, t2.z):
            assert np.array_equal(a, b)


class TestEmpiricalMoments:
    def test_unit_gaussian_input(self):
        net = identity_chain(n=2000, n_stages=1)
        m = empirical_layer_moments(sample_trajectory(net, 0))
        assert abs(m[0] - 1.0) < 5 / np.sqrt(2000)

    def test_zero_vector(self):
        st = svd_decompose_stage(np.zeros((3, 3)), np.zeros(3), math.inf)
        net = NetworkSpec(n0=3, stages=[st])
        m = empirical_layer_moments(sample_trajectory(net, 0))
        assert m[1] == 0.0


class TestSerialization:
    def test_recipe_roundtrip(self, tmp_path):
        net = paper_net(seed=3)
        doc = network_to_json(net)
        assert doc["mode"] == "recipe"
        text = json.dumps(doc)
        loaded = network_from_json(json.loads(text))
        for sa, sb in zip(net.stages, loaded.stages):
            if sa.kind == "linear":
                assert np.array_equal(sa.v_out, sb.v_out)
                assert np.array_equal(sa.b, sb.b)

    def test_explicit_roundtrip(self):
        rng = np.random.default_rng(0)
        st = svd_decompose_stage(rng.normal(size=(4, 3)), rng.normal(size=4), 2.5)
        net = NetworkSpec(n0=3, stages=[st])
        doc = json.loads(json.dumps(network_to_json(net, mode="explicit")))
        loaded = network_from_json(doc)
        assert np.allclose(loaded.stages[0].to_dense(), st.to_dense(), atol=1e-12)
        assert loaded.stages[0].nu == 2.5

    def test_explicit_documents_hold_thin_factors(self):
        rng = np.random.default_rng(1)
        net = NetworkSpec(n0=4, stages=[
            svd_decompose_stage(rng.normal(size=(6, 4)), rng.normal(size=6), math.inf),
            NonlinearStage("relu", 0.0, 6),
            svd_decompose_stage(np.zeros((3, 6)), rng.normal(size=3), 2.0)])   # rank 0
        doc = json.loads(json.dumps(network_to_json(net, mode="explicit")))
        assert doc["version"] == 2
        loaded = network_from_json(doc)
        for entry, st, st2 in zip(doc["stages"], net.stages, loaded.stages):
            if st.kind == "linear":
                assert len(entry["v_out"][0]) == len(entry["v_in"]) == len(st.s)
                assert np.array_equal(st2.v_out, st.v_out)
                assert np.array_equal(st2.v_in, st.v_in)

    def test_explicit_document_with_broken_factor_rejected(self):
        rng = np.random.default_rng(3)
        net = NetworkSpec(n0=4, stages=[
            svd_decompose_stage(rng.normal(size=(6, 4)), rng.normal(size=6), math.inf),
            NonlinearStage("relu", 0.0, 6),
            svd_decompose_stage(rng.normal(size=(3, 6)), rng.normal(size=3), 2.0)])
        doc = json.loads(json.dumps(network_to_json(net, mode="explicit")))
        doc["stages"][2]["v_out"] = (2 * np.array(doc["stages"][2]["v_out"])).tolist()
        with pytest.raises(ConfigError, match="stage 3: orthogonality violated"):
            network_from_json(doc)

    @pytest.mark.parametrize("stage, key, corrupt, message", [
        (0, "b", lambda v: v[:-1], "stage 1: bias length"),
        (0, "nu", lambda v: -1.0, "stage 1: nu must be positive"),
        (0, "s", lambda v: [math.nan] + v[1:], "stage 1: non-finite"),
        (0, "b", lambda v: v[:-1] + [math.nan], "stage 1: non-finite"),
        (0, "v_in", lambda v: [[math.nan] + v[0][1:]] + v[1:],
         "stage 1: orthogonality violated"),
        (1, "noise_var", lambda v: -1.0, "stage 2: noise_var"),
        (1, "noise_var", lambda v: math.nan, "stage 2: noise_var"),
        (1, "noise_var", lambda v: math.inf, "stage 2: noise_var"),
        (1, "activation", lambda v: "sigmoid", "stage 2: activation 'sigmoid'"),
    ])
    def test_malformed_explicit_document_rejected(self, stage, key, corrupt, message):
        # each fault fails on load, naming its stage, and not at the first
        # denoise or as a non-finite observation
        doc = two_stage_explicit_document()
        network_from_json(doc)
        doc["stages"][stage][key] = corrupt(doc["stages"][stage][key])
        with pytest.raises(ConfigError, match=message):
            network_from_json(doc)

    def test_stage_missing_field_rejected(self):
        doc = two_stage_explicit_document()
        del doc["stages"][1]["noise_var"]
        with pytest.raises(ConfigError, match="stage 2: missing field 'noise_var'"):
            network_from_json(doc)

    def test_version1_square_factors_load_thin(self):
        rng = np.random.default_rng(2)
        u, v = haar_orthogonal(5, rng), haar_orthogonal(4, rng)
        s, b = np.array([1.5, 0.5]), rng.normal(size=5)
        doc = {"format": "mlvamp-network", "version": 1, "mode": "explicit",
               "dims": [4, 5], "n0": 4, "meta": {},
               "stages": [{"kind": "linear", "n_in": 4, "n_out": 5, "s": s.tolist(),
                           "b_bar": (u.T @ b).tolist(), "nu": 3.0, "v_out": u.tolist(),
                           "v_in": v.tolist(), "b": b.tolist()}]}
        st = network_from_json(doc).stages[0]
        assert np.array_equal(st.v_out, u[:, :2]) and np.array_equal(st.v_in, v[:2])
        assert st.v_out.flags.owndata and st.v_in.flags.owndata
        assert np.allclose(st.to_dense(), u[:, :2] @ np.diag(s) @ v[:2], atol=1e-14)
        doc["version"] = 3
        with pytest.raises(ConfigError):
            network_from_json(doc)

    @pytest.mark.parametrize("key, other", [
        ("builder", "build_synthetic_network/v2"),
        ("orthogonal_procedure", "haar_qr_sign/v2"),
        ("builder", None),
    ])
    def test_recipe_of_another_procedure_is_not_rebuilt(self, key, other, monkeypatch):
        doc = recipe_document()
        if other is None:
            del doc["meta"][key]
        else:
            doc["meta"][key] = other
        monkeypatch.setattr(network, "build_synthetic_network", None)   # no rebuild
        with pytest.raises(ConfigError, match=f"recipe made by {key} {other!r}"):
            network_from_json(doc)

    @pytest.mark.parametrize("path", [("mode",), ("n0",), ("stages",),
                                      ("meta", "builder_args")])
    def test_recipe_missing_key_rejected(self, path):
        doc = recipe_document()
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        del owner[path[-1]]
        with pytest.raises(ConfigError, match=path[-1]):
            network_from_json(doc)

    def test_recipe_with_unknown_builder_arg_rejected(self):
        doc = recipe_document()
        doc["meta"]["builder_args"]["width"] = 3
        with pytest.raises(ConfigError, match="builder_args: .*'width'"):
            network_from_json(doc)

    @pytest.mark.parametrize("key", ["rho", "kappa", "snr_db"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "30", True])
    def test_recipe_with_non_finite_builder_arg_rejected(self, key, value):
        # json reads Infinity and NaN as floats
        doc = recipe_document()
        doc["meta"]["builder_args"][key] = value
        doc = json.loads(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{key} must be a finite real number"):
            network_from_json(doc)

    def test_recipe_mode_requires_builder(self):
        net = identity_chain()
        with pytest.raises(ConfigError):
            network_to_json(net, mode="recipe")

    def test_inf_nu_roundtrip(self):
        net = identity_chain()
        doc = network_to_json(net, mode="explicit")
        loaded = network_from_json(doc)
        assert math.isinf(loaded.stages[0].nu)


class TestNetworkSpecValidation:
    def test_dimension_mismatch_rejected(self):
        st1 = svd_decompose_stage(np.eye(3), np.zeros(3), math.inf)
        st2 = NonlinearStage("relu", 0.0, 4)
        with pytest.raises(ConfigError):
            NetworkSpec(n0=3, stages=[st1, st2])
