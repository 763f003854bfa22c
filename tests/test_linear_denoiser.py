import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from mlvamp.engine import Reuse
from mlvamp.errors import MlvampError
from mlvamp.linear_denoiser import (
    component_solve,
    denoise_linear,
    denoise_linear_observed,
)
from mlvamp.network import LinearStage, svd_decompose_stage


def random_stage(rng, n_out=8, n_in=12, nu=3.0):
    W = rng.normal(size=(n_out, n_in))
    return svd_decompose_stage(W, rng.normal(size=n_out), nu)


def scalar_solve(u_in, u_out, s, b, gamma_plus, gamma_minus, nu):
    """(z-, z+, var_in, var_out) of ``denoise_linear`` on the 1x1 stage
    z_out = s z_in + b + noise, whose SVD coordinates are the identity."""
    st = LinearStage(v_out=np.eye(1), v_in=np.eye(1), s=[s], b=[b], nu=nu)
    res = denoise_linear(st, [u_in], [u_out], gamma_plus, gamma_minus)
    return res.z_hat_minus[0], res.z_hat_plus[0], res.var_in_mean, res.var_out_mean


def exact_scalar_solve(*args):
    """``scalar_solve`` by Cramer's rule on the 2x2 belief precision in
    rational arithmetic, so the reference itself has no rounding."""
    u_in, u_out, s, b, gp, gm, nu = (Fraction(float(v)) for v in args)
    p11, p12, p22 = gp + nu * s * s, -nu * s, gm + nu
    d1, d2 = gp * u_in - nu * s * b, gm * u_out + nu * b
    det = p11 * p22 - p12 * p12
    return tuple(float(v) for v in ((d1 * p22 - p12 * d2) / det,
                                    (p11 * d2 - p12 * d1) / det,
                                    p22 / det, p11 / det))


class TestComponentSolve:
    def test_s_zero_decouples(self):
        g_minus, g_plus, _, _ = scalar_solve(0.7, -0.4, 0.0, 1.1, 2.0, 3.0, 5.0)
        assert g_minus == pytest.approx(0.7, rel=1e-12)
        assert g_plus == pytest.approx((3.0 * -0.4 + 5.0 * 1.1) / 8.0, rel=1e-12)

    def test_hard_constraint_average(self):
        g_minus, g_plus, _, _ = component_solve(1.0, 3.0, 1.0, 0.0, 2.0, 2.0)
        assert g_minus == pytest.approx(2.0, rel=1e-12)
        assert g_plus == pytest.approx(2.0, rel=1e-12)

    def test_matches_explicit_2x2_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u_in, u_out, b = rng.normal(size=3)
            s = rng.uniform(0, 3)
            gp, gm, nu = rng.uniform(0.1, 5, size=3)
            P = np.array([[gp + nu * s * s, -nu * s], [-nu * s, gm + nu]])
            d = np.array([gp * u_in - nu * s * b, gm * u_out + nu * b])
            ref = np.linalg.solve(P, d)
            cov = np.linalg.inv(P)
            g_minus, g_plus, var_in, var_out = scalar_solve(u_in, u_out, s, b,
                                                            gp, gm, nu)
            assert g_minus == pytest.approx(ref[0], abs=1e-12, rel=1e-12)
            assert g_plus == pytest.approx(ref[1], abs=1e-12, rel=1e-12)
            assert var_in == pytest.approx(cov[0, 0], rel=1e-12)
            assert var_out == pytest.approx(cov[1, 1], rel=1e-12)
            assert 0 < gp * var_in < 1 and 0 < gm * var_out < 1

    @pytest.mark.parametrize("nu", [1e2, 1e4, 1e8, 1e12])
    def test_matches_exact_arithmetic(self, nu):
        # nu enters the solve only through the weights c and w, so no
        # nu s b_bar terms cancel at large nu
        rng = np.random.default_rng(6)
        for _ in range(50):
            args = (*rng.normal(size=2), rng.uniform(0, 3), rng.normal(),
                    *10 ** rng.uniform(-2, 6, size=2), nu)
            for got, ref in zip(scalar_solve(*args), exact_scalar_solve(*args)):
                assert got == pytest.approx(ref, rel=1e-12)

    def test_deterministic_limit_matches_large_nu(self):
        # the finite-nu solve approaches the deterministic one as nu grows:
        # they differ by O(gamma- / nu), about 1e-8 here
        # (z-, z+, var_in, var_out); var_out carries alpha+
        cs_inf = scalar_solve(0.3, 1.2, 0.8, 0.1, 1.5, 2.5, math.inf)
        cs_big = scalar_solve(0.3, 1.2, 0.8, 0.1, 1.5, 2.5, 1e8)
        for i in (0, 1, 3):
            assert cs_inf[i] == pytest.approx(cs_big[i], rel=1e-7)

    def test_no_cancellation_at_large_nu_s2(self):
        # gamma_minus = 0 leaves var_in = 1/gamma_plus exactly; a determinant
        # formed as a11 a22 - (nu s)^2 loses ~eps nu s^2 / gamma_plus (1.3e-5)
        for nu, s, gp in ((1e4, 3.0, 1e-6), (10.0, 1.05, 1e-4)):
            _, _, var_in, _ = scalar_solve(0.0, 0.0, s, 0.0, gp, 0.0, nu)
            assert var_in == pytest.approx(1 / gp, rel=1e-13)

    def test_singular_rejected(self):
        with pytest.raises(MlvampError):
            component_solve(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestDenoiseLinear:
    def test_identity_stage_symmetric_average(self):
        n = 6
        st = LinearStage(v_out=np.eye(n), v_in=np.eye(n), s=np.ones(n),
                         b=np.zeros(n), nu=math.inf)
        rng = np.random.default_rng(1)
        rp, rm = rng.normal(size=n), rng.normal(size=n)
        res = denoise_linear(st, rp, rm, 2.0, 2.0)
        assert np.allclose(res.z_hat_minus, 0.5 * (rp + rm), atol=1e-12)
        assert np.allclose(res.z_hat_plus, 0.5 * (rp + rm), atol=1e-12)

    def test_matches_dense_joint_solve(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            st = random_stage(rng, n_out=8, n_in=12, nu=float(rng.uniform(0.5, 8)))
            rp, rm = rng.normal(size=12), rng.normal(size=8)
            gp, gm = rng.uniform(0.1, 5, size=2)
            res = denoise_linear(st, rp, rm, gp, gm)
            zi, zo, vi, vo = oracles.dense_joint_linear_solve(
                st.to_dense(), st.b, st.nu, rp, rm, gp, gm)
            assert np.allclose(res.z_hat_minus, zi, rtol=1e-8, atol=1e-10)
            assert np.allclose(res.z_hat_plus, zo, rtol=1e-8, atol=1e-10)
            assert res.var_in_mean == pytest.approx(vi, rel=1e-8)
            assert res.var_out_mean == pytest.approx(vo, rel=1e-8)

    def test_deterministic_matches_constrained_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            st = random_stage(rng, n_out=7, n_in=5, nu=math.inf)
            rp, rm = rng.normal(size=5), rng.normal(size=7)
            gp, gm = rng.uniform(0.2, 4, size=2)
            res = denoise_linear(st, rp, rm, gp, gm)
            zi, zo = oracles.dense_constrained_linear_solve(
                st.to_dense(), st.b, rp, rm, gp, gm)
            assert np.allclose(res.z_hat_minus, zi, rtol=1e-8, atol=1e-10)
            assert np.allclose(res.z_hat_plus, zo, rtol=1e-8, atol=1e-10)

    def test_alphas_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            st = random_stage(rng, n_out=6, n_in=9, nu=float(rng.uniform(0.5, 20)))
            rp, rm = rng.normal(size=9), rng.normal(size=6)
            gp, gm = float(10**rng.uniform(-2, 2)), float(10**rng.uniform(-2, 2))
            res = denoise_linear(st, rp, rm, gp, gm)
            assert 0 < gp * res.var_in_mean < 1
            assert 0 < gm * res.var_out_mean < 1

    def test_finite_difference_divergence(self):
        # <d z_hat+ / d r-> matches alpha+ = gamma- <var_out>; the trace is
        # the same in any orthonormal basis, here one completing V_out
        rng = np.random.default_rng(5)
        st = random_stage(rng, n_out=10, n_in=6, nu=2.0)
        rp, rm = rng.normal(size=6), rng.normal(size=10)
        gp, gm = 1.3, 0.7
        eps = 1e-6
        res = denoise_linear(st, rp, rm, gp, gm)
        basis = np.linalg.qr(st.v_out, mode="complete")[0]
        fd = np.zeros(10)
        for n in range(10):
            e = np.zeros(10)
            e[n] = eps
            zp = denoise_linear(st, rp, rm + basis @ e, gp, gm).z_hat_plus
            zm = denoise_linear(st, rp, rm - basis @ e, gp, gm).z_hat_plus
            fd[n] = (basis.T @ (zp - zm))[n] / (2 * eps)
        assert np.mean(fd) == pytest.approx(gm * res.var_out_mean, rel=1e-6)

    def test_orthogonal_invariance(self):
        # same s, b_bar and transformed inputs => same componentwise outputs
        rng = np.random.default_rng(6)
        s = rng.uniform(0.2, 2.0, 5)
        b_bar = rng.normal(size=7)
        u_in, u_out = rng.normal(size=5), rng.normal(size=7)
        gp, gm, nu = 1.1, 2.2, 3.0
        outs = []
        for seed in (1, 2):
            r = np.random.default_rng(seed)
            v_out = oracles.haar_orthogonal(7, r)
            v_in = oracles.haar_orthogonal(5, r)
            st = LinearStage(v_out=v_out, v_in=v_in, s=s,
                             b=v_out @ b_bar, nu=nu)
            rp = v_in.T @ u_in
            rm = v_out @ u_out
            res = denoise_linear(st, rp, rm, gp, gm)
            outs.append((v_in @ res.z_hat_minus, v_out.T @ res.z_hat_plus,
                         gp * res.var_in_mean, gm * res.var_out_mean))
        assert np.allclose(outs[0][0], outs[1][0], atol=1e-10)
        assert np.allclose(outs[0][1], outs[1][1], atol=1e-10)
        assert outs[0][2] == pytest.approx(outs[1][2], rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        st = random_stage(rng)
        with pytest.raises(ValueError):
            denoise_linear(st, np.zeros(3), np.zeros(8), 1.0, 1.0)


    def test_one_sided_calls_skip_the_other_side(self):
        rng = np.random.default_rng(7)
        st = random_stage(rng)
        rp, rm = rng.normal(size=12), rng.normal(size=8)
        both = denoise_linear(st, rp, rm, 0.9, 1.7)
        minus = denoise_linear(st, rp, rm, 0.9, 1.7, side="minus")
        plus = denoise_linear(st, rp, rm, 0.9, 1.7, side="plus")
        assert minus.z_hat_plus is None and plus.z_hat_minus is None
        assert np.array_equal(minus.z_hat_minus, both.z_hat_minus)
        assert np.array_equal(plus.z_hat_plus, both.z_hat_plus)
        with pytest.raises(ValueError):
            denoise_linear(st, rp, rm, 0.9, 1.7, side="up")

    def test_shared_transforms_follow_new_arrays(self):
        # shared transforms serve an input again only while the very same
        # array is passed; a new array is transformed afresh
        rng = np.random.default_rng(8)
        st = random_stage(rng)
        tr = (Reuse(st.svd_in), Reuse(st.svd_out))
        rp, rm = rng.normal(size=12), rng.normal(size=8)
        denoise_linear(st, rp, rm, 0.9, 1.7, transforms=tr)
        for rp, rm in ((rp, rng.normal(size=8)), (rng.normal(size=12), rm)):
            shared = denoise_linear(st, rp, rm, 0.9, 1.7, transforms=tr)
            fresh = denoise_linear(st, rp, rm, 0.9, 1.7)
            assert np.array_equal(shared.z_hat_minus, fresh.z_hat_minus)
            assert np.array_equal(shared.z_hat_plus, fresh.z_hat_plus)


class TestDenoiseLinearObserved:
    def test_noiseless_identity_recovers_y(self):
        n = 5
        st = LinearStage(v_out=np.eye(n), v_in=np.eye(n), s=np.ones(n),
                         b=np.zeros(n), nu=1e12)
        y = np.arange(n, dtype=float)
        res = denoise_linear_observed(st, y, np.zeros(n), 1.0)
        assert np.max(np.abs(res.z_hat_minus - y)) < 1e-4

    def test_prior_pin(self):
        rng = np.random.default_rng(1)
        st = random_stage(rng, n_out=6, n_in=4, nu=2.0)
        rp = rng.normal(size=4)
        res = denoise_linear_observed(st, rng.normal(size=6), rp, 1e12)
        assert np.max(np.abs(res.z_hat_minus - rp)) < 1e-6

    def test_matches_ridge_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            st = random_stage(rng, n_out=8, n_in=12, nu=float(rng.uniform(0.5, 6)))
            y, rp = rng.normal(size=8), rng.normal(size=12)
            gp = float(rng.uniform(0.2, 4))
            res = denoise_linear_observed(st, y, rp, gp)
            ref = oracles.ridge_solve(st.to_dense(), st.b, st.nu, y, rp, gp)
            assert np.allclose(res.z_hat_minus, ref, rtol=1e-8, atol=1e-10)

    def test_requires_finite_noise(self):
        rng = np.random.default_rng(3)
        st = random_stage(rng, nu=math.inf)
        with pytest.raises(MlvampError):
            denoise_linear_observed(st, np.zeros(8), np.zeros(12), 1.0)


    def test_shared_transforms_match_fresh(self):
        rng = np.random.default_rng(4)
        st = random_stage(rng, n_out=10, n_in=6, nu=4.0)
        y = rng.normal(size=10)
        tr = (Reuse(st.svd_in), Reuse(st.svd_out))
        for _ in range(3):
            rp = rng.normal(size=6)
            shared = denoise_linear_observed(st, y, rp, 1.3, transforms=tr)
            fresh = denoise_linear_observed(st, y, rp, 1.3)
            assert np.array_equal(shared.z_hat_minus, fresh.z_hat_minus)


class TestComponentVariances:
    def test_no_cancellation_at_large_nu_s2(self):
        # the failing point of the cancelling determinant a11 a22 - (nu s)^2
        _, _, var_in, _ = scalar_solve(0.0, 0.0, 3.0, 0.0, 1e-6, 0.0, 1e4)
        assert var_in == pytest.approx(1e6, rel=1e-12)

    def test_matches_inverse_diagonal(self):
        gp, gm, nu = 1.2, 0.8, 3.0
        for si in (0.0, 0.5, 2.0):
            _, _, vi, vo = scalar_solve(0.0, 0.0, si, 0.0, gp, gm, nu)
            P = np.array([[gp + nu * si * si, -nu * si], [-nu * si, gm + nu]])
            cov = np.linalg.inv(P)
            assert vi == pytest.approx(cov[0, 0], rel=1e-12)
            assert vo == pytest.approx(cov[1, 1], rel=1e-12)


# (n_out, n_in, rank): n_out > n_in, n_in > n_out, rank < min(n_in, n_out)
THIN_SHAPES = [(9, 5, 5), (5, 9, 5), (8, 7, 3)]


def thin_case(rng, n_out, n_in, rank, nu):
    """A stage cut from square Haar factors, its dense W and two messages.
    The bias is generic, so it has energy outside span(V_out) when
    rank < n_out."""
    u, v = oracles.haar_orthogonal(n_out, rng), oracles.haar_orthogonal(n_in, rng)
    s = rng.uniform(0.3, 2.0, rank)
    st = LinearStage(v_out=u, v_in=v, s=s, b=rng.normal(size=n_out), nu=nu)
    W = u[:, :rank] @ np.diag(s) @ v[:rank]
    return st, W, rng.normal(size=n_in), rng.normal(size=n_out)


class TestThinComplement:
    """The components past the rank take the closed forms of the module
    docstring; dense solves over the full W check them."""

    @pytest.mark.parametrize("nu", [math.inf, 2.5])
    @pytest.mark.parametrize("shape", THIN_SHAPES)
    def test_matches_dense_solves(self, shape, nu):
        n_out, n_in, rank = shape
        rng = np.random.default_rng(n_out * n_in + rank)
        st, W, rp, rm = thin_case(rng, n_out, n_in, rank, nu)
        assert st.v_out.shape == (n_out, rank) and st.v_in.shape == (rank, n_in)
        if rank < n_out:
            outside = st.b - st.v_out @ st.b_bar
            assert np.linalg.norm(outside) > 0.1 * np.linalg.norm(st.b)
        for gp, gm in ((0.7, 1.9), (3.0, 0.0)):
            res = denoise_linear(st, rp, rm, gp, gm)
            if math.isinf(nu):
                zi, zo = oracles.dense_constrained_linear_solve(W, st.b, rp, rm, gp, gm)
                cov = np.linalg.inv(gp * np.eye(n_in) + gm * W.T @ W)
                vi, vo = np.mean(np.diag(cov)), np.mean(np.diag(W @ cov @ W.T))
            else:
                zi, zo, vi, vo = oracles.dense_joint_linear_solve(W, st.b, nu, rp, rm,
                                                                  gp, gm)
            assert np.allclose(res.z_hat_minus, zi, rtol=1e-10, atol=1e-12)
            assert np.allclose(res.z_hat_plus, zo, rtol=1e-10, atol=1e-12)
            assert res.var_in_mean == pytest.approx(vi, rel=1e-10)
            assert res.var_out_mean == pytest.approx(vo, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("n_meas", [11, 4])   # above and below n_last = 7
    def test_observed_matches_ridge(self, n_meas):
        rng = np.random.default_rng(n_meas)
        st, W, rp, y = thin_case(rng, n_meas, 7, min(n_meas, 7), 4.0)
        gp = 1.3
        res = denoise_linear_observed(st, y, rp, gp)
        ref = oracles.ridge_solve(W, st.b, st.nu, y, rp, gp)
        var = np.mean(np.diag(np.linalg.inv(gp * np.eye(7) + st.nu * W.T @ W)))
        assert np.allclose(res.z_hat_minus, ref, rtol=1e-10, atol=1e-12)
        assert res.var_in_mean == pytest.approx(var, rel=1e-10)


PRECISIONS = hs.floats(-6.0, 9.0).map(lambda e: 10.0 ** e)


@hs.composite
def linear_cases(draw, finite_nu_only=False):
    """A random linear stage of any shape (n_in above, below or equal to
    n_out, rank up to min(n_in, n_out)) with messages and precisions."""
    n_in, n_out = draw(hs.integers(1, 8)), draw(hs.integers(1, 8))
    rank = draw(hs.integers(0, min(n_in, n_out)))
    finite = hs.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)
    nu = draw(finite if finite_nu_only else hs.one_of(hs.just(math.inf), finite))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    st = LinearStage(v_out=oracles.haar_orthogonal(n_out, rng),
                     v_in=oracles.haar_orthogonal(n_in, rng),
                     s=rng.uniform(0.0, 3.0, rank), b=rng.normal(size=n_out), nu=nu)
    scale = draw(PRECISIONS) ** 0.25
    return (st, scale * rng.normal(size=n_in), scale * rng.normal(size=n_out),
            draw(PRECISIONS), draw(hs.one_of(hs.just(0.0), PRECISIONS)))


# The mean variances may exceed their bound by rounding only (a few ulps).
ULPS = 1e-12


class TestLinearDenoiserProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(linear_cases())
    def test_moments_bounded_and_sides_consistent(self, case):
        st, rp, rm, gp, gm = case
        both = denoise_linear(st, rp, rm, gp, gm)
        assert np.all(np.isfinite(both.z_hat_minus))
        assert np.all(np.isfinite(both.z_hat_plus))
        assert 0 < both.var_in_mean <= (1 + ULPS) / gp
        assert both.var_out_mean >= 0
        if gm > 0:
            assert both.var_out_mean <= (1 + ULPS) / gm
        for side, kept, dropped in (("minus", "z_hat_minus", "z_hat_plus"),
                                    ("plus", "z_hat_plus", "z_hat_minus")):
            one = denoise_linear(st, rp, rm, gp, gm, side=side)
            assert getattr(one, dropped) is None
            assert np.array_equal(getattr(one, kept), getattr(both, kept))
            assert (one.var_in_mean, one.var_out_mean) == (both.var_in_mean,
                                                           both.var_out_mean)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(linear_cases(finite_nu_only=True))
    def test_observed_moments_bounded(self, case):
        st, rp, y, gp, _ = case
        res = denoise_linear_observed(st, y, rp, gp)
        assert np.all(np.isfinite(res.z_hat_minus))
        assert 0 < res.var_in_mean <= (1 + ULPS) / gp


@hs.composite
def linear_batches(draw, finite_nu_only=False):
    """A stage of ``linear_cases`` with T rows of messages, each row with
    its own precisions (gamma- = 0 allowed)."""
    st, *_ = draw(linear_cases(finite_nu_only))
    rows = [draw(linear_cases()) for _ in range(draw(hs.integers(1, 4)))]
    scales = [np.sqrt(np.mean(r[1] ** 2) + 1e-300) for r in rows]
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    rp = np.array([s * rng.normal(size=st.n_in) for s in scales])
    rm = np.array([s * rng.normal(size=st.n_out) for s in scales])
    return (st, rp, rm, np.array([[r[3]] for r in rows]),
            np.array([[r[4]] for r in rows]))


def _assert_rows_close(batch, row, tol=1e-13):
    """Rows of one product with T rows against the matvec of that row: equal
    to ``tol`` relative to the row's largest entry.  The sums run in another
    order, so an entry that cancels can differ by more than ``tol`` of
    itself."""
    assert np.allclose(batch, row, rtol=tol, atol=tol * np.max(np.abs(row), initial=0.0))


class TestBatchedLinearRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(linear_batches(), hs.sampled_from(["minus", "plus", "both"]))
    def test_rows_match_single_calls(self, case, side):
        st, rp, rm, gp, gm = case
        res = denoise_linear(st, rp, rm, gp, gm, side=side)
        for t in range(len(rp)):
            one = denoise_linear(st, rp[t], rm[t], gp[t, 0], gm[t, 0], side=side)
            for field in ("z_hat_minus", "z_hat_plus"):
                if getattr(one, field) is None:
                    assert getattr(res, field) is None
                else:
                    _assert_rows_close(getattr(res, field)[t], getattr(one, field))
            assert res.var_in_mean[t, 0] == pytest.approx(one.var_in_mean, rel=1e-13)
            assert res.var_out_mean[t, 0] == pytest.approx(one.var_out_mean, rel=1e-13)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(linear_batches(finite_nu_only=True))
    def test_observed_rows_match_single_calls(self, case):
        st, rp, y, gp, _ = case
        res = denoise_linear_observed(st, y, rp, gp)
        for t in range(len(rp)):
            one = denoise_linear_observed(st, y[t], rp[t], gp[t, 0])
            _assert_rows_close(res.z_hat_minus[t], one.z_hat_minus)
            assert res.var_in_mean[t, 0] == pytest.approx(one.var_in_mean, rel=1e-13)

    def test_bad_precision_in_one_row_raises(self):
        rng = np.random.default_rng(0)
        st = random_stage(rng)
        y, rp = rng.normal(size=(3, st.n_out)), rng.normal(size=(3, st.n_in))
        with pytest.raises(ValueError):
            denoise_linear_observed(st, y, rp, np.array([[1.0], [0.0], [2.0]]))
        with pytest.raises(ValueError, match="dimensions"):
            denoise_linear(st, rp, y[:2], np.ones((3, 1)), np.ones((3, 1)))
