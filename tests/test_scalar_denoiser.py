import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from mlvamp import scalar_denoiser
from mlvamp.engine import Reuse
from mlvamp.errors import ObservationError
from mlvamp.gauss import EXP_CUT
from mlvamp.network import NonlinearStage
from mlvamp.scalar_denoiser import (
    VAR_FLOOR,
    denoise_input,
    denoise_middle,
    denoise_output_nonlinear,
)
from oracles import (
    MonteCarloError,
    mc_oracle_moments,
    quad_moments,
    relu_posterior_reference,
    truncated_gaussian_reference,
)

RELU = NonlinearStage("relu", 0.0, 1)
IDENT = NonlinearStage("identity", 0.0, 1)


class TestDenoiseMiddle:
    def test_identity_no_noise_conjugate(self):
        res = denoise_middle(IDENT, 1.0, 3.0, 2.0, 0.5)
        expect = (2.0 * 1.0 + 0.5 * 3.0) / 2.5
        assert res.mean_in == pytest.approx(expect, rel=1e-12)
        assert res.mean_out == pytest.approx(expect, rel=1e-12)
        assert res.var_in == pytest.approx(1 / 2.5, rel=1e-12)
        assert res.var_out == pytest.approx(1 / 2.5, rel=1e-12)

    def test_relu_matches_mc_oracle(self):
        res = denoise_middle(RELU, 0.0, 1.0, 1.0, 1.0)
        mc = mc_oracle_moments(RELU, 0.0, 1.0, 1.0, 1.0, n_samples=10**6, seed=1)
        assert abs(res.mean_in - mc.mean_in) < 3 * mc.se_mean_in
        assert abs(res.var_in - mc.var_in) < 3 * mc.se_var_in
        assert abs(res.mean_out - mc.mean_out) < 3 * mc.se_mean_out
        assert abs(res.var_out - mc.var_out) < 3 * mc.se_var_out

    def test_precision_pin(self):
        for ch in (RELU, IDENT):
            res = denoise_middle(ch, 0.3, 0.7, 1.0, 1e12)
            assert abs(float(res.mean_out) - 0.7) < 1e-5
            assert float(res.var_out) < 1e-10

    def test_gamma_minus_zero_is_prior_only(self):
        res = denoise_middle(RELU, 0.5, 123.0, 2.0, 0.0)
        res2 = denoise_middle(RELU, 0.5, -7.0, 2.0, 0.0)
        assert res.mean_in == pytest.approx(res2.mean_in, rel=1e-12)
        assert res.mean_in == pytest.approx(0.5, rel=1e-12)
        assert res.var_in == pytest.approx(0.5, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        rp, rm = rng.normal(size=5), rng.normal(size=5)
        batch = denoise_middle(RELU, rp, rm, 2.0, 3.0)
        for i in range(5):
            one = denoise_middle(RELU, rp[i], rm[i], 2.0, 3.0)
            assert batch.mean_in[i] == pytest.approx(float(one.mean_in))
            assert batch.var_out[i] == pytest.approx(float(one.var_out))

    def test_variance_nonnegative_grid(self):
        rng = np.random.default_rng(7)
        for ch in (RELU, IDENT, NonlinearStage("relu", 0.3, 1)):
            rp = rng.normal(0, 3, 200)
            rm = rng.normal(0, 3, 200)
            res = denoise_middle(ch, rp, rm, 0.3, 4.0)
            assert np.all(res.var_in >= 0) and np.all(res.var_out >= 0)

    def test_monotone_pinning(self):
        last = None
        for gm in [0.1, 1.0, 10.0, 100.0, 1e4, 1e8]:
            res = denoise_middle(RELU, -0.5, 0.8, 1.0, gm)
            dev = abs(float(res.mean_out) - 0.8)
            if last is not None:
                assert dev <= last + 1e-12
            last = dev

    def test_divergence_consistency(self):
        # <d g+ / d r-> from central differences matches gamma- * var_out
        rng = np.random.default_rng(2)
        eps = 1e-5
        for ch in (RELU, IDENT, NonlinearStage("relu", 0.2, 1)):
            rp = rng.normal(0, 1, 400)
            rm = rng.normal(0, 1, 400)
            gp, gm = 1.7, 2.3
            up = denoise_middle(ch, rp, rm + eps, gp, gm).mean_out
            dn = denoise_middle(ch, rp, rm - eps, gp, gm).mean_out
            fd = float(np.mean((up - dn) / (2 * eps)))
            res = denoise_middle(ch, rp, rm, gp, gm)
            alpha = gm * float(np.mean(res.var_out))
            assert fd == pytest.approx(alpha, rel=1e-4)

    def test_finite_at_clamp_boundary_precisions(self):
        # the engine can feed precisions anywhere inside its clamp range
        rng = np.random.default_rng(0)
        for act, nv in [("relu", 0.0), ("relu", 0.5),
                        ("identity", 0.0), ("identity", 0.3)]:
            ch = NonlinearStage(act, nv, 1)
            for gp in (1e-8, 1.0, 1e3, 1e11):
                for gm in (0.0, 1e-8, 1.0, 1e11):
                    res = denoise_middle(ch, rng.normal(0, 2, 30),
                                         rng.normal(0, 2, 30), gp, gm)
                    for arr in (res.mean_in, res.mean_out, res.var_in,
                                res.var_out):
                        assert np.all(np.isfinite(arr)), (act, nv, gp, gm)

    def test_reserved_activation_rejected(self):
        with pytest.raises(ValueError):
            NonlinearStage("sigmoid", 0.0, 1)

    def test_relu_message_without_posterior_mass_errors(self):
        # an output message so far out that both branch masses underflow
        with np.errstate(over="ignore"), pytest.raises(ObservationError):
            denoise_middle(RELU, np.array([0.0]), np.array([1e200]), 1.0, 1.0)

    def test_bad_precisions_rejected(self):
        with pytest.raises(ValueError):
            denoise_middle(RELU, 0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            denoise_middle(RELU, 0.0, 0.0, 1.0, -1.0)


class TestDenoiseInput:
    def test_uninformative(self):
        mean, var = denoise_input(np.array([5.0]), 0.0)
        assert mean[0] == 0.0 and var == 1.0

    def test_conjugate_formula(self):
        mean, var = denoise_input(np.array([2.0]), 1.0)
        assert mean[0] == pytest.approx(1.0) and var == pytest.approx(0.5)

    def test_pin(self):
        mean, _ = denoise_input(np.array([-3.0]), 1e12)
        assert abs(mean[0] + 3.0) < 1e-5

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            denoise_input(np.zeros(1), -0.1)


class TestDenoiseOutputNonlinear:
    def test_identity_gaussian_conjugate(self):
        ch = NonlinearStage("identity", 0.25, 1)
        mean, var = denoise_output_nonlinear(ch, np.array([1.2]), np.array([0.4]), 2.0)
        expect = (2.0 * 0.4 + 1.2 / 0.25) / (2.0 + 1 / 0.25)
        assert mean[0] == pytest.approx(expect, rel=1e-12)
        assert var[0] == pytest.approx(1 / (2.0 + 4.0), rel=1e-12)

    def test_relu_noisy_matches_mc(self):
        ch = NonlinearStage("relu", 0.3, 1)
        y, rp, gp = 0.9, -0.4, 2.0
        mean, var = denoise_output_nonlinear(ch, y, rp, gp)
        # oracle: weight prior samples by the channel likelihood
        rng = np.random.default_rng(11)
        z = rng.normal(rp, np.sqrt(1 / gp), 10**6)
        w = np.exp(-0.5 * (y - np.maximum(z, 0)) ** 2 / 0.3)
        m = np.sum(w * z) / np.sum(w)
        v = np.sum(w * (z - m) ** 2) / np.sum(w)
        ess = np.sum(w) ** 2 / np.sum(w * w)
        se = np.sqrt(v / ess)
        assert abs(float(mean) - m) < 4 * se
        assert abs(float(var) - v) < 4 * v / np.sqrt(ess) + 4 * se**2

    def test_gamma_plus_pin(self):
        ch = NonlinearStage("relu", 0.5, 1)
        mean, _ = denoise_output_nonlinear(ch, np.array([1.0]), np.array([0.3]), 1e12)
        assert abs(mean[0] - 0.3) < 1e-5

    def test_deterministic_relu_positive_pins(self):
        mean, var = denoise_output_nonlinear(RELU, np.array([0.8]), np.array([0.0]), 1.0)
        assert mean[0] == pytest.approx(0.8)
        assert var[0] < 1e-10

    def test_deterministic_relu_zero_truncates(self):
        mean, var = denoise_output_nonlinear(RELU, np.array([0.0]), np.array([0.0]), 1.0)
        # posterior is a standard normal truncated to z <= 0
        assert mean[0] == pytest.approx(-np.sqrt(2 / np.pi), rel=1e-10)
        assert var[0] == pytest.approx(1 - 2 / np.pi, rel=1e-9)

    def test_deterministic_relu_negative_y_errors(self):
        with pytest.raises(ObservationError):
            denoise_output_nonlinear(RELU, np.array([-0.5]), np.array([0.0]), 1.0)


class TestDeepTails:
    """Truncated-Gaussian moments deep in the tail, where sd (x + h) and
    var (1 - h (x + h)) cancel, against 50-digit mpmath quadrature."""

    def test_truncated_gaussian_over_extreme_x(self):
        pytest.importorskip("mpmath")
        # y = 0 under a deterministic relu leaves N(r+, 1/g+) on z < 0, so
        # x = -r+ sqrt(g+); the grid crosses the switch to the continued
        # fraction at x = -100, and beyond x = -3e5 the variance is below the floor
        x = -np.concatenate([np.geomspace(1e6, 1.0, 19), np.linspace(96.0, 104.0, 9)])
        gamma_plus = 1e4
        r_plus = -x / np.sqrt(gamma_plus)
        mean, var = denoise_output_nonlinear(RELU, np.zeros_like(x), r_plus, gamma_plus)
        ref = np.array([truncated_gaussian_reference(r, 1.0 / gamma_plus, -1)
                        for r in r_plus])
        # the direct forms' error bounds at the switch: eps x^2 and 2 eps x^4
        assert np.max(np.abs(mean / ref[:, 0] - 1.0)) <= 3e-12
        assert np.max(np.abs(var / np.maximum(ref[:, 1], VAR_FLOOR) - 1.0)) <= 5e-8

    def test_relu_posterior_with_both_branches_in_their_tails(self):
        pytest.importorskip("mpmath")
        # x is about -4e5 on the z_in > 0 branch and -3e4 on the other one
        case = (21.59, -49.74, 2.34e6, 7.39e7)
        res = denoise_middle(RELU, np.array([case[0]]), np.array([case[1]]), *case[2:])
        mean_in, var_in, mean_out, var_out = relu_posterior_reference(*case)
        assert var_in < VAR_FLOOR and var_out < VAR_FLOOR    # 3.9e-16 and 2.1e-21
        assert res.var_in[0] == VAR_FLOOR and res.var_out[0] == VAR_FLOOR
        # the branch weights come from a log ratio of size ~1e11, so one ulp
        # of r- moves mean_in by 2e-7 and mean_out by 1.5e-5 relative
        assert res.mean_in[0] == pytest.approx(mean_in, rel=2e-6)
        assert res.mean_out[0] == pytest.approx(mean_out, rel=2e-4)


class TestQuadraturePath:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(60):
            act = "relu" if i % 2 else "identity"
            nv = 0.0 if i % 3 else float(rng.uniform(0.05, 1.0))
            ch = NonlinearStage(act, nv, 1)
            rp, rm = rng.normal(0, 2), rng.normal(0, 2)
            gp, gm = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)
            res = denoise_middle(ch, rp, rm, gp, gm)
            q = quad_moments(ch, rp, rm, gp, gm)
            scale = np.sqrt(float(res.var_in))
            worst = max(worst,
                        abs(float(res.mean_in) - q[0]) / scale,
                        abs(float(res.var_in) - q[1]) / float(res.var_in),
                        abs(float(res.mean_out) - q[2]) / scale,
                        # the package floors a variance at VAR_FLOOR
                        abs(float(res.var_out) - max(q[3], VAR_FLOOR))
                        / float(res.var_out))
        assert worst < 1e-6


class TestMcOracle:
    def test_identity_matches_closed_form(self):
        mc = mc_oracle_moments(IDENT, 0.5, 1.5, 2.0, 3.0, n_samples=10**5, seed=0)
        ref = denoise_middle(IDENT, 0.5, 1.5, 2.0, 3.0)
        assert abs(mc.mean_in - float(ref.mean_in)) < 3 * mc.se_mean_in
        assert abs(mc.var_in - float(ref.var_in)) < 3 * mc.se_var_in

    def test_two_seeds_agree(self):
        a = mc_oracle_moments(RELU, -0.3, 0.8, 1.0, 2.0, n_samples=10**6, seed=1)
        b = mc_oracle_moments(RELU, -0.3, 0.8, 1.0, 2.0, n_samples=10**6, seed=2)
        for attr, se_attr in [("mean_in", "se_mean_in"), ("var_out", "se_var_out")]:
            se = np.hypot(getattr(a, se_attr), getattr(b, se_attr))
            assert abs(getattr(a, attr) - getattr(b, attr)) < 3 * se

    def test_pinned_value(self):
        mc = mc_oracle_moments(IDENT, 0.0, 2.0, 1.0, 1e9, n_samples=10**5, seed=3)
        assert abs(mc.mean_out - 2.0) < 1e-3

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_oracle_moments(RELU, 0, 0, 1, 1, n_samples=100)

    def test_ess_guard(self):
        # noisy channel with an extreme pseudo-observation starves the ESS
        ch = NonlinearStage("relu", 1.0, 1)
        with pytest.raises(MonteCarloError):
            mc_oracle_moments(ch, 0.0, 60.0, 1.0, 1e6, n_samples=10**4, seed=0)


PRECISIONS = hs.floats(-6.0, 9.0).map(lambda e: 10.0 ** e)


@hs.composite
def batches(draw):
    """(T, N) messages r+ and r- with a (T, 1) precision column each; the
    gamma- column may be 0 in every row (no output message yet), as the
    engine's first pass has it."""
    t, n = draw(hs.integers(1, 4)), draw(hs.integers(1, 6))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    gp = np.array([[draw(PRECISIONS)] for _ in range(t)])
    gm = (np.zeros((t, 1)) if draw(hs.booleans())
          else np.array([[draw(PRECISIONS)] for _ in range(t)]))
    scale = draw(PRECISIONS) ** 0.25
    return scale * rng.normal(size=(t, n)), scale * rng.normal(size=(t, n)), gp, gm


# three rows with an output message each; ZERO_ROWS drops it in every row
ROWS = (np.random.default_rng(9).normal(0, 2, (3, 30)),
        np.random.default_rng(10).normal(0, 2, (3, 30)),
        np.array([[1.0], [3.0], [0.5]]), np.array([[0.7], [2.0], [4.0]]))
ZERO_ROWS = ROWS[:3] + (np.zeros((3, 1)),)


class TestBatchedRows:
    """A (T, N) batch with per-row precisions gives each row exactly what the
    call with that row's scalar precisions gives."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batches(), hs.sampled_from(["relu", "identity"]),
           hs.sampled_from([0.0, 0.3]))
    @example(ZERO_ROWS, "relu", 0.0)
    @example(ZERO_ROWS, "identity", 0.3)
    def test_middle_rows_bit_identical(self, case, activation, noise_var):
        rp, rm, gp, gm = case
        ch = NonlinearStage(activation, noise_var, 1)
        try:
            rows = [denoise_middle(ch, rp[t], rm[t], gp[t, 0], gm[t, 0])
                    for t in range(len(rp))]
        except ObservationError:   # a row without posterior mass fails the batch too
            with pytest.raises(ObservationError):
                denoise_middle(ch, rp, rm, gp, gm)
            return
        res = denoise_middle(ch, rp, rm, gp, gm)
        for t, row in enumerate(rows):
            for field in ("mean_in", "mean_out", "var_in", "var_out"):
                assert np.array_equal(getattr(res, field)[t], getattr(row, field)), field

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(batches())
    def test_input_rows_bit_identical(self, case):
        _, rm, _, gm = case
        mean, var = denoise_input(rm, gm)
        for t in range(len(rm)):
            m_t, v_t = denoise_input(rm[t], gm[t, 0])
            assert np.array_equal(mean[t], m_t) and var[t, 0] == v_t

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_bad_precision_in_one_row_raises(self, bad):
        rp = np.ones((3, 4))
        gp = np.array([[1.0], [bad], [2.0]])
        with pytest.raises(ValueError):
            denoise_middle(RELU, rp, rp, gp, np.ones((3, 1)))
        with pytest.raises(ValueError):
            denoise_middle(IDENT, rp, rp, np.ones((3, 1)), np.array([[1.0], [-1.0], [0.0]]))
        with pytest.raises(ValueError):
            denoise_input(rp, np.array([[1.0], [-1e-3], [0.0]]))
        with pytest.raises(ValueError):
            denoise_output_nonlinear(NonlinearStage("relu", 0.1, 1), rp, rp, gp)


EXTREME_GAMMA = hs.floats(-4.0, 8.0).map(lambda e: 10.0 ** e)


@hs.composite
def extreme_messages(draw):
    """Messages r+ and r- with entries in [-50, 50] and precisions gamma+,
    gamma- in [1e-4, 1e8]; gamma- may also be 0."""
    n = draw(hs.integers(1, 8))
    entries = hs.lists(hs.floats(-50.0, 50.0), min_size=n, max_size=n)
    rp, rm = np.array(draw(entries)), np.array(draw(entries))
    return rp, rm, draw(EXTREME_GAMMA), draw(hs.one_of(hs.just(0.0), EXTREME_GAMMA))


# r+ = 49 at gamma+ = 1e6 against r- = -50 at gamma- = 1e8: both branches sit
# far in their truncated tails, where the posterior variances fall below
# VAR_FLOOR
DEEP_TAIL = (np.array([49.0, 0.0]), np.array([-50.0, -50.0]), 1e6, 1e8)


def assert_moments_sane(means, variances):
    for mean in means:
        assert np.all(np.isfinite(mean))
    for var in variances:
        assert np.all(np.isfinite(var)) and np.all(var >= VAR_FLOOR)


class TestExtremeMessages:
    """Means stay finite and variances finite and at least VAR_FLOOR over
    r in [-50, 50] and precisions in [1e-4, 1e8].  (A pointwise var_in need
    not lie below 1/gamma+: the relu likelihood is not log-concave, so an
    output message can widen the posterior; see the last test.)"""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(extreme_messages(), hs.sampled_from(["relu", "identity"]),
           hs.sampled_from([0.0, 1e-4, 0.3]), hs.sampled_from([None, "in", "out"]))
    @example(DEEP_TAIL, "relu", 0.0, None)
    def test_middle(self, case, activation, noise_var, side):
        rp, rm, gp, gm = case
        res = denoise_middle(NonlinearStage(activation, noise_var, 1), rp, rm, gp, gm,
                             side=side)
        sides = {"in": [("mean_in", "var_in")], "out": [("mean_out", "var_out")],
                 None: [("mean_in", "var_in"), ("mean_out", "var_out")]}[side]
        assert_moments_sane([getattr(res, m) for m, _ in sides],
                            [getattr(res, v) for _, v in sides])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(extreme_messages(), hs.sampled_from(["relu", "identity"]),
           hs.sampled_from([1e-4, 0.3]))
    def test_output_noisy(self, case, activation, noise_var):
        rp, y, gp, _ = case
        mean, var = denoise_output_nonlinear(NonlinearStage(activation, noise_var, 1),
                                             y, rp, gp)
        assert_moments_sane([mean], [var])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(extreme_messages(), hs.integers(0, 8))
    @example((np.array([50.0]), np.array([0.0]), 1e8, 0.0), 1)
    def test_output_deterministic_relu(self, case, n_zero):
        rp, y, gp, _ = case
        y = np.abs(y)
        y[:n_zero] = 0.0    # the truncated branch
        mean, var = denoise_output_nonlinear(RELU, y, rp, gp)
        assert_moments_sane([mean], [var])

    def test_var_in_can_exceed_prior_variance(self):
        # r- far above r+ splits the posterior between the two branches
        res = denoise_middle(RELU, -0.5, 6.0, 1.0, 0.5)
        assert float(res.var_in) == pytest.approx(1.2995, abs=1e-4)
        assert float(res.var_in) > 1.0


class TestSides:
    """A one-side call returns bit for bit the matching fields of the
    two-side call; the other side's fields are None."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batches(), hs.sampled_from(["relu", "identity"]),
           hs.sampled_from([0.0, 0.3]))
    def test_one_side_bit_identical(self, case, activation, noise_var):
        rp, rm, gp, gm = case   # gamma- = 0 in every row or in none
        ch = NonlinearStage(activation, noise_var, 1)
        try:
            both = denoise_middle(ch, rp, rm, gp, gm)
        except ObservationError:
            return
        for side, fields, other in (("in", ("mean_in", "var_in"), ("mean_out", "var_out")),
                                    ("out", ("mean_out", "var_out"), ("mean_in", "var_in"))):
            one = denoise_middle(ch, rp, rm, gp, gm, side=side)
            for field in fields:
                assert np.array_equal(getattr(one, field), getattr(both, field)), field
            assert all(getattr(one, field) is None for field in other)

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_one_side_at_gamma_minus_zero_and_mixed_rows(self, noise_var):
        # gamma- = 0 as a scalar and as a column; a column that mixes 0 and
        # positive rows is rejected, by either channel on either side
        rng = np.random.default_rng(3)
        rp, rm = rng.normal(0, 2, (3, 50)), rng.normal(0, 2, (3, 50))
        ch, gp = NonlinearStage("relu", noise_var, 1), np.array([[1.0], [3.0], [0.5]])
        for gm in (0.0, np.zeros((3, 1))):
            both = denoise_middle(ch, rp, rm, gp, gm)
            for side in ("in", "out"):
                one = denoise_middle(ch, rp, rm, gp, gm, side=side)
                for field in (f"mean_{side}", f"var_{side}"):
                    assert np.array_equal(getattr(one, field), getattr(both, field))
        mixed = np.array([[0.0], [2.0], [0.0]])
        for activation in ("relu", "identity"):
            for side in (None, "in", "out"):
                with pytest.raises(ValueError, match="0 in every row or in none"):
                    denoise_middle(NonlinearStage(activation, noise_var, 1),
                                   rp, rm, gp, mixed, side=side)

    def test_column_r_plus_matches_broadcast_grid(self):
        # the SE passes R+ as an (n, 1) column against an (n, k) R- grid
        rng = np.random.default_rng(5)
        r_nodes, rm = rng.normal(0, 3, (45, 1)), rng.normal(0, 3, (45, 123))
        for noise_var in (0.0, 0.3):
            ch = NonlinearStage("relu", noise_var, 1)
            for gm in (0.0, 40.0):
                col = denoise_middle(ch, r_nodes, rm, 7.0, gm)
                grid = denoise_middle(ch, np.broadcast_to(r_nodes, rm.shape), rm, 7.0, gm)
                for field in ("mean_in", "var_in", "mean_out", "var_out"):
                    got = np.broadcast_to(getattr(col, field), rm.shape)
                    assert np.array_equal(got, getattr(grid, field)), (field, gm)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            denoise_middle(RELU, 0.0, 0.0, 1.0, 1.0, side="plus")


FIELDS = ("mean_in", "mean_out", "var_in", "var_out")


def assert_same_result(a, b):
    for field in FIELDS:
        got, want = getattr(a, field), getattr(b, field)
        assert (got is None and want is None) or np.array_equal(got, want), field


class TestNegativeBranch:
    """Relu calls that share a Reuse of the z_in < 0 branch return bit for
    bit what calls that compute it afresh return."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(batches(), hs.sampled_from([0.0, 0.3]))
    @example(ROWS, 0.0)
    @example(ZERO_ROWS, 0.3)
    def test_held_branch_bit_identical(self, case, noise_var):
        rp, rm, gp, gm = case   # gamma- = 0 in every row or in none
        ch = NonlinearStage("relu", noise_var, 1)
        for args in ((rp, rm, gp, gm), (rp[0], rm[0], gp[0, 0], gm[0, 0])):
            try:
                fresh = {side: denoise_middle(ch, *args, side=side)
                         for side in ("out", "in", None)}
            except ObservationError:
                continue
            branch = Reuse(scalar_denoiser._negative_branch)
            held = branch(args[0], args[2])
            for side in ("out", "in", None):   # the engine's order, then both sides
                assert_same_result(denoise_middle(ch, *args, side=side, branch=branch),
                                   fresh[side])
            assert branch(args[0], args[2]) is held   # reused, not recomputed

    def test_new_r_plus_or_changed_gamma_plus_recomputes(self, monkeypatch):
        evaluated = []
        compute = scalar_denoiser._negative_branch

        def counting(r_plus, gamma_plus):
            evaluated.append(1)
            return compute(r_plus, gamma_plus)

        monkeypatch.setattr(scalar_denoiser, "_negative_branch", counting)
        rng = np.random.default_rng(7)
        rp, rm = rng.normal(0, 2, (3, 40)), rng.normal(0, 2, (3, 40))
        gp, gm = np.array([[1.0], [3.0], [0.5]]), np.array([[2.0], [0.4], [5.0]])
        for r_plus, r_minus, g_plus, g_minus in ((rp, rm, gp, gm),
                                                 (rp[1], rm[1], gp[1, 0], 0.0)):
            branch = Reuse(scalar_denoiser._negative_branch)

            def held(r, g, side="in"):
                """The held call's result, checked against a fresh one, and
                whether it evaluated the branch."""
                evaluated.clear()
                got = denoise_middle(RELU, r, r_minus, g, g_minus, side=side, branch=branch)
                computed = len(evaluated)
                assert_same_result(got, denoise_middle(RELU, r, r_minus, g, g_minus,
                                                       side=side))
                return computed

            assert held(r_plus, g_plus, side="out") == 1
            # equal values in another array are the same key
            assert held(r_plus, np.copy(g_plus)) == 0
            # the same r+ array with a changed gamma+ column, as the engine's
            # in-place precision update would leave it
            if np.ndim(g_plus):
                g_plus[1, 0] *= 2.0
            else:
                g_plus *= 2.0
            assert held(r_plus, g_plus) == 1
            # another r+ array under the same gamma+
            assert held(r_plus + 0.5, g_plus) == 1

    def test_reuse_keys_on_source_identity_and_argument_values(self):
        calls = []

        def fn(src, *args):
            calls.append(1)
            return [src.sum()] + [np.sum(a) for a in args]

        src, g = np.arange(4.0), np.array([[1.0], [2.0]])
        memo = Reuse(fn)
        first = memo(src, g, 3.0)
        # equal values in other arrays are the same key: the result is reused
        assert memo(src, np.copy(g), 3.0) is first and len(calls) == 1
        # changed argument values recompute, also when changed in place
        g[1, 0] = 5.0
        assert memo(src, g, 3.0)[1] == 6.0 and len(calls) == 2
        assert memo(src, g, 4.0)[2] == 4.0 and len(calls) == 3
        held = memo(src, g, 4.0)
        assert len(calls) == 3
        # so does a new source array, even with the values of the old one
        assert memo(np.copy(src), g, 4.0) is not held and len(calls) == 4

    def test_branch_weights_exact_and_never_subnormal(self):
        d = np.concatenate([np.linspace(-800.0, 800.0, 160001), [-1e300, 1e300]])
        w_pos, w_neg = scalar_denoiser._branch_weights(d)
        for w, logit in ((w_pos, d), (w_neg, -d)):
            assert not np.any((w != 0) & (w < np.finfo(float).tiny))
            # 1 / (1 + e^-logit), exactly 0 below the cut
            with np.errstate(over="ignore"):
                want = 1.0 / (1.0 + np.exp(-logit))
            kept = logit >= EXP_CUT
            assert np.all(w[~kept] == 0.0)
            assert np.max(np.abs(w[kept] / want[kept] - 1.0)) <= 4 * np.finfo(float).eps
