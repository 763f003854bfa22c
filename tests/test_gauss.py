import numpy as np
import pytest

from mlvamp.gauss import EXP_CUT, exp_cut, log_ndtr_mills

TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps


def assert_no_subnormal(*arrays):
    for a in arrays:
        assert not np.any((a != 0) & (np.abs(a) < TINY))


def log_ndtr_mills_reference(x):
    """(log Phi(x), phi(x) / Phi(x)) at 50 digits; above 0 through the upper
    tail, so that log Phi(x) keeps its digits where Phi(x) rounds to 1."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if x > 0:
            upper = mpmath.ncdf(-x)
            return float(mpmath.log1p(-upper)), float(mpmath.npdf(x) / (1 - upper))
        cdf = mpmath.ncdf(x)
        return float(mpmath.log(cdf)), float(mpmath.npdf(x) / cdf)


class TestLogNdtrMills:
    def test_against_mpmath(self):
        pytest.importorskip("mpmath")
        # 36-40 brackets sqrt(-2 EXP_CUT) ~ 37.15, where exp_cut starts to act
        x = np.concatenate([-np.geomspace(1e4, 1e-3, 80), [0.0],
                            np.geomspace(1e-3, 60.0, 60), np.linspace(36.0, 40.0, 41)])
        log_cdf, mills = log_ndtr_mills(x)
        ref = np.array([log_ndtr_mills_reference(v) for v in x])
        cut = (x > 0) & (0.5 * x * x > -EXP_CUT)
        assert 0 < cut.sum() < 50
        # x^2 / 2 carries one rounding, which exp(-x^2 / 2) turns into a
        # relative error of eps x^2 / 2
        tol = 8 * EPS * (1.0 + 0.5 * x[~cut] ** 2)
        for got, want in ((log_cdf, ref[:, 0]), (mills, ref[:, 1])):
            assert np.all(np.abs(got[~cut] / want[~cut] - 1.0) <= tol)
            # under the cut: exactly 0, where the true value is below e^EXP_CUT
            assert np.all(got[cut] == 0.0)
            assert np.all(np.abs(want[cut]) < np.exp(EXP_CUT))

    def test_no_subnormal_results(self):
        x = np.concatenate([np.linspace(-60.0, 60.0, 120001), np.geomspace(60.0, 1e4, 100),
                            -np.geomspace(60.0, 1e4, 100)])
        assert_no_subnormal(*log_ndtr_mills(x))


class TestExpCut:
    def test_exact_above_the_cut_and_zero_below(self):
        a = np.concatenate([np.linspace(-800.0, 0.0, 80001), [-np.inf]])
        got = exp_cut(a)
        keep = a >= EXP_CUT
        assert np.array_equal(got[keep], np.exp(a[keep]))
        assert np.all(got[~keep] == 0.0)
        assert_no_subnormal(got)
        assert np.isnan(exp_cut(np.nan)) and exp_cut(-1.0) == np.exp(-1.0)
