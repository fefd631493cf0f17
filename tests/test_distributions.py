"""Special-function accuracy against stdlib/scipy oracles and identities."""

import math

import numpy as np
import pytest
import scipy.special as sps

from blockcomm.dcbm import DcbmPriors
from blockcomm.distributions import (BetaParams, GammaParams, digamma,
                                     gamma_kl, log_beta, log_gamma)
from blockcomm.global_search import objective_value
from blockcomm.local_search import SearchConfig, detect
from blockcomm.sbm import SbmPriors

from conftest import bridge_graph


def test_log_gamma_exact_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)


def test_log_gamma_against_lgamma_grid():
    # relative tolerance degrades to absolute near the roots at x=1 and x=2,
    # where log gamma itself crosses zero
    xs = np.concatenate([
        np.logspace(-6, 15, 300),
        np.linspace(0.01, 5.0, 211),
        [0.999999, 1.000001, 1.999999, 2.000001],
    ])
    for x in xs:
        ref = math.lgamma(x)
        err = abs(log_gamma(float(x)) - ref)
        assert err <= 1e-12 * max(1.0, abs(ref)), f"x={x}"


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_digamma_euler_mascheroni():
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)


def test_digamma_recurrence():
    for x in (0.003, 0.1, 0.7, 1.5, 3.0, 17.0, 123.4):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                                 rel=1e-11, abs=1e-11)


def test_digamma_against_scipy_grid():
    # below ~1e-3 the result magnitude ~1/x makes 1e-10 absolute accuracy
    # unattainable in doubles (one ulp exceeds it), so the grid starts there
    xs = np.concatenate([np.logspace(-3, 8, 400), np.linspace(0.05, 60.0, 301)])
    ref = sps.digamma(xs)
    got = np.array([digamma(float(x)) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_digamma_is_log_gamma_derivative():
    for x in np.linspace(0.1, 100.0, 97):
        h = 1e-6 * max(1.0, x)
        central = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
        assert digamma(float(x)) == pytest.approx(central, rel=1e-6, abs=1e-6)


def test_digamma_finite_difference_at_10():
    h = 1e-6
    fd = (log_gamma(10 + h) - log_gamma(10 - h)) / (2 * h)
    assert digamma(10.0) == pytest.approx(fd, abs=1e-6)


def test_digamma_domain():
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError):
            digamma(bad)


def test_log_beta_values():
    assert log_beta(BetaParams(1, 1)) == pytest.approx(0.0, abs=1e-14)
    assert log_beta(BetaParams(2, 3)) == pytest.approx(math.log(1 / 12), rel=1e-13)
    assert log_beta(BetaParams(2, 16)) == pytest.approx(-math.log(272), rel=1e-13)


def test_log_beta_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(0.1, 50, size=2)
        assert log_beta(BetaParams(a, b)) == log_beta(BetaParams(b, a))


def test_beta_gamma_param_validation():
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaParams(1.0, -1.0)
    with pytest.raises(ValueError):
        GammaParams(math.inf, 1.0)


def test_gamma_params_moments():
    g = GammaParams(3.0, 2.0)
    assert g.mean == pytest.approx(6.0)
    assert g.mean_log == pytest.approx(sps.digamma(3.0) + math.log(2.0), rel=1e-12)


def test_gamma_kl_identical_is_zero():
    p = GammaParams(2.5, 0.7)
    assert gamma_kl(p, p) == pytest.approx(0.0, abs=1e-12)


def test_gamma_kl_closed_forms():
    # scale-only change: KL(G(1,1) || G(1,2)) = log2 + (1/2 - 1)
    got = gamma_kl(GammaParams(1, 1), GammaParams(1, 2))
    assert got == pytest.approx(math.log(2) - 0.5, rel=1e-12)
    # shape-only change: KL(G(2,1) || G(3,1)) = log2 - psi(2)
    got = gamma_kl(GammaParams(2, 1), GammaParams(3, 1))
    assert got == pytest.approx(math.log(2) - sps.digamma(2.0), rel=1e-12)


def test_gamma_kl_monte_carlo():
    # KL = E_p[log p(x) - log q(x)] estimated from 1e6 draws
    rng = np.random.default_rng(123)
    p = GammaParams(2.0, 1.0)
    q = GammaParams(3.0, 1.0)
    x = rng.gamma(p.shape, p.scale, size=1_000_000)

    def logpdf(g, x):
        return ((g.shape - 1) * np.log(x) - x / g.scale
                - sps.gammaln(g.shape) - g.shape * np.log(g.scale))

    estimate = float(np.mean(logpdf(p, x) - logpdf(q, x)))
    assert gamma_kl(p, q) == pytest.approx(estimate, abs=1e-2)


def test_gamma_kl_nonnegative_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = GammaParams(*rng.uniform(0.05, 20, size=2))
        q = GammaParams(*rng.uniform(0.05, 20, size=2))
        assert gamma_kl(p, q) >= -1e-12


def test_public_numbers_are_python_floats():
    # repr(np.float64(x)) is "np.float64(x)" under numpy 2, which would leak
    # into every repr-based output line.
    g = bridge_graph()
    values = [log_gamma(np.float64(2.5)), digamma(np.float64(2.5)),
              gamma_kl(GammaParams(2.0, 0.5), GammaParams(1.0, 1.0))]
    for method in ("asbm", "adcbm"):
        values.append(detect(g, 0, SearchConfig(method=method, restarts=2)).log_score)
    partition = [0, 0, 0, 0, 1, 1, 1, 1]
    values.append(objective_value(g, partition, "gsbm", SbmPriors()))
    values.append(objective_value(g, partition, "gdcbm", DcbmPriors()))
    assert [type(v) for v in values] == [float] * len(values)
