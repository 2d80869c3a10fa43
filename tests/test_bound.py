import math

import mpmath
import numpy as np
import pytest

from chirpfed.bound import (DerivedConstants, SmoothnessConstants,
                            derive_constants, m_of_T, tz_bound)
from chirpfed.errors import ConfigurationError, ValidityError
from oracles import QuadraticFederationSpec, empirical_rounds_to_gap


def consts(**kw):
    base = dict(mu=1.0, H=2.0, rho=0.0, B=1.0, delta=0.0, sigma=0.0,
                alpha=0.001, beta=0.0001, C=0.0, tau=0.0, N=10, T0=1,
                n=1.0, epsilon=0.01)
    base.update(kw)
    return SmoothnessConstants(**base)


# ------------------------------------------------------------------- inputs

def test_constant_validation():
    with pytest.raises(ConfigurationError):
        consts(mu=0.0)
    with pytest.raises(ConfigurationError):
        consts(mu=3.0)  # mu > H
    with pytest.raises(ConfigurationError):
        consts(rho=-1.0)
    with pytest.raises(ConfigurationError):
        consts(beta=0.0)
    with pytest.raises(ConfigurationError):
        consts(N=0)
    with pytest.raises(ConfigurationError):
        consts(epsilon=0.0)
    for field in ("mu", "H", "rho", "alpha", "beta", "n"):
        with pytest.raises(ConfigurationError):
            consts(**{field: float("nan")})
    with pytest.raises(ConfigurationError):
        consts(delta=float("inf"))
    for T0 in (2 ** 53 + 1, 10 ** 399):  # no exact float
        with pytest.raises(ConfigurationError):
            consts(T0=T0)
    assert consts(T0=2 ** 53).T0 == 2 ** 53


# ----------------------------------------------------------------- deriving

def test_alpha_zero_collapses_to_inputs():
    d = derive_constants(consts(alpha=0.0, rho=5.0, delta=0.7))
    assert d.mu_p == 1.0
    assert d.H_p == 2.0
    assert d.alpha_p == pytest.approx(0.0001 * 0.7)


def test_overflowing_derivation_is_a_configuration_error():
    for big in (dict(alpha=1e300, beta=1e300), dict(alpha=1e150, rho=1e200),
                dict(delta=1e300, C=1e300, beta=1e-10)):
        with pytest.raises(ConfigurationError):
            derive_constants(consts(**big))


def test_derived_arithmetic():
    d = derive_constants(consts(rho=0.0, alpha=0.001, mu=1.0, H=2.0))
    assert d.mu_p == pytest.approx((1 - 0.001 * 2.0) ** 2)
    assert d.H_p == pytest.approx(2.0 * (1 - 0.001 * 1.0) ** 2)
    assert d.mu_pp == pytest.approx(10 * d.mu_p)
    assert d.H_pp == pytest.approx(10 * d.H_p)


def test_single_node_scaling():
    d = derive_constants(consts(N=1))
    assert d.mu_pp == d.mu_p
    assert d.H_pp == d.H_p


def test_xi_variants_differ():
    c = consts()
    d_thm = derive_constants(c, "theorem")
    d_prf = derive_constants(c, "proof")
    hpp, mpp, beta = d_prf.H_pp, d_prf.mu_pp, c.beta
    assert d_thm.xi == pytest.approx(1 - 2 * hpp * beta * (1 + mpp * beta / 2))
    assert d_prf.xi == pytest.approx(1 - 2 * hpp * beta * (1 + hpp * beta / 2))
    assert d_thm.xi != d_prf.xi
    with pytest.raises(ConfigurationError):
        derive_constants(c, "rumor")


def test_validity_flags():
    # huge alpha*rho*B drives mu' negative
    d = derive_constants(consts(rho=3000.0, alpha=0.5, mu=1.0, H=1.0))
    assert "mu_p_nonpositive" in d.flags
    assert not d.valid
    # enormous beta pushes xi below 0
    d = derive_constants(consts(beta=1.0))
    assert "xi_outside_unit_interval" in d.flags
    assert derive_constants(consts()).valid


def test_monotonicity_in_alpha():
    # rho*B large enough that the alpha*rho*B term dominates the quadratic
    lo = derive_constants(consts(alpha=0.001, rho=100.0))
    hi = derive_constants(consts(alpha=0.01, rho=100.0))
    assert hi.mu_p < lo.mu_p
    assert hi.H_p > lo.H_p


# ---------------------------------------------------------------------- m(T)

def test_m_of_t_basics():
    d = derive_constants(consts(delta=0.5))
    assert m_of_T(d, 0) == 0.0
    assert m_of_T(d, 1) == pytest.approx(0.0, abs=1e-15)
    q = d.beta * d.H_p
    assert m_of_T(d, 2) == pytest.approx(d.alpha_p * q)
    assert m_of_T(d, 50) >= m_of_T(d, 10) >= 0.0


def test_m_of_t_homogeneous_zero():
    d = derive_constants(consts(delta=0.0, sigma=0.0, tau=0.0))
    assert all(m_of_T(d, t) == 0.0 for t in (0, 1, 5, 50))


def test_m_of_t_linear_in_alpha_p():
    d1 = derive_constants(consts(delta=0.5))
    d2 = derive_constants(consts(delta=1.0))
    assert m_of_T(d2, 7) == pytest.approx(2 * m_of_T(d1, 7))


def test_m_of_t_validity_guard():
    d = DerivedConstants(mu_p=1.0, H_p=2.0, mu_pp=1.0, H_pp=2.0,
                         alpha_p=0.1, xi=0.5, beta=0.6)  # beta*H_p > 1
    with pytest.raises(ValidityError):
        m_of_T(d, 3)
    with pytest.raises(ValidityError):
        m_of_T(derive_constants(consts()), -1)


def test_m_of_t_that_overflows_is_a_configuration_error():
    # alpha' / (beta H') overflows to inf, and inf - inf is NaN
    d = derive_constants(consts(mu=0.001, H=0.002, delta=1e308))
    assert math.isfinite(m_of_T(derive_constants(consts(mu=0.001, H=0.002, delta=1e300)),
                                100000))
    with pytest.raises(ConfigurationError, match="overflows"):
        m_of_T(d, 100000)
    with pytest.raises(ConfigurationError, match="overflows"):
        tz_bound(consts(mu=0.001, H=0.002, delta=1e308, T0=100000))


# ------------------------------------------------------------------ tz bound

def test_tz_zero_when_target_exceeds_gap():
    c = consts(epsilon=2.0, n=1.0)  # homogeneous -> m = 0
    assert tz_bound(c) <= 0.0


def test_tz_monotone_in_t0_and_epsilon():
    tz = [tz_bound(consts(mu=0.5, H=1.0, delta=0.2, alpha=0.01, beta=0.01,
                          N=4, T0=t0, n=10.0, epsilon=0.05))
          for t0 in (1, 2, 5, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(tz, tz[1:]))
    tz_eps = [tz_bound(consts(n=10.0, epsilon=e)) for e in (0.01, 0.1, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(tz_eps, tz_eps[1:]))


def test_tz_of_an_overflowing_log_argument_is_a_configuration_error():
    # epsilon / n overflows to inf at a subnormal gap bound: tz would be -inf
    with pytest.raises(ConfigurationError, match="overflows"):
        tz_bound(consts(n=1e-320))
    assert math.isfinite(tz_bound(consts(n=1e-300)))


def test_tz_invalid_flags_raise():
    with pytest.raises(ValidityError):
        tz_bound(consts(beta=1.0))  # xi < 0


def test_tz_against_extended_precision():
    c = consts(mu=0.5, H=1.5, delta=0.3, alpha=0.01, beta=0.005, N=4,
               T0=5, n=7.0, epsilon=0.02)
    got = tz_bound(c, "proof")
    with mpmath.workdps(50):
        alpha, beta = mpmath.mpf("0.01"), mpmath.mpf("0.005")
        mu, H, delta = mpmath.mpf("0.5"), mpmath.mpf("1.5"), mpmath.mpf("0.3")
        n, eps, N, T0 = mpmath.mpf(7), mpmath.mpf("0.02"), 4, 5
        mu_p = mu * (1 - alpha * H) ** 2
        H_p = H * (1 - alpha * mu) ** 2
        mu_pp, H_pp = N * mu_p, N * H_p
        alpha_p = beta * delta
        xi = 1 - 2 * H_pp * beta * (1 + H_pp * beta / 2)
        q = beta * H_p
        m = alpha_p * T0 - (alpha_p / q) * (1 - (1 - q) ** T0)
        km = mu_pp * m / (1 - xi ** T0)
        want = mpmath.log((eps + km) / n) / mpmath.log(xi)
        assert abs(got - float(want)) / abs(float(want)) < 1e-12


# ------------------------------------------------------- quadratic harness

def quad_task(seed, K=4, dim=3, alpha=0.01, beta=0.01, T0=1):
    rng = np.random.default_rng(seed)
    A = np.eye(dim)
    b = rng.standard_normal((K, dim))
    return QuadraticFederationSpec(A=A, b=b, alpha=alpha, beta=beta, T0=T0)


def test_quadratic_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadraticFederationSpec(A=np.ones((2, 3)), b=np.ones((2, 3)),
                                alpha=0.1, beta=0.1)
    with pytest.raises(ConfigurationError):
        QuadraticFederationSpec(A=np.array([[1.0, 2.0], [0.0, 1.0]]),
                                b=np.ones((2, 2)), alpha=0.1, beta=0.1)
    with pytest.raises(ConfigurationError):
        QuadraticFederationSpec(A=-np.eye(2), b=np.ones((2, 2)),
                                alpha=0.1, beta=0.1)


def test_meta_optimum_is_minimum():
    task = quad_task(0)
    g_star = task.meta_optimum()
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert task.meta_objective(rng.standard_normal(3)) >= g_star - 1e-12


def test_identical_nodes_match_single_node():
    rng = np.random.default_rng(2)
    b = rng.standard_normal(3)
    t4 = QuadraticFederationSpec(A=np.eye(3), b=np.tile(b, (4, 1)),
                                 alpha=0.02, beta=0.05)
    t1 = QuadraticFederationSpec(A=np.eye(3), b=b[None, :],
                                 alpha=0.02, beta=0.05)
    eps = 1e-4
    assert empirical_rounds_to_gap(t4, eps) == empirical_rounds_to_gap(t1, eps)


def test_single_node_scalar_matches_closed_form():
    a, b, alpha, beta = 2.0, 1.5, 0.05, 0.02
    task = QuadraticFederationSpec(A=np.array([[a]]), b=np.array([[b]]),
                                   alpha=alpha, beta=beta)
    eps = 1e-6
    rounds, capped = empirical_rounds_to_gap(task, eps)
    assert not capped
    # meta objective is a scalar quadratic with curvature a*(1-alpha*a)^2;
    # the gap contracts by (1 - beta*a_meta)^2 per round
    a_meta = a * (1 - alpha * a) ** 2
    gap0 = task.meta_objective(task.theta0) - task.meta_optimum()
    factor = (1 - beta * a_meta) ** 2
    predicted = math.ceil(math.log(eps / gap0) / math.log(factor))
    assert abs(rounds - predicted) <= 1


def test_homogeneous_contraction_within_xi_proof():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(2)
    task = QuadraticFederationSpec(A=np.eye(2), b=np.tile(b, (3, 1)),
                                   alpha=0.01, beta=0.01)
    c = task.constants()
    d = derive_constants(c, "proof")
    g_star = task.meta_optimum()
    theta = task.theta0.copy()
    gaps = [task.meta_objective(theta) - g_star]
    from chirpfed.federation import aggregate, maml_update
    A = task.A
    for _ in range(20):
        ups = []
        for bi in task.b:
            new = maml_update(theta, lambda th, bi=bi: (A @ th - bi, lambda v: A @ v),
                              lambda th, bi=bi: A @ th - bi,
                              task.alpha, task.beta, task.T0)
            ups.append((new, 1, 1))
        theta = aggregate(ups)
        gaps.append(task.meta_objective(theta) - g_star)
    per_round = (gaps[-1] / gaps[0]) ** (1 / 20)
    assert per_round <= d.xi * 1.05


def test_empirical_cap_flag():
    task = quad_task(4)
    task = QuadraticFederationSpec(A=task.A, b=task.b, alpha=0.01,
                                   beta=1e-7, max_rounds=10)
    rounds, capped = empirical_rounds_to_gap(task, 1e-9)
    assert capped and rounds == 10


def test_constants_are_analytic():
    task = quad_task(5)
    c = task.constants()
    assert c.mu == pytest.approx(1.0)
    assert c.H == pytest.approx(1.0)
    b_mean = task.b.mean(axis=0)
    assert c.delta == pytest.approx(
        float(np.max(np.linalg.norm(task.b - b_mean, axis=1))))
    assert c.sigma == 0.0 and c.rho == 0.0
