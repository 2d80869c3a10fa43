"""Closed-form convergence-rate constants and round-complexity bound.

Implements the derived smoothness constants of the meta objective, the
heterogeneity drift term m(T), and the sufficient-rounds bound T_z, plus an
empirical harness that runs the federated MAML update on strongly convex
quadratic node objectives with analytically known constants.

Two variants of the contraction factor xi are in circulation: the displayed
theorem uses 1 - 2*H''*beta*(1 + mu''*beta/2), the step-by-step derivation
1 - 2*H''*beta*(1 + H''*beta/2).  Both are available behind `xi_variant`;
the derivation form is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidityError
from .federation import aggregate, maml_update

XI_VARIANTS = ("theorem", "proof")


@dataclass(frozen=True)
class SmoothnessConstants:
    """All scalar inputs of the convergence analysis."""

    mu: float            # strong-convexity modulus of each local loss
    H: float             # smoothness modulus
    rho: float = 0.0     # Hessian Lipschitz constant
    B: float = 1.0       # gradient norm bound
    delta: float = 0.0   # gradient dissimilarity across nodes
    sigma: float = 0.0   # Hessian dissimilarity across nodes
    alpha: float = 0.001
    beta: float = 0.0001
    C: float = 0.0       # auxiliary constant from the cited drift bound
    tau: float = 0.0     # auxiliary constant from the cited drift bound
    N: int = 10
    T0: int = 1
    n: float = 1.0       # upper bound on the initial optimality gap
    epsilon: float = 0.01

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.H, self.rho, self.B, self.delta,
                                       self.sigma, self.alpha, self.beta, self.C,
                                       self.tau, self.n, self.epsilon))):
            raise ConfigurationError("the constants must be finite numbers")
        if min(self.mu, self.H, self.B, self.n, self.epsilon) <= 0:
            raise ConfigurationError("mu, H, B, n and epsilon must be positive")
        if min(self.rho, self.delta, self.sigma, self.C, self.tau) < 0:
            raise ConfigurationError("rho, delta, sigma, C, tau must be >= 0")
        if self.mu > self.H:
            raise ConfigurationError("need mu <= H")
        if self.alpha < 0 or self.beta <= 0:
            raise ConfigurationError("need alpha >= 0 and beta > 0")
        if self.N < 1 or self.T0 < 1:
            raise ConfigurationError("N >= 1 and T0 >= 1 required")
        if self.T0 > 2 ** 53:  # past it T0 does not convert to float exactly
            raise ConfigurationError("T0 must be at most 2**53")


@dataclass(frozen=True)
class DerivedConstants:
    mu_p: float
    H_p: float
    mu_pp: float
    H_pp: float
    alpha_p: float
    xi: float
    beta: float
    flags: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.flags


def derive_constants(c: SmoothnessConstants,
                     xi_variant: str = "proof") -> DerivedConstants:
    """Meta-objective constants: mu' = mu(1-alpha*H)^2 - alpha*rho*B,
    H' = H(1-alpha*mu)^2 + alpha*rho*B, their N-scaled versions, the drift
    rate alpha', and the contraction factor xi.

    Invalid regimes set flags instead of raising.
    """
    if xi_variant not in XI_VARIANTS:
        raise ConfigurationError(f"xi_variant must be one of {XI_VARIANTS}")
    try:
        mu_p = c.mu * (1 - c.alpha * c.H) ** 2 - c.alpha * c.rho * c.B
        H_p = c.H * (1 - c.alpha * c.mu) ** 2 + c.alpha * c.rho * c.B
        mu_pp = c.N * mu_p
        H_pp = c.N * H_p
        alpha_p = c.beta * (c.delta + c.alpha * c.C * (c.H * c.delta + c.B * c.sigma + c.tau))
        curvature = mu_pp if xi_variant == "theorem" else H_pp
        xi = 1 - 2 * H_pp * c.beta * (1 + curvature * c.beta / 2)
        finite = all(map(math.isfinite, (mu_p, H_p, mu_pp, H_pp, alpha_p, xi)))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigurationError("the derived constants overflow the float range")
    flags = []
    if mu_p <= 0:
        flags.append("mu_p_nonpositive")
    if not 0 < xi < 1:
        flags.append("xi_outside_unit_interval")
    return DerivedConstants(mu_p, H_p, mu_pp, H_pp, alpha_p, xi, c.beta,
                            tuple(flags))


def m_of_T(d: DerivedConstants, T: int) -> float:
    """Heterogeneity drift m(T) = a'T - a'/(beta H') * [1 - (1-beta H')^T]."""
    if T < 0:
        raise ValidityError("T must be >= 0")
    q = d.beta * d.H_p
    if not 0 < q < 1:
        raise ValidityError(f"beta*H' = {q} outside (0, 1)")
    return d.alpha_p * T - (d.alpha_p / q) * (1.0 - (1.0 - q) ** T)


def tz_bound(c: SmoothnessConstants, xi_variant: str = "proof") -> float:
    """Sufficient communication rounds log((eps + K*m(T0))/n) / log(xi).

    The theorem's K = mu''/(1 - xi^T0) is folded into the product with
    m(T0).  Raises ValidityError when the derived flags fail or the log
    argument is non-positive; the caller ceils the returned real value.
    """
    d = derive_constants(c, xi_variant)
    if not d.valid:
        raise ValidityError(f"derived constants invalid: {', '.join(d.flags)}")
    km = d.mu_pp * m_of_T(d, c.T0) / (1.0 - d.xi ** c.T0)
    arg = (c.epsilon + km) / c.n
    if arg <= 0:
        raise ValidityError(f"log argument (epsilon + K*m(T0))/n = {arg} <= 0")
    return math.log(arg) / math.log(d.xi)


@dataclass(frozen=True)
class QuadraticFederationSpec:
    """K nodes with losses L_i(x) = 0.5*x'Ax - b_i'x sharing one SPD matrix A.

    Sharing A keeps the gradient-dissimilarity constant finite
    (delta = max_i ||b_i - b_mean||) and the Hessian dissimilarity zero.
    """

    A: np.ndarray
    b: np.ndarray          # (K, dim) per-node linear terms
    alpha: float
    beta: float
    T0: int = 1
    theta0: np.ndarray = None
    max_rounds: int = 100000

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigurationError("A must be square")
        if not np.allclose(A, A.T):
            raise ConfigurationError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ConfigurationError("A must be positive definite")
        if b.ndim != 2 or b.shape[1] != A.shape[0]:
            raise ConfigurationError("b must be (K, dim)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        theta0 = np.zeros(A.shape[0]) if self.theta0 is None else self.theta0
        object.__setattr__(self, "theta0", np.asarray(theta0, dtype=np.float64))

    @property
    def K(self) -> int:
        return self.b.shape[0]

    def constants(self, n_gap_factor: float = 1.0,
                  epsilon: float = 1e-3) -> SmoothnessConstants:
        """Analytic constants of this task family (rho = 0, C = tau = 0)."""
        eig = np.linalg.eigvalsh(self.A)
        b_mean = self.b.mean(axis=0)
        delta = float(np.max(np.linalg.norm(self.b - b_mean, axis=1)))
        gap0 = self.meta_objective(self.theta0) - self.meta_optimum()
        grad_bound = float(max(np.linalg.norm(self.A @ self.theta0 - bi) + 1.0
                               for bi in self.b))
        return SmoothnessConstants(
            mu=float(eig.min()), H=float(eig.max()), rho=0.0, B=grad_bound,
            delta=delta, sigma=0.0, alpha=self.alpha, beta=self.beta,
            C=0.0, tau=0.0, N=self.K, T0=self.T0,
            n=max(gap0 * n_gap_factor, 1e-300), epsilon=epsilon)

    def _phi_map(self):
        """phi_i(x) = (I - alpha*A)x + alpha*b_i, shared linear part."""
        return np.eye(self.A.shape[0]) - self.alpha * self.A

    def meta_objective(self, theta: np.ndarray) -> float:
        """G(theta) = mean_i L_i(phi_i(theta))."""
        M = self._phi_map()
        total = 0.0
        for bi in self.b:
            phi = M @ theta + self.alpha * bi
            total += 0.5 * phi @ self.A @ phi - bi @ phi
        return total / self.K

    def meta_optimum(self) -> float:
        """Exact minimum of G via the linear stationarity condition."""
        M = self._phi_map()
        P = M.T @ self.A @ M
        q = np.zeros(self.A.shape[0])
        for bi in self.b:
            q += M.T @ (self.alpha * self.A @ bi - bi)
        q /= self.K
        theta_star = np.linalg.solve(P, -q)
        return self.meta_objective(theta_star)


def empirical_rounds_to_gap(task: QuadraticFederationSpec, epsilon: float):
    """First full-participation round where G(theta) - G* <= epsilon.

    Returns (rounds, capped): exact MAML local steps on every node, equal
    data weights, every upload successful.  capped is True when max_rounds
    elapsed first.
    """
    g_star = task.meta_optimum()
    theta = task.theta0.copy()
    A = task.A
    if task.meta_objective(theta) - g_star <= epsilon:
        return 0, False
    for t in range(1, task.max_rounds + 1):
        updates = []
        for bi in task.b:
            new = maml_update(theta, lambda th: (A @ th - bi, lambda v: A @ v),
                              lambda th: A @ th - bi,
                              task.alpha, task.beta, task.T0, mode="exact")
            updates.append((new, 1, 1))
        theta = aggregate(updates)
        if task.meta_objective(theta) - g_star <= epsilon:
            return t, False
    return task.max_rounds, True
