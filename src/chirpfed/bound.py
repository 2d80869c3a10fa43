"""Closed-form convergence-rate constants and round-complexity bound.

Implements the derived smoothness constants of the meta objective, the
heterogeneity drift term m(T), and the sufficient-rounds bound T_z as
closed-form float arithmetic.

Two variants of the contraction factor xi are in circulation: the displayed
theorem uses 1 - 2*H''*beta*(1 + mu''*beta/2), the step-by-step derivation
1 - 2*H''*beta*(1 + H''*beta/2).  Both are available behind `xi_variant`;
the derivation form is the default.
"""

import math
from dataclasses import dataclass

from .errors import ConfigurationError, ValidityError

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
    """Heterogeneity drift m(T) = a'T - a'/(beta H') * [1 - (1-beta H')^T];
    ConfigurationError when it is not finite."""
    if T < 0:
        raise ValidityError("T must be >= 0")
    q = d.beta * d.H_p
    if not 0 < q < 1:
        raise ValidityError(f"beta*H' = {q} outside (0, 1)")
    m = d.alpha_p * T - (d.alpha_p / q) * (1.0 - (1.0 - q) ** T)
    if not math.isfinite(m):
        raise ConfigurationError(f"m(T) at T={T} overflows the float range")
    return m


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
    tz = math.log(arg) / math.log(d.xi)
    if not math.isfinite(tz):
        raise ConfigurationError(f"log argument (epsilon + K*m(T0))/n = {arg} "
                                 "overflows the float range")
    return tz
