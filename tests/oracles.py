"""Test oracles: reference code that the tests call and no subcommand runs.

`QuadraticFederationSpec` and `empirical_rounds_to_gap` run the library's
federated MAML update (`maml_update`, `aggregate`) on strongly convex
quadratic node objectives with analytically known constants, so the
closed-form round bound of `chirpfed.bound` can be checked against counted
rounds.

`tap_by_tap` is the tapped delay line taken one tap at a time, the oracle
that `channel._convolve`'s one delay-line product is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chirpfed.bound import SmoothnessConstants
from chirpfed.channel import hilbert
from chirpfed.errors import ConfigurationError
from chirpfed.federation import aggregate, maml_update


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


def tap_by_tap(x, step: int, taps: np.ndarray, analytic: bool) -> np.ndarray:
    """The waveform x through the taps (n_taps, n_time) `step` samples apart,
    cut as channel._taps_on cuts them, one tap at a time: tap k adds its gain
    at t times the signal (the analytic one if `analytic`) at t - k * step,
    and the real part is kept."""
    n = len(x)
    sig = hilbert(x.samples) if analytic else x.samples
    acc = np.zeros(n, dtype=sig.dtype)
    for k in range(len(taps)):
        d = k * step
        # a static CIR applies its one gain throughout; a longer one is cut to n
        g = taps[k, 0] if taps.shape[1] == 1 else taps[k, d:n]
        acc[d:] += g * sig[: n - d]
    return acc.real
