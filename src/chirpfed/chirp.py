"""Chirp symbol generation, matched-filter detection and operation counts.

A pair of linear-frequency-modulated symbols carries one bit: bit 0 is the
up-chirp sweeping f1 -> f2, bit 1 the down-chirp sweeping f2 -> f1.  The
quadratic phase term carries the full 2*pi factor so the instantaneous
frequency actually spans [f1, f2] in Hz.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .receiver import default_hidden

# Default band.  fs is back-derived from the 960-samples-per-symbol operating
# point at 10 ms symbols; the band itself sits comfortably below Nyquist.
DEFAULT_F1 = 6000.0
DEFAULT_F2 = 12000.0
DEFAULT_T = 0.010
DEFAULT_FS = 96000.0


@dataclass(frozen=True)
class ChirpParams:
    """Continuous-signal parameters of the chirp symbol pair.

    lam is the downsampling factor applied at the receiver; it must divide
    the per-symbol sample count so N1 = T*fs/lam is an integer.
    """

    f1: float = DEFAULT_F1
    f2: float = DEFAULT_F2
    T: float = DEFAULT_T
    fs: float = DEFAULT_FS
    phi0: float = 0.0
    lam: int = 1

    def __post_init__(self):
        if not (0 < self.f1 < self.f2):
            raise ConfigurationError(
                f"need 0 < f1 < f2, got f1={self.f1}, f2={self.f2}")
        if not self.f2 < self.fs / 2:
            raise ConfigurationError(
                f"f2={self.f2} must sit below Nyquist fs/2={self.fs / 2}")
        n = self.T * self.fs
        if abs(n - round(n)) > 1e-6 or round(n) < 1:
            raise ConfigurationError(f"T*fs={n} is not a positive integer sample count")
        if not (isinstance(self.lam, (int, np.integer)) and self.lam >= 1):
            raise ConfigurationError(f"lam={self.lam} must be a positive integer")
        if round(n) % self.lam != 0:
            raise ConfigurationError(
                f"lam={self.lam} does not divide the symbol length {round(n)}")

    @property
    def symbol_samples(self) -> int:
        return int(round(self.T * self.fs))

    @property
    def n1(self) -> int:
        """Input dimension after downsampling: N1 = T*fs/lam."""
        return self.symbol_samples // self.lam

    @property
    def mu(self) -> float:
        """Sweep rate in Hz/s; positive by construction."""
        return (self.f2 - self.f1) / self.T

    @property
    def bandwidth(self) -> float:
        return self.f2 - self.f1


@dataclass(frozen=True, eq=False)
class Waveform:
    """A sampled real-valued signal, compared and hashed by identity."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise InputError("waveform must be a nonempty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise InputError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ComplexityReport:
    """Elementary-operation counts for one detector."""

    additions: int
    multiplications: int
    nonlinear_activations: int
    total: int = field(default=None)  # filled from the other three

    def __post_init__(self):
        expected = self.additions + self.multiplications + self.nonlinear_activations
        if self.total is None:
            object.__setattr__(self, "total", expected)
        elif self.total != expected:
            raise ConfigurationError(
                f"total={self.total} != add+mul+nav={expected}")


def generate_chirp(params: ChirpParams, direction: str = "up") -> Waveform:
    """One chirp symbol at the full sample rate, with read-only samples.

    Up-chirp phase: phi0 + 2*pi*(f1*t + mu*t^2/2); the down-chirp mirrors it
    from f2 with the quadratic term negated.  Both are built once per params.
    """
    if direction not in ("up", "down"):
        raise ConfigurationError(f"direction must be 'up' or 'down', got {direction!r}")
    return _chirp_pair(params)[direction == "down"]


@functools.lru_cache(maxsize=16)
def _chirp_pair(params: ChirpParams) -> tuple[Waveform, Waveform]:
    """The (up, down) chirps of generate_chirp; read-only, as they are shared."""
    t = np.arange(params.symbol_samples) / params.fs
    pair = []
    for f0, sweep in ((params.f1, params.mu), (params.f2, -params.mu)):
        samples = np.cos(params.phi0 + 2 * np.pi * (f0 * t + sweep * t * t / 2))
        samples.flags.writeable = False
        pair.append(Waveform(samples, params.fs))
    return tuple(pair)


def downsample(w: Waveform, lam: int) -> Waveform:
    """Keep every lam-th sample starting at index 0."""
    if not (isinstance(lam, (int, np.integer)) and lam >= 1):
        raise ConfigurationError(f"lam={lam} must be a positive integer")
    if len(w) % lam != 0:
        raise ConfigurationError(
            f"lam={lam} does not divide the sample count {len(w)}")
    return Waveform(w.samples[::lam], w.fs / lam)


def symbol_templates(params: ChirpParams) -> tuple[np.ndarray, np.ndarray]:
    """The (s1, s2) correlation templates at the downsampled rate: read-only
    views of the cached chirps."""
    return tuple(w.samples[::params.lam] for w in _chirp_pair(params))


def matched_filter_detect_batch(rx: np.ndarray, params: ChirpParams) -> np.ndarray:
    """Vectorized decisions for a (n_symbols, N1) block of received symbols."""
    s1, s2 = symbol_templates(params)
    rx = np.asarray(rx, dtype=np.float64)
    if rx.ndim != 2 or rx.shape[1] != s1.size:
        raise InputError(f"expected shape (n, {s1.size}), got {rx.shape}")
    c1 = rx @ s1
    c2 = rx @ s2
    return (c1 < c2).astype(np.uint8)


def mf_op_count(n1: int) -> ComplexityReport:
    """Correlator cost for one symbol decision at input size N1.

    additions = 2*N1 - 1, multiplications = 2*N1^2 - 2*N1 (two length-N1
    correlations).  The total is the plain field sum.
    """
    if n1 < 1:
        raise ConfigurationError(f"N1={n1} must be >= 1")
    add = 2 * n1 - 1
    mul = 2 * n1 * n1 - 2 * n1
    return ComplexityReport(add, mul, 0)


def dnn_op_count(n1: int, hidden=None) -> ComplexityReport:
    """Fully-connected forward-pass cost: one output neuron after `hidden`.

    additions and nonlinear activations count one per computing neuron;
    multiplications are the consecutive layer-size products.
    """
    if n1 < 1:
        raise ConfigurationError(f"N1={n1} must be >= 1")
    if hidden is None:
        hidden = default_hidden(n1)
    hidden = list(hidden)
    if not hidden:
        raise ConfigurationError("hidden layer list must be nonempty")
    sizes = [n1] + hidden + [1]
    add = sum(sizes[1:])
    mul = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return ComplexityReport(add, mul, add)
