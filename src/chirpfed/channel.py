"""Time-varying underwater acoustic channel as a tapped delay line.

Tap gains are Rayleigh-fading complex Gaussian processes with exponentially
decaying mean power (0.66 dB per tap by default) and a bell-shaped Doppler
spectrum.  Impairments: AWGN at a requested per-symbol SNR, symbol time
offset (fractional samples), and Doppler time scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import hilbert

from . import container
from .chirp import Waveform
from .errors import ConfigurationError, InputError

CIR_MAGIC = b"UWAC"
CIR_VERSION = 1

# Windowed-sinc interpolation kernel: 64 taps, Hann-windowed.
_KERNEL_HALF = 32
_KERNEL_OFFSETS = np.arange(-_KERNEL_HALF + 1, _KERNEL_HALF + 1)


@dataclass(frozen=True)
class RayleighModelConfig:
    """Statistical tap model: exponentially decaying Rayleigh taps with a
    bell-shaped Doppler spectrum of maximum spread fd."""

    max_excess_delay: float = 0.012
    decay_db_per_tap: float = 0.66
    fd: float = 0.0
    a: float = 9.0
    Ts: float = 1.0 / 6000.0  # 1/B for the default 6 kHz band

    def __post_init__(self):
        if self.max_excess_delay <= 0:
            raise ConfigurationError("max_excess_delay must be positive")
        if self.fd < 0:
            raise ConfigurationError("fd must be non-negative")
        if self.a <= 0:
            raise ConfigurationError("bell-shape parameter a must be positive")
        if self.decay_db_per_tap < 0:
            raise ConfigurationError("decay_db_per_tap must be non-negative")
        if self.Ts <= 0:
            raise ConfigurationError("Ts must be positive")

    @property
    def n_taps(self) -> int:
        return int(np.floor(self.max_excess_delay / self.Ts)) + 1


@dataclass(frozen=True)
class ImpairmentSpec:
    """Per-transmission impairments applied after the tap convolution."""

    snr_db: float = np.inf
    sto_samples: float = 0.0
    rel_speed: float = 0.0
    sound_speed: float = 1500.0

    def __post_init__(self):
        if self.sound_speed <= 0:
            raise ConfigurationError("sound_speed must be positive")
        if abs(self.rel_speed) >= self.sound_speed:
            raise ConfigurationError("|rel_speed| must stay below sound_speed")
        if np.isnan(self.snr_db):
            raise ConfigurationError("snr_db must not be NaN")

    @property
    def alpha_dop(self) -> float:
        return self.rel_speed / self.sound_speed


@dataclass(frozen=True)
class ChannelRealization:
    """Complex tap gains g_k[t], shape (n_taps, n_time), plus provenance."""

    taps: np.ndarray
    Ts: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim != 2 or taps.size == 0:
            raise ConfigurationError("taps must be a nonempty (n_taps, n_time) matrix")
        if not np.all(np.isfinite(taps)):
            raise ConfigurationError("tap gains contain non-finite values")
        if not (np.isfinite(self.Ts) and self.Ts > 0):
            raise ConfigurationError(f"tap spacing Ts={self.Ts} must be finite and positive")
        object.__setattr__(self, "taps", taps)

    @property
    def n_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def n_time(self) -> int:
        return self.taps.shape[1]


def identity_channel(n_time: int = 1, Ts: float = 1.0 / 6000.0) -> ChannelRealization:
    """Single unit tap: pass-through before noise."""
    return ChannelRealization(np.ones((1, n_time), dtype=np.complex128), Ts,
                              {"model": "identity"})


def bell_spectrum(f, fd: float, a: float = 9.0):
    """Bell-shaped Doppler PSD sqrt(a) / (pi*fd*(1 + a*(f/fd)^2)), zero
    outside |f| <= fd.  Accepts scalars or arrays."""
    if fd <= 0:
        raise ConfigurationError("fd must be positive")
    if a <= 0:
        raise ConfigurationError("a must be positive")
    f = np.asarray(f, dtype=np.float64)
    s = np.sqrt(a) / (np.pi * fd * (1.0 + a * (f / fd) ** 2))
    out = np.where(np.abs(f) <= fd, s, 0.0)
    return out if out.ndim else float(out)


def tap_mean_powers(cfg: RayleighModelConfig) -> np.ndarray:
    """Exponential power-delay profile normalized to unit total power."""
    k = np.arange(cfg.n_taps)
    p = 10.0 ** (-cfg.decay_db_per_tap * k / 10.0)
    return p / p.sum()


def rayleigh_cir(cfg: RayleighModelConfig, duration: float, fs: float,
                 seed: int) -> ChannelRealization:
    """Draw one time-varying channel realization.

    Each tap is an independent complex Gaussian process synthesized by
    spectrally shaping white noise with sqrt(S(f)); tap k has mean power
    10^(-decay*k/10), renormalized so total mean power is 1.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    rng = np.random.default_rng(seed)
    n_time = max(1, int(round(duration * fs)))
    powers = tap_mean_powers(cfg)
    taps = np.empty((cfg.n_taps, n_time), dtype=np.complex128)
    freqs = np.fft.fftfreq(n_time, d=1.0 / fs)
    if cfg.fd > 0:
        shape = bell_spectrum(freqs, cfg.fd, cfg.a)
    else:
        shape = np.zeros(n_time)
        shape[0] = 1.0  # zero Doppler spread: static taps
    norm = np.sqrt(shape.mean()) if shape.mean() > 0 else 1.0
    for k in range(cfg.n_taps):
        w = (rng.standard_normal(n_time) + 1j * rng.standard_normal(n_time)) / np.sqrt(2)
        g = np.fft.ifft(np.fft.fft(w) * np.sqrt(shape)) / norm
        # quantize to the f32 storage precision so save/load round-trips
        # are bit-identical
        taps[k] = (g * np.sqrt(powers[k])).astype(np.complex64)
    meta = {
        "model": "rayleigh",
        "max_excess_delay_s": cfg.max_excess_delay,
        "decay_db_per_tap": cfg.decay_db_per_tap,
        "fd_hz": cfg.fd,
        "a": cfg.a,
        "seed": seed,
    }
    return ChannelRealization(taps, cfg.Ts, meta)


def _windowed_sinc(x: np.ndarray) -> np.ndarray:
    """Continuous-argument Hann-windowed sinc, support |x| <= KERNEL_HALF+1."""
    ext = _KERNEL_HALF + 1
    w = np.where(np.abs(x) < ext, 0.5 * (1 + np.cos(np.pi * x / ext)), 0.0)
    return np.sinc(x) * w


def _interp_at(samples: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Band-limited evaluation of `samples` at fractional positions; values
    outside the support read as zero."""
    n = samples.size
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    idx = base[:, None] + _KERNEL_OFFSETS[None, :]
    kern = _windowed_sinc(_KERNEL_OFFSETS[None, :] - frac[:, None])
    valid = (idx >= 0) & (idx < n)
    vals = np.where(valid, samples[np.clip(idx, 0, n - 1)], 0.0)
    return np.einsum("ij,ij->i", vals, kern)


def apply_sto(w: Waveform, delta_samples: float) -> Waveform:
    """Shift the observation window: out[k] = w[k + delta], zero-filled.

    The integer part is a plain index shift; any fractional part goes through
    the windowed-sinc interpolator.  Length is preserved.
    """
    if delta_samples == 0:
        return w
    n = len(w)
    if abs(delta_samples) >= n:
        raise InputError(f"|delta|={abs(delta_samples)} exceeds waveform length {n}")
    d_int = int(np.floor(delta_samples))
    frac = delta_samples - d_int
    if frac == 0.0:
        out = np.zeros(n)
        if d_int >= 0:
            out[: n - d_int] = w.samples[d_int:]
        else:
            out[-d_int:] = w.samples[: n + d_int]
        return Waveform(out, w.fs)
    positions = np.arange(n) + delta_samples
    return Waveform(_interp_at(w.samples, positions), w.fs)


def apply_doppler(w: Waveform, alpha_dop: float) -> Waveform:
    """Time-scale the waveform: out(t) = w((1 + alpha)t), resampled by
    band-limited interpolation and padded/truncated to the input length."""
    if abs(alpha_dop) >= 0.1:
        raise ConfigurationError(f"|alpha_dop|={abs(alpha_dop)} outside physical regime")
    if alpha_dop == 0:
        return w
    positions = (1.0 + alpha_dop) * np.arange(len(w))
    return Waveform(_interp_at(w.samples, positions), w.fs)


def apply_channel(x: Waveform, h: ChannelRealization, imp: ImpairmentSpec,
                  seed: int) -> Waveform:
    """Tapped-delay-line convolution, then AWGN, Doppler scaling and STO.

    Complex gains act on the analytic signal; the real part is kept.  Noise
    power is the received signal power scaled by 10^(-snr/10).
    """
    n = len(x)
    step = h.Ts * x.fs
    if abs(step - round(step)) > 1e-6:
        raise ConfigurationError(
            f"tap spacing Ts={h.Ts} is not an integer number of samples at fs={x.fs}")
    step = int(round(step))
    if 1 < h.n_time < n:
        raise InputError(f"CIR has {h.n_time} time steps for {n} samples; "
                         f"it needs 1 (static) or at least {n}")
    analytic = hilbert(x.samples)
    acc = np.zeros(n, dtype=np.complex128)
    for k in range(h.n_taps):
        d = k * step
        if d >= n:
            break
        gains = h.taps[k]
        # a static CIR repeats its one column; a longer one is cut to n
        g = gains if gains.size == n else np.resize(gains, n)
        acc[d:] += g[d:] * analytic[: n - d]
    r = acc.real
    if np.isfinite(imp.snr_db):
        rng = np.random.default_rng(seed)
        p_sig = float(np.mean(r * r))
        sigma = np.sqrt(p_sig * 10.0 ** (-imp.snr_db / 10.0))
        r = r + rng.standard_normal(n) * sigma
    out = Waveform(r, x.fs)
    if imp.alpha_dop != 0:
        out = apply_doppler(out, imp.alpha_dop)
    if imp.sto_samples != 0:
        out = apply_sto(out, imp.sto_samples)
    return out


def save_cir(path, h: ChannelRealization) -> None:
    """Little-endian CIR container: header (u32 n_taps, u64 n_time, f64 Ts),
    metadata key=value strings, then tap-major interleaved f32 (re, im)."""
    inter = np.empty((h.n_taps, h.n_time, 2), dtype="<f4")
    inter[..., 0] = h.taps.real
    inter[..., 1] = h.taps.imag
    container.save(path, CIR_MAGIC, CIR_VERSION,
                   container.pack_fields("IQd", h.n_taps, h.n_time, h.Ts),
                   container.pack_strings([f"{k}={v}" for k, v in sorted(h.meta.items())]),
                   inter.tobytes())


def load_cir(path) -> ChannelRealization:
    with container.Reader(path, CIR_MAGIC, CIR_VERSION) as r:
        n_taps, n_time, ts = r.fields("IQd", "CIR header")
        meta = {}
        for item in r.strings("metadata"):
            key, _, value = item.partition("=")
            meta[key] = value
        flat = r.array("<f4", 2 * n_taps * n_time, "tap payload")
        r.require(np.isfinite(flat), flat, "non-finite tap gain")
        flat = flat.astype(np.float64).reshape(n_taps, n_time, 2)
        return ChannelRealization(flat[..., 0] + 1j * flat[..., 1], ts, meta)
