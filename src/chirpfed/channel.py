"""Time-varying underwater acoustic channel as a tapped delay line.

Tap gains are Rayleigh-fading complex Gaussian processes with exponentially
decaying mean power (0.66 dB per tap by default) and a bell-shaped Doppler
spectrum.  Impairments: AWGN at a requested per-symbol SNR, symbol time
offset (fractional samples), and Doppler time scaling.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import container
from .chirp import Waveform
from .errors import ConfigurationError, InputError

CIR_MAGIC = b"UWAC"
CIR_VERSION = 1
MAX_CIR_ENTRIES = 2 ** 21  # n_taps x n_time; about 190 MB peak at the cap
SOUND_SPEED = 1500.0  # m/s; the Doppler scale factor is rel_speed / SOUND_SPEED

# Windowed-sinc interpolation kernel: 64 taps m = -31..32 at m - f for a
# fraction 0 <= f < 1, Hann-windowed over |m - f| < 33.  By the angle-addition
# formulas, sin(pi(m - f)) = -(-1)^m sin(pi f) and the window's
# cos(pi(m - f)/33) splits into per-tap constants times cos and sin of
# pi f/33, so a kernel row costs three transcendentals, not 128.  The sign
# and the window's factor 1/2 sit in the per-tap constants; as sign flips and
# scalings by 2 commute with rounding, only a subnormal kernel value (f below
# about 1e-307) can differ from the unfolded form's, by one rounding.
_KERNEL_HALF = 32
_KERNEL_OFFSETS = np.arange(-_KERNEL_HALF + 1, _KERNEL_HALF + 1)
_PI_SIGN = -(-1.0) ** _KERNEL_OFFSETS * np.pi
_HALF_WINDOW_COS = 0.5 * np.cos(np.pi * _KERNEL_OFFSETS / (_KERNEL_HALF + 1))
_HALF_WINDOW_SIN = 0.5 * np.sin(np.pi * _KERNEL_OFFSETS / (_KERNEL_HALF + 1))
# Rows of kernel made at a time: one block holds every kept row of a
# 960-sample symbol at lam >= 5; each (192, 64) float64 temporary is 96 KiB.
_KERNEL_BLOCK = 192

_ANALYTIC_SPECTRA = weakref.WeakKeyDictionary()  # Waveform -> _analytic_spectrum


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
        # each check fails on NaN
        if not self.max_excess_delay > 0:
            raise ConfigurationError("max_excess_delay must be positive")
        if not self.fd >= 0:
            raise ConfigurationError("fd must be non-negative")
        if not self.a > 0:
            raise ConfigurationError("bell-shape parameter a must be positive")
        if not 0 <= self.decay_db_per_tap < math.inf:  # -inf * tap 0 is NaN
            raise ConfigurationError("decay_db_per_tap must be non-negative and finite")
        if not self.Ts > 0:
            raise ConfigurationError("Ts must be positive")
        if not math.isfinite(self.max_excess_delay / self.Ts):
            raise ConfigurationError(f"max_excess_delay / Ts = {self.max_excess_delay} / "
                                     f"{self.Ts} has no finite tap count")
        # rayleigh_cir sums the bell spectrum over up to MAX_CIR_ENTRIES bins,
        # each at most its peak S(0) = sqrt(a) / (pi fd)
        if self.fd and not math.isfinite(
                MAX_CIR_ENTRIES * math.sqrt(self.a) / (math.pi * self.fd)):
            raise ConfigurationError(f"the bell spectrum of fd={self.fd}, a={self.a} overflows")

    @property
    def n_taps(self) -> int:
        return int(np.floor(self.max_excess_delay / self.Ts)) + 1


@dataclass(frozen=True)
class ImpairmentSpec:
    """Per-transmission impairments applied after the tap convolution."""

    snr_db: float = np.inf
    sto_samples: float = 0.0
    rel_speed: float = 0.0

    def __post_init__(self):
        if not abs(self.rel_speed) < SOUND_SPEED:  # NaN too
            raise ConfigurationError(f"|rel_speed| must stay below {SOUND_SPEED} m/s")
        if np.isnan(self.sto_samples):
            raise ConfigurationError("sto_samples must not be NaN")
        try:  # the noise-to-signal power ratio of apply_channel
            scale = math.pow(10.0, -self.snr_db / 10.0)
        except OverflowError:
            scale = math.inf
        if not scale < math.inf:  # NaN too; -inf dB would read as noiseless
            raise ConfigurationError(f"snr_db={self.snr_db} gives no finite noise level")

    @property
    def alpha_dop(self) -> float:
        return self.rel_speed / SOUND_SPEED


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


def identity_channel(Ts: float = 1.0 / 6000.0) -> ChannelRealization:
    """Single static unit tap: pass-through before noise."""
    return ChannelRealization(np.ones((1, 1), dtype=np.complex128), Ts,
                              {"model": "identity"})


def bell_spectrum(f, fd: float, a: float = 9.0):
    """Bell-shaped Doppler PSD sqrt(a) / (pi*fd*(1 + a*(f/fd)^2)), zero
    outside |f| <= fd.  Accepts scalars or arrays."""
    if fd <= 0:
        raise ConfigurationError("fd must be positive")
    if a <= 0:
        raise ConfigurationError("a must be positive")
    f = np.asarray(f, dtype=np.float64)
    out = np.zeros(f.shape)
    band = np.abs(f) <= fd  # where f / fd cannot overflow
    out[band] = np.sqrt(a) / (np.pi * fd * (1.0 + a * (f[band] / fd) ** 2))
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
    if not (np.all(np.isfinite([duration, fs])) and min(duration, fs) > 0):
        raise ConfigurationError(
            f"duration={duration} and fs={fs} must be finite and positive")
    n_time = max(1.0, np.rint(duration * fs))  # inf if the product overflows
    if cfg.n_taps > MAX_CIR_ENTRIES / n_time:  # a product could overflow
        raise ConfigurationError(f"{cfg.n_taps:.6g} taps x {n_time:.6g} time steps "
                                 f"exceed {MAX_CIR_ENTRIES} entries")
    n_time = int(n_time)
    rng = np.random.default_rng(seed)
    powers = tap_mean_powers(cfg)
    # one time step is the DC bin alone; for an fs near the float maximum
    # fftfreq's scale 1 / (n / fs) overflows, and 0 * inf is NaN
    freqs = np.fft.fftfreq(n_time, d=1.0 / fs) if n_time > 1 else np.zeros(1)
    if cfg.fd > 0:
        shape = bell_spectrum(freqs, cfg.fd, cfg.a)
    else:
        shape = np.zeros(n_time)
        shape[0] = 1.0  # zero Doppler spread: static taps
    norm = np.sqrt(shape.mean()) if shape.mean() > 0 else 1.0
    # tap by tap, real part then imaginary part: one draw, one stream order
    z = rng.standard_normal((cfg.n_taps, 2, n_time))
    w = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
    g = np.fft.ifft(np.fft.fft(w, axis=1) * np.sqrt(shape), axis=1) / norm
    # quantize to the f32 storage precision so save/load round-trips are
    # bit-identical
    taps = (g * np.sqrt(powers)[:, None]).astype(np.complex64)
    meta = {
        "model": "rayleigh",
        "max_excess_delay_s": cfg.max_excess_delay,
        "decay_db_per_tap": cfg.decay_db_per_tap,
        "fd_hz": cfg.fd,
        "a": cfg.a,
        "seed": seed,
    }
    return ChannelRealization(taps, cfg.Ts, meta)


def hilbert(x) -> np.ndarray:
    """Analytic signal x + jH{x} of a real 1-D signal: its spectrum with the
    negative frequencies removed and the positive ones doubled."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InputError("hilbert needs a nonempty 1-D signal")
    n = x.size
    spec = np.zeros(n, dtype=np.complex128)
    spec[: n // 2 + 1] = np.fft.rfft(x)
    spec[1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spec)


def _analytic_spectrum(x: Waveform) -> np.ndarray:
    """FFT of the analytic signal of x zero-padded to twice its length.  Kept
    while x lives if its samples are read-only and own their memory, as
    generate_chirp's do."""
    spectrum = _ANALYTIC_SPECTRA.get(x)
    if spectrum is None:
        spectrum = np.fft.fft(hilbert(x.samples), 2 * len(x))
        if not x.samples.flags.writeable and x.samples.base is None:
            spectrum.flags.writeable = False
            _ANALYTIC_SPECTRA[x] = spectrum
    return spectrum


def _kernel(frac) -> np.ndarray:
    """Interpolation kernel rows, shape frac.shape + (64,), for 0 <= frac <= 1."""
    frac = np.asarray(frac, dtype=np.float64)
    f = frac.reshape(-1, 1)
    a = np.pi * f / (_KERNEL_HALF + 1)
    window = np.multiply(_HALF_WINDOW_COS, np.cos(a))
    window += 0.5
    sinc = np.multiply(_HALF_WINDOW_SIN, np.sin(a))  # a buffer until below
    window += sinc
    # sin(pi f) = sin(pi (1 - f)); the smaller argument keeps full precision
    # as f -> 1, where sin(pi f) itself loses digits
    sin_pf = np.sin(np.pi * np.minimum(f, 1.0 - f))
    # sinc = sin(pi f) / (-(-1)^m pi (m - f)), in place
    np.subtract(_KERNEL_OFFSETS, f, out=sinc)
    sinc *= _PI_SIGN
    with np.errstate(invalid="ignore"):  # 0/0 where m - f is 0
        np.divide(sin_pf, sinc, out=sinc)
    # m - f is 0 only where f is 0 (or 1), at m = 0 (or 1): sinc is 1 there
    sinc[f[:, 0] == 0.0, _KERNEL_HALF - 1] = 1.0
    sinc[f[:, 0] == 1.0, _KERNEL_HALF] = 1.0
    sinc *= window
    return sinc.reshape(frac.shape + (-1,))


def _interp_at(samples: np.ndarray, base: np.ndarray, frac) -> np.ndarray:
    """Band-limited evaluation of `samples` at base + frac, with integer
    `base` and one fraction per position or one for all; values outside the
    support read as zero."""
    n, width = samples.size, 2 * _KERNEL_HALF
    padded = np.zeros(n + 2 * width)
    padded[width:width + n] = samples
    # a window wholly outside the support reads an all-zero padding window
    start = np.clip(base + (width - _KERNEL_HALF + 1), 0, n + width)
    windows = sliding_window_view(padded, width)
    if np.ndim(frac) == 0:
        return windows[start] @ _kernel(frac)
    # one kernel row per position, made a block of rows at a time: the
    # (rows, 64) temporaries stay in cache and reuse freed memory, where
    # whole-symbol ones (480 KiB at 960 rows) fault in fresh pages each call
    out = np.empty(start.size)
    for lo in range(0, start.size, _KERNEL_BLOCK):
        rows = slice(lo, lo + _KERNEL_BLOCK)
        out[rows] = np.einsum("ij,ij->i", windows[start[rows]], _kernel(frac[rows]))
    return out


def _doppler_at(samples: np.ndarray, alpha_dop: float, t: np.ndarray) -> np.ndarray:
    """The time-scaled signal samples((1 + alpha) t) at the times t."""
    positions = (1.0 + alpha_dop) * t
    base = np.floor(positions)
    return _interp_at(samples, base.astype(np.int64), positions - base)


def _impair(samples: np.ndarray, alpha_dop: float, delta: float,
            lam: int = 1) -> np.ndarray:
    """Doppler scaling, then a shift by delta samples, at every lam-th output
    sample: out[j] = D(lam j + delta), where D(t) = samples((1 + alpha) t) is
    the Doppler-scaled signal on the window 0 <= t < n and zero outside it.

    Each kept sample is one band-limited evaluation of `samples` at
    (1 + alpha)(lam j + delta), one kernel row; nothing is interpolated
    twice.  Without Doppler scaling an integer shift is an index offset and
    a fractional one uses one kernel row for every kept sample.
    """
    n = samples.size
    if not abs(alpha_dop) < 0.1:  # NaN too
        raise ConfigurationError(f"|alpha_dop|={abs(alpha_dop)} outside physical regime")
    if not abs(delta) < n:
        raise InputError(f"|delta|={abs(delta)} exceeds waveform length {n}")
    kept = np.arange(0, n, lam)
    d_int = int(np.floor(delta))
    if delta != d_int and not alpha_dop:
        return _interp_at(samples, kept + d_int, delta - d_int)
    t = kept + (delta if alpha_dop else d_int)
    inside = (t >= 0) & (t < n)
    out = np.zeros(kept.size)
    out[inside] = (_doppler_at(samples, alpha_dop, t[inside]) if alpha_dop
                   else samples[t[inside]])
    return out


def apply_sto(w: Waveform, delta_samples: float) -> Waveform:
    """Shift the observation window: out[k] = w[k + delta], zero-filled.

    The integer part is a plain index shift; any fractional part goes through
    the windowed-sinc interpolator.  Length is preserved.
    """
    if delta_samples == 0:
        return w
    return Waveform(_impair(w.samples, 0.0, delta_samples), w.fs)


def apply_doppler(w: Waveform, alpha_dop: float) -> Waveform:
    """Time-scale the waveform: out(t) = w((1 + alpha)t), resampled by
    band-limited interpolation and padded/truncated to the input length."""
    if alpha_dop == 0:
        return w
    return Waveform(_impair(w.samples, alpha_dop, 0.0), w.fs)


def apply_channel(x: Waveform, h: ChannelRealization, imp: ImpairmentSpec,
                  seed: int, lam: int = 1) -> Waveform:
    """Tapped-delay-line convolution, then AWGN, Doppler scaling and STO,
    returned at every lam-th sample (rate fs/lam).

    Complex gains act on the analytic signal and the real part is kept; real
    gains act on x itself, the real part of its analytic signal.  A static
    CIR of more than one tap is applied as one FFT product.  Noise power
    is the received signal power scaled by 10^(-snr/10).  The result equals
    downsample(apply_channel(x, h, imp, seed), lam), but the interpolation is
    evaluated only where a sample is kept.
    """
    n = len(x)
    if not (isinstance(lam, (int, np.integer)) and lam >= 1) or n % lam:
        raise ConfigurationError(f"lam={lam} must be a positive integer dividing {n}")
    step = h.Ts * x.fs
    if abs(step - round(step)) > 1e-6:
        raise ConfigurationError(
            f"tap spacing Ts={h.Ts} is not an integer number of samples at fs={x.fs}")
    step = int(round(step))
    if 1 < h.n_time < n:
        raise InputError(f"CIR has {h.n_time} time steps for {n} samples; "
                         f"it needs 1 (static) or at least {n}")
    taps = h.taps
    analytic = bool(np.any(taps.imag))
    if not analytic:
        taps = taps.real
    reach = min(h.n_taps, -(-n // step))  # the taps k with k * step < n
    if h.n_time == 1 and reach > 1:
        # one FFT product; at length 2n the linear convolution does not wrap
        # around into the n samples kept
        kernel = np.zeros(2 * n, dtype=taps.dtype)
        kernel[: reach * step: step] = taps[:reach, 0]
        if analytic:
            r = np.fft.ifft(_analytic_spectrum(x) * np.fft.fft(kernel))[:n].real
        else:
            r = np.fft.irfft(np.fft.rfft(x.samples, 2 * n) * np.fft.rfft(kernel))[:n]
    else:
        sig = hilbert(x.samples) if analytic else x.samples
        acc = np.zeros(n, dtype=sig.dtype)
        for k in range(reach):
            d = k * step
            # a static CIR applies its one gain throughout; a longer one is cut to n
            g = taps[k, 0] if h.n_time == 1 else taps[k, d:n]
            acc[d:] += g * sig[: n - d]
        r = acc.real
    if np.isfinite(imp.snr_db):
        rng = np.random.default_rng(seed)
        p_sig = float(np.mean(r * r))
        sigma = np.sqrt(p_sig * 10.0 ** (-imp.snr_db / 10.0))
        if not sigma < np.inf:
            raise ConfigurationError(f"the noise level at snr_db={imp.snr_db} overflows")
        r = r + rng.standard_normal(n) * sigma
    return Waveform(_impair(r, imp.alpha_dop, imp.sto_samples, lam), x.fs / lam)


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
