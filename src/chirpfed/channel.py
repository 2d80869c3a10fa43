"""Time-varying underwater acoustic channel as a tapped delay line.

Tap gains are Rayleigh-fading complex Gaussian processes with exponentially
decaying mean power (0.66 dB per tap by default) and a bell-shaped Doppler
spectrum.  Impairments: AWGN at a requested per-symbol SNR, symbol time
offset (fractional samples), and Doppler time scaling.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

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
# Windows gathered at a time for fractional shifts: 512 KiB of float64.
_WINDOW_BLOCK = 1024
# Rows that apply_channel_rows works on at a time.  Part of no stream: each
# row draws its noise from its own seed.  At 960 samples a block's complex
# (rows, 2n) FFT temporaries are 1.9 MiB each.
CHANNEL_BLOCK_ROWS = 64

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


def _error(problem, row=None):
    """The exception of an (error class, message) problem, naming `row` if
    the problem is one row's of many."""
    cls, message = problem
    return cls(message if row is None else f"{row}: {message}")


def _impairment_problem(snr_db, sto_samples, rel_speed):
    """(error class, message) if these impairments are invalid."""
    if not abs(rel_speed) < SOUND_SPEED:  # NaN too
        return ConfigurationError, f"|rel_speed| must stay below {SOUND_SPEED} m/s"
    if np.isnan(sto_samples):
        return ConfigurationError, "sto_samples must not be NaN"
    try:  # the noise-to-signal power ratio of apply_channel
        scale = math.pow(10.0, -snr_db / 10.0)
    except OverflowError:
        scale = math.inf
    if not scale < math.inf:  # NaN too; -inf dB would read as noiseless
        return ConfigurationError, f"snr_db={snr_db} gives no finite noise level"
    return None


@dataclass(frozen=True)
class ImpairmentSpec:
    """Per-transmission impairments applied after the tap convolution."""

    snr_db: float = np.inf
    sto_samples: float = 0.0
    rel_speed: float = 0.0

    def __post_init__(self):
        problem = _impairment_problem(self.snr_db, self.sto_samples, self.rel_speed)
        if problem is not None:
            raise _error(problem)

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


def _signal_problem(loud: bool, snr_db, alpha_dop, delta, n: int):
    """(error class, message) if the noise level overflows (`loud`), the
    Doppler scale is unphysical or the shift leaves the n-sample window."""
    if loud:
        return ConfigurationError, f"the noise level at snr_db={snr_db} overflows"
    if not abs(alpha_dop) < 0.1:  # NaN too
        return ConfigurationError, f"|alpha_dop|={abs(alpha_dop)} outside physical regime"
    if not abs(delta) < n:
        return InputError, f"|delta|={abs(delta)} exceeds waveform length {n}"
    return None


def _channel_problem(h: ChannelRealization, n: int, fs: float):
    """(error class, message) if h does not apply to n samples at rate fs."""
    step = h.Ts * fs
    if abs(step - round(step)) > 1e-6:
        return ConfigurationError, (f"tap spacing Ts={h.Ts} is not an integer number "
                                    f"of samples at fs={fs}")
    if 1 < h.n_time < n:
        return InputError, (f"CIR has {h.n_time} time steps for {n} samples; "
                            f"it needs 1 (static) or at least {n}")
    return None


def _taps_on(h: ChannelRealization, n: int, fs: float):
    """(step, taps, analytic) of h on n samples at rate fs: the tap spacing
    in samples and the gains of the taps k with k * step < n, real unless
    any gain of h is complex.  Complex gains act on the analytic signal."""
    step = int(round(h.Ts * fs))
    analytic = bool(np.any(h.taps.imag))
    taps = h.taps[:min(h.n_taps, -(-n // step))]
    return step, taps if analytic else taps.real, analytic


def _rayleigh_layout(cfg: RayleighModelConfig, n: int, fs: float):
    """(cfg, step, amplitudes) of the CIRs that cfg draws for rows of n
    samples at rate fs: cfg with Ts snapped to `step` whole samples, and the
    amplitudes sqrt(p_k) of the taps k with k * step < n.  While fd < 1/T,
    rayleigh_cir's bell spectrum keeps only the DC bin, which for n i.i.d.
    CN(0, 1) draws over sqrt(n) is CN(0, 1): each tap is one static
    CN(0, p_k) gain.  From 1/T on, amplitudes is None: the gains vary in
    time as rayleigh_cir draws them."""
    step = max(1, int(round(cfg.Ts * fs)))
    cfg = replace(cfg, Ts=step / fs)
    if n > 1 and cfg.fd >= np.fft.fftfreq(n, d=1.0 / fs)[1]:
        return cfg, step, None
    return cfg, step, np.sqrt(tap_mean_powers(cfg)[:-(-n // step)])


def _static_gains(amplitudes: np.ndarray, seeds) -> np.ndarray:
    """(rows, taps) complex64 static gains CN(0, amplitudes**2), row r drawn
    from default_rng(seeds[r]) tap by tap, real part then imaginary part,
    and rounded as rayleigh_cir rounds its gains."""
    z = np.empty((len(seeds), len(amplitudes), 2))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    g = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2)
    return (g * amplitudes).astype(np.complex64)


def _static_products(x, which, gains: np.ndarray, step: int) -> np.ndarray:
    """Rows x[which[r]] through the static complex gains gains[r] of taps
    `step` samples apart, as one batched FFT product with the waveforms'
    analytic spectra; at length 2n the linear convolution does not wrap
    around into the n samples kept."""
    n = len(x[0])
    spectra = np.stack([_analytic_spectrum(w) for w in x])
    prod = np.zeros((len(gains), 2 * n), dtype=np.complex128)
    prod[:, : gains.shape[1] * step: step] = gains
    prod = np.fft.fft(prod, axis=1)
    np.multiply(spectra[which], prod, out=prod)
    return np.fft.ifft(prod, axis=1)[:, :n].real


def _convolve(x: Waveform, step: int, taps: np.ndarray, analytic: bool) -> np.ndarray:
    """x through the tapped delay line: static complex gains are one FFT
    product, any other CIR is taken one tap at a time."""
    n = len(x)
    if analytic and taps.shape[1] == 1:
        return _static_products((x,), [0], taps.T, step)[0]
    sig = hilbert(x.samples) if analytic else x.samples
    acc = np.zeros(n, dtype=sig.dtype)
    for k in range(len(taps)):
        d = k * step
        # a static CIR applies its one gain throughout; a longer one is cut to n
        g = taps[k, 0] if taps.shape[1] == 1 else taps[k, d:n]
        acc[d:] += g * sig[: n - d]
    return acc.real


def _impair_rows(out: np.ndarray, rows: np.ndarray, alpha_dop: np.ndarray,
                 delta: np.ndarray, lam: int) -> None:
    """Doppler scaling, then a shift by delta samples, at every lam-th sample
    of each row, into the zeroed `out`: out[i, j] = D_i(lam j + delta[i]),
    where D_i(t) = rows[i]((1 + alpha_dop[i]) t) is the Doppler-scaled row on
    the window 0 <= t < n and zero outside it.  Needs |alpha_dop| < 0.1 and
    |delta| < n.

    Each kept sample is one band-limited evaluation of its row at
    (1 + alpha)(lam j + delta), one kernel row; nothing is interpolated
    twice.  Without Doppler scaling an integer shift is an index offset, and
    a fractional one is one kernel row for all the kept samples of its row.
    """
    m, n = rows.shape
    width = 2 * _KERNEL_HALF
    kept = np.arange(0, n, lam)
    d_int = np.floor(delta)
    doppler = alpha_dop != 0
    fractional = (delta != d_int) & ~doppler
    shifted = np.flatnonzero(~doppler & ~fractional)
    if shifted.size:
        t = kept + d_int[shifted, None].astype(np.int64)
        inside = (t >= 0) & (t < n)
        out[shifted] = np.where(inside, rows[shifted[:, None], np.clip(t, 0, n - 1)], 0.0)
    if shifted.size == m:
        return
    padded = np.zeros((m, n + 2 * width))
    padded[:, width:width + n] = rows
    # a window wholly outside the support reads an all-zero padding window
    windows = sliding_window_view(padded, width, axis=1)
    lead = width - _KERNEL_HALF + 1

    # one kernel row per row, and a stack of matrix-vector products over the
    # row's gathered windows, _WINDOW_BLOCK windows at a time
    fractional = np.flatnonzero(fractional)
    group = max(1, _WINDOW_BLOCK // kept.size)
    for lo in range(0, fractional.size, group):
        sel = fractional[lo:lo + group]
        start = np.clip(kept + (d_int[sel, None].astype(np.int64) + lead), 0, n + width)
        kernel = _kernel(delta[sel] - d_int[sel])
        out[sel] = np.matmul(windows[sel[:, None], start], kernel[:, :, None])[:, :, 0]

    # one kernel row per kept sample of every Doppler-scaled row, made a block
    # of rows at a time: the (rows, 64) temporaries stay in cache
    doppler = np.flatnonzero(doppler)
    t = kept + delta[doppler, None]
    inside = (t >= 0) & (t < n)
    row, col = np.nonzero(inside)
    row = doppler[row]
    positions = (1.0 + alpha_dop[row]) * t[inside]
    base = np.floor(positions)
    start = np.clip(base.astype(np.int64) + lead, 0, n + width)
    frac = positions - base
    for lo in range(0, frac.size, _KERNEL_BLOCK):
        part = slice(lo, lo + _KERNEL_BLOCK)
        out[row[part], col[part]] = np.einsum(
            "ij,ij->i", windows[row[part], start[part]], _kernel(frac[part]))


def _impaired(w: Waveform, alpha_dop: float, delta: float) -> Waveform:
    """w Doppler-scaled by alpha_dop, then shifted by delta samples."""
    problem = _signal_problem(False, None, alpha_dop, delta, len(w))
    if problem is not None:
        raise _error(problem)
    out = np.zeros((1, len(w)))
    _impair_rows(out, w.samples[None], np.array([alpha_dop], dtype=float),
                 np.array([delta], dtype=float), 1)
    return Waveform(out[0], w.fs)


def apply_sto(w: Waveform, delta_samples: float) -> Waveform:
    """Shift the observation window: out[k] = w[k + delta], zero-filled.

    The integer part is a plain index shift; any fractional part goes through
    the windowed-sinc interpolator.  Length is preserved.
    """
    return w if delta_samples == 0 else _impaired(w, 0.0, delta_samples)


def apply_doppler(w: Waveform, alpha_dop: float) -> Waveform:
    """Time-scale the waveform: out(t) = w((1 + alpha)t), resampled by
    band-limited interpolation and padded/truncated to the input length."""
    return w if alpha_dop == 0 else _impaired(w, alpha_dop, 0.0)


def apply_channel_rows(x, which, channel, snr_db, sto_samples, rel_speed, seeds,
                       lam: int = 1, out=None, row_name=None, cir_seeds=None) -> np.ndarray:
    """Row i is apply_channel(x[which[i]], h_i, ImpairmentSpec(snr_db[i],
    sto_samples[i], rel_speed[i]), seeds[i], lam).samples, rounded once to
    the dtype of `out`.  Returns `out`, by default a new float64 array.

    `x` holds waveforms of one length n and rate fs.  `channel` is one
    ChannelRealization h_i for every row, or a RayleighModelConfig from
    which row i draws its own CIR h_i with seed cir_seeds[i] (see
    _rayleigh_layout).  Rows are worked CHANNEL_BLOCK_ROWS at a time in
    array passes: a shared channel takes each waveform once; the static
    gains of a block are one (rows, taps) draw and one batched FFT product;
    gains that vary within the symbol come from rayleigh_cir and take the
    tap loop row by row.  Row i draws its noise
    from default_rng(seeds[i]), so the block size changes no bytes.

    Each row is checked as apply_channel checks it before its block's signal
    work, and the error of the first bad row is raised; with `row_name`, its
    message starts "<row_name> <i>: ".
    """
    n, fs = len(x[0]), x[0].fs
    if not (isinstance(lam, (int, np.integer)) and lam >= 1) or n % lam:
        raise ConfigurationError(f"lam={lam} must be a positive integer dividing {n}")
    which = np.asarray(which, dtype=np.intp)
    m = which.size
    if out is None:
        out = np.empty((m, n // lam))
    shared = isinstance(channel, ChannelRealization)
    fading = False  # whether each row's gains vary in time
    if shared:
        channel_problem = _channel_problem(channel, n, fs)
        if channel_problem is None:
            layout = _taps_on(channel, n, fs)
            received = np.stack([_convolve(w, *layout) for w in x])
    else:
        channel_problem = None
        cfg, step, amplitudes = _rayleigh_layout(channel, n, fs)
        fading = amplitudes is None
    for lo in range(0, m, CHANNEL_BLOCK_ROWS):
        k = min(CHANNEL_BLOCK_ROWS, m - lo)
        # the values as given, as an ImpairmentSpec holds and prints them
        snr, sto, speed = (list(v[lo:lo + k]) for v in (snr_db, sto_samples, rel_speed))
        alpha = [v / SOUND_SPEED for v in speed]
        rx = np.empty((k, n))
        bad = None
        for r in range(k):
            # apply_channel's order: the impairments, then the channel
            bad = _impairment_problem(snr[r], sto[r], speed[r]) or channel_problem
            if bad is not None:
                k = r  # the rows before it are checked below
                break
            if fading:
                h = rayleigh_cir(cfg, n / fs, fs, cir_seeds[lo + r])
                rx[r] = _convolve(x[which[lo + r]], *_taps_on(h, n, fs))
        if shared and k:
            rx[:k] = received[which[lo:lo + k]]
        elif k and not fading:
            gains = _static_gains(amplitudes, cir_seeds[lo:lo + k])
            rx[:k] = _static_products(x, which[lo:lo + k], gains, step)
        # then, in apply_channel's order, the noise level, the Doppler scale
        # and the shift of each row that the checks above passed
        noisy = np.flatnonzero(np.isfinite(snr[:k]))
        with np.errstate(over="ignore"):  # an overflow is an infinite noise level
            scale = np.array([10.0 ** (-snr[r] / 10.0) for r in noisy])
            power = rx[noisy]
            power *= power
            sigma = np.sqrt(power.mean(axis=1) * scale)
        loud = np.zeros(k, dtype=bool)
        loud[noisy] = ~(sigma < np.inf)
        for r in range(k):
            problem = _signal_problem(loud[r], snr[r], alpha[r], sto[r], n)
            if problem is not None:
                bad, k = problem, r
                break
        if bad is not None:
            raise _error(bad, row_name and f"{row_name} {lo + k}")
        # row i's noise from its own stream, drawn as standard_normal(n)
        noise = np.empty((noisy.size, n))
        for j, r in enumerate(noisy):
            np.random.default_rng(seeds[lo + r]).standard_normal(out=noise[j])
        noise *= sigma[:, None]
        rx[noisy] += noise
        impaired = np.zeros((k, n // lam))
        _impair_rows(impaired, rx, np.array(alpha, dtype=float),
                     np.array(sto, dtype=float), lam)
        with np.errstate(over="ignore"):  # past the range of out's dtype: inf
            out[lo:lo + k] = impaired
    return out


def apply_channel(x: Waveform, h: ChannelRealization, imp: ImpairmentSpec,
                  seed: int, lam: int = 1) -> Waveform:
    """Tapped-delay-line convolution, then AWGN, Doppler scaling and STO,
    returned at every lam-th sample (rate fs/lam).

    Complex gains act on the analytic signal and the real part is kept; real
    gains act on x itself, the real part of its analytic signal.  Static
    complex gains are one FFT product; real ones, and gains that vary in
    time, are taken one tap at a time.  Noise power is the received signal
    power scaled by 10^(-snr/10).  The result equals
    downsample(apply_channel(x, h, imp, seed), lam), but the interpolation
    is evaluated only where a sample is kept.  The one-row case of
    apply_channel_rows.
    """
    out = apply_channel_rows((x,), [0], h, [imp.snr_db], [imp.sto_samples],
                             [imp.rel_speed], [seed], lam)
    return Waveform(out[0], x.fs / lam)


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
