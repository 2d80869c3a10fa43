"""Time-varying underwater acoustic channel as a tapped delay line.

Tap gains are Rayleigh-fading complex Gaussian processes with exponentially
decaying mean power (0.66 dB per tap by default) and a bell-shaped Doppler
spectrum.  Impairments: AWGN at a requested per-symbol SNR, symbol time
offset (fractional samples), and Doppler time scaling.
"""

from __future__ import annotations

import math
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
# fraction 0 <= f < 1, Hann-windowed over |m - f| < 33.  _kernel evaluates it
# exactly: by the angle-addition formulas, sin(pi(m - f)) = -(-1)^m sin(pi f)
# and the window's cos(pi(m - f)/33) splits into per-tap constants times cos
# and sin of pi f/33, so a row costs three transcendentals, not 128.  The
# sign and the window's factor 1/2 sit in the per-tap constants; as sign
# flips and scalings by 2 commute with rounding, only a subnormal kernel
# value (f below about 1e-307) can differ from the unfolded form's, by one
# rounding.
_KERNEL_HALF = 32
_KERNEL_OFFSETS = np.arange(-_KERNEL_HALF + 1, _KERNEL_HALF + 1)
_PI_SIGN = -(-1.0) ** _KERNEL_OFFSETS * np.pi
_HALF_WINDOW_COS = 0.5 * np.cos(np.pi * _KERNEL_OFFSETS / (_KERNEL_HALF + 1))
_HALF_WINDOW_SIN = 0.5 * np.sin(np.pi * _KERNEL_OFFSETS / (_KERNEL_HALF + 1))
# Kernel rows looked up at a time: one block holds every kept row of a
# 960-sample symbol at lam >= 5; each (192, 64) float64 temporary is 96 KiB.
_KERNEL_BLOCK = 192
# Windows gathered at a time for fractional shifts: 512 KiB of float64.
_WINDOW_BLOCK = 1024
# Rows that apply_channel_rows works on at a time.  Part of no stream, but a
# static Rayleigh row's last float64 bits follow the row count of its
# product.  At 960 samples a block's float64 products are 0.5 MiB each.
CHANNEL_BLOCK_ROWS = 64


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


def _check_impairments(snr_db, sto_samples, rel_speed) -> None:
    """Raise ConfigurationError if these impairments are invalid."""
    if not abs(rel_speed) < SOUND_SPEED:  # NaN too
        raise ConfigurationError(f"|rel_speed| must stay below {SOUND_SPEED} m/s")
    if np.isnan(sto_samples):
        raise ConfigurationError("sto_samples must not be NaN")
    try:  # the noise-to-signal power ratio of apply_channel
        scale = math.pow(10.0, -snr_db / 10.0)
    except OverflowError:
        scale = math.inf
    if not scale < math.inf:  # NaN too; -inf dB would read as noiseless
        raise ConfigurationError(f"snr_db={snr_db} gives no finite noise level")


@dataclass(frozen=True)
class ImpairmentSpec:
    """Per-transmission impairments applied after the tap convolution."""

    snr_db: float = np.inf
    sto_samples: float = 0.0
    rel_speed: float = 0.0

    def __post_init__(self):
        _check_impairments(self.snr_db, self.sto_samples, self.rel_speed)

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


# The kernel tabulated at the P + 1 fractions k/P, P = _KERNEL_PHASES, with
# the first differences of its rows, and interpolated linearly between the
# two nearest (Smith and Gossett, "A flexible sampling-rate conversion
# method", ICASSP 1984): two read-only float64 arrays, (P + 1) x 64 and
# P x 64, 0.25 MiB in all.  The error of linear interpolation is at most
# (1/P)^2 / 8 times the kernel's largest |d^2/df^2|, about pi^2/3 at the
# main lobe: each tap is within 6.3e-6 of _kernel's, and a row's 64 taps err
# by at most 3.6e-5 in all, the bound for |x| <= 1.  On the band-limited
# unit chirp the output moves by at most 1.1e-6, where the exact kernel is
# itself off by up to 1.8e-5.
_KERNEL_PHASES = 256
_KERNEL_TABLE = _kernel(np.arange(_KERNEL_PHASES + 1) / _KERNEL_PHASES)
_KERNEL_STEPS = np.diff(_KERNEL_TABLE, axis=0)
_KERNEL_TABLE.flags.writeable = _KERNEL_STEPS.flags.writeable = False


def _table_kernel(frac) -> np.ndarray:
    """Kernel rows, shape frac.shape + (64,), for 0 <= frac <= 1, read from
    the table: T[i] + w D[i] at frac P = i + w, i <= P - 1.  At each k/P the
    row is _kernel's, and at 0 it is the unit impulse."""
    x = np.asarray(frac, dtype=np.float64) * _KERNEL_PHASES
    i = np.minimum(x.astype(np.intp), _KERNEL_PHASES - 1)
    rows = np.take(_KERNEL_STEPS, i, axis=0) * (x - i)[..., None]
    rows += np.take(_KERNEL_TABLE, i, axis=0)
    return rows


def _check_signal(alpha_dop, delta, n: int) -> None:
    """Raise if the Doppler scale is unphysical or the shift leaves the
    n-sample window."""
    if not abs(alpha_dop) < 0.1:  # NaN too
        raise ConfigurationError(f"|alpha_dop|={abs(alpha_dop)} outside physical regime")
    if not abs(delta) < n:
        raise InputError(f"|delta|={abs(delta)} exceeds waveform length {n}")


def _check_channel(h: ChannelRealization, n: int, fs: float) -> None:
    """Raise if h does not apply to n samples at rate fs."""
    step = h.Ts * fs
    if abs(step - round(step)) > 1e-6:
        raise ConfigurationError(f"tap spacing Ts={h.Ts} is not an integer number "
                                 f"of samples at fs={fs}")
    if 1 < h.n_time < n:
        raise InputError(f"CIR has {h.n_time} time steps for {n} samples; "
                         f"it needs 1 (static) or at least {n}")


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


def _static_gains(amplitudes: np.ndarray, rows: int, rng) -> np.ndarray:
    """(rows, taps) complex64 static gains CN(0, amplitudes**2), drawn from
    rng in one call, row by row and tap by tap, real part then imaginary
    part, and rounded as rayleigh_cir rounds its gains."""
    z = rng.standard_normal((rows, len(amplitudes), 2))
    g = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2)
    return (g * amplitudes).astype(np.complex64)


def _delay_line(sig: np.ndarray, step: int, taps: int) -> np.ndarray:
    """(taps, n) view of the 1-D signal sig through taps `step` samples apart:
    line[k, t] = sig[t - k step], zero before the signal starts.  One
    zero-padded copy of sig backs every row."""
    n = sig.size
    padded = np.zeros((taps - 1) * step + n, sig.dtype)
    padded[(taps - 1) * step:] = sig
    return sliding_window_view(padded, n)[::-step]


def _static_products(x, which, gains: np.ndarray, step: int) -> np.ndarray:
    """Rows x[which[r]] through the static complex gains gains[r] of taps
    `step` samples apart: Re(G @ line) for each waveform's analytic delay
    line and the gains G of its rows, as the one pair of real products
    G.real @ line.real - G.imag @ line.imag.  Each line is copied into one
    contiguous buffer before its product, to the same bits: matmul would
    copy the overlapping view itself, more slowly, and a new array per line
    costs fresh pages on every call."""
    out, taps = np.empty((len(gains), len(x[0]))), gains.shape[1]
    line = np.empty((taps, len(x[0])))
    for i in np.unique(which):
        rows = np.flatnonzero(which == i)
        sig, g = hilbert(x[i].samples), gains[rows].astype(np.complex128)
        np.copyto(line, _delay_line(sig.real, step, taps))
        product = g.real @ line
        np.copyto(line, _delay_line(sig.imag, step, taps))
        product -= g.imag @ line
        out[rows] = product
    return out


def _convolve(x: Waveform, step: int, taps: np.ndarray, analytic: bool) -> np.ndarray:
    """x through the tapped delay line, the real part kept: static gains are
    one product with the delay line of the signal, the analytic one for
    complex gains (as _static_products takes them), and gains that vary in
    time one sum over the taps, cut to n."""
    if analytic and taps.shape[1] == 1:
        return _static_products((x,), [0], taps.T, step)[0]
    sig = hilbert(x.samples) if analytic else x.samples
    line = _delay_line(sig, step, len(taps))
    if taps.shape[1] == 1:
        return taps[:, 0] @ line
    return np.einsum("kt,kt->t", taps[:, :len(x)], line).real


def _impair_rows(out: np.ndarray, rows: np.ndarray, alpha_dop: np.ndarray,
                 delta: np.ndarray, lam: int) -> None:
    """Doppler scaling, then a shift by delta samples, at every lam-th sample
    of each row, into the zeroed `out`: out[i, j] = D_i(lam j + delta[i]),
    where D_i(t) = rows[i]((1 + alpha_dop[i]) t) on the window 0 <= t < n
    and zero outside it, whatever the shift and scale.  Needs
    |alpha_dop| < 0.1 and |delta| < n.

    Each kept sample is one band-limited evaluation of its row at
    (1 + alpha)(lam j + delta), one kernel row read from the P-phase table
    (_table_kernel); nothing is interpolated twice.  Without Doppler scaling
    an integer shift is an index offset, and a fractional one is one kernel
    row for all the kept samples of its row.
    """
    m, n = rows.shape
    width = 2 * _KERNEL_HALF
    kept = np.arange(0, n, lam)
    t = kept + delta[:, None]
    inside = (t >= 0) & (t < n)
    d_int = np.floor(delta)
    doppler = alpha_dop != 0
    fractional = (delta != d_int) & ~doppler
    shifted = np.flatnonzero(~doppler & ~fractional)
    if shifted.size:
        source = np.clip(t[shifted], 0, n - 1).astype(np.int64)
        out[shifted] = np.where(inside[shifted], rows[shifted[:, None], source], 0.0)
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
        kernel = _table_kernel(delta[sel] - d_int[sel])
        products = np.matmul(windows[sel[:, None], start], kernel[:, :, None])[:, :, 0]
        out[sel] = np.where(inside[sel], products, 0.0)

    # one kernel row per kept sample of every Doppler-scaled row, looked up a
    # block of rows at a time: the (rows, 64) temporaries stay in cache
    doppler = np.flatnonzero(doppler)
    row, col = np.nonzero(inside[doppler])
    row = doppler[row]
    positions = (1.0 + alpha_dop[row]) * t[row, col]
    base = np.floor(positions)
    start = np.clip(base.astype(np.int64) + lead, 0, n + width)
    frac = positions - base
    for lo in range(0, frac.size, _KERNEL_BLOCK):
        part = slice(lo, lo + _KERNEL_BLOCK)
        out[row[part], col[part]] = np.einsum(
            "ij,ij->i", windows[row[part], start[part]], _table_kernel(frac[part]))


def _impaired(w: Waveform, alpha_dop: float, delta: float) -> Waveform:
    """w Doppler-scaled by alpha_dop, then shifted by delta samples."""
    _check_signal(alpha_dop, delta, len(w))
    out = np.zeros((1, len(w)))
    _impair_rows(out, w.samples[None], np.array([alpha_dop], dtype=float),
                 np.array([delta], dtype=float), 1)
    return Waveform(out[0], w.fs)


def apply_sto(w: Waveform, delta_samples: float) -> Waveform:
    """Shift the observation window: out[k] = w[k + delta], length kept,
    and zero where k + delta falls outside 0 <= k + delta < len(w).  A
    fractional shift interpolates w band-limited."""
    return w if delta_samples == 0 else _impaired(w, 0.0, delta_samples)


def apply_doppler(w: Waveform, alpha_dop: float) -> Waveform:
    """Time-scale the waveform: out(t) = w((1 + alpha)t), resampled by
    band-limited interpolation and padded/truncated to the input length."""
    return w if alpha_dop == 0 else _impaired(w, alpha_dop, 0.0)


def apply_channel_rows(x, which, channel, snr_db, sto_samples, rel_speed, noise_rng,
                       lam: int = 1, out=None, row_name=None, gain_rng=None) -> np.ndarray:
    """Row i is apply_channel(x[which[i]], h_i, ImpairmentSpec(snr_db[i],
    sto_samples[i], rel_speed[i]), seed, lam).samples, with its noise drawn
    from the Generator noise_rng in place of default_rng(seed), rounded once
    to the dtype of `out`.  Returns `out`, by default a new float64 array.

    `x` holds waveforms of one length n and rate fs.  `channel` is one
    ChannelRealization h_i for every row, or a RayleighModelConfig from
    which each row draws its own CIR h_i from the Generator gain_rng (see
    _rayleigh_layout).  Rows are worked CHANNEL_BLOCK_ROWS at a time in
    array passes: a shared channel takes each waveform once; the static
    gains of a block are one (rows, taps) draw from gain_rng and, per
    waveform, one pair of matrix products with its delay line; gains that
    vary within the symbol come from rayleigh_cir, each row's seed drawn
    from gain_rng in row order, and take the delay line row by row.  The
    noisy rows of a block fill one noise matrix from the Generator
    noise_rng, row by row, each as standard_normal(n).  Each stream is read
    in row order, one block after another, so the block size changes no
    draw; only the last float64 bits of a static Rayleigh row may follow
    the count of rows that share its product.  A stream that no row reads
    may be None: noise_rng when no row is noisy, gain_rng for a shared
    channel.

    Each row's own inputs are checked as apply_channel checks them, in row
    order and before any row is built: its impairments, the shared channel,
    then its Doppler scale and shift.  Only the rows before the first bad
    one are built, and the noise level, the one check that needs a built
    row, is tested on them as they are.  The first error found is raised;
    with `row_name`, its message starts "<row_name> <i>: ".
    """
    n, fs = len(x[0]), x[0].fs
    if not (isinstance(lam, (int, np.integer)) and lam >= 1) or n % lam:
        raise ConfigurationError(f"lam={lam} must be a positive integer dividing {n}")
    which = np.asarray(which, dtype=np.intp)
    if out is None:
        out = np.empty((which.size, n // lam))
    shared = isinstance(channel, ChannelRealization)
    bad, end = None, which.size  # the rows before `end` are built
    for i in range(end):
        try:
            _check_impairments(snr_db[i], sto_samples[i], rel_speed[i])
            if shared:
                _check_channel(channel, n, fs)
            _check_signal(rel_speed[i] / SOUND_SPEED, sto_samples[i], n)
        except (ConfigurationError, InputError) as error:
            bad, end = error, i
            break
    if shared and end:
        layout = _taps_on(channel, n, fs)
        received = np.stack([_convolve(w, *layout) for w in x])
    elif not shared:
        cfg, step, amplitudes = _rayleigh_layout(channel, n, fs)
    for lo in range(0, end, CHANNEL_BLOCK_ROWS):
        hi = min(lo + CHANNEL_BLOCK_ROWS, end)
        # the values as given, as an ImpairmentSpec holds and prints them
        snr, sto, speed = (list(v[lo:hi]) for v in (snr_db, sto_samples, rel_speed))
        if shared:
            rx = received[which[lo:hi]]
        elif amplitudes is None:  # gains that vary in time, one CIR a row
            seeds = gain_rng.integers(0, 2 ** 63 - 1, size=hi - lo).tolist()
            rx = np.stack([_convolve(x[i], *_taps_on(rayleigh_cir(cfg, n / fs, fs, seed), n, fs))
                           for i, seed in zip(which[lo:hi], seeds)])
        else:
            gains = _static_gains(amplitudes, hi - lo, gain_rng)
            rx = _static_products(x, which[lo:hi], gains, step)
        noisy = np.flatnonzero(np.isfinite(snr))
        with np.errstate(over="ignore"):  # an overflow is an infinite noise level
            scale = np.array([10.0 ** (-snr[r] / 10.0) for r in noisy])
            power = rx[noisy]
            power *= power
            sigma = np.sqrt(power.mean(axis=1) * scale)
        loud = noisy[~(sigma < np.inf)]
        if loud.size:
            r = loud[0]
            bad, end = ConfigurationError(f"the noise level at snr_db={snr[r]} overflows"), lo + r
            break
        if noisy.size:
            noise = noise_rng.standard_normal((noisy.size, n))
            noise *= sigma[:, None]
            rx[noisy] += noise
        impaired = np.zeros((hi - lo, n // lam))
        _impair_rows(impaired, rx, np.array([v / SOUND_SPEED for v in speed], dtype=float),
                     np.array(sto, dtype=float), lam)
        with np.errstate(over="ignore"):  # past the range of out's dtype: inf
            out[lo:hi] = impaired
    if bad is not None:
        raise type(bad)(f"{row_name} {end}: {bad}") if row_name else bad
    return out


def apply_channel(x: Waveform, h: ChannelRealization, imp: ImpairmentSpec,
                  seed: int, lam: int = 1) -> Waveform:
    """Tapped-delay-line convolution, then AWGN, Doppler scaling and STO,
    returned at every lam-th sample (rate fs/lam).

    Complex gains act on the analytic signal and the real part is kept; real
    gains act on x itself, the real part of its analytic signal, both
    through one delay line of the signal (see _convolve).  Noise power is
    the received signal power scaled by 10^(-snr/10).  The result equals
    downsample(apply_channel(x, h, imp, seed), lam), but the interpolation
    is evaluated only where a sample is kept.  The one-row case of
    apply_channel_rows.
    """
    out = apply_channel_rows((x,), [0], h, [imp.snr_db], [imp.sto_samples],
                             [imp.rel_speed], np.random.default_rng(seed), lam)
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
                   memoryview(inter).cast("B"))


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
