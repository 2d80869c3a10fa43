import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chirpfed.channel import (MAX_CIR_ENTRIES, ChannelRealization, ImpairmentSpec,
                              RayleighModelConfig, _kernel, _KERNEL_OFFSETS,
                              apply_channel, apply_doppler, apply_sto,
                              bell_spectrum, hilbert, identity_channel,
                              load_cir, rayleigh_cir, save_cir,
                              tap_mean_powers)
from chirpfed.chirp import ChirpParams, Waveform, downsample, generate_chirp
from chirpfed.errors import ConfigurationError, InputError, ParseError


# ------------------------------------------------------------ configuration

def test_default_tap_count_is_13():
    cfg = RayleighModelConfig(Ts=0.001)
    assert cfg.n_taps == 13  # 12 ms excess delay on a 1 ms grid


@pytest.mark.parametrize("kwargs", [
    dict(max_excess_delay=0.0),
    dict(fd=-1.0),
    dict(a=0.0),
    dict(decay_db_per_tap=-0.1),
    dict(Ts=0.0),
    dict(max_excess_delay=np.nan),
    dict(fd=np.nan),
    dict(a=np.nan),
    dict(decay_db_per_tap=np.nan),
    dict(Ts=np.nan),
    dict(Ts=5e-324),               # max_excess_delay / Ts overflows
    dict(max_excess_delay=np.inf),
    dict(decay_db_per_tap=np.inf),  # tap 0's power would be 10 ** (-inf * 0)
    dict(fd=5e-324),               # the bell spectrum's peak overflows
    dict(fd=1e-303),               # ... summed over MAX_CIR_ENTRIES bins
])
def test_rayleigh_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RayleighModelConfig(**kwargs)


def test_impairment_spec():
    imp = ImpairmentSpec(rel_speed=15.0)
    assert imp.alpha_dop == pytest.approx(0.01)
    with pytest.raises(ConfigurationError):
        ImpairmentSpec(rel_speed=2000.0)
    for snr_db in (np.nan, -np.inf, -4000.0):  # -inf would pass as noiseless
        with pytest.raises(ConfigurationError):
            ImpairmentSpec(snr_db=snr_db)
    ImpairmentSpec(snr_db=-3000.0)  # a noise power 1e300 times the signal's


def test_apply_channel_rejects_a_noise_level_past_the_float_range():
    w = generate_chirp(ChirpParams(), "up")
    h = identity_channel(Ts=1 / w.fs)
    with pytest.raises(ConfigurationError):
        apply_channel(w, h, ImpairmentSpec(snr_db=-4000.0), seed=0)
    # a finite noise scale, but past the float range at twice the amplitude
    loud = Waveform(2.0 * w.samples, w.fs)
    with pytest.raises(ConfigurationError, match="overflows"):
        apply_channel(loud, h, ImpairmentSpec(snr_db=-3082.0), seed=0)
    out = apply_channel(w, h, ImpairmentSpec(snr_db=-3000.0), seed=0)
    assert np.all(np.isfinite(out.samples))


def test_channel_realization_validation():
    with pytest.raises(ConfigurationError):
        ChannelRealization(np.ones(3), 0.001)  # not 2-D
    with pytest.raises(ConfigurationError):
        ChannelRealization(np.array([[np.inf]]), 0.001)
    for ts in (0.0, -0.001, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            ChannelRealization(np.ones((1, 1)), ts)


# ------------------------------------------------------------- bell spectrum

def test_bell_spectrum_center():
    assert bell_spectrum(0.0, 10.0, 9.0) == pytest.approx(3.0 / (np.pi * 10.0))


def test_bell_spectrum_even_and_bounded():
    f = np.linspace(-10, 10, 101)
    s = bell_spectrum(f, 10.0, 9.0)
    assert np.allclose(s, s[::-1])
    assert np.all(s > 0)


def test_bell_spectrum_edge_value():
    # a=9, fd=10, f=10 -> sqrt(9)/(pi*10*(1+9)) = 3/(100*pi)
    assert bell_spectrum(10.0, 10.0, 9.0) == pytest.approx(3.0 / (100 * np.pi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bell_spectrum_of_a_tiny_fd_does_not_overflow_outside_its_band():
    s = bell_spectrum(np.array([0.0, 1.0, -500.0]), 1e-300, 9.0)
    assert s[0] == pytest.approx(3.0 / (np.pi * 1e-300)) and np.all(s[1:] == 0.0)


@pytest.mark.parametrize("fd, a", [(0.0, 9.0), (10.0, 0.0), (10.0, -1.0)])
def test_bell_spectrum_needs_a_positive_width_and_shape(fd, a):
    with pytest.raises(ConfigurationError, match="must be positive"):
        bell_spectrum(1.0, fd, a)


def test_bell_spectrum_zero_outside_support():
    assert bell_spectrum(10.01, 10.0, 9.0) == 0.0
    with pytest.raises(ConfigurationError):
        bell_spectrum(1.0, 0.0)


# ---------------------------------------------------------------- tap model

def test_tap_powers_decay_and_normalize():
    cfg = RayleighModelConfig(Ts=0.001)
    p = tap_mean_powers(cfg)
    assert p.size == 13
    assert p.sum() == pytest.approx(1.0)
    ratios = 10 * np.log10(p[1:] / p[:-1])
    assert np.allclose(ratios, -0.66)


@pytest.mark.parametrize("duration, fs", [(0.1, 0.0), (0.1, np.nan), (0.1, -5.0),
                                          (np.inf, 1000.0), (0.0, 1000.0)])
def test_rayleigh_cir_rejects_bad_grid(duration, fs):
    with pytest.raises(ConfigurationError):
        rayleigh_cir(RayleighModelConfig(Ts=0.001), duration, fs, seed=0)


# 13 taps x 161320 steps is the smallest grid above MAX_CIR_ENTRIES = 2**21
@pytest.mark.parametrize("duration, fs", [(161.32, 1000.0), (1.0, 1e7), (1e300, 1e300)])
def test_rayleigh_cir_rejects_oversized_grid(duration, fs):
    cfg = RayleighModelConfig(Ts=0.001)
    assert cfg.n_taps * 161319 <= MAX_CIR_ENTRIES
    with pytest.raises(ConfigurationError, match="exceed"):
        rayleigh_cir(cfg, duration, fs, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rayleigh_cir_grid_edges_raise_no_warning():
    # 1.2e298 taps x 5e298 steps: the size check takes no overflowing product
    with pytest.raises(ConfigurationError, match="exceed"):
        rayleigh_cir(RayleighModelConfig(Ts=1e-300), 0.05, 1e300, seed=0)
    # one time step at an fs whose period 1/fs is subnormal: the DC bin alone
    h = rayleigh_cir(RayleighModelConfig(Ts=0.001, fd=10.0), 5e-324,
                     1.7976931348623153e308, seed=0)
    assert h.taps.shape == (13, 1) and np.all(h.taps != 0)


def test_rayleigh_cir_shape_and_determinism():
    cfg = RayleighModelConfig(Ts=0.001, fd=10.0)
    h1 = rayleigh_cir(cfg, 0.1, 1000.0, seed=7)
    h2 = rayleigh_cir(cfg, 0.1, 1000.0, seed=7)
    assert h1.taps.shape == (13, 100)
    assert np.array_equal(h1.taps, h2.taps)
    h3 = rayleigh_cir(cfg, 0.1, 1000.0, seed=8)
    assert not np.array_equal(h1.taps, h3.taps)


def test_zero_doppler_gives_static_taps():
    cfg = RayleighModelConfig(Ts=0.001, fd=0.0)
    h = rayleigh_cir(cfg, 0.05, 1000.0, seed=1)
    assert np.allclose(h.taps, h.taps[:, :1])


def test_tap_statistics_quick():
    # lighter version of the acceptance-level statistics
    cfg = RayleighModelConfig(Ts=0.001, fd=10.0)
    acc = np.zeros(13)
    n_draws = 400
    for seed in range(n_draws):
        h = rayleigh_cir(cfg, 0.1, 1000.0, seed=seed)
        acc += np.mean(np.abs(h.taps) ** 2, axis=1)
    acc /= n_draws
    assert acc.sum() == pytest.approx(1.0, rel=0.03)
    ratio_db = 10 * np.log10(acc[1:] / acc[:-1]).mean()
    assert ratio_db == pytest.approx(-0.66, abs=0.15)


def test_rayleigh_cir_batched_taps_match_per_tap_loop():
    # the per-tap synthesis that one batched draw and FFT replace
    cfg = RayleighModelConfig(Ts=16 / 96000.0, fd=5.0)
    fs, duration, seed = 96000.0, 0.01, 1234
    rng = np.random.default_rng(seed)
    n_time = 960
    freqs = np.fft.fftfreq(n_time, d=1.0 / fs)
    shape = bell_spectrum(freqs, cfg.fd, cfg.a)
    norm = np.sqrt(shape.mean())
    powers = tap_mean_powers(cfg)
    ref = np.empty((cfg.n_taps, n_time), dtype=np.complex128)
    for k in range(cfg.n_taps):
        w = (rng.standard_normal(n_time) + 1j * rng.standard_normal(n_time)) / np.sqrt(2)
        g = np.fft.ifft(np.fft.fft(w) * np.sqrt(shape)) / norm
        ref[k] = (g * np.sqrt(powers[k])).astype(np.complex64)
    h = rayleigh_cir(cfg, duration, fs, seed)
    assert h.taps.tobytes() == ref.tobytes()


# ------------------------------------------------------------------- hilbert

@pytest.mark.parametrize("n", [1, 2, 7, 8, 255, 960, 1001])
def test_hilbert_matches_scipy(n):
    from scipy.signal import hilbert as scipy_hilbert
    x = np.random.default_rng(n).standard_normal(n)
    assert np.max(np.abs(hilbert(x) - scipy_hilbert(x))) < 1e-12


def test_hilbert_rejects_empty_and_2d():
    for bad in (np.zeros(0), np.zeros((2, 3))):
        with pytest.raises(InputError):
            hilbert(bad)


# -------------------------------------------------------- interpolation kernel

def _mp_kernel(f):
    """Hann-windowed sinc at m - f, m = -31..32, with 40-digit arithmetic."""
    row = []
    with mpmath.workdps(40):
        for m in _KERNEL_OFFSETS:
            u = mpmath.mpf(int(m)) - mpmath.mpf(float(f))
            sinc = mpmath.mpf(1) if u == 0 else mpmath.sin(mpmath.pi * u) / (mpmath.pi * u)
            row.append(float(sinc * (1 + mpmath.cos(mpmath.pi * u / 33)) / 2))
    return np.array(row)


@settings(max_examples=40, deadline=None)
@given(f=st.floats(0.0, 1.0, exclude_max=True))
@example(f=0.0)
@example(f=0.5)
@example(f=1 - 1e-9)
@example(f=np.nextafter(1.0, 0.0))
@example(f=5e-324)
def test_kernel_matches_mpmath(f):
    assert np.max(np.abs(_kernel(f) - _mp_kernel(f))) <= 1e-15


def test_kernel_folds_its_constants_exactly():
    # the textbook form: sign * sin(pi f) / (pi u) times 0.5 * (1 + window);
    # equal bit for bit wherever no kernel value is subnormal
    fracs = np.concatenate([[0.0, 0.5, 1e-300, np.nextafter(1.0, 0.0), 1.0],
                            np.random.default_rng(4).random(2000)])
    f = fracs[:, None]
    u = _KERNEL_OFFSETS - f
    sign = -(-1.0) ** _KERNEL_OFFSETS
    sin_pf = np.sin(np.pi * np.minimum(f, 1.0 - f))
    zero = u == 0
    sinc = np.where(zero, 1.0, sign * sin_pf / (np.pi * np.where(zero, 1.0, u)))
    a = np.pi * f / 33
    m = np.pi * _KERNEL_OFFSETS / 33
    ref = sinc * 0.5 * (1.0 + np.cos(m) * np.cos(a) + np.sin(m) * np.sin(a))
    assert _kernel(fracs).tobytes() == ref.tobytes()


def test_kernel_rows_match_one_row_at_a_time():
    fracs = np.random.default_rng(3).random(50)
    rows = _kernel(fracs)
    assert rows.shape == (50, _KERNEL_OFFSETS.size)
    for f, row in zip(fracs, rows):
        assert np.array_equal(row, _kernel(f))


# ----------------------------------------------------------------------- STO

def test_sto_zero_is_identity():
    w = Waveform(np.arange(1.0, 6.0), 10.0)
    assert apply_sto(w, 0.0) is w


def test_sto_integer_shift():
    w = Waveform(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 10.0)
    out = apply_sto(w, 3)
    assert np.array_equal(out.samples, [4.0, 5.0, 0.0, 0.0, 0.0])
    back = apply_sto(w, -2)
    assert np.array_equal(back.samples, [0.0, 0.0, 1.0, 2.0, 3.0])


def test_sto_fractional_tone_phase():
    fs, f0, n = 1000.0, 50.0, 2048
    t = np.arange(n) / fs
    w = Waveform(np.cos(2 * np.pi * f0 * t), fs)
    out = apply_sto(w, 0.5)
    expect = np.cos(2 * np.pi * f0 * (t + 0.5 / fs))
    mid = slice(64, n - 64)  # skip kernel edge effects
    assert np.allclose(out.samples[mid], expect[mid], atol=0.01)


def test_sto_out_of_range():
    w = Waveform(np.ones(8), 10.0)
    with pytest.raises(InputError):
        apply_sto(w, 8.0)


# ------------------------------------------------------------------- Doppler

def test_doppler_zero_is_identity():
    w = Waveform(np.arange(1.0, 6.0), 10.0)
    assert apply_doppler(w, 0.0) is w


def test_doppler_tone_shift():
    fs, f0 = 1000.0, 100.0
    n = 1 << 16
    t = np.arange(n) / fs
    w = Waveform(np.cos(2 * np.pi * f0 * t), fs)
    out = apply_doppler(w, 0.01)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(n)))
    f_peak = np.argmax(spec) * fs / n
    assert abs(f_peak - 1.01 * f0) <= fs / n


def test_doppler_inverse():
    rng = np.random.default_rng(0)
    # strictly band-limited random signal so interpolation is accurate
    spec = np.fft.rfft(rng.standard_normal(4000))
    spec[400:] = 0.0
    x = np.fft.irfft(spec, 4000)
    w = Waveform(x, 1000.0)
    alpha = 0.02
    back = apply_doppler(apply_doppler(w, alpha), -alpha / (1 + alpha))
    mid = slice(64, 3600)  # the compressed tail reads zeros
    err = np.linalg.norm(back.samples[mid] - x[mid]) / np.linalg.norm(x[mid])
    assert err < 0.01


def test_doppler_shift_is_one_interpolation_of_the_closed_form_chirp():
    # out[j] = s((1 + alpha)(6 j + delta)) for the chirp s in closed form.
    # At interior samples the error is that of one 64-tap interpolation;
    # interpolating twice (Doppler at the full rate, then the shift) reads
    # worst 3.5e-5 and rms 1.2e-5 over these draws, against 1.8e-5 and 7.3e-6
    p = ChirpParams(lam=6)
    n = p.symbol_samples
    h = identity_channel(Ts=1 / p.fs)
    rng = np.random.default_rng(11)
    errors = []
    for _ in range(50):
        imp = ImpairmentSpec(sto_samples=rng.uniform(0.0, 60.0),
                             rel_speed=rng.uniform(-10.0, 10.0))
        direction = ("up", "down")[rng.integers(2)]
        out = apply_channel(generate_chirp(p, direction), h, imp, seed=0, lam=6).samples
        pos = (1 + imp.alpha_dop) * (np.arange(0, n, 6) + imp.sto_samples)
        t = pos / p.fs
        f0, sweep = (p.f1, p.mu) if direction == "up" else (p.f2, -p.mu)
        exact = np.cos(p.phi0 + 2 * np.pi * (f0 * t + sweep * t * t / 2))
        interior = (pos >= 100) & (pos <= n - 100)
        errors.append((out - exact)[interior])
    errors = np.concatenate(errors)
    assert np.max(np.abs(errors)) <= 2.2e-5
    assert np.sqrt(np.mean(errors ** 2)) <= 1e-5


def test_doppler_regime_guard():
    w = Waveform(np.ones(16), 10.0)
    with pytest.raises(ConfigurationError):
        apply_doppler(w, 0.1)


# ------------------------------------------------------------- apply_channel

def test_identity_passthrough():
    w = Waveform(np.sin(np.arange(256) * 0.1), 6000.0)
    out = apply_channel(w, identity_channel(Ts=1 / 6000.0), ImpairmentSpec(), seed=0)
    assert np.allclose(out.samples, w.samples, atol=1e-9)


def test_snr_zero_doubles_power():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100000)
    w = Waveform(x, 6000.0)
    out = apply_channel(w, identity_channel(Ts=1 / 6000.0),
                        ImpairmentSpec(snr_db=0.0), seed=3)
    p_in = np.mean(w.samples ** 2)
    p_out = np.mean(out.samples ** 2)
    assert p_out == pytest.approx(2 * p_in, rel=0.05)


def test_two_tap_fir_on_impulse():
    h = ChannelRealization(np.array([[1.0 + 0j], [0.5 + 0j]]), Ts=1 / 6000.0)
    x = np.zeros(16)
    x[0] = 1.0
    out = apply_channel(Waveform(x, 6000.0), h, ImpairmentSpec(), seed=0)
    # real input through real taps: hilbert real part restores the input
    assert out.samples[0] == pytest.approx(1.0, abs=1e-9)
    assert out.samples[1] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(out.samples[2:], 0.0, atol=1e-9)


def test_channel_linearity_before_noise():
    rng = np.random.default_rng(4)
    cfg = RayleighModelConfig(Ts=4 / 6000.0, fd=5.0)
    h = rayleigh_cir(cfg, 512 / 6000.0, 6000.0, seed=11)
    imp = ImpairmentSpec()  # no noise
    x = Waveform(rng.standard_normal(512), 6000.0)
    y = Waveform(rng.standard_normal(512), 6000.0)
    combo = Waveform(2.0 * x.samples + 3.0 * y.samples, 6000.0)
    lhs = apply_channel(combo, h, imp, seed=0).samples
    rhs = (2.0 * apply_channel(x, h, imp, seed=0).samples
           + 3.0 * apply_channel(y, h, imp, seed=0).samples)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_noise_determinism():
    w = Waveform(np.ones(128), 6000.0)
    imp = ImpairmentSpec(snr_db=10.0)
    h = identity_channel(Ts=1 / 6000.0)
    a = apply_channel(w, h, imp, seed=5).samples
    b = apply_channel(w, h, imp, seed=5).samples
    c = apply_channel(w, h, imp, seed=6).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_real_taps_skip_the_analytic_signal():
    w = Waveform(np.sin(np.arange(256) * 0.1), 6000.0)
    out = apply_channel(w, identity_channel(Ts=1 / 6000.0), ImpairmentSpec(), seed=0)
    assert np.array_equal(out.samples, w.samples)


def tap_loop(x, h):
    """The oracle of a static CIR: tap k adds its gain times the signal (the
    analytic one for complex gains) delayed by k * step samples, cut to n."""
    n = len(x)
    step = int(round(h.Ts * x.fs))
    sig = hilbert(x.samples) if np.any(h.taps.imag) else x.samples
    acc = np.zeros(n, dtype=np.complex128)
    for k in range(h.n_taps):
        d = k * step
        if d >= n:
            break
        acc[d:] += h.taps[k, 0] * sig[: n - d]
    return acc.real


@pytest.mark.parametrize("n_taps, step", [
    (60, 16),  # the rayleigh dataset profile: n_taps * step == n
    (73, 16),  # taps past the symbol
    (40, 1),
    (2, 959),
])
@pytest.mark.parametrize("gains", ["complex", "real"])
@pytest.mark.parametrize("signal", ["chirp", "noise"])
def test_static_cir_fft_product_matches_the_tap_loop(n_taps, step, gains, signal):
    fs = 96000.0
    rng = np.random.default_rng(n_taps * step)
    taps = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    h = ChannelRealization((taps if gains == "complex" else taps.real)[:, None], step / fs)
    x = (generate_chirp(ChirpParams(), "down") if signal == "chirp"
         else Waveform(rng.standard_normal(960), fs))
    out = apply_channel(x, h, ImpairmentSpec(), seed=0).samples
    assert np.max(np.abs(out - tap_loop(x, h))) <= 1e-12


def test_static_cir_spectrum_follows_writable_samples():
    # only read-only samples may have their spectrum kept
    fs = 96000.0
    h = ChannelRealization(np.array([[1.0 + 0j], [0.3 - 0.4j]]), Ts=3 / fs)
    x = Waveform(np.random.default_rng(5).standard_normal(960), fs)
    apply_channel(x, h, ImpairmentSpec(), seed=0)
    x.samples[:] = generate_chirp(ChirpParams(), "up").samples
    out = apply_channel(x, h, ImpairmentSpec(), seed=0).samples
    assert np.max(np.abs(out - tap_loop(x, h))) <= 1e-12


def _equivalence_channel(kind, seed):
    fs = 96000.0
    if kind == "identity":
        return identity_channel(Ts=1 / fs)
    if kind == "two-tap":  # complex gains: the analytic-signal path
        return ChannelRealization(np.array([[1.0 + 0j], [0.3 - 0.4j]]), Ts=3 / fs)
    return rayleigh_cir(RayleighModelConfig(Ts=16 / fs, fd=5.0), 0.01, fs, seed)


@settings(max_examples=60, deadline=None)
@given(sto=st.one_of(st.integers(-200, 200).map(float),
                     st.floats(-200.0, 200.0, allow_subnormal=False)),
       alpha=st.one_of(st.just(0.0), st.floats(-0.0999, 0.0999)),
       lam=st.sampled_from([1, 6, 12]),
       kind=st.sampled_from(["identity", "two-tap", "rayleigh"]),
       snr=st.sampled_from([np.inf, 6.0]),
       seed=st.integers(0, 2 ** 32),
       bit=st.sampled_from(["up", "down"]))
@example(sto=-0.5, alpha=0.0999, lam=12, kind="rayleigh", snr=6.0, seed=1, bit="up")
@example(sto=37.0, alpha=-0.0999, lam=6, kind="identity", snr=np.inf, seed=0, bit="down")
@example(sto=-1e-300, alpha=0.0, lam=6, kind="two-tap", snr=np.inf, seed=0, bit="up")
def test_decimating_channel_matches_downsampled_full_rate(sto, alpha, lam, kind,
                                                          snr, seed, bit):
    x = generate_chirp(ChirpParams(), bit)
    h = _equivalence_channel(kind, seed)
    imp = ImpairmentSpec(snr_db=snr, sto_samples=sto, rel_speed=1500.0 * alpha)
    kept = apply_channel(x, h, imp, seed=seed, lam=lam)
    full = downsample(apply_channel(x, h, imp, seed=seed), lam)
    assert kept.fs == full.fs == x.fs / lam
    assert np.max(np.abs(kept.samples - full.samples)) <= 1e-12


@pytest.mark.parametrize("lam", [0, 7, 2.0])
def test_decimating_channel_rejects_bad_lam(lam):
    w = Waveform(np.ones(12), 6000.0)
    with pytest.raises(ConfigurationError):
        apply_channel(w, identity_channel(Ts=1 / 6000.0), ImpairmentSpec(), seed=0, lam=lam)


def test_cir_shorter_than_signal_rejected():
    # 1 < n_time < len(x) used to wrap the gains around cyclically
    w = Waveform(np.ones(16), 6000.0)
    short = ChannelRealization(np.ones((2, 5)), 1 / 6000.0)
    with pytest.raises(InputError):
        apply_channel(w, short, ImpairmentSpec(), seed=0)
    for n_time in (1, 16, 20):  # static, exact and longer CIRs still apply
        h = ChannelRealization(np.ones((2, n_time)), 1 / 6000.0)
        assert len(apply_channel(w, h, ImpairmentSpec(), seed=0)) == 16


def test_incompatible_tap_spacing():
    h = identity_channel(Ts=1 / 7000.0)
    with pytest.raises(ConfigurationError):
        apply_channel(Waveform(np.ones(16), 6000.0), h, ImpairmentSpec(), seed=0)


# --------------------------------------------------------------- CIR on disk

def test_cir_round_trip(tmp_path):
    cfg = RayleighModelConfig(Ts=0.001, fd=10.0)
    h = rayleigh_cir(cfg, 0.05, 1000.0, seed=9)
    path = tmp_path / "chan.uwac"
    save_cir(path, h)
    back = load_cir(path)
    assert np.array_equal(back.taps, h.taps)  # taps are f32-quantized at birth
    assert back.Ts == h.Ts
    assert back.meta["model"] == "rayleigh"


def test_cir_metadata_fields(tmp_path):
    # Table-I-style provenance: shallow-water scene with 31.4 Hz coverage
    h = ChannelRealization(np.ones((1, 1), dtype=complex), 0.001,
                           {"model": "NCS", "range_m": "1080",
                            "depth_m": "20", "doppler_coverage_hz": "31.4"})
    path = tmp_path / "ncs.uwac"
    save_cir(path, h)
    back = load_cir(path)
    assert back.meta["doppler_coverage_hz"] == "31.4"
    assert back.meta["model"] == "NCS"


def test_cir_unit_tap_is_identity(tmp_path):
    path = tmp_path / "id.uwac"
    save_cir(path, identity_channel(Ts=1 / 6000.0))
    h = load_cir(path)
    w = Waveform(np.sin(np.arange(64) * 0.3), 6000.0)
    out = apply_channel(w, h, ImpairmentSpec(), seed=0)
    assert np.allclose(out.samples, w.samples, atol=1e-9)


def test_cir_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.uwac"
    bad.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(ParseError):
        load_cir(bad)
    good = tmp_path / "good.uwac"
    save_cir(good, ChannelRealization(np.ones((1, 4)), 0.001))
    cut = tmp_path / "cut.uwac"
    cut.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(ParseError) as exc:
        load_cir(cut)
    assert exc.value.offset is not None
