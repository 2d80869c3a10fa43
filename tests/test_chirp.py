import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chirpfed.chirp import (ChirpParams, ComplexityReport, Waveform,
                            dnn_op_count, downsample, generate_chirp,
                            matched_filter_detect_batch, mf_op_count,
                            symbol_templates)
from chirpfed.errors import ConfigurationError, InputError


# ---------------------------------------------------------------- parameters

def test_default_params_match_operating_point():
    p = ChirpParams()
    assert p.symbol_samples == 960
    assert p.n1 == 960
    assert ChirpParams(lam=6).n1 == 160
    assert p.mu == pytest.approx((12000 - 6000) / 0.010)
    assert p.bandwidth == 6000.0


@pytest.mark.parametrize("kwargs", [
    dict(f1=-1.0),                       # f1 <= 0
    dict(f1=12000.0, f2=6000.0),         # f1 >= f2
    dict(f2=50000.0),                    # above Nyquist
    dict(T=0.0100001),                   # T*fs not integer
    dict(lam=7),                         # does not divide 960
    dict(lam=0),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        ChirpParams(**kwargs)


def test_waveform_validation():
    with pytest.raises(InputError):
        Waveform(np.array([]), 1000.0)
    with pytest.raises(InputError):
        Waveform(np.array([1.0, np.nan]), 1000.0)
    with pytest.raises(InputError):
        Waveform(np.ones((2, 2)), 1000.0)


# ------------------------------------------------------------ chirp symbols

def test_first_sample_is_one_at_zero_phase():
    p = ChirpParams()
    assert generate_chirp(p, "up").samples[0] == pytest.approx(1.0)
    assert generate_chirp(p, "down").samples[0] == pytest.approx(1.0)


def test_up_chirp_ends_near_f2():
    # spectral peak of the final quarter of an up-chirp sits near f2
    p = ChirpParams()
    s = generate_chirp(p, "up").samples
    tail = s[-len(s) // 4:]
    spec = np.abs(np.fft.rfft(tail * np.hanning(tail.size), n=1 << 14))
    f_peak = np.argmax(spec) * p.fs / (1 << 14)
    # the final quarter sweeps 10.5 -> 12 kHz; peak must fall in that band
    assert 10500.0 <= f_peak <= 12000.0


def test_down_chirp_ends_near_f1():
    p = ChirpParams()
    s = generate_chirp(p, "down").samples
    tail = s[-len(s) // 4:]
    spec = np.abs(np.fft.rfft(tail * np.hanning(tail.size), n=1 << 14))
    f_peak = np.argmax(spec) * p.fs / (1 << 14)
    assert 6000.0 <= f_peak <= 7500.0


def test_templates_nearly_orthogonal():
    s1, s2 = symbol_templates(ChirpParams())
    rho = abs(np.dot(s1, s2)) / (np.linalg.norm(s1) * np.linalg.norm(s2))
    assert rho < 0.1


def test_energy_symmetry_default():
    s1, s2 = symbol_templates(ChirpParams())
    e1, e2 = np.sum(s1 ** 2), np.sum(s2 ** 2)
    assert abs(e1 - e2) / e1 < 1e-3


@settings(max_examples=25, deadline=None)
@given(n=st.integers(800, 4000), lo=st.floats(0.05, 0.2), width=st.floats(0.05, 0.2))
@example(n=800, lo=0.05859375, width=0.125)
def test_energy_symmetry_property(n, lo, width):
    # Random valid band (fractions of fs).  The energy of s = cos(phi) is
    # n/2 + (1/2) sum_k cos(2 phi_k), so |e1 - e2| / e1 is about
    # |S_up - S_down| / n with S = sum_k exp(2i phi_k).  The phase step of
    # 2 phi is delta = 4 pi f / fs, which stays away from 0 and 2 pi inside
    # the band, so S has no stationary point.  Summation by parts writes
    # each term as a difference of half-step neighbours over
    # 2i sin(delta / 2); the sum telescopes to one edge term per end, of
    # size at most 1 / (2 |sin(2 pi f / fs)|) at the end where the
    # frequency is f, plus a remainder of the order of the sweep rate.  Both
    # chirps start or end at f1 and f2, so |S_up - S_down| stays below
    # 1 / |sin(2 pi f1 / fs)| + 1 / |sin(2 pi f2 / fs)|.  The example is the
    # draw that broke the former fixed 1e-3 tolerance (1.35e-3 there).
    fs = 48000.0
    p = ChirpParams(f1=lo * fs, f2=(lo + width) * fs, T=n / fs, fs=fs)
    s1, s2 = symbol_templates(p)
    e1, e2 = np.sum(s1 ** 2), np.sum(s2 ** 2)
    bound = (1 / abs(np.sin(2 * np.pi * lo)) + 1 / abs(np.sin(2 * np.pi * (lo + width)))) / n
    assert abs(e1 - e2) / e1 < bound


def test_bad_direction_rejected():
    with pytest.raises(ConfigurationError):
        generate_chirp(ChirpParams(), "sideways")


# --------------------------------------------------------------- downsample

def test_downsample_identity():
    w = generate_chirp(ChirpParams(), "up")
    out = downsample(w, 1)
    assert np.array_equal(out.samples, w.samples)
    assert out.fs == w.fs


def test_downsample_960_by_6():
    w = generate_chirp(ChirpParams(), "up")
    assert len(downsample(w, 6)) == 160


def test_downsample_stride_semantics():
    w = Waveform(np.array([1.0, 2.0, 3.0, 4.0]), 4.0)
    out = downsample(w, 2)
    assert np.array_equal(out.samples, [1.0, 3.0])
    assert out.fs == 2.0


def test_downsample_requires_divisor():
    w = Waveform(np.arange(10, dtype=float) + 1, 10.0)
    with pytest.raises(ConfigurationError):
        downsample(w, 3)


@pytest.mark.parametrize("lam", [0, -2, 2.0])
def test_downsample_requires_a_positive_integer_stride(lam):
    w = Waveform(np.arange(10, dtype=float) + 1, 10.0)
    with pytest.raises(ConfigurationError, match="must be a positive integer"):
        downsample(w, lam)


@settings(max_examples=20, deadline=None)
@given(a=st.sampled_from([2, 3, 4]), b=st.sampled_from([2, 3, 5]))
def test_downsample_composes(a, b):
    w = Waveform(np.arange(360, dtype=float) + 1, 360.0)
    once = downsample(w, a * b)
    twice = downsample(downsample(w, a), b)
    assert np.array_equal(once.samples, twice.samples)


# ------------------------------------------------------------ matched filter

def mf_bit(rx, p):
    """The batch detector's decision for one received symbol."""
    return int(matched_filter_detect_batch(rx[None, :], p)[0])


def test_clean_symbols_detected():
    p = ChirpParams()
    s1, s2 = symbol_templates(p)
    up, down = generate_chirp(p, "up").samples, generate_chirp(p, "down").samples
    assert mf_bit(up, p) == 0 and up @ s1 > up @ s2
    assert mf_bit(down, p) == 1 and down @ s2 > down @ s1


def test_cached_chirps_are_shared_and_read_only():
    p = ChirpParams(lam=6)
    up, down = generate_chirp(p, "up"), generate_chirp(p, "down")
    assert generate_chirp(ChirpParams(lam=6), "up") is up
    s1, s2 = symbol_templates(p)
    assert np.array_equal(s1, downsample(up, 6).samples)
    assert np.array_equal(s2, downsample(down, 6).samples)
    for a in (up.samples, down.samples, s1, s2):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert generate_chirp(p, "up").samples[0] == 1.0


def test_detect_length_mismatch():
    p = ChirpParams(lam=6)
    with pytest.raises(InputError):
        mf_bit(generate_chirp(p, "up").samples, p)  # not downsampled


def test_detect_batch_matches_scalar():
    p = ChirpParams(lam=6)
    rng = np.random.default_rng(0)
    s1, s2 = symbol_templates(p)
    rx = np.stack([s1 + rng.standard_normal(160) * 5,
                   s2 + rng.standard_normal(160) * 5])
    batch = matched_filter_detect_batch(rx, p)
    for row, want in zip(rx, batch):
        # argmax of correlation, ties breaking to bit 0
        assert want == (0 if np.dot(row, s1) >= np.dot(row, s2) else 1)


def test_detection_symmetry_under_shared_noise():
    # transmitting the opposite symbol against the negated noise flips the
    # decision whenever the margin clears the tiny template-energy mismatch
    p = ChirpParams()
    s1, s2 = symbol_templates(p)
    rng = np.random.default_rng(1)
    mismatch = abs(np.sum(s1 ** 2) - np.sum(s2 ** 2))
    checked = 0
    for _ in range(50):
        n = rng.standard_normal(s1.size) * 3.0
        a, b = s1 + n, s2 - n
        if min(abs(a @ s1 - a @ s2), abs(b @ s1 - b @ s2)) > mismatch:
            assert mf_bit(b, p) == 1 - mf_bit(a, p)
            checked += 1
    assert checked > 30


def test_ber_monotone_and_downsampling_degradation():
    from chirpfed.data import ber_monte_carlo
    p1 = ChirpParams(lam=1)
    p6 = ChirpParams(lam=6)
    trials = 20000
    bers = [ber_monte_carlo(p1, ["mf"], snr, 0.0, 0.0, trials, seed=3)[0]
            for snr in (3.0, 6.0, 9.0)]
    slack = 3 * np.sqrt(0.05 / trials)  # binomial wiggle room
    assert bers[0] + slack >= bers[1] >= bers[2] - slack
    (ber6,) = ber_monte_carlo(p6, ["mf"], 6.0, 0.0, 0.0, trials, seed=3)
    assert ber6 >= bers[1] - slack


# -------------------------------------------------------------- op counting

def test_mf_op_count_values():
    rep = mf_op_count(960)
    assert rep.additions == 1919
    assert rep.multiplications == 2 * 960 ** 2 - 2 * 960
    assert rep.nonlinear_activations == 0
    assert rep.total == rep.additions + rep.multiplications
    assert mf_op_count(160).additions == 319
    tiny = mf_op_count(1)
    assert tiny.additions == 1 and tiny.multiplications == 0


def test_dnn_op_count_values():
    rep = dnn_op_count(160)
    assert rep.additions == 160 + 140 + 1 == 301
    assert rep.nonlinear_activations == 301
    assert rep.multiplications == 160 * 160 + 160 * 140 + 140 * 1 == 48140


@pytest.mark.parametrize("count", [mf_op_count, dnn_op_count])
def test_op_counts_need_an_input_sample(count):
    with pytest.raises(ConfigurationError):
        count(0)


def test_op_counts_deterministic():
    assert mf_op_count(123) == mf_op_count(123)
    assert dnn_op_count(64) == dnn_op_count(64)


def test_complexity_report_total_invariant():
    rep = ComplexityReport(2, 3, 4)
    assert rep.total == 9


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 2000))
def test_mf_count_formulas(n1):
    rep = mf_op_count(n1)
    assert rep.additions == 2 * n1 - 1
    assert rep.multiplications == 2 * n1 * n1 - 2 * n1
    assert rep.total == rep.additions + rep.multiplications
