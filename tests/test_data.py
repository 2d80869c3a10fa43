import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from chirpfed.channel import (CHANNEL_BLOCK_ROWS, RayleighModelConfig, rayleigh_cir,
                              tap_mean_powers)
from chirpfed.chirp import ChirpParams, generate_chirp, downsample, \
    matched_filter_detect_batch
from chirpfed import channel, data
from chirpfed.data import (BLOCK_ROWS, MAX_DATASET_SAMPLES, NOISE_CHUNK, DatasetSpec,
                           _clean_received_symbol,
                           ber_monte_carlo, build_node_dataset, load_dataset,
                           noise_stream_key, save_dataset)
from chirpfed.errors import ConfigurationError, InputError, ParseError
from chirpfed.receiver import LabeledBatch, ber_eval, default_hidden, \
    detect_batch, init_params, train


def small_spec(**kw):
    base = dict(n_symbols=50, split=0.8, chirp=ChirpParams(lam=6), seed=0)
    base.update(kw)
    return DatasetSpec(**base)


# ------------------------------------------------------------------- config

def test_spec_defaults():
    spec = DatasetSpec()
    assert spec.n_train == 1000
    assert spec.n_symbols - spec.n_train == 250


@pytest.mark.parametrize("kwargs", [
    dict(n_symbols=1),
    dict(snr_db_range=(10.0, 5.0)),
    dict(sto_range=(3.0, 1.0)),
    dict(snr_db_range=(np.nan, np.nan)),
    dict(snr_db_range=(6.0, np.inf)),
    dict(snr_db_range=(-np.inf, np.inf)),
    dict(sto_range=(0.0, np.inf)),
    dict(speed_range=(np.nan, 1.0)),
    dict(split=0.0),
    dict(split=1.0),
    dict(split=np.nan),
    dict(n_symbols=2, split=0.1),  # no train part
    dict(n_symbols=2, split=0.9),  # no test part
    dict(snr_db_range=(-np.inf, -np.inf)),
    dict(channel_tag="bellhop"),
    dict(snr_db_range=(1e300, 1e300)),  # beyond the float32 metadata
    dict(snr_db_range=(-1e39, 0.0)),
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        small_spec(**kwargs)


def test_spec_sample_cap():
    # lam=6: 160 samples per record
    n = MAX_DATASET_SAMPLES // 160
    assert small_spec(n_symbols=n).n_symbols == n
    with pytest.raises(ConfigurationError):
        small_spec(n_symbols=n + 1)


def test_noise_free_snr_point_stays_valid():
    assert small_spec(snr_db_range=(np.inf, np.inf)).snr_db_range == (np.inf, np.inf)


def test_snr_at_the_float32_limit_stays_valid():
    f32_max = float(np.finfo(np.float32).max)
    assert small_spec(snr_db_range=(-f32_max, f32_max)).snr_db_range == (-f32_max, f32_max)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_samples_past_the_float32_range_name_their_record():
    # at -800 dB the noise is about 1e40 times the chirp: finite in float64,
    # past the float32 range of the stored samples
    with pytest.raises(ConfigurationError, match="record 0: sample outside"):
        build_node_dataset(small_spec(n_symbols=4, snr_db_range=(-800.0, -800.0)))
    with pytest.raises(ConfigurationError, match="record 0: snr_db"):
        build_node_dataset(small_spec(n_symbols=4, snr_db_range=(-4000.0, -4000.0)))


def test_rayleigh_tag_autofills_config():
    spec = small_spec(channel_tag="rayleigh")
    assert spec.rayleigh is not None
    assert spec.rayleigh.fd == 5.0


# ----------------------------------------------------------------- building

def test_clean_records_are_mf_separable():
    spec = small_spec(n_symbols=40)
    train, test = build_node_dataset(spec)
    for part in (train, test):
        dec = matched_filter_detect_batch(part.batch.inputs, spec.chirp)
        assert np.array_equal(dec, part.batch.labels)  # BER 0 on clean data


def test_label_marginal_near_half():
    spec = small_spec(n_symbols=10000)
    train, test = build_node_dataset(spec)
    labels = np.concatenate([train.batch.labels, test.batch.labels])
    assert abs(labels.mean() - 0.5) < 0.02


def test_determinism_and_seed_sensitivity():
    a_train, a_test = build_node_dataset(small_spec(seed=1))
    b_train, b_test = build_node_dataset(small_spec(seed=1))
    c_train, _ = build_node_dataset(small_spec(seed=2))
    assert np.array_equal(a_train.batch.inputs, b_train.batch.inputs)
    assert np.array_equal(a_test.batch.inputs, b_test.batch.inputs)
    assert not np.array_equal(a_train.batch.inputs, c_train.batch.inputs)


def test_split_disjoint_by_content_hash():
    spec = small_spec(n_symbols=60, snr_db_range=(5.0, 15.0))
    train, test = build_node_dataset(spec)
    def hashes(part):
        return {hashlib.sha256(row.tobytes()).hexdigest()
                for row in part.batch.inputs}
    assert not (hashes(train) & hashes(test))
    assert len(train) == 48 and len(test) == 12


def test_metadata_snr_matches_measurement():
    # identity channel, fixed snr, no other impairments: subtracting the
    # known clean symbol isolates the noise
    spec = DatasetSpec(n_symbols=30, split=0.5, chirp=ChirpParams(lam=1),
                       snr_db_range=(10.0, 10.0), seed=3)
    train, test = build_node_dataset(spec)
    clean = {0: generate_chirp(spec.chirp, "up").samples,
             1: generate_chirp(spec.chirp, "down").samples}
    for part in (train, test):
        for row, label, snr_db in zip(part.batch.inputs, part.batch.labels,
                                      part.snr_db):
            noise = row - clean[int(label)]
            measured = 10 * np.log10(np.mean(clean[int(label)] ** 2)
                                     / np.mean(noise ** 2))
            assert abs(measured - snr_db) < 0.5


def test_impairment_draws_recorded():
    spec = small_spec(n_symbols=40, sto_range=(10.0, 20.0),
                      speed_range=(1.0, 3.0), snr_db_range=(0.0, 6.0))
    train, _ = build_node_dataset(spec)
    assert np.all((train.sto_samples >= 10.0) & (train.sto_samples <= 20.0))
    assert np.all((train.rel_speed >= 1.0) & (train.rel_speed <= 3.0))
    assert np.all((train.snr_db >= 0.0) & (train.snr_db <= 6.0))


def test_rayleigh_records_differ_from_identity():
    ident, _ = build_node_dataset(small_spec(n_symbols=10))
    fady, _ = build_node_dataset(small_spec(n_symbols=10, channel_tag="rayleigh"))
    assert not np.allclose(ident.batch.inputs, fady.batch.inputs)
    assert fady.tag_table[fady.channel_tag[0]] == "rayleigh"


def rayleigh_layout(spec):
    """(cfg, step, amplitudes) of the CIRs that spec's rayleigh rows draw."""
    return channel._rayleigh_layout(spec.rayleigh, spec.chirp.symbol_samples, spec.chirp.fs)


def rayleigh_row(spec, bit, cir_seed, h=None):
    """The noiseless, unimpaired row of bit through spec's rayleigh CIR of
    cir_seed, or through the CIR h."""
    x = data._chirps(spec.chirp)
    return channel.apply_channel_rows(x, [bit], spec.rayleigh if h is None else h,
                                      [np.inf], [0.0], [0.0], [0], lam=spec.chirp.lam,
                                      cir_seeds=[cir_seed])[0]


def test_dataset_rayleigh_taps_follow_the_tap_law():
    # one CN(0, p_k) gain per tap and symbol: per-delay mean power against
    # tap_mean_powers, Gaussian real and imaginary parts, and no correlation
    # between them, over 2000 symbols' draws
    from scipy import stats
    spec = small_spec(channel_tag="rayleigh")
    cfg, _, amplitudes = rayleigh_layout(spec)
    g = channel._static_gains(amplitudes, range(2000))
    p = tap_mean_powers(cfg)[:g.shape[1]]
    power = np.mean(np.abs(g) ** 2, axis=0) / p
    assert np.max(np.abs(power - 1.0)) < 0.12  # 5.4 sigma per delay
    assert abs(power.mean() - 1.0) < 0.015
    z = g / np.sqrt(p / 2)
    for part in (z.real, z.imag):
        assert stats.kstest(part.ravel(), "norm").pvalue > 1e-3
    assert abs(np.mean(z.real * z.imag)) < 0.02


def test_dataset_rayleigh_taps_are_static_and_stop_at_the_symbol():
    # fd = 5 Hz is below the 100 Hz bins of a 10 ms symbol: one gain per tap,
    # and only the 60 taps of delay k * 16 < 960 samples
    spec = small_spec(channel_tag="rayleigh")
    cfg, step, amplitudes = rayleigh_layout(spec)
    g = channel._static_gains(amplitudes, [3])
    assert amplitudes is not None and g.shape == (1, 60)
    assert np.array_equal(g.astype(np.complex64), g)
    # a row takes them as apply_channel takes one static CIR of these gains
    h = channel.ChannelRealization(g.T, cfg.Ts)
    assert step == 16 and cfg.Ts == 16 / spec.chirp.fs
    assert rayleigh_row(spec, 1, 3).tobytes() == rayleigh_row(spec, 1, None, h).tobytes()


def test_one_tap_rayleigh_row_is_apply_channel():
    # a delay spread below one tap spacing leaves one static gain, which the
    # batched FFT product takes as it takes more taps
    spec = small_spec(channel_tag="rayleigh", rayleigh=RayleighModelConfig(
        max_excess_delay=1e-4, Ts=1.0 / 6000.0, fd=5.0))
    cfg, _, amplitudes = rayleigh_layout(spec)
    assert len(amplitudes) == 1
    h = channel.ChannelRealization(channel._static_gains(amplitudes, [9]).T, cfg.Ts)
    for bit in (0, 1):
        assert rayleigh_row(spec, bit, 9).tobytes() == rayleigh_row(spec, bit, None, h).tobytes()


@pytest.mark.parametrize("fd", [100.0, 250.0])
def test_fast_fading_rayleigh_symbol_is_rayleigh_cir(fd, monkeypatch):
    # from the first FFT bin of the symbol, 1/T = 100 Hz, up, the taps vary
    # within the symbol and come from rayleigh_cir unchanged
    spec = small_spec(channel_tag="rayleigh", rayleigh=RayleighModelConfig(
        Ts=1.0 / 6000.0, fd=fd))
    drawn = []
    monkeypatch.setattr(channel, "rayleigh_cir",
                        lambda *args: drawn.append(rayleigh_cir(*args)) or drawn[-1])
    row = rayleigh_row(spec, 0, 5)
    h, = drawn
    ref = rayleigh_cir(RayleighModelConfig(Ts=16 / spec.chirp.fs, fd=fd),
                       spec.chirp.T, spec.chirp.fs, seed=5)
    assert h.Ts == ref.Ts and h.taps.tobytes() == ref.taps.tobytes()
    assert h.n_time == 960 and np.any(h.taps[:, 1:] != h.taps[:, :1])
    assert rayleigh_layout(spec)[2] is None
    assert row.tobytes() == rayleigh_row(spec, 0, None, ref).tobytes()


# ------------------------------------------------------------- domain shift

def test_domain_shift_degrades_trained_receiver():
    # train on one STO band, evaluate on a disjoint band: accuracy must drop
    cp = ChirpParams(lam=12)
    src = DatasetSpec(n_symbols=400, split=0.75, chirp=cp,
                      snr_db_range=(-8.0, -8.0), sto_range=(0.0, 40.0), seed=11)
    tgt = replace(src, sto_range=(200.0, 240.0))
    s_train, s_test = build_node_dataset(src)
    t_train, t_test = build_node_dataset(tgt)
    scale = 1.0 / np.std(s_train.batch.inputs)
    n1 = cp.n1
    h1, h2 = default_hidden(n1)
    p = init_params([n1, h1, h2, 1], np.random.default_rng(12))
    p = train(p, LabeledBatch(s_train.batch.inputs * scale,
                              s_train.batch.labels),
              epochs=8, lr=1e-3, batch_size=32, rng=np.random.default_rng(13))
    ber_src = ber_eval(p, LabeledBatch(s_test.batch.inputs * scale,
                                       s_test.batch.labels))
    ber_tgt = ber_eval(p, LabeledBatch(t_test.batch.inputs * scale,
                                       t_test.batch.labels))
    assert ber_tgt > ber_src


# ---------------------------------------------------------------- container

def test_dataset_round_trip(tmp_path):
    spec = small_spec(n_symbols=30, snr_db_range=(3.0, 9.0),
                      sto_range=(0.0, 12.0), speed_range=(0.0, 2.0), seed=5)
    train, test = build_node_dataset(spec)
    path = tmp_path / "node.uwds"
    save_dataset(path, train, test, spec)
    r_train, r_test, r_spec = load_dataset(path)
    assert r_spec == spec
    for orig, back in ((train, r_train), (test, r_test)):
        assert np.array_equal(orig.batch.inputs, back.batch.inputs)
        assert np.array_equal(orig.batch.labels, back.batch.labels)
        assert np.array_equal(orig.snr_db, back.snr_db)
        assert np.array_equal(orig.sto_samples, back.sto_samples)
        assert np.array_equal(orig.rel_speed, back.rel_speed)
        assert np.array_equal(orig.channel_tag, back.channel_tag)
        assert orig.tag_table == back.tag_table


def test_dataset_round_trip_with_infinite_snr(tmp_path):
    spec = small_spec(n_symbols=10)
    train, test = build_node_dataset(spec)
    path = tmp_path / "clean.uwds"
    save_dataset(path, train, test, spec)
    _, _, back = load_dataset(path)
    assert back.snr_db_range == (np.inf, np.inf)


def test_dataset_parse_errors(tmp_path):
    bad = tmp_path / "bad.uwds"
    bad.write_bytes(b"WHAT" + bytes(40))
    with pytest.raises(ParseError) as exc:
        load_dataset(bad)
    assert "magic" in str(exc.value)
    spec = small_spec(n_symbols=10)
    train, test = build_node_dataset(spec)
    good = tmp_path / "good.uwds"
    save_dataset(good, train, test, spec)
    cut = tmp_path / "cut.uwds"
    cut.write_bytes(good.read_bytes()[:100])
    with pytest.raises(ParseError):
        load_dataset(cut)


def test_save_dataset_rejects_lam_mismatch(tmp_path):
    spec = small_spec(n_symbols=10)  # lam = 6: 160-sample records
    train, test = build_node_dataset(spec)
    path = tmp_path / "node.uwds"
    with pytest.raises(ConfigurationError):
        save_dataset(path, train, test, small_spec(n_symbols=10, chirp=ChirpParams(lam=12)))
    assert not path.exists()


def test_save_dataset_rejects_bad_tags_and_labels(tmp_path):
    spec = small_spec(n_symbols=10)
    train, test = build_node_dataset(spec)
    # a label past 1 gets past LabeledBatch only when changed in place
    bad_label = replace(train, batch=LabeledBatch(train.batch.inputs,
                                                  train.batch.labels.copy()))
    bad_label.batch.labels[0] = 2.0
    too_big = LabeledBatch(train.batch.inputs.astype(np.float64) * 1e40, train.batch.labels)
    path = tmp_path / "node.uwds"
    for bad_train, bad_test, match in (
            (train, replace(test, channel_tag=np.full(len(test), 2)), "tag"),
            (train, replace(test, channel_tag=np.full(len(test), -1)), "tag"),
            (train, replace(test, tag_table=("rayleigh", "identity")), "tag"),
            (bad_label, test, "label"),
            (replace(train, batch=too_big), test, "float32")):
        with pytest.raises(ConfigurationError, match=match):
            save_dataset(path, bad_train, bad_test, spec)
        assert not path.exists()


# sha256 over the records of build_node_dataset (25 symbols, lam = 6, seed 7)
# under the three impairment profiles of the synthesis benchmark.  The sto
# digest was computed with the full-rate interpolation that the decimating
# channel replaced.  The doppler and rayleigh digests were recorded when a
# Doppler-scaled fractional shift came to be one interpolation per kept
# sample instead of two (and a static CIR one FFT product); the rayleigh
# draws are the block-fading ones, one CN(0, p_k) gain per tap.  The samples
# and labels are hashed widened to float64, as build_node_dataset returned
# them before it came to keep them in float32
GOLDEN_PROFILES = {
    "sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0)),
            "877f86bd94ae02d034c0f0e6494031b12e24cbc73c057c56f156bb8b9d179eb4"),
    "doppler": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                     speed_range=(0.0, 10.0)),
                "91911e3770417faef6f8aa54538844efe953136de8edbacf4f939d050cd9fbcb"),
    "rayleigh": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                      speed_range=(0.0, 10.0), channel_tag="rayleigh"),
                 "f31e1d21da86bcefa89a2c34fe77480dbc872c172ec0de99a32a784d0ba2bde4"),
}


@pytest.mark.parametrize("profile", sorted(GOLDEN_PROFILES))
def test_node_dataset_golden_digest(profile):
    ranges, digest = GOLDEN_PROFILES[profile]
    spec = DatasetSpec(n_symbols=25, chirp=ChirpParams(lam=6), seed=7, **ranges)
    h = hashlib.sha256()
    for s in build_node_dataset(spec):
        assert s.batch.inputs.dtype == s.batch.labels.dtype == np.float32
        for a in (s.batch.inputs.astype(np.float64), s.batch.labels.astype(np.float64),
                  s.snr_db, s.sto_samples, s.rel_speed, s.channel_tag):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


# sha256 over the float32 records of build_node_dataset (seed 7; 25 symbols
# and lam = 6 unless given) on the synthesis paths that GOLDEN_PROFILES
# misses: taps that vary within the symbol, lam = 1 and 2, an integer and a
# negative STO, Doppler without STO, no noise, and 129 symbols, two blocks
# of 64 rows and one more.  Recorded from the per-symbol builder
_IMPAIRED = dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0), speed_range=(0.0, 10.0))
GOLDEN_EDGE_CASES = {
    "fast_fading": (dict(_IMPAIRED, channel_tag="rayleigh",
                         rayleigh=RayleighModelConfig(Ts=1.0 / 6000.0, fd=100.0)),
                    "75015118bbd31ae83594b7fcf2d337b1b3cea88eaf7756723b5d4b1e99750f5d"),
    "lam1": (dict(_IMPAIRED, lam=1),
             "ff1400398ff0eb9a8fd2dcf02e0902a066eab5af9fab7668c061595d0fa04ea4"),
    "lam2": (dict(_IMPAIRED, lam=2, channel_tag="rayleigh"),
             "ac54a27371cc61be8f214b72e75a9c211499cc60e8118b4eba123637f6b44d1e"),
    "integer_sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(5.0, 5.0)),
                    "0707ac6d898c2e4ae5121b67364c2f1289c935977c4515f5ddfadcfb10ac10c9"),
    "negative_sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(-40.0, -10.0)),
                     "a0891e9be12242c821d6a322a000fd6231ccd8b721f880ae8ea7830f7c7abf73"),
    "negative_sto_speed": (dict(_IMPAIRED, sto_range=(-40.0, -10.0)),
                           "56591614d867f192cfd5c9ddaf1d54c29af02035dd3bb87a649a1e706217fa77"),
    "speed_only": (dict(snr_db_range=(6.0, 12.0), speed_range=(0.0, 10.0)),
                   "bbf83ff3b639f7ca78e122983a3f83ed0172fe8ac822d2ea6ebc57cddfd048d7"),
    "noiseless": (dict(_IMPAIRED, snr_db_range=(np.inf, np.inf)),
                  "87a034329fc96638f306bb62bc0e454b7208b9737bfe8cd82b43af9ad4bfd5c1"),
    "two_blocks_plus_one": (dict(_IMPAIRED, channel_tag="rayleigh", n_symbols=129),
                            "7d9716564e6794e171169f6310d1da5bfcff0405b30c5455aaa2d07f416e133a"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EDGE_CASES))
def test_node_dataset_golden_digest_on_edge_cases(case):
    kwargs, digest = GOLDEN_EDGE_CASES[case]
    kwargs = dict(kwargs)
    lam, n = kwargs.pop("lam", 6), kwargs.pop("n_symbols", 25)
    assert case != "two_blocks_plus_one" or n == 2 * CHANNEL_BLOCK_ROWS + 1
    spec = DatasetSpec(n_symbols=n, chirp=ChirpParams(lam=lam), seed=7, **kwargs)
    h = hashlib.sha256()
    for s in build_node_dataset(spec):
        for a in (s.batch.inputs, s.batch.labels, s.snr_db, s.sto_samples,
                  s.rel_speed, s.channel_tag):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


# The first bad record of 200 sits in the second block of 64 rows.  The
# messages are those of the per-symbol builder: a record's own check fails
# first, and a sample past the float32 range (record 45 of the last case)
# is reported only when no record fails its own checks
BAD_SECOND_BLOCK = [
    (dict(speed_range=(0.0, 160.0)), 107, ConfigurationError,
     "record 70: |alpha_dop|=0.10343158482343752 outside physical regime"),
    (dict(sto_range=(0.0, 1000.0)), 5, InputError,
     "record 89: |delta|=991.1184775799254 exceeds waveform length 960"),
    (dict(snr_db_range=(-3100.0, 12.0)), 6, ConfigurationError,
     "record 91: snr_db=-3094.945455824228 gives no finite noise level"),
    (dict(snr_db_range=(-800.0, 12.0)), 30, ConfigurationError,
     "record 73: sample outside the float32 range"),
    (dict(snr_db_range=(-800.0, 12.0), speed_range=(0.0, 152.0)), 5, ConfigurationError,
     "record 89: |alpha_dop|=0.10043333906143245 outside physical regime"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ranges, seed, error, message", BAD_SECOND_BLOCK)
def test_the_first_bad_record_in_a_later_block_is_named(ranges, seed, error, message):
    spec = small_spec(**{"n_symbols": 200, "seed": seed, "snr_db_range": (6.0, 12.0),
                         **ranges})
    with pytest.raises(error) as exc:
        build_node_dataset(spec)
    assert type(exc.value) is error and str(exc.value) == message


# A fast-fading CIR past MAX_CIR_ENTRIES fails in the first record's draw,
# after that record's own checks, with the per-symbol builder's messages
@pytest.mark.parametrize("ranges, message", [
    ({}, "6001 taps x 960 time steps exceed 2097152 entries"),
    (dict(speed_range=(2000.0, 2000.0)), "record 0: |rel_speed| must stay below 1500.0 m/s"),
])
def test_an_oversized_fast_fading_cir_fails_as_before(ranges, message):
    cfg = RayleighModelConfig(max_excess_delay=1.0, fd=200.0, Ts=1.0 / 6000.0)
    spec = small_spec(channel_tag="rayleigh", rayleigh=cfg, **ranges)
    with pytest.raises(ConfigurationError) as exc:
        build_node_dataset(spec)
    assert type(exc.value) is ConfigurationError and str(exc.value) == message


def test_a_numpy_memory_error_reaches_the_caller_unchanged(monkeypatch):
    # numpy's MemoryError takes (shape, dtype), not a message, so it cannot
    # be rebuilt with a record prefix; only the package's own errors are
    from numpy._core._exceptions import _ArrayMemoryError

    def fail(frac):
        raise _ArrayMemoryError((2 ** 40, 64), np.dtype(np.float64))

    monkeypatch.setattr(channel, "_kernel", fail)
    with pytest.raises(MemoryError) as exc:
        build_node_dataset(small_spec(n_symbols=4, sto_range=(0.5, 0.5)))
    assert type(exc.value) is _ArrayMemoryError


# ------------------------------------------------------------ ber_monte_carlo

@pytest.fixture(scope="module")
def untrained_receiver():
    n1 = ChirpParams(lam=6).n1
    h1, h2 = default_hidden(n1)
    return init_params([n1, h1, h2, 1], np.random.default_rng(0))


def test_ber_monte_carlo_detectors_share_bits_and_noise(untrained_receiver):
    # one full chunk and one partial one; every detector scores the same draws,
    # so its BER does not depend on the detectors beside it or their order
    p6 = ChirpParams(lam=6)
    trials = NOISE_CHUNK + 5000

    def bers(detectors):
        return ber_monte_carlo(p6, detectors, 3.0, 0.0, 0.0, trials, seed=7,
                               checkpoint_params=untrained_receiver)

    mf, dnn = bers(["mf", "dnn"])
    assert bers(("dnn", "mf")) == [dnn, mf]
    assert bers(["mf"]) == [mf] and bers(["dnn"]) == [dnn]
    assert mf != dnn


@pytest.mark.parametrize("detectors", [[], "mf", ["mf", "zf"], ["dnn"]])
def test_ber_monte_carlo_rejects_bad_detector_lists(detectors):
    with pytest.raises(ConfigurationError):
        ber_monte_carlo(ChirpParams(lam=6), detectors, 9.0, 0.0, 0.0, 10, seed=1)


def test_ber_monte_carlo_needs_a_trial():
    with pytest.raises(ConfigurationError, match="at least one trial"):
        ber_monte_carlo(ChirpParams(lam=6), ["mf"], 9.0, 0.0, 0.0, 0, seed=1)


def test_ber_monte_carlo_builds_each_chunk_in_one_buffer():
    # tracemalloc sees numpy's allocations: a full chunk of received symbols
    # must be the only block of its size alive at once
    chunk_bytes = NOISE_CHUNK * ChirpParams(lam=1).n1 * 8
    tracemalloc.start()
    try:
        ber_monte_carlo(ChirpParams(lam=1), ["mf"], 9.0, 0, 0, NOISE_CHUNK, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * chunk_bytes, peak / chunk_bytes


def whole_chunk_bers(params, detectors, ebn0_db, sto, speed, trials, seed, theta):
    """ber_monte_carlo as one thread computed it a whole chunk at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, noise_stream_key(ebn0_db)]))
    s_clean = [_clean_received_symbol(b, params, sto, speed) for b in (0, 1)]
    eb = float(np.sum(generate_chirp(params, "up").samples ** 2))
    sigma = math.sqrt(eb / (2.0 * 10.0 ** (ebn0_db / 10.0)))
    errors = [0] * len(detectors)
    for done in range(0, trials, NOISE_CHUNK):
        bits = rng.integers(0, 2, size=min(NOISE_CHUNK, trials - done))
        z = rng.standard_normal((bits.size, params.n1)) * sigma
        rx = np.where((bits == 1)[:, None], z + s_clean[1], z + s_clean[0])
        for k, det in enumerate(detectors):
            dec = (matched_filter_detect_batch(rx, params) if det == "mf"
                   else detect_batch(theta, rx))
            errors[k] += int(np.count_nonzero(dec != bits))
    return [e / trials for e in errors]


WHOLE_CHUNK_DETECTORS = [["mf"], ["dnn"], ["mf", "dnn"]]


@pytest.mark.parametrize("detectors", WHOLE_CHUNK_DETECTORS)
def test_ber_monte_carlo_matches_the_whole_chunk_loop(untrained_receiver, detectors, serial):
    check_matches_the_whole_chunk_loop(untrained_receiver, detectors)


@pytest.mark.parametrize("detectors", WHOLE_CHUNK_DETECTORS)
def test_ber_monte_carlo_matches_the_whole_chunk_loop_with_the_helper(
        untrained_receiver, detectors, helper):
    check_matches_the_whole_chunk_loop(untrained_receiver, detectors)


def check_matches_the_whole_chunk_loop(untrained_receiver, detectors):
    # crosses a chunk and a block boundary and ends in a partial block
    trials = NOISE_CHUNK + BLOCK_ROWS + 123
    assert trials % NOISE_CHUNK % BLOCK_ROWS != 0
    args = (ChirpParams(lam=6), detectors, 4.0, 3.5, 1.5, trials, 11)
    assert ber_monte_carlo(*args, checkpoint_params=untrained_receiver) == \
        whole_chunk_bers(*args, untrained_receiver)


@pytest.mark.parametrize("detectors", [["mf", "dnn"], ["dnn", "mf"]])
@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_ber_monte_carlo_scores_the_network_in_float32(request, monkeypatch,
                                                       untrained_receiver, detectors, threads):
    # the matched filter takes each float64 block, the network the same block
    # rounded once to float32, the precision it is trained in
    request.getfixturevalue(threads)
    mf_rows, dnn_rows = [], []

    def mf(rx, params):
        mf_rows.append(rx.copy())
        return matched_filter_detect_batch(rx, params)

    def dnn(p, rx):
        dnn_rows.append(rx.copy())
        return detect_batch(p, rx)

    monkeypatch.setattr(data, "matched_filter_detect_batch", mf)
    monkeypatch.setattr(data, "detect_batch", dnn)
    trials = NOISE_CHUNK + BLOCK_ROWS + 123
    ber_monte_carlo(ChirpParams(lam=6), detectors, 4.0, 3.5, 1.5, trials, seed=11,
                    checkpoint_params=untrained_receiver)
    assert len(mf_rows) == len(dnn_rows) == 6
    assert sum(map(len, mf_rows)) == trials
    for rx, x in zip(mf_rows, dnn_rows):
        assert rx.dtype == np.float64 and x.dtype == np.float32
        assert np.array_equal(x, rx.astype(np.float32))


def mf_ber_closed_form(params, ebn0_db, sto, speed):
    """The matched filter's exact error probability on the clean impaired
    symbols r_b plus white noise of per-sample sigma.  It decides bit 1 when
    rx . d < 0, d = s1 - s2 being the difference of its templates, and rx . d
    is normal with mean r_b . d and deviation sigma |d|, so P_e is
    (Q(r_0 . d / (sigma |d|)) + Q(-r_1 . d / (sigma |d|))) / 2."""
    s1, s2 = (generate_chirp(params, d).samples[::params.lam] for d in ("up", "down"))
    d = s1 - s2
    eb = float(np.sum(generate_chirp(params, "up").samples ** 2))
    sigma = math.sqrt(eb / (2.0 * 10.0 ** (ebn0_db / 10.0)))
    r0, r1 = (_clean_received_symbol(b, params, sto, speed) for b in (0, 1))
    scale = sigma * float(np.linalg.norm(d))

    def q(x):
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    return 0.5 * (q(float(r0 @ d) / scale) + q(-float(r1 @ d) / scale))


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_mf_ber_holds_the_closed_form(request, threads):
    # each trial errs with probability P_e whichever bit it draws, so the
    # error count is binomial; 6000 trials cross a block boundary
    request.getfixturevalue(threads)
    trials = 6000
    assert trials > BLOCK_ROWS

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(lam=st.sampled_from([1, 2, 6]), ebn0_db=st.floats(-5.0, 15.0),
           sto=st.just(0.0) | st.floats(0.0, 60.0),
           speed=st.just(0.0) | st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 32))
    def check(lam, ebn0_db, sto, speed, seed):
        params = ChirpParams(lam=lam)
        (ber,) = ber_monte_carlo(params, ["mf"], ebn0_db, sto, speed, trials, seed)
        p_e = mf_ber_closed_form(params, ebn0_db, sto, speed)
        lo, hi = binom.interval(1 - 1e-6, trials, p_e)
        assert lo <= round(ber * trials) <= hi, (ber, p_e)

    check()


def test_ber_monte_carlo_holds_blocks_not_chunks(untrained_receiver):
    # two noise blocks and one block's hidden activations; the whole-chunk
    # loop held a chunk, its two hidden layers and more (2.9 chunks)
    p6 = ChirpParams(lam=6)
    chunk_bytes = NOISE_CHUNK * p6.n1 * 8
    tracemalloc.start()
    try:
        for ebn0_db in (3.0, 6.0):
            ber_monte_carlo(p6, ["mf", "dnn"], ebn0_db, 0, 0, 25000, seed=2,
                            checkpoint_params=untrained_receiver)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * chunk_bytes, peak / chunk_bytes


def test_ber_monte_carlo_joins_its_helper(untrained_receiver, monkeypatch, serial):
    check_joins_its_helper(untrained_receiver, monkeypatch)


def test_ber_monte_carlo_joins_its_helper_with_the_helper(untrained_receiver, monkeypatch,
                                                          helper):
    check_joins_its_helper(untrained_receiver, monkeypatch)


def check_joins_its_helper(untrained_receiver, monkeypatch):
    p6 = ChirpParams(lam=6)
    threads = threading.active_count()
    ber_monte_carlo(p6, ["mf", "dnn"], 6.0, 0, 0, 3 * BLOCK_ROWS, seed=3,
                    checkpoint_params=untrained_receiver)
    assert threading.active_count() == threads
    boom = RuntimeError("detector failed")
    calls = []

    def failing(p, rx):
        calls.append(len(rx))
        if len(calls) == 2:
            raise boom
        return detect_batch(p, rx)

    monkeypatch.setattr(data, "detect_batch", failing)
    with pytest.raises(RuntimeError) as info:
        ber_monte_carlo(p6, ["mf", "dnn"], 6.0, 0, 0, 3 * BLOCK_ROWS, seed=3,
                        checkpoint_params=untrained_receiver)
    assert info.value is boom and len(calls) == 2
    assert threading.active_count() == threads


def test_ber_monte_carlo_threads_do_not_interfere(untrained_receiver, monkeypatch, serial):
    check_threads_do_not_interfere(untrained_receiver, monkeypatch)


def test_ber_monte_carlo_threads_do_not_interfere_with_the_helper(
        untrained_receiver, monkeypatch, helper):
    check_threads_do_not_interfere(untrained_receiver, monkeypatch)


def check_threads_do_not_interfere(untrained_receiver, monkeypatch):
    # many tiny blocks, four sweeps at once and a thread switch every
    # microsecond: a lost hand-off or shared state would change a BER
    monkeypatch.setattr(data, "BLOCK_ROWS", 7)
    p6 = ChirpParams(lam=6)
    cases = [(["mf", "dnn"], 3.0 + k, 3000 + k) for k in range(4)]
    got = [None] * len(cases)

    def sweep(k):
        detectors, ebn0_db, trials = cases[k]
        got[k] = ber_monte_carlo(p6, detectors, ebn0_db, 0.0, 0.0, trials, seed=5,
                                 checkpoint_params=untrained_receiver)

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, (detectors, ebn0_db, trials) in enumerate(cases):
        assert got[k] == whole_chunk_bers(p6, detectors, ebn0_db, 0.0, 0.0, trials, 5,
                                          untrained_receiver)


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_prefetched_takes_the_next_item_while_the_caller_works(request, threads):
    request.getfixturevalue(threads)
    log = []

    def items():
        for k in range(4):
            log.append(("draw", k, threading.get_ident()))
            yield k

    with data._helper_pool() as pool:
        for k in data._prefetched(items(), pool):
            if pool:
                pool.submit(int).result()  # the helper has drawn k + 1
            log.append(("use", k, threading.get_ident()))
    caller = threading.get_ident()
    drawn_on = {ident for step, _, ident in log if step == "draw"}
    steps = [step[0] + str(k) for step, k, _ in log]
    if threads == "helper":
        assert caller not in drawn_on and len(drawn_on) == 1
        assert steps == ["d0", "d1", "u0", "d2", "u1", "d3", "u2", "u3"]
    else:
        assert drawn_on == {caller}
        assert steps == ["d0", "u0", "d1", "u1", "d2", "u2", "d3", "u3"]
