import hashlib
import itertools
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
from chirpfed import channel, data, receiver
from chirpfed.data import (CHUNK_ROWS, MAX_DATASET_SAMPLES, DatasetSpec,
                           _clean_received_symbol, ber_monte_carlo, build_node_dataset,
                           load_dataset, save_dataset)
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


def rayleigh_row(spec, bit, gain_seed, h=None):
    """The noiseless, unimpaired row of bit through spec's rayleigh CIR drawn
    from the gain stream default_rng(gain_seed), or through the CIR h."""
    x = data._chirps(spec.chirp)
    gain_rng = None if gain_seed is None else np.random.default_rng(gain_seed)
    return channel.apply_channel_rows(x, [bit], spec.rayleigh if h is None else h,
                                      [np.inf], [0.0], [0.0], None, lam=spec.chirp.lam,
                                      gain_rng=gain_rng)[0]


def test_dataset_rayleigh_taps_follow_the_tap_law():
    # one CN(0, p_k) gain per tap and symbol: per-delay mean power against
    # tap_mean_powers, Gaussian real and imaginary parts, and no correlation
    # between them, over 2000 symbols' draws
    from scipy import stats
    spec = small_spec(channel_tag="rayleigh")
    cfg, _, amplitudes = rayleigh_layout(spec)
    g = channel._static_gains(amplitudes, 2000, np.random.default_rng(0))
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
    g = channel._static_gains(amplitudes, 1, np.random.default_rng(3))
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
    h = channel.ChannelRealization(
        channel._static_gains(amplitudes, 1, np.random.default_rng(9)).T, cfg.Ts)
    for bit in (0, 1):
        assert rayleigh_row(spec, bit, 9).tobytes() == rayleigh_row(spec, bit, None, h).tobytes()


@pytest.mark.parametrize("fd", [100.0, 250.0])
def test_fast_fading_rayleigh_symbol_is_rayleigh_cir(fd, monkeypatch):
    # from the first FFT bin of the symbol, 1/T = 100 Hz, up, the taps vary
    # within the symbol and come from rayleigh_cir unchanged, its seed the
    # first draw of the gain stream
    spec = small_spec(channel_tag="rayleigh", rayleigh=RayleighModelConfig(
        Ts=1.0 / 6000.0, fd=fd))
    drawn = []
    monkeypatch.setattr(channel, "rayleigh_cir",
                        lambda *args: drawn.append(rayleigh_cir(*args)) or drawn[-1])
    row = rayleigh_row(spec, 0, 5)
    h, = drawn
    seed = int(np.random.default_rng(5).integers(0, 2 ** 63 - 1))
    ref = rayleigh_cir(RayleighModelConfig(Ts=16 / spec.chirp.fs, fd=fd),
                       spec.chirp.T, spec.chirp.fs, seed=seed)
    assert h.Ts == ref.Ts and h.taps.tobytes() == ref.taps.tobytes()
    assert h.n_time == 960 and np.any(h.taps[:, 1:] != h.taps[:, :1])
    assert rayleigh_layout(spec)[2] is None
    assert row.tobytes() == rayleigh_row(spec, 0, None, ref).tobytes()


def test_rayleigh_delay_line_keeps_a_long_symbol_build_small():
    # 64 static Rayleigh symbols of 9,600 samples (T = 0.1 s) in one block:
    # each waveform's delay lines are views of one zero-padded copy of its
    # analytic signal, and no temporary is wider than n
    spec = DatasetSpec(n_symbols=64, chirp=ChirpParams(T=0.1, lam=6), seed=7,
                       snr_db_range=(6.0, 12.0), channel_tag="rayleigh")
    tracemalloc.start()
    try:
        build_node_dataset(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


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


def test_save_dataset_keeps_one_copy_of_the_samples(tmp_path):
    # the packed records, plus the finiteness check's bools; concatenated
    # columns, a bytes copy of the records and the joined file held 4.1
    # times the sample bytes
    spec = small_spec(n_symbols=20000)
    n, n1 = spec.n_symbols, spec.chirp.n1
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((n, n1), dtype=np.float32)
    meta = [rng.standard_normal(n, dtype=np.float32) for _ in range(3)]
    train, test = data._split(spec.n_train, samples, rng.integers(0, 2, n).astype(np.float32),
                              *meta, np.zeros(n, np.uint16), data.CHANNEL_TAGS)
    path = tmp_path / "node.uwds"
    tracemalloc.start()
    try:
        save_dataset(path, train, test, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * samples.nbytes, peak / samples.nbytes
    back_train, back_test, _ = load_dataset(path)
    assert np.array_equal(np.concatenate([back_train.batch.inputs, back_test.batch.inputs]),
                          samples)


# sha256 over the records of build_node_dataset (25 symbols, lam = 6, seed 7)
# under the three impairment profiles of the synthesis benchmark, recorded
# when each node came to draw from one stream for its metadata, one for its
# noise and one for its gains; the rayleigh draws are the block-fading ones,
# one CN(0, p_k) gain per tap.
# The samples and labels are hashed widened to float64, as
# build_node_dataset returned them before it came to keep them in float32
GOLDEN_PROFILES = {
    "sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0)),
            "efd3d16a9f82a9647cef604fe6d1531bb5078c4a12fc47ff62dbed9790dc1e71"),
    "doppler": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                     speed_range=(0.0, 10.0)),
                "a12f6bbb58fb4b4e7a99dcf2fee750cb321a24a6dbc970113a350e07bdd66ba8"),
    "rayleigh": (dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                      speed_range=(0.0, 10.0), channel_tag="rayleigh"),
                 "02983039a61692f1657e96c2f62ebc5fbccafbcc84e28d14639d5adf0be56ff4"),
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
# of 64 rows and one more.  Recorded when each node came to draw from one
# stream for its metadata, one for its noise and one for its gains
_IMPAIRED = dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0), speed_range=(0.0, 10.0))
GOLDEN_EDGE_CASES = {
    "fast_fading": (dict(_IMPAIRED, channel_tag="rayleigh",
                         rayleigh=RayleighModelConfig(Ts=1.0 / 6000.0, fd=100.0)),
                    "bb3590a7f8ad9740dd428d3187c6e104dc685391c78c9c21654a4c61d25e9061"),
    "lam1": (dict(_IMPAIRED, lam=1),
             "24f61b7b37c707efbaaaa114497c0b8d4f2010dc404d9017315b31b38b0f264f"),
    "lam2": (dict(_IMPAIRED, lam=2, channel_tag="rayleigh"),
             "017f3125def05c41ffa0f7ccb6540a0e00e135443150b6455b06af1f7f0c4407"),
    "integer_sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(5.0, 5.0)),
                    "8e40dfe4dbed88a9c155be65c5ebdb275dee9aa2acf29f37f2c671025a3259de"),
    "negative_sto": (dict(snr_db_range=(6.0, 12.0), sto_range=(-40.0, -10.0)),
                     "5a58d46a616d5e3bd2f668159e9448327c9e81a69a99b0e4fdbbee7559d4c030"),
    "negative_sto_speed": (dict(_IMPAIRED, sto_range=(-40.0, -10.0)),
                           "c833979b139a41f25746c1ad9dc8e6d25421ff51ee3699262058c4db4001b84d"),
    "speed_only": (dict(snr_db_range=(6.0, 12.0), speed_range=(0.0, 10.0)),
                   "d824e909305b9cdcdbbcc8cd39acb824d1ed4c49ed01f31d55c91bf45dec2cf3"),
    "noiseless": (dict(_IMPAIRED, snr_db_range=(np.inf, np.inf)),
                  "7482fc03885e5b47326b3c290288e1be1cc6f24c28f563f9c46896df5c0086da"),
    "two_blocks_plus_one": (dict(_IMPAIRED, channel_tag="rayleigh", n_symbols=129),
                            "cf8f4dbc885e2911e88e6f0f867b0858702550be8dd1c6e0399057970d2b798d"),
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
# first, and a sample past the float32 range (record 25 of the last case)
# is reported only when no record fails its own checks.  The seeds were
# chosen for this when the node came to draw from one stream per node
BAD_SECOND_BLOCK = [
    (dict(speed_range=(0.0, 160.0)), 9, ConfigurationError,
     "record 71: |alpha_dop|=0.10578769798315346 outside physical regime"),
    (dict(sto_range=(0.0, 1000.0)), 6, InputError,
     "record 88: |delta|=992.824540930354 exceeds waveform length 960"),
    (dict(snr_db_range=(-3100.0, 12.0)), 3, ConfigurationError,
     "record 80: snr_db=-3098.8534949348787 gives no finite noise level"),
    (dict(snr_db_range=(-800.0, 12.0)), 0, ConfigurationError,
     "record 79: sample outside the float32 range"),
    (dict(snr_db_range=(-800.0, 12.0), speed_range=(0.0, 152.0)), 4, ConfigurationError,
     "record 102: |alpha_dop|=0.1010970403412944 outside physical regime"),
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
# after every record's own checks
@pytest.mark.parametrize("ranges, message", [
    ({}, "6001 taps x 960 time steps exceed 2097152 entries"),
    (dict(speed_range=(2000.0, 2000.0)), "record 0: |rel_speed| must stay below 1500.0 m/s"),
    (dict(speed_range=(200.0, 200.0)),
     "record 0: |alpha_dop|=0.13333333333333333 outside physical regime"),
])
def test_an_oversized_fast_fading_cir_fails_as_before(ranges, message):
    cfg = RayleighModelConfig(max_excess_delay=1.0, fd=200.0, Ts=1.0 / 6000.0)
    spec = small_spec(channel_tag="rayleigh", rayleigh=cfg, **ranges)
    with pytest.raises(ConfigurationError) as exc:
        build_node_dataset(spec)
    assert type(exc.value) is ConfigurationError and str(exc.value) == message


def test_no_record_after_the_first_bad_one_is_built(monkeypatch):
    # record 74 is the first out of the Doppler range; its own checks run
    # before any record is built, so only records 0..73 draw a CIR
    spec = small_spec(n_symbols=200, seed=0, snr_db_range=(6.0, 12.0),
                      speed_range=(0.0, 152.0), channel_tag="rayleigh",
                      rayleigh=RayleighModelConfig(Ts=1.0 / 6000.0, fd=100.0))
    drawn = []
    monkeypatch.setattr(channel, "rayleigh_cir",
                        lambda *args: drawn.append(args) or rayleigh_cir(*args))
    with pytest.raises(ConfigurationError, match="^record 74: [|]alpha_dop[|]="):
        build_node_dataset(spec)
    assert len(drawn) == 74


def fast_fading_spec(**kw):
    return small_spec(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                      speed_range=(0.0, 10.0), channel_tag="rayleigh",
                      rayleigh=RayleighModelConfig(Ts=1.0 / 6000.0, fd=100.0), **kw)


def records(parts):
    """The float32 samples of (train, test), in record order."""
    return np.concatenate([part.batch.inputs for part in parts])


def test_a_fast_fading_node_draws_its_cir_seeds_from_its_gain_stream(monkeypatch):
    # one rayleigh_cir a built record, over two blocks and part of a third,
    # its seeds the gain stream's draws in record order; the node's noise
    # and gain streams are the two that its own stream spawns
    spec = fast_fading_spec(n_symbols=2 * CHANNEL_BLOCK_ROWS + 3, seed=5)
    drawn = []
    monkeypatch.setattr(channel, "rayleigh_cir",
                        lambda *args: drawn.append(args[3]) or rayleigh_cir(*args))
    first = records(build_node_dataset(spec))
    seeds, drawn = drawn, []
    assert records(build_node_dataset(spec)).tobytes() == first.tobytes()
    assert drawn == seeds and len(seeds) == spec.n_symbols
    node = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    node.integers(0, 2, spec.n_symbols)
    node.uniform(size=(3, spec.n_symbols))  # the SNRs, STOs and speeds
    _, gain_rng = node.spawn(2)
    assert seeds == gain_rng.integers(0, 2 ** 63 - 1, size=spec.n_symbols).tolist()


@pytest.mark.parametrize("block_rows", [7, 200])
@pytest.mark.parametrize("profile", ["sto", "doppler", "fast_fading"])
def test_the_block_size_changes_no_record(monkeypatch, block_rows, profile):
    # every stream is read in record order, one block after another, so
    # 7-row and 200-row blocks give the 64-row blocks' bytes
    spec = (fast_fading_spec(n_symbols=150, seed=8) if profile == "fast_fading" else
            small_spec(n_symbols=150, seed=8, **GOLDEN_PROFILES[profile][0]))
    want = build_node_dataset(spec)
    monkeypatch.setattr(channel, "CHANNEL_BLOCK_ROWS", block_rows)
    got = build_node_dataset(spec)
    for a, b in zip(want, got):
        for x, y in ((a.batch.inputs, b.batch.inputs), (a.batch.labels, b.batch.labels),
                     (a.snr_db, b.snr_db), (a.sto_samples, b.sto_samples),
                     (a.rel_speed, b.rel_speed)):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("block_rows", [7, 200])
def test_the_block_size_changes_no_static_rayleigh_gain(monkeypatch, block_rows):
    # the same gains in 7-row and 200-row blocks as in 64-row ones; a row's
    # last float64 bits may follow the row count of its block's product, so
    # its float32 record may move by one unit in the last place
    spec = small_spec(n_symbols=150, seed=8, **GOLDEN_PROFILES["rayleigh"][0])
    static_gains = channel._static_gains

    def build():
        gains = []
        monkeypatch.setattr(channel, "_static_gains",
                            lambda *args: gains.append(static_gains(*args)) or gains[-1])
        return records(build_node_dataset(spec)), np.concatenate(gains)

    want, want_gains = build()
    monkeypatch.setattr(channel, "CHANNEL_BLOCK_ROWS", block_rows)
    got, got_gains = build()
    assert len(want_gains) == spec.n_symbols
    assert got_gains.tobytes() == want_gains.tobytes()
    assert np.all(np.abs(got - want) <= np.spacing(np.maximum(np.abs(got), np.abs(want))))


def test_a_numpy_memory_error_reaches_the_caller_unchanged(monkeypatch):
    # numpy's MemoryError takes (shape, dtype), not a message, so it cannot
    # be rebuilt with a record prefix; only the package's own errors are
    from numpy._core._exceptions import _ArrayMemoryError

    def fail(frac):
        raise _ArrayMemoryError((2 ** 40, 64), np.dtype(np.float64))

    monkeypatch.setattr(channel, "_table_kernel", fail)
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
    # many full chunks and one partial one; every detector scores the same
    # draws, so its BER does not depend on the detectors beside it or their order
    p6 = ChirpParams(lam=6)
    trials = 40 * CHUNK_ROWS + 5

    def bers(detectors):
        (point,) = ber_monte_carlo(p6, detectors, [3.0], 0.0, 0.0, trials, seed=7,
                                   checkpoint_params=untrained_receiver)
        return point

    mf, dnn = bers(["mf", "dnn"])
    assert bers(("dnn", "mf")) == [dnn, mf]
    assert bers(["mf"]) == [mf] and bers(["dnn"]) == [dnn]
    assert mf != dnn


@pytest.mark.parametrize("detectors", [[], "mf", ["mf", "zf"], ["dnn"]])
def test_ber_monte_carlo_rejects_bad_detector_lists(detectors):
    with pytest.raises(ConfigurationError):
        ber_monte_carlo(ChirpParams(lam=6), detectors, [9.0], 0.0, 0.0, 10, seed=1)


def test_ber_monte_carlo_needs_a_trial():
    with pytest.raises(ConfigurationError, match="at least one trial"):
        ber_monte_carlo(ChirpParams(lam=6), ["mf"], [9.0], 0.0, 0.0, 0, seed=1)


@pytest.mark.parametrize("point", [math.inf, -math.inf, math.nan, 1e300, -1e300])
def test_ber_monte_carlo_checks_every_noise_level_before_drawing(monkeypatch, point):
    monkeypatch.setattr(data.np.random, "default_rng", None)  # a draw would fail
    with pytest.raises(ConfigurationError, match="no finite, nonzero noise level"):
        ber_monte_carlo(ChirpParams(lam=6), ["mf"], [9.0, point], 0.0, 0.0, 10, seed=1)


def test_ber_monte_carlo_of_an_empty_grid_draws_nothing(monkeypatch):
    monkeypatch.setattr(data.np.random, "default_rng", None)
    assert ber_monte_carlo(ChirpParams(lam=6), ["mf"], [], 0.0, 0.0, 10, seed=1) == []


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6, 8, 10, 12])
def test_an_unimpaired_clean_symbol_is_the_channel_rows_symbol(lam):
    # without sto and speed, 0 or -0.0, the clean symbol skips the channel:
    # the chirp template is the identity channel's row, to the byte
    params = ChirpParams(lam=lam)
    chirps = [generate_chirp(params, direction) for direction in ("up", "down")]
    for bit in (0, 1):
        for sto in (0, 0.0, -0.0):
            for speed in (0, 0.0, -0.0):
                want = channel.apply_channel_rows(
                    chirps, [bit], channel.identity_channel(Ts=1.0 / params.fs), [np.inf],
                    [sto], [speed], None, lam=lam)[0]
                got = _clean_received_symbol(bit, params, sto, speed)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_an_impaired_clean_symbol_makes_no_generator(monkeypatch):
    # no row of a clean symbol is noisy, so the channel reads no noise stream
    want = _clean_received_symbol(1, ChirpParams(lam=6), 3.5, 1.5)
    monkeypatch.setattr(data.np.random, "default_rng", None)
    got = _clean_received_symbol(1, ChirpParams(lam=6), 3.5, 1.5)
    assert got.tobytes() == want.tobytes()


def whole_chunk_bers(params, detectors, grid, sto, speed, trials, seed, theta):
    """ber_monte_carlo as one thread computes it, a chunk at a time in whole
    arrays: chunk c draws its bits, then its normals, from its own stream, and
    every detector scores s_bit + sigma*z at every point."""
    s_clean = [_clean_received_symbol(b, params, sto, speed) for b in (0, 1)]
    eb = float(np.sum(generate_chirp(params, "up").samples ** 2))
    sigmas = [math.sqrt(eb / (2.0 * 10.0 ** (e / 10.0))) for e in grid]
    errors = np.zeros((len(grid), len(detectors)), int)
    rows = data.CHUNK_ROWS  # read at call time: a test may shrink it
    for c in range(-(-trials // rows)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE5, c]))
        bits = rng.integers(0, 2, size=min(rows, trials - c * rows))
        z = rng.standard_normal((bits.size, params.n1))
        for k, sigma in enumerate(sigmas):
            rx = np.where((bits == 1)[:, None], z * sigma + s_clean[1], z * sigma + s_clean[0])
            for i, det in enumerate(detectors):
                dec = (matched_filter_detect_batch(rx, params) if det == "mf"
                       else detect_batch(theta, rx.astype(np.float32)))
                errors[k, i] += int(np.count_nonzero(dec != bits))
    return [[e / trials for e in row] for row in errors]


WHOLE_CHUNK_DETECTORS = [["mf"], ["dnn"], ["mf", "dnn"]]


@pytest.mark.parametrize("detectors", WHOLE_CHUNK_DETECTORS)
def test_ber_monte_carlo_matches_the_whole_chunk_loop(untrained_receiver, detectors, serial):
    check_matches_the_whole_chunk_loop(untrained_receiver, detectors)


@pytest.mark.parametrize("detectors", WHOLE_CHUNK_DETECTORS)
def test_ber_monte_carlo_matches_the_whole_chunk_loop_with_the_helper(
        untrained_receiver, detectors, helper):
    check_matches_the_whole_chunk_loop(untrained_receiver, detectors)


def check_matches_the_whole_chunk_loop(untrained_receiver, detectors):
    # five chunks, the last of them partial, whichever thread takes each;
    # three points
    trials = 4 * CHUNK_ROWS + 123
    args = (ChirpParams(lam=6), detectors, [4.0, 5.5, 7.0], 3.5, 1.5, trials, 11)
    assert ber_monte_carlo(*args, checkpoint_params=untrained_receiver) == \
        whole_chunk_bers(*args, untrained_receiver)


def test_ber_monte_carlo_serial_and_helper_agree(untrained_receiver, monkeypatch):
    # the same lists from either thread layout, over grids of one and of
    # several points, with a partial last chunk
    got = {}
    for threads in (False, True):
        monkeypatch.setattr(data, "_use_helper", lambda: threads)
        got[threads] = [ber_monte_carlo(ChirpParams(lam=6), ["mf", "dnn"], grid, 0.0, 0.0,
                                        7 * CHUNK_ROWS + 45, seed=9,
                                        checkpoint_params=untrained_receiver)
                        for grid in ([6.0], [3.0, 6.0, 9.0])]
    assert got[False] == got[True]


def test_ber_monte_carlo_grid_does_not_change_a_point(untrained_receiver):
    # a point's draws come from its chunks' streams alone, so it reads the same
    # alone as inside any grid, in any order
    p6 = ChirpParams(lam=6)
    grid = [3.0, 4.5, 6.0]

    def sweep(points):
        return ber_monte_carlo(p6, ["mf", "dnn"], points, 0.0, 0.0, 3 * CHUNK_ROWS + 7,
                               seed=4, checkpoint_params=untrained_receiver)

    together = sweep(grid)
    assert [sweep([e])[0] for e in grid] == together
    assert sweep(grid[::-1]) == together[::-1]


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_ber_monte_carlo_mf_is_non_increasing_over_a_fine_grid(request, threads):
    # the points share their draws, and with no STO or Doppler a matched
    # filter error at one noise level is an error at every higher one; so
    # over 1-millidecibel steps the BER never rises.  Points drawn on
    # streams of their own rose at some step of such a grid
    request.getfixturevalue(threads)
    grid = [5.0 + 0.001 * k for k in range(5)]
    bers = [ber for (ber,) in ber_monte_carlo(ChirpParams(lam=6), ["mf"], grid, 0.0, 0.0,
                                              4000, seed=2)]
    assert all(a >= b for a, b in zip(bers, bers[1:])), bers
    assert bers[0] > 0


@pytest.mark.parametrize("detectors", [["mf", "dnn"], ["dnn", "mf"]])
@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_ber_monte_carlo_scores_the_network_in_float32(request, monkeypatch,
                                                       untrained_receiver, detectors, threads):
    # the matched filter takes each float64 chunk, the network the same chunk
    # rounded once to float32, the precision it is trained in
    request.getfixturevalue(threads)
    mf_rows, dnn_rows = {}, {}

    def mf(rx, params):
        mf_rows[rx.tobytes()] = rx.copy()
        return matched_filter_detect_batch(rx, params)

    def dnn(p, rx):
        dnn_rows[rx.tobytes()] = rx.copy()
        return detect_batch(p, rx)

    monkeypatch.setattr(data, "matched_filter_detect_batch", mf)
    monkeypatch.setattr(data, "detect_batch", dnn)
    trials = 3 * CHUNK_ROWS + 123
    ber_monte_carlo(ChirpParams(lam=6), detectors, [4.0, 6.0], 3.5, 1.5, trials, seed=11,
                    checkpoint_params=untrained_receiver)
    assert len(mf_rows) == len(dnn_rows) == 2 * 4  # points x chunks
    assert sum(map(len, mf_rows.values())) == 2 * trials
    for rx in mf_rows.values():
        assert rx.dtype == np.float64
        x = rx.astype(np.float32)
        assert x.tobytes() in dnn_rows and dnn_rows[x.tobytes()].dtype == np.float32


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
    # error count is binomial; 6000 trials cross a chunk boundary
    request.getfixturevalue(threads)
    trials = 6000
    assert trials > CHUNK_ROWS

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(lam=st.sampled_from([1, 2, 6]), ebn0_db=st.floats(-5.0, 15.0),
           sto=st.just(0.0) | st.floats(0.0, 60.0),
           speed=st.just(0.0) | st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 32))
    def check(lam, ebn0_db, sto, speed, seed):
        params = ChirpParams(lam=lam)
        [(ber,)] = ber_monte_carlo(params, ["mf"], [ebn0_db], sto, speed, trials, seed)
        p_e = mf_ber_closed_form(params, ebn0_db, sto, speed)
        lo, hi = binom.interval(1 - 1e-6, trials, p_e)
        assert lo <= round(ber * trials) <= hi, (ber, p_e)

    check()


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("detectors, extra", [(["mf"], {1: 0.25, 6: 0.25}),
                                               (["mf", "dnn"], {1: 3.5, 6: 2.0})],
                         ids=["mf", "mf,dnn"])
@pytest.mark.parametrize("lam", [1, 6])
def test_ber_monte_carlo_holds_a_few_chunks(request, lam, detectors, extra, threads):
    # each thread's float64 chunk of normals and of received rows; for the
    # network also the float32 rows and their hidden activations, while its
    # float32 parameters are made with it, before the sweep: a few chunks per
    # thread, however many trials and points the sweep has
    request.getfixturevalue(threads)
    params = ChirpParams(lam=lam)
    n1 = params.n1
    theta = init_params([n1, *default_hidden(n1), 1], np.random.default_rng(0))
    tracemalloc.start()
    try:
        ber_monte_carlo(params, detectors, [3.0, 6.0], 0, 0, 20 * CHUNK_ROWS + 123, seed=4,
                        checkpoint_params=theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = CHUNK_ROWS * n1 * 8
    threads_used = {"serial": 1, "helper": 2}[threads]
    assert peak <= threads_used * (2 + extra[lam]) * chunk_bytes, peak / chunk_bytes


def test_ber_monte_carlo_keeps_running_totals_of_its_error_counts(monkeypatch):
    # each thread adds its chunks' counts into one running total, so a
    # sweep's memory does not grow with its chunk count
    monkeypatch.setattr(data, "CHUNK_ROWS", 8)

    def peak(chunks):
        tracemalloc.start()
        try:
            ber_monte_carlo(ChirpParams(lam=6), ["mf"], [0.0, 2.0, 4.0, 6.0, 8.0], 0.0, 0.0,
                            8 * chunks, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(1000)
    assert peak(8000) - small < 0.2e6


def both_threads_take_chunks(score):
    """A detector `score`, wrapped so that the first chunk it scores waits
    until it is called on another chunk: with the helper, and one point and
    detector, both threads take chunks."""
    calls, other_took = itertools.count(), threading.Event()

    def held(*args):
        if next(calls) == 0:
            assert other_took.wait(timeout=30)
        else:
            other_took.set()
        return score(*args)

    return held


DEFAULT_RNG = np.random.default_rng


def on_chunk_start(monkeypatch, before):
    """Calls before(c) as a sweep starts chunk c, at the draw of its stream
    SeedSequence([seed, 0xBE5, c]); a sweep without sto and speed draws from
    no other stream."""
    def default_rng(seq):
        before(seq.entropy[2])
        return DEFAULT_RNG(seq)

    monkeypatch.setattr(data.np.random, "default_rng", default_rng)


def test_ber_monte_carlo_a_held_chunk_does_not_hold_up_the_sweep(monkeypatch, helper):
    # the first chunk scored waits until every other chunk has been scored,
    # which only the other thread can do: no chunk is kept for the held thread
    chunks = 6
    args = (ChirpParams(lam=6), ["mf"], [5.0], 0.0, 0.0, (chunks - 1) * CHUNK_ROWS + 77, 13)
    calls, scored, others_scored = itertools.count(), itertools.count(1), threading.Event()

    def mf(rx, params):
        held = next(calls) == 0
        if held:
            assert others_scored.wait(timeout=30)
        dec = matched_filter_detect_batch(rx, params)
        if not held and next(scored) == chunks - 1:
            others_scored.set()
        return dec

    monkeypatch.setattr(data, "matched_filter_detect_batch", mf)
    assert ber_monte_carlo(*args) == whole_chunk_bers(*args, None)


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_ber_monte_carlo_raises_the_failure_a_serial_sweep_raises(request, monkeypatch,
                                                                  threads):
    # chunks 1 and 2 fail; with the helper, chunk 1 fails only once chunk 2
    # has, later in time but earlier in the order
    request.getfixturevalue(threads)
    later_failed = threading.Event()
    failed = []

    def fail(c):
        if c == 2:
            failed.append(c)
            later_failed.set()
            raise ValueError("chunk 2")
        if c == 1:
            if threads == "helper":
                assert later_failed.wait(timeout=30)
            failed.append(c)
            raise ValueError("chunk 1")

    on_chunk_start(monkeypatch, fail)
    with pytest.raises(ValueError, match="^chunk 1$"):
        ber_monte_carlo(ChirpParams(lam=6), ["mf"], [6.0], 0.0, 0.0, 6 * CHUNK_ROWS, seed=3)
    assert failed == {"serial": [1], "helper": [2, 1]}[threads]


def test_ber_monte_carlo_starts_no_chunk_after_a_failure(monkeypatch, helper_events):
    # the helper fails at the first chunk it takes; the caller holds its own
    # until the helper has recorded the failure and left the sweep, and
    # neither thread may start a chunk after the failure
    caller = threading.get_ident()
    failed = threading.Event()
    started_late = []

    def fail(c):
        if failed.is_set():
            started_late.append(c)
        if threading.get_ident() != caller:
            failed.set()
            raise ValueError(f"chunk {c}")
        assert helper_events.left.wait(timeout=30)

    threads = threading.active_count()
    on_chunk_start(monkeypatch, fail)
    with pytest.raises(ValueError, match="chunk"):
        ber_monte_carlo(ChirpParams(lam=6), ["mf"], [6.0], 0.0, 0.0, 10 * CHUNK_ROWS, seed=3)
    assert failed.is_set() and started_late == []
    assert len(helper_events.started) == 1 and threading.active_count() == threads


def test_ber_monte_carlo_joins_its_helper(untrained_receiver, monkeypatch, serial):
    check_joins_its_helper(untrained_receiver, monkeypatch)


def test_ber_monte_carlo_joins_its_helper_with_the_helper(untrained_receiver, monkeypatch,
                                                          helper):
    check_joins_its_helper(untrained_receiver, monkeypatch)


def check_joins_its_helper(untrained_receiver, monkeypatch):
    # the network fails on the partial last chunk, once it has been called on
    # every full chunk.  Each full chunk comes before it in the order, so it
    # is claimed and scored before the failure is recorded, on whichever
    # thread claimed it
    p6 = ChirpParams(lam=6)
    threads = threading.active_count()
    ber_monte_carlo(p6, ["mf", "dnn"], [6.0], 0, 0, 3 * CHUNK_ROWS, seed=3,
                    checkpoint_params=untrained_receiver)
    assert threading.active_count() == threads
    for chunks in (2, 3):
        boom = RuntimeError("detector failed")
        calls = []
        full_chunks_called = threading.Event()

        def failing(p, rx):
            calls.append(len(rx))
            if len(rx) < CHUNK_ROWS:
                full_chunks_called.wait(timeout=5)
                raise boom
            if calls.count(CHUNK_ROWS) == chunks - 1:
                full_chunks_called.set()
            return detect_batch(p, rx)

        monkeypatch.setattr(data, "detect_batch", failing)
        with pytest.raises(RuntimeError) as info:
            ber_monte_carlo(p6, ["mf", "dnn"], [6.0], 0, 0, (chunks - 1) * CHUNK_ROWS + 5,
                            seed=3, checkpoint_params=untrained_receiver)
        assert info.value is boom and len(calls) == chunks
        assert threading.active_count() == threads


def test_ber_monte_carlo_helper_stops_once_the_caller_raises(untrained_receiver,
                                                             monkeypatch, helper_events):
    # an interrupt of the calling thread does not wait for the helper's half
    # of the chunks: the helper ends at its next chunk.  The caller raises
    # once the helper has taken a chunk, and the helper holds that chunk
    # until the caller, having raised, waits to join it; chunks are left,
    # but the helper may claim none of them.  A caller that claimed a chunk
    # after raising would let the helper go on and wait for it to leave
    caller = threading.get_ident()
    helper_calls, raised = [], []
    boom = KeyboardInterrupt()
    took, joining, left = threading.Event(), helper_events.joining, helper_events.left

    def interrupted(p, rx):
        if threading.get_ident() == caller:
            assert took.wait(timeout=30)
            if raised:
                joining.set()
                assert left.wait(timeout=30)
            raised.append(boom)
            raise boom
        if not helper_calls:
            took.set()
            assert joining.wait(timeout=30)
        helper_calls.append(len(rx))
        return detect_batch(p, rx)

    monkeypatch.setattr(data, "detect_batch", interrupted)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt) as info:
        ber_monte_carlo(ChirpParams(lam=6), ["dnn"], [6.0], 0, 0, 200 * CHUNK_ROWS, seed=3,
                        checkpoint_params=untrained_receiver)
    assert info.value is boom and len(helper_calls) < 100
    assert len(raised) == len(helper_calls) == len(helper_events.started) == 1
    assert threading.active_count() == threads


def test_ber_monte_carlo_threads_do_not_interfere(untrained_receiver, monkeypatch, serial):
    check_threads_do_not_interfere(untrained_receiver, monkeypatch)


def test_ber_monte_carlo_threads_do_not_interfere_with_the_helper(
        untrained_receiver, monkeypatch, helper):
    check_threads_do_not_interfere(untrained_receiver, monkeypatch)


def check_threads_do_not_interfere(untrained_receiver, monkeypatch):
    # many tiny chunks, four sweeps at once and a thread switch every
    # microsecond: a lost count or shared state would change a BER
    monkeypatch.setattr(data, "CHUNK_ROWS", 7)
    p6 = ChirpParams(lam=6)
    cases = [(["mf", "dnn"], [3.0 + k, 5.0 + k], 3000 + k) for k in range(4)]
    got = [None] * len(cases)

    def sweep(k):
        detectors, grid, trials = cases[k]
        got[k] = ber_monte_carlo(p6, detectors, grid, 0.0, 0.0, trials, seed=5,
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
    for k, (detectors, grid, trials) in enumerate(cases):
        assert got[k] == whole_chunk_bers(p6, detectors, grid, 0.0, 0.0, trials, 5,
                                         untrained_receiver)


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_ber_monte_carlo_scores_under_numpys_default_error_state(
        request, monkeypatch, untrained_receiver, threads):
    # whatever the caller's state, the calling thread and the helper score
    # their chunks under numpy's defaults; with the helper, the first chunk
    # scored waits until the other thread scores one
    request.getfixturevalue(threads)
    if threads == "helper":
        monkeypatch.setattr(data, "detect_batch", both_threads_take_chunks(detect_batch))
    original = receiver._sigmoid
    seen = []

    def spy(z):
        seen.append((threading.get_ident(), np.geterr()))
        return original(z)

    monkeypatch.setattr(receiver, "_sigmoid", spy)
    with np.errstate(divide="raise", under="warn"):
        ber_monte_carlo(ChirpParams(lam=6), ["dnn"], [6.0], 0.0, 0.0, 4 * CHUNK_ROWS,
                        seed=3, checkpoint_params=untrained_receiver)
    default = dict(divide="warn", over="warn", under="ignore", invalid="warn")
    assert seen and all(state == default for _, state in seen)
    scored_by = {tid for tid, _ in seen}
    assert threading.get_ident() in scored_by
    assert len(scored_by) == {"serial": 1, "helper": 2}[threads]
