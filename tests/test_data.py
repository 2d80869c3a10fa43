import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chirpfed.channel import RayleighModelConfig, rayleigh_cir, tap_mean_powers
from chirpfed.chirp import ChirpParams, generate_chirp, downsample, \
    matched_filter_detect_batch
from chirpfed import data
from chirpfed.data import (BLOCK_ROWS, MAX_DATASET_SAMPLES, NOISE_CHUNK, DatasetSpec,
                           _clean_received_symbol, _rayleigh_channels,
                           ber_monte_carlo, build_node_dataset, load_dataset,
                           noise_stream_key, save_dataset)
from chirpfed.errors import ConfigurationError, ParseError
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


def test_dataset_rayleigh_taps_follow_the_tap_law():
    # one CN(0, p_k) gain per tap and symbol: per-delay mean power against
    # tap_mean_powers, Gaussian real and imaginary parts, and no correlation
    # between them, over 2000 symbols' draws
    from scipy import stats
    spec = small_spec(channel_tag="rayleigh")
    draw = _rayleigh_channels(spec)
    cirs = [draw(seed) for seed in range(2000)]
    g = np.array([h.taps[:, 0] for h in cirs])
    p = tap_mean_powers(replace(spec.rayleigh, Ts=cirs[0].Ts))[:g.shape[1]]
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
    h = _rayleigh_channels(spec)(3)
    assert h.n_time == 1 and h.n_taps == 60
    assert np.array_equal(h.taps.astype(np.complex64), h.taps)


@pytest.mark.parametrize("fd", [100.0, 250.0])
def test_fast_fading_rayleigh_symbol_is_rayleigh_cir(fd):
    # from the first FFT bin of the symbol, 1/T = 100 Hz, up, the taps vary
    # within the symbol and come from rayleigh_cir unchanged
    spec = small_spec(channel_tag="rayleigh", rayleigh=RayleighModelConfig(
        Ts=1.0 / 6000.0, fd=fd))
    h = _rayleigh_channels(spec)(5)
    ref = rayleigh_cir(RayleighModelConfig(Ts=16 / spec.chirp.fs, fd=fd),
                       spec.chirp.T, spec.chirp.fs, seed=5)
    assert h.Ts == ref.Ts and h.taps.tobytes() == ref.taps.tobytes()
    assert h.n_time == 960 and np.any(h.taps[:, 1:] != h.taps[:, :1])


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
    path = tmp_path / "node.uwds"
    for bad_train, bad_test, match in (
            (train, replace(test, channel_tag=np.full(len(test), 2)), "tag"),
            (train, replace(test, channel_tag=np.full(len(test), -1)), "tag"),
            (train, replace(test, tag_table=("rayleigh", "identity")), "tag"),
            (bad_label, test, "label"),
            (replace(train, batch=LabeledBatch(train.batch.inputs * 1e40,
                                               train.batch.labels)), test, "float32")):
        with pytest.raises(ConfigurationError, match=match):
            save_dataset(path, bad_train, bad_test, spec)
        assert not path.exists()


# sha256 over the records of build_node_dataset (25 symbols, lam = 6, seed 7)
# under the three impairment profiles of the synthesis benchmark.  The sto
# digest was computed with the full-rate interpolation that the decimating
# channel replaced.  The doppler and rayleigh digests were recorded when a
# Doppler-scaled fractional shift came to be one interpolation per kept
# sample instead of two (and a static CIR one FFT product); the rayleigh
# draws are the block-fading ones, one CN(0, p_k) gain per tap
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
        for a in (s.batch.inputs, s.batch.labels, s.snr_db, s.sto_samples,
                  s.rel_speed, s.channel_tag):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


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
