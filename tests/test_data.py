import hashlib

import numpy as np
import pytest

from chirpfed.chirp import ChirpParams, generate_chirp, downsample, \
    matched_filter_detect_batch
from chirpfed.data import (DatasetSpec, DomainShift, build_node_dataset,
                           load_dataset, save_dataset, shift_domain)
from chirpfed.errors import ConfigurationError, ParseError
from chirpfed.receiver import LabeledBatch, ber_eval, default_hidden, \
    init_params, train


def small_spec(**kw):
    base = dict(n_symbols=50, split=0.8, chirp=ChirpParams(lam=6), seed=0)
    base.update(kw)
    return DatasetSpec(**base)


# ------------------------------------------------------------------- config

def test_spec_defaults():
    spec = DatasetSpec()
    assert spec.n_train == 1000
    assert spec.n_test == 250


@pytest.mark.parametrize("kwargs", [
    dict(n_symbols=1),
    dict(snr_db_range=(10.0, 5.0)),
    dict(sto_range=(3.0, 1.0)),
    dict(split=0.0),
    dict(split=1.0),
    dict(channel_tag="bellhop"),
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        small_spec(**kwargs)


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


# ------------------------------------------------------------- domain shift

def test_shift_domain_disjoint():
    spec = small_spec(speed_range=(0.0, 5.0))
    out = shift_domain(spec, DomainShift(speed_range=(8.0, 12.0)))
    assert out.speed_range == (8.0, 12.0)
    assert out.sto_range == spec.sto_range


def test_shift_domain_overlap_rejected():
    spec = small_spec(speed_range=(0.0, 5.0))
    with pytest.raises(ConfigurationError):
        shift_domain(spec, DomainShift(speed_range=(4.0, 9.0)))
    # explicit opt-out allows overlap
    out = shift_domain(spec, DomainShift(speed_range=(4.0, 9.0),
                                         require_disjoint=False))
    assert out.speed_range == (4.0, 9.0)


def test_shift_domain_identity():
    spec = small_spec()
    assert shift_domain(spec, DomainShift()) == spec


def test_domain_shift_degrades_trained_receiver():
    # train on one STO band, evaluate on a disjoint band: accuracy must drop
    cp = ChirpParams(lam=12)
    src = DatasetSpec(n_symbols=400, split=0.75, chirp=cp,
                      snr_db_range=(-8.0, -8.0), sto_range=(0.0, 40.0), seed=11)
    tgt = shift_domain(src, DomainShift(sto_range=(200.0, 240.0)))
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
