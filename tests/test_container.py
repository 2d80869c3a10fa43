"""The dataset (.uwds), CIR (.uwac) and checkpoint (.cdnn) containers:
pinned formats, and the rule that a bad file fails only with ParseError."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chirpfed.channel import ChannelRealization, load_cir, save_cir
from chirpfed.chirp import ChirpParams
from chirpfed.data import (CHANNEL_TAGS, DatasetSpec, SymbolSet, load_dataset,
                           save_dataset)
from chirpfed.errors import ParseError
from chirpfed.receiver import LabeledBatch, init_params, load_params, save_params


def golden_dataset():
    spec = DatasetSpec(n_symbols=3, split=0.6,
                       chirp=ChirpParams(f1=1.0, f2=2.0, T=1.0, fs=8.0, lam=2),
                       snr_db_range=(6.0, 12.0), sto_range=(0.0, 2.0), seed=7)
    inputs = np.array([[0.5, -0.25, 1.0, 0.0], [1.5, 2.0, -3.0, 0.125],
                       [-1.0, 0.75, 0.5, 0.25]])
    labels = np.array([0.0, 1.0, 1.0])
    snr = np.array([6.5, 11.0, 8.25], dtype=np.float32)
    sto = np.array([0.0, 1.5, 0.5], dtype=np.float32)
    speed = np.array([0.0, -0.5, 0.25], dtype=np.float32)
    tags = np.array([0, 1, 0], dtype=np.uint16)

    def part(sl):
        return SymbolSet(LabeledBatch(inputs[sl], labels[sl]), snr[sl], sto[sl],
                         speed[sl], tags[sl], CHANNEL_TAGS)

    return part(slice(0, 2)), part(slice(2, 3)), spec


def golden_params():
    template = init_params([4, 3, 2, 1], np.random.default_rng(0))
    return template.from_flat(np.linspace(-1.0, 1.0, template.n_params))


def golden_cir():
    taps = np.array([[1 + 0.5j, -0.25 + 0j, 0.5 - 0.5j],
                     [0.125 - 1j, 0.75 + 0.25j, 0j]])
    return ChannelRealization(taps, 0.001, {"model": "NCS", "range_m": "1080",
                                            "note": "für"})


# (writer, loader, sha256 of the file the writer makes; computed before the
# shared codec replaced the per-format writers, and the bytes must never change)
CONTAINERS = {
    "uwds": (lambda path: save_dataset(path, *golden_dataset()), load_dataset,
             "3cb479c414082f695a2a191e271efa04f1375d3cf7bc483d4e0c301bf8ec7eac"),
    "cdnn": (lambda path: save_params(path, golden_params()), load_params,
             "41be21e91ddf9ff1efa81e8d7ec4d928b5f46d71978b5b4c8b1d41bcdd81f0b6"),
    "uwac": (lambda path: save_cir(path, golden_cir()), load_cir,
             "de0fd78197dacd631bb9e9ad909d7483830415563b1a89d642b1ccb2cd1e29ff"),
}


def good_bytes(tmp_path, kind):
    path = tmp_path / f"good.{kind}"
    CONTAINERS[kind][0](path)
    return path.read_bytes()


def load_bytes(tmp_path, kind, raw):
    path = tmp_path / f"probe.{kind}"
    path.write_bytes(raw)
    return CONTAINERS[kind][1](path)


def parse_error(tmp_path, kind, raw) -> ParseError:
    with pytest.raises(ParseError) as exc:
        load_bytes(tmp_path, kind, raw)
    assert exc.value.offset is not None
    return exc.value


# ------------------------------------------------------------ golden format

@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_golden_format(tmp_path, kind):
    raw = good_bytes(tmp_path, kind)
    assert hashlib.sha256(raw).hexdigest() == CONTAINERS[kind][2]


def test_golden_dataset_loads_back(tmp_path):
    train, test, spec = golden_dataset()
    r_train, r_test, r_spec = load_bytes(tmp_path, "uwds",
                                         good_bytes(tmp_path, "uwds"))
    assert r_spec == spec
    for orig, back in ((train, r_train), (test, r_test)):
        for a, b in ((orig.batch.inputs, back.batch.inputs),
                     (orig.batch.labels, back.batch.labels),
                     (orig.snr_db, back.snr_db), (orig.sto_samples, back.sto_samples),
                     (orig.rel_speed, back.rel_speed),
                     (orig.channel_tag, back.channel_tag)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert b.flags.writeable
        assert back.tag_table == orig.tag_table


def test_golden_params_and_cir_load_back(tmp_path):
    p = load_bytes(tmp_path, "cdnn", good_bytes(tmp_path, "cdnn"))
    assert p.layer_sizes == [4, 3, 2, 1]
    assert np.array_equal(p.to_flat(), golden_params().to_flat())
    h = load_bytes(tmp_path, "uwac", good_bytes(tmp_path, "uwac"))
    assert np.array_equal(h.taps, golden_cir().taps)
    assert h.Ts == 0.001 and h.meta == golden_cir().meta


# ------------------------------------------------------------- bad bytes

@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_truncation_at_every_offset(tmp_path, kind):
    raw = good_bytes(tmp_path, kind)
    for cut in range(len(raw)):
        parse_error(tmp_path, kind, raw[:cut])


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_a_directory_is_no_container(tmp_path, kind):
    with pytest.raises(ParseError, match="not a regular file") as exc:
        CONTAINERS[kind][1](tmp_path)
    assert exc.value.offset == 0
    with pytest.raises(FileNotFoundError):
        CONTAINERS[kind][1](tmp_path / f"missing.{kind}")


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_trailing_byte(tmp_path, kind):
    raw = good_bytes(tmp_path, kind)
    assert parse_error(tmp_path, kind, raw + b"\0").offset == len(raw)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_single_byte_flip_loads_or_parse_error(tmp_path, kind, data):
    raw = bytearray(good_bytes(tmp_path, kind))
    at = data.draw(st.integers(0, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    try:
        load_bytes(tmp_path, kind, bytes(raw))
    except ParseError as exc:
        assert exc.offset is not None


# ------------------------------------------------------- dataset regressions

# golden dataset layout: 20-byte header, three 31-byte records (4 f32
# samples, u8 label, f32 snr, sto, speed, u16 tag), tag table, spec block
RECORDS, ITEM = 20, 31


def spec_at(raw):
    return raw.index(b'{"', RECORDS + 3 * ITEM)


def dataset_with_spec(tmp_path, text: bytes) -> bytes:
    raw = good_bytes(tmp_path, "uwds")
    at = spec_at(raw) - 4
    return raw[:at] + struct.pack("<I", len(text)) + text


def golden_spec_dict(tmp_path):
    raw = good_bytes(tmp_path, "uwds")
    return json.loads(raw[spec_at(raw):])


def test_dataset_corrupt_spec_json(tmp_path):
    raw = good_bytes(tmp_path, "uwds")
    at = spec_at(raw)
    bad = raw[:at] + b"[" + raw[at + 1:]
    assert parse_error(tmp_path, "uwds", bad).offset == at
    parse_error(tmp_path, "uwds", raw[:at] + b"\xff" + raw[at + 1:])


def test_dataset_spec_without_n_train_records(tmp_path):
    d = golden_spec_dict(tmp_path)
    del d["n_train_records"]
    parse_error(tmp_path, "uwds", dataset_with_spec(tmp_path, json.dumps(d).encode()))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(bogus=1), id="unknown-key"),
    pytest.param(lambda d: d["chirp"].update(lam=1, T=0.5), id="same-n1-other-lam"),
    pytest.param(lambda d: d["chirp"].update(T=0.5), id="other-n1"),
    pytest.param(lambda d: d["chirp"].update(f1="low"), id="wrong-type"),
    pytest.param(lambda d: d.update(n_train_records=4), id="more-train-than-records"),
    pytest.param(lambda d: d.update(n_train_records=-1), id="negative-train"),
    pytest.param(lambda d: d.update(n_train_records=1.5), id="fractional-train"),
    pytest.param(lambda d: d.update(sto_range=5), id="range-not-a-pair"),
    pytest.param(lambda d: d.update(n_symbols=1e308, split=10.0), id="float-overflow"),
])
def test_dataset_bad_spec_values(tmp_path, edit):
    d = golden_spec_dict(tmp_path)
    edit(d)
    parse_error(tmp_path, "uwds", dataset_with_spec(tmp_path, json.dumps(d).encode()))


def test_dataset_absurd_header(tmp_path):
    # used to attempt np.empty((2^40, 2^32 - 1))
    raw = struct.pack("<4sHIQH", b"UWDS", 1, 2 ** 32 - 1, 2 ** 40, 6)
    parse_error(tmp_path, "uwds", raw)


def test_dataset_tag_index_outside_table(tmp_path):
    raw = bytearray(good_bytes(tmp_path, "uwds"))
    at = RECORDS + ITEM + 29  # tag of the second record
    raw[at: at + 2] = struct.pack("<H", 9)
    assert parse_error(tmp_path, "uwds", bytes(raw)).offset == at


def test_dataset_bad_label_and_sample(tmp_path):
    raw = bytearray(good_bytes(tmp_path, "uwds"))
    raw[RECORDS + 2 * ITEM + 16] = 2  # label of the third record
    assert parse_error(tmp_path, "uwds", bytes(raw)).offset == RECORDS + 2 * ITEM + 16
    raw = bytearray(good_bytes(tmp_path, "uwds"))
    at = RECORDS + ITEM + 8  # third sample of the second record
    raw[at: at + 4] = struct.pack("<f", np.nan)
    assert parse_error(tmp_path, "uwds", bytes(raw)).offset == at


# ----------------------------------------------------------- CIR regressions

def cir_bytes(n_taps=1, n_time=1, ts=0.001, items=(b"model=x",), taps=(1.0, 0.0)):
    return (struct.pack("<4sHIQdH", b"UWAC", 1, n_taps, n_time, ts, len(items))
            + b"".join(struct.pack("<H", len(i)) + i for i in items)
            + struct.pack(f"<{len(taps)}f", *taps))


def test_cir_non_utf8_metadata(tmp_path):
    raw = cir_bytes(items=(b"model=\xff",))
    assert parse_error(tmp_path, "uwac", raw).offset == 30 + len(b"model=")


@pytest.mark.parametrize("kwargs", [
    dict(n_taps=0, taps=()),
    dict(n_time=0, taps=()),
    dict(ts=0.0),
    dict(ts=-1.0),
    dict(ts=float("nan")),
    dict(ts=float("inf")),
    dict(taps=(1.0, float("inf"))),
])
def test_cir_bad_header_or_taps(tmp_path, kwargs):
    parse_error(tmp_path, "uwac", cir_bytes(**kwargs))


def test_cir_sample_file_is_valid(tmp_path):
    h = load_bytes(tmp_path, "uwac", cir_bytes())
    assert h.meta == {"model": "x"} and h.taps.shape == (1, 1)
