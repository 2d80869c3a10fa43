"""Per-node labeled symbol datasets: chirp symbols through the channel.

Each record is one received, downsampled symbol with its transmitted bit
and the impairment draw that produced it.  Impairments are drawn i.i.d.
per symbol so the augmentation ranges are densely covered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import container
from .channel import (ChannelRealization, ImpairmentSpec, RayleighModelConfig,
                      apply_channel, identity_channel)
from .chirp import ChirpParams, downsample, generate_chirp
from .errors import ConfigurationError, ParseError
from .receiver import LabeledBatch

DATASET_MAGIC = b"UWDS"
DATASET_VERSION = 1

CHANNEL_TAGS = ("identity", "rayleigh")


def _check_range(name, rng_pair):
    lo, hi = rng_pair
    if hi < lo:
        raise ConfigurationError(f"{name} range ({lo}, {hi}) is not well ordered")


@dataclass(frozen=True)
class DatasetSpec:
    """Synthesis recipe for one node's local dataset."""

    n_symbols: int = 1250
    split: float = 0.8               # train fraction; 1250 -> 1000 + 250
    chirp: ChirpParams = field(default_factory=ChirpParams)
    snr_db_range: tuple = (np.inf, np.inf)
    sto_range: tuple = (0.0, 0.0)    # samples at the full rate
    speed_range: tuple = (0.0, 0.0)  # m/s
    channel_tag: str = "identity"
    rayleigh: RayleighModelConfig = None
    seed: int = 0

    def __post_init__(self):
        if self.n_symbols < 2:
            raise ConfigurationError("need at least 2 symbols to split")
        _check_range("snr", self.snr_db_range)
        _check_range("sto", self.sto_range)
        _check_range("speed", self.speed_range)
        if not 0 < self.n_train < self.n_symbols:
            raise ConfigurationError(
                f"split={self.split} leaves an empty train or test part")
        if self.channel_tag not in CHANNEL_TAGS:
            raise ConfigurationError(f"unknown channel tag {self.channel_tag!r}")
        if self.channel_tag == "rayleigh" and self.rayleigh is None:
            object.__setattr__(self, "rayleigh", RayleighModelConfig(
                Ts=1.0 / self.chirp.bandwidth, fd=5.0))

    @property
    def n_train(self) -> int:
        return int(round(self.n_symbols * self.split))

    @property
    def n_test(self) -> int:
        return self.n_symbols - self.n_train


@dataclass(frozen=True)
class SymbolSet:
    """A labeled batch plus the per-record impairment metadata."""

    batch: LabeledBatch
    snr_db: np.ndarray
    sto_samples: np.ndarray
    rel_speed: np.ndarray
    channel_tag: np.ndarray  # tag-table indices
    tag_table: tuple

    def __len__(self) -> int:
        return len(self.batch)


def _draw(rng, lo, hi):
    if lo == hi:
        return lo
    return rng.uniform(lo, hi)


def synthesize_symbol(bit: int, spec: DatasetSpec, snr_db: float, sto: float,
                      speed: float, channel: ChannelRealization,
                      noise_seed: int) -> np.ndarray:
    """One received, downsampled symbol as a float64 vector of length N1."""
    tx = generate_chirp(spec.chirp, "down" if bit else "up")
    imp = ImpairmentSpec(snr_db=snr_db, sto_samples=sto, rel_speed=speed)
    rx = apply_channel(tx, channel, imp, seed=noise_seed)
    return downsample(rx, spec.chirp.lam).samples


def build_node_dataset(spec: DatasetSpec):
    """Deterministically synthesize the node dataset; returns (train, test)
    SymbolSet pairs with disjoint records."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    n = spec.n_symbols
    n1 = spec.chirp.n1
    samples = np.empty((n, n1))
    labels = np.empty(n)
    snr = np.empty(n, dtype=np.float32)
    sto = np.empty(n, dtype=np.float32)
    speed = np.empty(n, dtype=np.float32)
    if spec.channel_tag == "identity":
        base_channel = identity_channel(Ts=1.0 / spec.chirp.fs)
    symbol_dur = spec.chirp.T
    for i in range(n):
        bit = int(rng.random() < 0.5)
        snr_i = _draw(rng, *spec.snr_db_range)
        sto_i = _draw(rng, *spec.sto_range)
        speed_i = _draw(rng, *spec.speed_range)
        noise_seed = int(rng.integers(0, 2 ** 63 - 1))
        if spec.channel_tag == "rayleigh":
            cir_seed = int(rng.integers(0, 2 ** 63 - 1))
            channel = _rayleigh_for_symbol(spec, symbol_dur, cir_seed)
        else:
            channel = base_channel
        try:
            samples[i] = synthesize_symbol(bit, spec, snr_i, sto_i, speed_i,
                                           channel, noise_seed)
        except Exception as exc:
            raise type(exc)(f"record {i}: {exc}") from exc
        labels[i] = bit
        snr[i], sto[i], speed[i] = snr_i, sto_i, speed_i
    # samples are stored as f32 in the dataset container; quantize here so
    # save/load round-trips are bit-identical
    samples = samples.astype(np.float32).astype(np.float64)
    tag_idx = np.full(n, CHANNEL_TAGS.index(spec.channel_tag), dtype=np.uint16)
    return _split(spec.n_train, samples, labels, snr, sto, speed, tag_idx,
                  CHANNEL_TAGS)


def _split(k, samples, labels, snr, sto, speed, tag_idx, tag_table):
    """(train, test): the first k records, then the rest."""
    def part(sl):
        return SymbolSet(LabeledBatch(samples[sl], labels[sl]),
                         snr[sl], sto[sl], speed[sl], tag_idx[sl], tag_table)

    return part(slice(0, k)), part(slice(k, None))


def _rayleigh_for_symbol(spec: DatasetSpec, duration: float, seed: int):
    from .channel import rayleigh_cir
    cfg = spec.rayleigh
    # tap spacing snapped to an integer number of samples at the chirp rate
    step = max(1, int(round(cfg.Ts * spec.chirp.fs)))
    cfg = replace(cfg, Ts=step / spec.chirp.fs)
    return rayleigh_cir(cfg, duration, spec.chirp.fs, seed)


@dataclass(frozen=True)
class DomainShift:
    """Replacement impairment ranges for a target (emergency) task."""

    snr_db_range: tuple = None
    sto_range: tuple = None
    speed_range: tuple = None
    require_disjoint: bool = True


def _disjoint(a, b) -> bool:
    return a[1] < b[0] or b[1] < a[0]


def shift_domain(spec: DatasetSpec, delta: DomainShift) -> DatasetSpec:
    """Spec for a shifted task whose ranges lie outside the source ranges."""
    changes = {}
    for name in ("snr_db_range", "sto_range", "speed_range"):
        new = getattr(delta, name)
        if new is None:
            continue
        _check_range(name, new)
        if delta.require_disjoint and not _disjoint(getattr(spec, name), new):
            raise ConfigurationError(
                f"{name} {new} overlaps the source range {getattr(spec, name)}")
        changes[name] = tuple(new)
    return replace(spec, **changes) if changes else spec


def _spec_to_json(spec: DatasetSpec, n_train: int) -> str:
    d = asdict(spec)
    d["chirp"] = asdict(spec.chirp)
    d["rayleigh"] = asdict(spec.rayleigh) if spec.rayleigh else None
    d["snr_db_range"] = [str(float(v)) if np.isinf(v) else float(v)
                         for v in spec.snr_db_range]
    d["n_train_records"] = n_train
    return json.dumps(d, sort_keys=True)


def _spec_from_json(text: str):
    d = dict(json.loads(text))  # TypeError or ValueError unless pairs
    n_train = d.pop("n_train_records")
    d["chirp"] = ChirpParams(**d["chirp"])
    if d["rayleigh"] is not None:
        d["rayleigh"] = RayleighModelConfig(**d["rayleigh"])
    d["snr_db_range"] = tuple(float(v) for v in d["snr_db_range"])
    for key in ("sto_range", "speed_range"):
        d[key] = tuple(d[key])
    return DatasetSpec(**d), n_train


def _record_dtype(n1: int) -> np.dtype:
    """One packed dataset record: 4*n1 + 15 bytes."""
    return np.dtype([("x", "<f4", (n1,)), ("label", "u1"), ("snr", "<f4"),
                     ("sto", "<f4"), ("speed", "<f4"), ("tag", "<u2")])


def save_dataset(path, train: SymbolSet, test: SymbolSet,
                 spec: DatasetSpec) -> None:
    """Binary container: header (u32 n1, u64 record count, u16 lam), the
    packed records of train then test, the tag table, then a
    u32-length-prefixed JSON spec block."""
    def columns(s):
        return (s.batch.inputs, s.batch.labels, s.snr_db, s.sto_samples,
                s.rel_speed, s.channel_tag)

    n1 = train.batch.inputs.shape[1]
    rec = np.empty(len(train) + len(test), _record_dtype(n1))
    for name, a, b in zip(rec.dtype.names, columns(train), columns(test)):
        rec[name] = np.concatenate([a, b])
    container.save(path, DATASET_MAGIC, DATASET_VERSION,
                   container.pack_fields("IQH", n1, rec.size, spec.chirp.lam),
                   rec.tobytes(), container.pack_strings(train.tag_table),
                   container.pack_string(_spec_to_json(spec, len(train)), length="I"))


def load_dataset(path):
    """Returns (train, test, spec); inverse of save_dataset."""
    with container.Reader(path, DATASET_MAGIC, DATASET_VERSION) as r:
        n1, count, lam = r.fields("IQH", "dataset header")
        head = r.mark
        rec = r.array(_record_dtype(n1), count, "records")
        tag_table = tuple(r.strings("tag table"))
        spec, n_train = _spec_from_json(r.string("spec block", length="I"))
        if (n1, lam) != (spec.chirp.n1, spec.chirp.lam):
            raise ParseError(f"n1={n1}, lam={lam} disagree with the spec", offset=head)
        if not 0 <= n_train <= count:
            raise ParseError(f"{n_train} train records of {count}", offset=r.mark)
        r.require(rec["tag"] < len(tag_table), rec["tag"], "tag index outside the tag table")
        r.require(rec["label"] <= 1, rec["label"], "label is not a bit")
        r.require(np.isfinite(rec["x"]), rec["x"], "non-finite sample")
        train, test = _split(n_train, rec["x"].astype(np.float64),
                             rec["label"].astype(np.float64),
                             *(rec[k].astype(np.float32) for k in ("snr", "sto", "speed")),
                             rec["tag"].astype(np.uint16), tag_table)
    return train, test, spec
