"""Per-node labeled symbol datasets: chirp symbols through the channel.

Each record is one received, downsampled symbol with its transmitted bit
and the impairment draw that produced it.  Impairments are drawn i.i.d.
per symbol so the augmentation ranges are densely covered.  The
Monte-Carlo BER estimator draws received symbols the same way, with
receiver-side noise, and counts detection errors.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field, asdict

import numpy as np

from . import container
from .channel import (ChannelRealization, RayleighModelConfig, apply_channel_rows,
                      identity_channel)
from .chirp import (ChirpParams, downsample, generate_chirp,
                    matched_filter_detect_batch)
from .errors import ConfigurationError, ParseError
from .receiver import LabeledBatch, detect_batch

DATASET_MAGIC = b"UWDS"
DATASET_VERSION = 1

CHANNEL_TAGS = ("identity", "rayleigh")
DETECTORS = ("mf", "dnn")  # of ber_monte_carlo
# Symbols drawn per ber_monte_carlo chunk.  Part of the noise stream: the bits
# and noise of each chunk are drawn in turn, so another size reorders the
# draws and changes every BER.
NOISE_CHUNK = 20000
# Rows of a chunk that ber_monte_carlo draws and scores at a time.  Not part
# of the stream: the normals of a chunk come in the same order in any block.
BLOCK_ROWS = 5000
MAX_DATASET_SAMPLES = 2 ** 24  # records x n1; 64 MB of float32 samples


def _check_range(name, rng_pair):
    lo, hi = rng_pair
    # NaN fails hi >= lo; a point may be infinite, a wider range may not
    if not (hi >= lo and (lo == hi or math.isfinite(hi - lo))):
        raise ConfigurationError(
            f"{name} range ({lo}, {hi}) must be ordered, and finite unless a point")


@dataclass(frozen=True)
class DatasetSpec:
    """Synthesis recipe for one node's local dataset.

    snr_db_range bounds the per-sample SNR of each received symbol, not the
    Eb/N0 of ber_monte_carlo: Eb/N0 = SNR + 10*log10(T*fs/2) in dB, 26.8 dB
    more at the default 960-sample symbol.

    The rayleigh channel is block fading while fd < 1/T (5 Hz against 100 Hz
    by default): each symbol gets its own static CN(0, p_k) gain per tap,
    with p_k from tap_mean_powers, drawn independently of the other symbols,
    so fd does not shape the data.  From fd >= 1/T on, the taps vary within
    the symbol as rayleigh_cir draws them.
    """

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
        if self.n_symbols * self.chirp.n1 > MAX_DATASET_SAMPLES:
            raise ConfigurationError(f"{self.n_symbols} symbols x {self.chirp.n1} "
                                     f"samples exceed {MAX_DATASET_SAMPLES}")
        _check_range("snr", self.snr_db_range)
        if self.snr_db_range[0] == -np.inf:  # no noise level, not noiseless
            raise ConfigurationError("an snr of -inf dB has no noise level")
        f32_max = float(np.finfo(np.float32).max)  # of the stored snr metadata
        if any(math.isfinite(v) and abs(v) > f32_max for v in self.snr_db_range):
            raise ConfigurationError(f"a finite snr outside +-{f32_max:g} dB does not "
                                     "fit the float32 record metadata")
        _check_range("sto", self.sto_range)
        _check_range("speed", self.speed_range)
        if not 0 < self.split < 1:  # NaN too
            raise ConfigurationError(f"split={self.split} must lie strictly between 0 and 1")
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
    """One received, downsampled symbol as a float64 vector of length N1:
    the one-row case of the node builder's apply_channel_rows."""
    return apply_channel_rows(_chirps(spec.chirp), [bit], channel, [snr_db], [sto],
                              [speed], [noise_seed], lam=spec.chirp.lam)[0]


def _chirps(params: ChirpParams):
    """The symbols of bits 0 and 1."""
    return generate_chirp(params, "up"), generate_chirp(params, "down")


def build_node_dataset(spec: DatasetSpec):
    """Deterministically synthesize the node dataset; returns (train, test)
    SymbolSet pairs with disjoint records.

    Every draw of the node comes first, symbol by symbol in one stream: the
    bit, the SNR, STO and speed, the noise seed, then the CIR seed.  The
    symbols are then built a block of rows at a time by apply_channel_rows,
    each rounded once into the float32 records, and an error names the first
    bad record."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    n = spec.n_symbols
    bits, snr, sto, speed, noise_seeds, cir_seeds = [], [], [], [], [], []
    for _ in range(n):
        bits.append(int(rng.random() < 0.5))
        snr.append(_draw(rng, *spec.snr_db_range))
        sto.append(_draw(rng, *spec.sto_range))
        speed.append(_draw(rng, *spec.speed_range))
        noise_seeds.append(int(rng.integers(0, 2 ** 63 - 1)))
        if spec.channel_tag == "rayleigh":
            cir_seeds.append(int(rng.integers(0, 2 ** 63 - 1)))
    channel = (identity_channel(Ts=1.0 / spec.chirp.fs) if spec.channel_tag == "identity"
               else spec.rayleigh)
    # samples are kept as the dataset container stores them, in f32, so
    # save/load round-trips are bit-identical and the receiver computes in f32
    samples = np.empty((n, spec.chirp.n1), dtype=np.float32)
    apply_channel_rows(_chirps(spec.chirp), bits, channel, snr, sto, speed, noise_seeds,
                       lam=spec.chirp.lam, out=samples, row_name="record",
                       cir_seeds=cir_seeds)
    finite = np.isfinite(samples).all(axis=1)  # a sample past the f32 range is inf
    if not finite.all():
        raise ConfigurationError(
            f"record {int(np.argmin(finite))}: sample outside the float32 range")
    tag_idx = np.full(n, CHANNEL_TAGS.index(spec.channel_tag), dtype=np.uint16)
    return _split(spec.n_train, samples, np.array(bits, dtype=np.float32),
                  *(np.array(v, dtype=np.float32) for v in (snr, sto, speed)),
                  tag_idx, CHANNEL_TAGS)


def _split(k, samples, labels, snr, sto, speed, tag_idx, tag_table):
    """(train, test): the first k records, then the rest."""
    def part(sl):
        return SymbolSet(LabeledBatch(samples[sl], labels[sl]),
                         snr[sl], sto[sl], speed[sl], tag_idx[sl], tag_table)

    return part(slice(0, k)), part(slice(k, None))


def _clean_received_symbol(bit, params, sto, speed):
    """Noise-free impaired symbol at the downsampled rate."""
    if not (sto or speed):  # no impairment: no channel
        return downsample(_chirps(params)[bit], params.lam).samples
    return apply_channel_rows(_chirps(params), [bit], identity_channel(Ts=1.0 / params.fs),
                              [np.inf], [sto], [speed], [0], lam=params.lam)[0]


def _blas_threads(environ=os.environ):
    """The BLAS thread count that OpenBLAS reads from the environment: the
    first positive one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, each read as C's atoi reads it, or None for all cores."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        digits = re.match(r"\s*[+-]?\d+", environ.get(name, ""))
        if digits and int(digits[0]) > 0:
            return int(digits[0])
    return None


def _use_helper() -> bool:
    """Whether run_rounds and ber_monte_carlo take a helper thread: only with
    one BLAS thread and at least two cores in this process's affinity, so
    that the two threads never oversubscribe the cores."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return _blas_threads() == 1 and cores >= 2


def _helper_pool():
    """A one-thread pool, or a null context without a helper.  Leaving it
    joins the helper thread."""
    if not _use_helper():
        return contextlib.nullcontext()
    # imported here, as it loads logging: 10 ms that only the helper needs
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1)


def _prefetched(items, pool):
    """Iterate `items`, none of them None, taking each next one on pool's
    thread while the caller works on the current one; inline without one."""
    if pool is None:
        yield from items
        return
    pending = pool.submit(next, items, None)
    while (item := pending.result()) is not None:
        pending = pool.submit(next, items, None)
        yield item


def noise_stream_key(ebn0_db):
    """The per-SNR part of the BER seed: millidecibels, as 31 bits."""
    millidecibels = ebn0_db * 1000
    if not math.isfinite(millidecibels):
        raise ConfigurationError(f"Eb/N0 of {ebn0_db} dB has no noise stream")
    return int(millidecibels) & 0x7FFFFFFF


def ber_monte_carlo(params, detectors, ebn0_db, sto, speed, trials, seed,
                    checkpoint_params=None):
    """Empirical BER of each detector, in order: clean impaired symbols plus
    receiver-side AWGN.

    The detectors share their bits and noise: each chunk of symbols is drawn
    once and every detector decides on the same block, so a comparison of
    detectors at one Eb/N0 is paired, and a detector's BER does not depend on
    which others run beside it.  Noise level follows the binary-orthogonal
    convention: per-sample sigma = sqrt(Eb / (2 * ebn0)) with Eb the
    full-rate symbol energy, so ebn0_db is 10*log10(T*fs/2) dB, 26.8 dB at
    960 samples, above the per-sample SNR of DatasetSpec.snr_db_range.

    The matched filter scores the float64 rows.  The network scores them
    rounded once to float32, the precision it is trained in; a block whose
    pass leaves the float32 range raises InputError (see
    receiver.detect_batch) rather than scoring a saturated network.

    With one BLAS thread and two cores (see _use_helper) a helper thread
    makes the generator calls, the next block's bits and normals, while the
    calling thread builds and scores the current block; the helper is joined
    before the call returns or raises.
    """
    detectors = list(detectors)
    if not detectors or not set(detectors) <= set(DETECTORS) or (
            "dnn" in detectors and checkpoint_params is None):
        raise ConfigurationError(f"detectors {detectors!r} need to be a non-empty "
                                 "list of mf, and dnn with checkpoint parameters")
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    eb = float(np.sum(generate_chirp(params, "up").samples ** 2))
    try:
        sigma = math.sqrt(eb / (2.0 * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0 < sigma < math.inf:  # NaN too
        raise ConfigurationError(f"Eb/N0 of {ebn0_db} dB gives no finite, nonzero noise level")
    rng = np.random.default_rng(np.random.SeedSequence([seed, noise_stream_key(ebn0_db)]))
    s_clean = [_clean_received_symbol(b, params, sto, speed) for b in (0, 1)]
    rows = min(BLOCK_ROWS, trials)
    bufs = [np.empty((rows, params.n1)), np.empty((rows, params.n1))]
    rows32 = np.empty((rows, params.n1), np.float32) if "dnn" in detectors else None

    def draws():
        """(bits, standard normals) of each block in stream order: a chunk's
        bits, then its normals a block at a time, into the two buffers in
        turn.  Generator calls only."""
        for c0 in range(0, trials, NOISE_CHUNK):
            bits = rng.integers(0, 2, size=min(NOISE_CHUNK, trials - c0))
            for r0 in range(0, bits.size, BLOCK_ROWS):
                b = bits[r0:r0 + BLOCK_ROWS]
                rx = bufs[0][:b.size]
                bufs.reverse()
                yield b, rng.standard_normal(out=rx)

    errors = [0] * len(detectors)
    # A helper draws block k+1 into one buffer while this thread builds and
    # scores block k in the other.  Only one thread draws, in block order, so
    # the stream is the serial one; leaving the with-block joins the helper.
    with _helper_pool() as pool:
        for b, rx in _prefetched(draws(), pool):
            # rounded once per element as s_bit + z*sigma, with no temporaries
            np.multiply(rx, sigma, out=rx)
            one = (b == 1)[:, None]
            np.add(rx, s_clean[0], out=rx, where=~one)
            np.add(rx, s_clean[1], out=rx, where=one)
            for i, detector in enumerate(detectors):
                if detector == "mf":
                    dec = matched_filter_detect_batch(rx, params)
                else:
                    x = rows32[:b.size]
                    with np.errstate(over="ignore"):  # inf inputs fail the pass
                        np.copyto(x, rx)
                    dec = detect_batch(checkpoint_params, x)
                errors[i] += int(np.count_nonzero(dec != b))
    return [e / trials for e in errors]


def wilson_half_width(ber, trials):
    """Half width of the 95% Wilson score interval of a BER over `trials`."""
    if trials == 0:
        return 0.0
    z = 1.959963984540054
    denom = 1 + z * z / trials
    return z * math.sqrt(ber * (1 - ber) / trials + z * z / (4 * trials ** 2)) / denom


def _spec_to_json(spec: DatasetSpec, n_train: int) -> str:
    d = asdict(spec)  # the chirp and rayleigh configs too
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

    # the checks of load_dataset, made before anything is written
    n1 = spec.chirp.n1
    for s in (train, test):
        if s.batch.inputs.shape[1] != n1:
            raise ConfigurationError(
                f"{s.batch.inputs.shape[1]}-sample records disagree with the spec's "
                f"n1={n1} at lam={spec.chirp.lam}")
        if s.tag_table != train.tag_table or not np.all(
                (s.channel_tag >= 0) & (s.channel_tag < len(train.tag_table))):
            raise ConfigurationError("tag index outside the tag table")
        if not np.all((s.batch.labels == 0) | (s.batch.labels == 1)):
            raise ConfigurationError("label is not a bit")
    rec = np.empty(len(train) + len(test), _record_dtype(n1))
    with np.errstate(over="ignore"):  # a sample past the f32 range is caught below
        for name, a, b in zip(rec.dtype.names, columns(train), columns(test)):
            rec[name] = np.concatenate([a, b])
    if not np.all(np.isfinite(rec["x"])):
        raise ConfigurationError("sample outside the float32 range")
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
        train, test = _split(n_train, rec["x"].astype(np.float32),
                             rec["label"].astype(np.float32),
                             *(rec[k].astype(np.float32) for k in ("snr", "sto", "speed")),
                             rec["tag"].astype(np.uint16), tag_table)
    return train, test, spec
