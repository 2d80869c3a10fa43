"""Experiment driver: BER sweeps, federation runs, bound tables, complexity.

Every subcommand requires --seed and stamps its CSV output with the tool
version, a config hash and the seed, so reruns with identical inputs are
byte-identical.

Exit codes: 0 success, 2 usage error, 3 validity-flag failure,
4 runtime/training error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys

import numpy as np

from . import __version__
from . import bound as bound_mod
from . import channel as channel_mod
from . import chirp as chirp_mod
from . import data as data_mod
from . import federation as fed_mod
from . import receiver as recv_mod
from .errors import ChirpfedError, ConfigurationError, TrainingError, ValidityError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDITY = 3
EXIT_RUNTIME = 4

MAX_GRID_POINTS = 10_000  # per --snr-db grid, checked before the list is built
SNR_CONVENTION = "Eb/N0 = SNR + 10*log10(T*fs/2), 26.8 dB more at 960 samples/symbol"

# Published complexity table (operation counts per symbol decision):
# columns MF lambda=1/2/6 and DNN lambda=6 at 960 samples per symbol.
TABLE2 = {
    ("mf", 1): {"add": 1919, "mul": 1842240, "nav": None, "total": 1844159},
    ("mf", 2): {"add": 959, "mul": 460320, "nav": None, "total": 461279},
    ("mf", 6): {"add": 319, "mul": 51040, "nav": None, "total": 51359},
    ("dnn", 6): {"add": 301, "mul": 42420, "nav": 301, "total": 43022},
}


def _config_hash(args: argparse.Namespace) -> str:
    # the output path is where results land, not part of the experiment
    blob = json.dumps({k: repr(v) for k, v in sorted(vars(args).items())
                       if k not in ("func", "out")}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(out, args, rows, header):
    """Write a stamped CSV: comment header then data rows."""
    lines = [
        f"# tool=chirpfed {__version__}",
        f"# config={_config_hash(args)}",
        f"# seed={args.seed}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


def _parse_grid(spec: str):
    """'0:2:16' -> start:step:stop inclusive; '12' -> [12.0]."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}, want start:step:stop")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not a number or a start:step:stop grid") from None
    if len(values) == 1:
        return values
    start, step, stop = values
    if not all(map(math.isfinite, (start, step, stop))):
        raise argparse.ArgumentTypeError(f"grid {spec!r} is not finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    # +-inf if the bounds are far apart; a descending grid is empty
    span = max(-1.0, (stop - start) / step + 1e-9)
    if not span < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {spec!r} exceeds {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(span) + 1)]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------- complexity

def cmd_complexity(args) -> int:
    counts = {"mf": chirp_mod.mf_op_count, "dnn": chirp_mod.dnn_op_count}
    uneven = sorted({lam for _, lam in TABLE2 if args.n1 % lam})
    if uneven:
        raise ConfigurationError(f"--n1 {args.n1} is not a multiple of lambda "
                                 f"{', '.join(map(str, uneven))}")
    rows = []
    for (det, lam), ref in TABLE2.items():
        rep = counts[det](args.n1 // lam)
        got = {"add": rep.additions, "mul": rep.multiplications,
               "nav": rep.nonlinear_activations, "total": rep.total}
        flags = [k for k, v in got.items() if ref[k] is not None and v != ref[k]]
        rows.append([det, lam, *got.values(), ref["add"], ref["mul"], ref["total"],
                     "", ";".join(flags)])
    # advantage over the DNN, from the published totals
    dnn_total = TABLE2[("dnn", 6)]["total"]
    for lam in (1, 2, 6):
        mf_total = TABLE2[("mf", lam)]["total"]
        adv = 100.0 * (mf_total - dnn_total) / dnn_total
        rows.append([f"advantage_mf{lam}", lam, "", "", "", "", "", "", "",
                     f"{adv:.1f}%", ""])
    header = ["detector", "lambda", "add", "mul", "nav", "total",
              "table_add", "table_mul", "table_total", "advantage",
              "mismatch_flags"]
    _emit(args.out, args, rows, header)
    return EXIT_OK


# --------------------------------------------------------------------- bound

def cmd_bound(args) -> int:
    rows = []
    for t0 in args.t0:
        c = bound_mod.SmoothnessConstants(
            mu=args.mu, H=args.big_h, rho=args.rho, B=args.b,
            delta=args.delta, sigma=args.sigma, alpha=args.alpha,
            beta=args.beta, C=args.c, tau=args.tau, N=args.n_nodes,
            T0=t0, n=args.gap0, epsilon=args.epsilon)
        d = bound_mod.derive_constants(c, args.xi_variant)
        tz_str, flags = "", ";".join(d.flags)
        if not flags:
            try:
                tz_str = _fmt(bound_mod.tz_bound(c, args.xi_variant))
            except ValidityError as exc:
                flags = str(exc)
        m_str = ""
        if 0 < d.beta * d.H_p < 1:
            m_str = _fmt(bound_mod.m_of_T(d, t0))
        rows.append([t0, _fmt(d.mu_p), _fmt(d.H_p), _fmt(d.mu_pp),
                     _fmt(d.H_pp), _fmt(d.alpha_p), _fmt(d.xi),
                     m_str, tz_str, flags])
    header = ["t0", "mu_p", "h_p", "mu_pp", "h_pp", "alpha_p", "xi",
              "m_t0", "tz", "validity_flags"]
    _emit(args.out, args, rows, header)
    return EXIT_VALIDITY if any(row[-1] for row in rows) else EXIT_OK


# ----------------------------------------------------------------- ber-sweep

def cmd_ber_sweep(args) -> int:
    detectors = args.detector.split(",")
    if not set(detectors) <= set(data_mod.DETECTORS):
        raise ConfigurationError(f"--detector {args.detector!r} is not a comma list of "
                                 f"{','.join(data_mod.DETECTORS)}")
    if len(set(detectors)) < len(detectors):
        raise ConfigurationError(
            f"--detector {args.detector!r} names a detector more than once")
    if args.trials < 0:
        raise ConfigurationError("--trials must be >= 0")
    ckpt = None
    if "dnn" in detectors:
        if not args.checkpoint:
            raise ConfigurationError("--checkpoint is required when detector includes dnn")
        ckpt = recv_mod.load_params(args.checkpoint)
    params = chirp_mod.ChirpParams(lam=args.lam)
    if ckpt is not None and ckpt.layer_sizes[0] != params.n1:
        raise ConfigurationError(
            f"--checkpoint takes {ckpt.layer_sizes[0]}-sample symbols, but --lambda "
            f"{args.lam} gives {params.n1}-sample symbols")
    grid = []  # no trials, no rows
    if args.trials > 0:
        grid = data_mod.ber_monte_carlo(params, detectors, args.snr_db, args.sto,
                                        args.speed, args.trials, args.seed,
                                        checkpoint_params=ckpt)
    rows = []
    for snr, bers in zip(args.snr_db, grid):
        for det, ber in zip(detectors, bers):
            half = data_mod.wilson_half_width(ber, args.trials)
            rows.append([_fmt(snr), det, args.lam, _fmt(args.sto),
                         _fmt(args.speed), _fmt(ber), args.trials, _fmt(half)])
    header = ["snr_db", "detector", "lambda", "sto", "speed", "ber", "trials",
              "wilson95_half_width"]
    _emit(args.out, args, rows, header)
    return EXIT_OK


# ------------------------------------------------------------------ gen-data

def _spec_from_args(args, seed, snr, sto, speed, channel="identity"):
    """A node's DatasetSpec: size and rate from args, impairments given."""
    return data_mod.DatasetSpec(
        n_symbols=args.symbols, split=args.split,
        chirp=chirp_mod.ChirpParams(lam=args.lam), snr_db_range=tuple(snr),
        sto_range=tuple(sto), speed_range=tuple(speed), channel_tag=channel,
        seed=seed)


def cmd_gen_data(args) -> int:
    spec = _spec_from_args(args, args.seed, args.snr_range, args.sto_range,
                           args.speed_range, args.channel)
    train, test = data_mod.build_node_dataset(spec)
    data_mod.save_dataset(args.out, train, test, spec)
    return EXIT_OK


# -------------------------------------------------------------- train-single

def cmd_train_single(args) -> int:
    train, test, spec = data_mod.load_dataset(args.data)
    n1 = train.batch.inputs.shape[1]
    h1, h2 = recv_mod.default_hidden(n1)
    rng = np.random.default_rng(args.seed)
    p = recv_mod.init_params([n1, h1, h2, 1], rng)
    p = recv_mod.train(p, train.batch, epochs=args.epochs, lr=args.lr,
                       batch_size=args.batch_size, rng=rng)
    ber = recv_mod.ber_eval(p, test.batch)  # a refused pass writes no checkpoint
    recv_mod.save_params(args.out, p)
    print(f"test BER {ber:.6f} on {len(test.batch)} held-out symbols")
    return EXIT_OK


# ------------------------------------------------------------------- run-fed

def _parse_group(text: str) -> dict:
    """'count=3,sto=0:60,snr=6:12,speed=0:0' -> field dict."""
    out = {"count": 1, "sto": (0.0, 0.0), "snr": (np.inf, np.inf),
           "speed": (0.0, 0.0)}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in out:
            raise ConfigurationError(f"unknown group field {key!r}")
        try:
            if key == "count":
                out["count"] = int(val)
            else:
                lo, _, hi = val.partition(":")
                out[key] = (float(lo), float(hi or lo))
        except ValueError:
            raise ConfigurationError(f"group field {key}={val!r} is not numeric") from None
    if out["count"] < 1:
        raise ConfigurationError(f"group count {out['count']} must be >= 1")
    return out


def _group_specs(args, groups):
    """One DatasetSpec per node, lazily: ids run across the groups in order."""
    members = ((gi, g) for gi, g in enumerate(groups) for _ in range(g["count"]))
    for nid, (gi, g) in enumerate(members):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, gi, nid]))
        yield _spec_from_args(args, int(rng.integers(2 ** 31)), g["snr"], g["sto"],
                              g["speed"])


def cmd_run_fed(args) -> int:
    groups = [_parse_group(g) for g in args.group] or [_parse_group("count=1")]
    k = sum(g["count"] for g in groups)
    cfg = fed_mod.FmlConfig(K=k, G=args.g, alpha=args.alpha, beta=args.beta,
                            T0=args.t0, rounds=args.rounds,
                            p_decode=args.p_decode, seed=args.seed)
    params = chirp_mod.ChirpParams(lam=args.lam)
    h1, h2 = recv_mod.default_hidden(params.n1)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x1417]))
    theta = recv_mod.init_params([params.n1, h1, h2, 1], rng)
    nodes = fed_mod.build_nodes(_group_specs(args, groups), theta)
    logs, _ = fed_mod.run_rounds(cfg, nodes, args.mode)
    rows = [[log.round_index,
             ";".join(str(i) for i in log.scheduled),
             ";".join(str(i) for i in log.successful),
             _fmt(log.train_loss), _fmt(log.test_acc), _fmt(log.adapted_acc)]
            for log in logs]
    header = ["round", "scheduled", "successful", "train_loss", "test_acc",
              "adapted_acc"]
    _emit(args.out, args, rows, header)
    return EXIT_OK


# ----------------------------------------------------------------------- cir

def cmd_cir(args) -> int:
    if args.action == "generate":
        cfg = channel_mod.RayleighModelConfig(fd=args.fd, Ts=args.ts)
        h = channel_mod.rayleigh_cir(cfg, args.duration, args.fs, args.seed)
        channel_mod.save_cir(args.out, h)
        return EXIT_OK
    if args.path is None:
        raise ConfigurationError("--path is required")
    h = channel_mod.load_cir(args.path)
    rows = [[h.n_taps, h.n_time, _fmt(h.Ts),
             ";".join(f"{k}={v}" for k, v in sorted(h.meta.items()))]]
    _emit(args.out, args, rows, ["taps", "time_steps", "ts_s", "meta"])
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _int_list(text: str) -> list[int]:
    """A --t0 value: '1,5,10' -> [1, 5, 10]."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose error messages quote a shielded value (see
    _shield_minus_values) as it was typed."""

    def error(self, message):
        super().error(re.sub(r"'( -[^']*)'", lambda m: repr(_unshield(m[1])), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chirpfed",
        description="Underwater chirp link, C-DNN receiver and federated "
                    "meta-learning experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=_seed, required=True,
                       help="master RNG seed (required; no silent default)")
        p.add_argument("--out", default="-", help="output CSV path or - for stdout")
        p.set_defaults(func=fn)
        return p

    p = add("complexity", cmd_complexity, help="operation-count table")
    p.add_argument("--n1", type=int, default=960,
                   help="full-rate samples per symbol, a multiple of 6 so that "
                        "lambda = 1, 2 and 6 divide it")

    p = add("bound", cmd_bound, help="convergence-bound table")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--big-h", type=float, required=True, dest="big_h",
                   metavar="H", help="smoothness modulus")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--beta", type=float, default=0.0001)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n-nodes", type=int, default=10)
    p.add_argument("--t0", type=_int_list,
                   default=[1, 5, 10], help="comma-separated local-epoch list")
    p.add_argument("--gap0", type=float, default=1.0,
                   help="initial optimality-gap bound")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--xi-variant", choices=bound_mod.XI_VARIANTS, default="proof")

    p = add("ber-sweep", cmd_ber_sweep, help="Monte-Carlo BER grid")
    p.add_argument("--snr-db", type=_parse_grid, default=[6.0, 9.0, 12.0],
                   help=f"Eb/N0 grid start:step:stop in dB, <= {MAX_GRID_POINTS} "
                        "points, not the per-sample SNR of gen-data and "
                        f"run-fed: {SNR_CONVENTION}")
    p.add_argument("--detector", default="mf", help="comma list: mf,dnn")
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--sto", type=float, default=0.0,
                   help="symbol time offset in full-rate samples")
    p.add_argument("--speed", type=float, default=0.0, help="relative speed m/s")
    p.add_argument("--trials", type=int, default=100000,
                   help="symbols per Eb/N0 point; not capped: run time is linear "
                        f"in it, memory is chunks of {data_mod.CHUNK_ROWS} rows")
    p.add_argument("--checkpoint", help="C-DNN checkpoint for detector=dnn")

    p = add("gen-data", cmd_gen_data, help="synthesize one node dataset")
    p.add_argument("--symbols", type=int, default=1250)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--lambda", dest="lam", type=int, default=6)
    p.add_argument("--snr-range", type=float, nargs=2, default=[np.inf, np.inf],
                   help="per-sample SNR range of the received symbols in dB, "
                        f"not Eb/N0: {SNR_CONVENTION}")
    p.add_argument("--sto-range", type=float, nargs=2, default=[0.0, 0.0])
    p.add_argument("--speed-range", type=float, nargs=2, default=[0.0, 0.0])
    p.add_argument("--channel", choices=data_mod.CHANNEL_TAGS, default="identity")

    p = add("train-single", cmd_train_single, help="train a C-DNN on one dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=20,
                   help="passes over the train split; not capped: run time is "
                        "linear in it, memory does not grow with it")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)

    p = add("run-fed", cmd_run_fed, help="federated (meta) learning rounds")
    p.add_argument("--mode", choices=["fml", "fl"], default="fml")
    p.add_argument("--group", action="append", default=[],
                   help="node group, e.g. count=3,sto=0:60,snr=6:12, one node if "
                        "none is given; snr is the per-sample SNR in dB, not "
                        f"Eb/N0: {SNR_CONVENTION}")
    p.add_argument("--g", type=float, default=0.3, help="scheduling ratio G")
    p.add_argument("--t0", type=int, default=1,
                   help="local MAML steps per scheduled node and round; not "
                        "capped: run time is linear in it, memory does not grow with it")
    p.add_argument("--rounds", type=int, default=50,
                   help="communication rounds; not capped: run time and memory "
                        "grow linearly with it, as every round's log and CSV row "
                        "are kept until the CSV is written")
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--beta", type=float, default=0.0001)
    p.add_argument("--p-decode", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=int, default=6)
    p.add_argument("--symbols", type=int, default=1250)
    p.add_argument("--split", type=float, default=0.8)

    p = add("cir", cmd_cir, help="generate or inspect CIR files")
    p.add_argument("action", choices=["generate", "inspect"])
    p.add_argument("--path", help="CIR file to inspect")
    p.add_argument("--fd", type=float, default=10.0)
    p.add_argument("--ts", type=float, default=0.001)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--fs", type=float, default=1000.0)

    return parser


def _is_minus_value(arg: str) -> bool:
    """'-1e1', '-inf', '-6:3:0', '-1:a:3': a value that starts with a
    negative number, which argparse would read as an option, so that its
    type can reject it with the value quoted.  Argparse already takes plain
    negative numbers such as -10 or -1.5 as values, so they stay as they are."""
    if not arg.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", arg):
        return False
    try:
        float(arg.split(":")[0])
    except ValueError:
        return False
    return True


def _shield_minus_values(argv):
    """'-1e1' -> ' -1e1': every option here is long, so a number or grid that
    starts with '-' is a value, and a leading space keeps argparse from
    reading it as an option.  float() and _parse_grid ignore the space;
    _unshield takes it off string values and error messages."""
    return [" " + arg if _is_minus_value(arg) else arg for arg in argv]


def _unshield(value: str) -> str:
    """The value as typed: ' -1e1' -> '-1e1'; any other string unchanged."""
    return value[1:] if value[:1] == " " and _is_minus_value(value[1:]) else value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_shield_minus_values(sys.argv[1:] if argv is None else argv))
    for key, value in vars(args).items():
        if isinstance(value, str):
            setattr(args, key, _unshield(value))
    try:
        return args.func(args)
    except ValidityError as exc:
        print(f"chirpfed: validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except TrainingError as exc:
        print(f"chirpfed: training error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ChirpfedError as exc:
        print(f"chirpfed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"chirpfed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
