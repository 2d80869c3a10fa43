"""One benchmark workload in one process: set up, run timed ops, check them.

Started by run.py; prints one JSON object as its last stdout line.  All
inputs derive from --seed.  Ops run closed loop with a single caller, in
whole cycles (synth: one op per impairment profile; fed: one op; detect: a
train-single and a ber-sweep), so every cycle does the same mix of work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time

from reference import Reference, Sampler, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LAM = 6

FULL = {"synth_symbols": 25, "fed_symbols": 1250, "fed_rounds": 2,
        "detect_symbols": 1250, "detect_trials": 100000}
# Smallest sizes that still run every code path; used by the self-test.
TINY = {"synth_symbols": 5, "fed_symbols": 40, "fed_rounds": 1,
        "detect_symbols": 100, "detect_trials": 20000}


def derive_seed(seed, *path):
    """A 32-bit seed from the workload seed and a non-negative path, so no
    input depends on anything but --seed."""
    import numpy as np
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def op_seed(seed, tag, i):
    return derive_seed(seed, tag, 0, i)


def setup_seed(seed, tag, i):
    return derive_seed(seed, tag, 1, i)


class Op:
    """Timing and outcome of one op."""

    def __init__(self, kind, units):
        self.kind, self.units = kind, units
        self.s = 0.0
        self.problems = []
        self.refs = []  # reference-kernel times sampled during the op

    def record(self):
        return {"kind": self.kind, "units": self.units, "s": self.s,
                "ok": not self.problems, "problems": self.problems[:3]}


class Synth:
    """Node-dataset synthesis plus a container round trip per op.

    Exercises chirp, channel and data; receiver and federation stay idle.
    """

    tag = 1
    cycle_ops = 3
    rates = {"symbols_per_s": ("sto", "doppler", "rayleigh")}
    profiles = (
        ("sto", dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0))),
        ("doppler", dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                         speed_range=(0.0, 10.0))),
        ("rayleigh", dict(snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                          speed_range=(0.0, 10.0), channel_tag="rayleigh")),
    )

    def __init__(self, seed, sizes, workdir):
        from chirpfed import chirp, data
        self.chirp, self.data = chirp, data
        self.seed, self.n = seed, sizes["synth_symbols"]
        self.path = os.path.join(workdir, "node.uwds")

    def run_op(self, i, timed):
        kind, ranges = self.profiles[i % len(self.profiles)]
        op = Op(kind, self.n)
        data = self.data
        spec = data.DatasetSpec(n_symbols=self.n,
                                chirp=self.chirp.ChirpParams(lam=LAM),
                                seed=op_seed(self.seed, self.tag, i), **ranges)
        with timed(op):
            train, test = data.build_node_dataset(spec)
            data.save_dataset(self.path, train, test, spec)
            train2, test2, spec2 = data.load_dataset(self.path)
        if op.problems:
            return op
        self.check(op, spec, (train, test), (train2, test2), spec2)
        return op

    def check(self, op, spec, saved, loaded, spec2):
        import numpy as np
        p = op.problems
        if spec2 != spec:
            p.append("spec changed in the container round trip")
        tag = self.data.CHANNEL_TAGS.index(spec.channel_tag)
        for a, b in zip(saved, loaded):
            for x, y in ((a.batch.inputs, b.batch.inputs),
                         (a.batch.labels, b.batch.labels),
                         (a.snr_db, b.snr_db), (a.sto_samples, b.sto_samples),
                         (a.rel_speed, b.rel_speed),
                         (a.channel_tag, b.channel_tag)):
                if x.dtype != y.dtype or x.tobytes() != y.tobytes():
                    p.append("container round trip is not bit-identical")
            if not np.all(np.isfinite(a.batch.inputs)):
                p.append("non-finite samples")
            for name, vals, (lo, hi) in (
                    ("snr", a.snr_db, spec.snr_db_range),
                    ("sto", a.sto_samples, spec.sto_range),
                    ("speed", a.rel_speed, spec.speed_range)):
                # metadata is stored as f32, and rounding to f32 is monotone
                if not np.all((vals >= np.float32(lo)) & (vals <= np.float32(hi))):
                    p.append(f"{name} metadata outside [{lo}, {hi}]")
            if not np.all(a.channel_tag == tag):
                p.append("channel tag differs from the profile")


class Fed:
    """Exact-MAML federated rounds over K=10 prebuilt nodes.

    Exercises receiver and federation; channel stays idle.  Each op
    continues from the global parameters the previous op returned.
    """

    tag = 2
    cycle_ops = 1
    rates = {"rounds_per_s": ("run_rounds",)}
    K = 10
    groups = ((-12.0, -6.0), (-6.0, 0.0))
    # Lowest post-adaptation accuracy accepted in any round.  At the seed
    # commit the lowest seen in the first six rounds of twelve seeds was
    # 0.71, and no round of 30 full runs fell below 0.6.
    min_adapted_acc = 0.6

    def __init__(self, seed, sizes, workdir):
        import numpy as np
        from chirpfed import chirp, data, federation, receiver
        self.federation = federation
        self.seed, self.rounds = seed, sizes["fed_rounds"]
        params = chirp.ChirpParams(lam=LAM)
        h1, h2 = receiver.default_hidden(params.n1)
        rng = np.random.default_rng(setup_seed(seed, self.tag, 0))
        theta = receiver.init_params([params.n1, h1, h2, 1], rng)
        per_group = self.K // len(self.groups)
        self.nodes = []
        for nid in range(self.K):
            spec = data.DatasetSpec(
                n_symbols=sizes["fed_symbols"], chirp=params,
                snr_db_range=self.groups[nid // per_group],
                seed=setup_seed(seed, self.tag, 1 + nid))
            tr, te = data.build_node_dataset(spec)
            # unit-variance inputs, as in acceptance criteria 8 and 9
            scale = 1.0 / np.std(tr.batch.inputs)
            self.nodes.append(federation.NodeState(
                nid, theta,
                receiver.LabeledBatch(tr.batch.inputs * scale, tr.batch.labels),
                receiver.LabeledBatch(te.batch.inputs * scale, te.batch.labels)))
        self.uploads = 0

    def run_op(self, i, timed):
        import numpy as np
        fed = self.federation
        cfg = fed.FmlConfig(K=self.K, G=0.3, alpha=0.5, beta=0.2, T0=1,
                            rounds=self.rounds, p_decode=0.9,
                            seed=op_seed(self.seed, self.tag, i), mode="exact")
        op = Op("run_rounds", self.rounds)
        with timed(op):
            logs, theta = fed.run_rounds(cfg, self.nodes, "fml")
        p = op.problems
        if p:
            return op
        self.nodes[0].theta = theta
        if len(logs) != self.rounds:
            p.append(f"{len(logs)} round logs for {self.rounds} rounds")
        for log in logs:
            self.uploads += len(log.successful)
            if len(log.scheduled) != cfg.N:
                p.append(f"round {log.round_index}: {len(log.scheduled)} scheduled, N={cfg.N}")
            if not set(log.successful) <= set(log.scheduled):
                p.append(f"round {log.round_index}: successful not within scheduled")
            if not np.isfinite(log.train_loss):
                p.append(f"round {log.round_index}: non-finite loss")
            if not log.adapted_acc >= self.min_adapted_acc:
                p.append(f"round {log.round_index}: adapted accuracy "
                         f"{log.adapted_acc:.3f} < {self.min_adapted_acc}")
        return op


class Detect:
    """train-single and ber-sweep through cli.main on one gen-data dataset.

    Exercises receiver (minibatch Adam, batch inference), chirp (matched
    filter) and cli; federation stays idle.
    """

    tag = 3
    cycle_ops = 2
    # The first rate is work_per_s.  Not train_samples_per_s: four or five
    # half-second train-single calls per run spread 4-10% between runs,
    # against 1-2% for the ber-sweep calls.
    rates = {"trials_per_s": ("ber-sweep",),
             "train_samples_per_s": ("train-single",)}
    epochs = 20  # the train-single default
    snr_db = (6.0, 9.0, 12.0)  # the ber-sweep default grid
    # Bounds on BER plus Wilson half-width, per detector and Eb/N0.  At the
    # seed commit the MF reads about 0.228, 0.144 and 0.068, and twenty
    # trained receivers read 0.28-0.32, 0.21-0.25 and 0.12-0.16.
    ber_bounds = {"mf": (0.26, 0.18, 0.10), "dnn": (0.40, 0.33, 0.25)}
    max_test_ber = 0.05

    def __init__(self, seed, sizes, workdir):
        from chirpfed import cli, receiver
        from chirpfed.errors import ChirpfedError
        self.cli, self.receiver, self.error = cli, receiver, ChirpfedError
        self.seed, self.trials = seed, sizes["detect_trials"]
        self.data = os.path.join(workdir, "node.uwds")
        self.ckpt = os.path.join(workdir, "net.cdnn")
        self.csv = os.path.join(workdir, "ber.csv")
        symbols = sizes["detect_symbols"]
        rc = cli.main(["gen-data", "--seed", str(setup_seed(seed, self.tag, 0)),
                       "--symbols", str(symbols), "--lambda", str(LAM),
                       "--snr-range", "6", "12", "--out", self.data])
        if rc != 0:
            raise RuntimeError(f"gen-data exited {rc}")
        self.n_train = round(symbols * 0.8)  # the gen-data default split
        self.n_test = symbols - self.n_train

    def run_op(self, i, timed):
        s = str(op_seed(self.seed, self.tag, i))
        if i % 2 == 0:
            op = Op("train-single", self.epochs * self.n_train)
            out = io.StringIO()
            with timed(op), contextlib.redirect_stdout(out):
                rc = self.cli.main(["train-single", "--seed", s, "--data",
                                    self.data, "--out", self.ckpt])
            if not op.problems:
                self.check_train(op, rc, out.getvalue())
        else:
            rows = len(self.snr_db) * 2
            op = Op("ber-sweep", rows * self.trials)
            with timed(op):
                rc = self.cli.main(["ber-sweep", "--seed", s, "--detector", "mf,dnn",
                                    "--lambda", str(LAM), "--trials", str(self.trials),
                                    "--checkpoint", self.ckpt, "--out", self.csv])
            if not op.problems:
                self.check_sweep(op, rc, s)
        return op

    def check_train(self, op, rc, printed):
        p = op.problems
        if rc != 0:
            p.append(f"train-single exited {rc}")
            return
        m = re.fullmatch(r"test BER (\S+) on (\d+) held-out symbols\n", printed)
        if not m or int(m.group(2)) != self.n_test:
            p.append(f"unexpected train-single output {printed!r}")
        elif not float(m.group(1)) <= self.max_test_ber:
            p.append(f"held-out BER {m.group(1)} > {self.max_test_ber}")
        try:
            sizes = self.receiver.load_params(self.ckpt).layer_sizes
        except (self.error, OSError) as exc:
            p.append(f"checkpoint does not reload: {exc}")
            return
        n1 = 960 // LAM
        if sizes != [n1, n1, (7 * n1) // 8, 1]:
            p.append(f"checkpoint layer sizes {sizes}")

    def check_sweep(self, op, rc, seed):
        p = op.problems
        if rc != 0:
            p.append(f"ber-sweep exited {rc}")
            return
        with open(self.csv) as f:
            lines = f.read().splitlines()
        if len(lines) < 4 or not (lines[0].startswith("# tool=chirpfed ")
                                  and lines[1].startswith("# config=")
                                  and lines[2] == f"# seed={seed}"):
            p.append("ber-sweep CSV is not stamped")
            return
        if lines[3] != "snr_db,detector,lambda,sto,speed,ber,trials,wilson95_half_width":
            p.append(f"ber-sweep CSV header {lines[3]!r}")
            return
        rows = [r.split(",") for r in lines[4:]]
        if len(rows) != 2 * len(self.snr_db):
            p.append(f"{len(rows)} ber-sweep rows")
            return
        for k, row in enumerate(rows):  # detectors vary fastest
            try:
                det, ber, half = row[1], float(row[5]), float(row[7])
                bound = self.ber_bounds[det][k // 2]
            except (IndexError, KeyError, ValueError):
                p.append(f"malformed ber-sweep row {row}")
                continue
            if not ber + half < bound:
                p.append(f"{det} BER {ber} + {half} >= {bound} at {row[0]} dB")


WORKLOADS = {"synth": Synth, "fed": Fed, "detect": Detect}


def run_phase(wl, seconds, first_op, tracer=None):
    """Whole cycles until another cycle would likely overrun `seconds`.

    Untraced phases also sample the reference kernel during ops (see
    reference.Sampler); traced phases sample it between ops only, so that
    no span holds a sample.
    """
    sampler = Sampler(Reference()) if tracer is None else None
    ref = sampler.held_ref if sampler else Reference()

    @contextlib.contextmanager
    def timed(op):
        """Time the op, less any sampling pauses, and trace it when
        tracing.  An exception becomes a failed op, not the end of the run."""
        n0, p0 = (len(sampler.samples), sampler.paused_s) if sampler else (0, 0.0)
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # the op failed; count it and go on
            op.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            op.s = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if sampler:
                op.s -= sampler.paused_s - p0
                op.refs = sampler.samples[n0:]

    cycles = []
    i = first_op
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        before = ref()
        while True:
            cycle = []
            for _ in range(wl.cycle_ops):
                if tracer is not None:
                    tracer.op = i
                op = wl.run_op(i, timed)
                after = ref()
                rec = op.record()
                rec["refs"] = [before, *op.refs, after]
                rec["ref_s"] = statistics.mean(rec["refs"])
                rec["norm_s"] = scaled(rec["s"], rec["ref_s"])
                before = after
                cycle.append(rec)
                i += 1
            cycles.append(cycle)
            elapsed = time.perf_counter() - t0
            if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
                return cycles, i


def rate(cycles, kinds, key="norm_s"):
    """Units per second over all ops of `kinds`: total units over total
    time.  With four or five long ops in a run, this spreads less from run
    to run than a median of per-op rates."""
    ops = [o for c in cycles for o in c if o["kind"] in kinds]
    return sum(o["units"] for o in ops) / sum(o[key] for o in ops)


def cycle_seconds(cycles):
    """Mean scaled time of one cycle."""
    return sum(o["norm_s"] for c in cycles for o in c) / len(cycles)


def layer_metrics(tracer, traced, fed_uploads):
    """Per-op layer figures from the traced spans.  Times are scaled to a
    quiet machine by the traced ops' median reference time."""
    from tracing import LAYERS, summarize
    ops = [o for c in traced for o in c]
    n_ops = len(ops)
    ms = scaled(1e-6 / n_ops, statistics.median(o["ref_s"] for o in ops))
    summary = summarize(tracer.spans)
    out = {}
    for name in sorted(tracer.installed):
        s = summary.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
        out[f"{name}.calls"] = s["calls"] / n_ops
        out[f"{name}.self_ms"] = s["self_ns"] * ms
        out[f"{name}.ms"] = s["ns"] * ms
    for layer in LAYERS:
        own = [s for n, s in summary.items() if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(s["calls"] for s in own) / n_ops
        out[f"{layer}.self_ms"] = sum(s["self_ns"] for s in own) * ms

    def work(name):
        return summary.get(name, {}).get("work", 0)

    samples_out = work("channel.apply_channel")
    out["channel.samples_out"] = samples_out / n_ops
    out["synth.kept_sample_ratio"] = (work("data.synthesize_symbol") / samples_out
                                      if samples_out else 0.0)
    out["data.container_bytes"] = work("data.save_dataset") / n_ops
    out["receiver.grad.rows"] = work("receiver.grad") / n_ops
    steps = summary.get("federation.local_maml_step", {}).get("calls", 0)
    out["federation.useful_update_ratio"] = fed_uploads / steps if steps else 0.0
    empty = summary.get("federation.aggregate", {}).get("exc", {}).get(
        "EmptyRoundError", 0)
    out["federation.empty_rounds"] = empty / n_ops
    return out


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "chirpfed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    # Set-up is sampled like an op: the kernel runs every 0.25 s and its
    # pauses, and building it, are taken off the set-up time.
    t0 = time.perf_counter()
    import numpy  # noqa: F401  the package's first import, part of import_s
    t1 = time.perf_counter()
    sampler = Sampler(Reference())
    pause_s = time.perf_counter() - t1
    sys.path.insert(0, SRC)
    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    workdir = tempfile.mkdtemp(dir=args.out_dir)
    try:
        with sampler:
            import chirpfed.cli
            import_s = time.perf_counter() - t0 - pause_s - sampler.paused_s
            if not os.path.abspath(chirpfed.cli.__file__).startswith(SRC + os.sep):
                sys.exit(f"chirpfed was imported from {chirpfed.cli.__file__}, not {SRC}")
            sizes = TINY if args.tiny else FULL
            wl = WORKLOADS[args.workload](args.seed, sizes, workdir)
            ready = time.monotonic()
            pause_s += sampler.paused_s
        result = {"ready": ready, "pause_s": pause_s, "import_s": import_s,
                  "setup_refs": sampler.samples + [Reference().sample()]}
        if not args.setup_only:
            result.update(measure(args, wl, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, wl, tracer):
    if tracer is None:
        cycles, _ = run_phase(wl, args.seconds, 0)
        traced = []
    else:
        # half the time untraced, half traced, to give the tracing overhead
        cycles, next_op = run_phase(wl, args.seconds / 2, 0)
        uploads0 = getattr(wl, "uploads", 0)
        tracer.install()
        traced, _ = run_phase(wl, args.seconds / 2, next_op, tracer)
        tracer.uninstall()
    ops = [o for c in cycles + traced for o in c]
    out = {
        "env": environment(args.seed),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "problems": [p for o in ops for p in o["problems"]][:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": rate(cycles, next(iter(wl.rates.values()))),
        "cycle_s": cycle_seconds(cycles),
        "rates": {name: rate(cycles, kinds) for name, kinds in wl.rates.items()},
        "unscaled_rates": {name: rate(cycles, kinds, "s")
                       for name, kinds in wl.rates.items()},
        "cycles": cycles,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, traced, getattr(wl, "uploads", 0) - uploads0)
        layers["trace.overhead_ratio"] = cycle_seconds(cycles) / cycle_seconds(traced)
        out["layers"] = layers
        out["traced_cycles"] = traced
        tracer.write_spans(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return out


if __name__ == "__main__":
    main()
