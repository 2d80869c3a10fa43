import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chirpfed import cli
from chirpfed.bound import XI_VARIANTS
from chirpfed.chirp import ChirpParams
from chirpfed.channel import RayleighModelConfig
from chirpfed.data import DatasetSpec, build_node_dataset, load_dataset, \
    save_dataset
from chirpfed.receiver import LabeledBatch, default_hidden, init_params, \
    load_params, save_params


def run(argv):
    return cli.main(argv)


def run_to_stderr(argv):
    """(exit code, stderr) of cli.main(argv), with every warning it raises
    appended to that stderr as Python prints one."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # rejected by the argument parser
            rc = exc.code
    return rc, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


def read_csv(path):
    comments, rows = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:] if r]
    return comments, header, data


# --------------------------------------------------------------- complexity

def test_complexity_table(tmp_path):
    out = tmp_path / "cx.csv"
    assert run(["complexity", "--seed", "0", "--out", str(out)]) == 0
    comments, header, data = read_csv(out)
    assert comments[0].startswith("# tool=chirpfed")
    assert comments[2] == "# seed=0"
    byrow = {(r[0], r[1]): r for r in data}
    dnn = byrow[("dnn", "6")]
    cols = dict(zip(header, dnn))
    assert cols["add"] == "301" and cols["nav"] == "301"
    assert cols["mul"] == "48140" and cols["table_mul"] == "42420"
    assert "mul" in cols["mismatch_flags"]
    mf1 = dict(zip(header, byrow[("mf", "1")]))
    assert mf1["add"] == "1919"
    assert mf1["table_total"] == "1844159"
    adv = dict(zip(header, byrow[("advantage_mf6", "6")]))
    assert adv["advantage"] == "19.4%"


def test_complexity_flags_every_count_off_the_table(tmp_path):
    # at half the samples every count but the MF's nav (none published) is off
    out = tmp_path / "cx.csv"
    assert run(["complexity", "--seed", "0", "--n1", "480", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    flags = {(r[0], r[1]): dict(zip(header, r))["mismatch_flags"] for r in data}
    assert flags[("mf", "6")] == "add;mul;total"
    assert flags[("dnn", "6")] == "add;mul;nav;total"
    assert flags[("advantage_mf6", "6")] == ""


# -------------------------------------------------------------------- bound

def test_bound_table_monotone(tmp_path):
    out = tmp_path / "bound.csv"
    rc = run(["bound", "--seed", "0", "--mu", "0.5", "--big-h", "1.0",
              "--delta", "0.2", "--alpha", "0.01", "--beta", "0.01",
              "--n-nodes", "4", "--gap0", "10", "--epsilon", "0.05",
              "--t0", "1,5,10", "--out", str(out)])
    assert rc == 0
    _, header, data = read_csv(out)
    tz = [float(dict(zip(header, r))["tz"]) for r in data]
    assert tz[0] >= tz[1] >= tz[2]


def test_bound_homogeneous_m_is_zero(tmp_path):
    out = tmp_path / "hom.csv"
    assert run(["bound", "--seed", "0", "--mu", "1", "--big-h", "2",
                "--t0", "1,5,10", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    for r in data:
        assert float(dict(zip(header, r))["m_t0"]) == 0.0


def test_bound_invalid_exit_code(tmp_path):
    out = tmp_path / "inv.csv"
    rc = run(["bound", "--seed", "0", "--mu", "1", "--big-h", "2",
              "--beta", "1.0", "--out", str(out)])  # xi < 0
    assert rc == cli.EXIT_VALIDITY
    _, header, data = read_csv(out)
    assert "xi_outside_unit_interval" in dict(zip(header, data[0]))["validity_flags"]


def test_bound_flags_a_log_argument_that_underflows(tmp_path):
    # valid derived constants, but epsilon / gap0 rounds to 0, so tz_bound
    # raises and its message becomes the row's flag
    out = tmp_path / "log.csv"
    rc = run(["bound", "--seed", "0", "--mu", "1", "--big-h", "2", "--epsilon", "5e-324",
              "--gap0", "1e308", "--t0", "1", "--out", str(out)])
    assert rc == cli.EXIT_VALIDITY
    _, header, data = read_csv(out)
    cols = dict(zip(header, data[0]))
    assert cols["tz"] == ""
    assert cols["validity_flags"] == "log argument (epsilon + K*m(T0))/n = 0.0 <= 0"


@pytest.mark.parametrize("argv", [
    ["--mu", "0.001", "--big-h", "0.002", "--delta", "1e308", "--t0", "100000"],
    ["--mu", "1", "--big-h", "2", "--gap0", "1e-320"],
])
def test_bound_with_a_non_finite_result_exits_2(tmp_path, argv):
    out = tmp_path / "bound.csv"
    rc, err = run_to_stderr(["bound", "--seed", "1", *argv, "--out", str(out)])
    assert rc == cli.EXIT_USAGE and not out.exists()
    assert err.count("\n") == 1 and err.startswith("chirpfed: ") and "overflows" in err


# ---------------------------------------------------------------- ber-sweep

def test_ber_sweep_empty(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["ber-sweep", "--seed", "0", "--trials", "0",
                "--snr-db", "12", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert data == []
    assert header[0] == "snr_db"


def test_ber_sweep_row_count_and_factor_two(tmp_path):
    from scipy.stats import norm
    out = tmp_path / "mf.csv"
    assert run(["ber-sweep", "--seed", "1", "--trials", "40000",
                "--snr-db", "6:3:12", "--detector", "mf",
                "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert len(data) == 3
    for r in data:
        cols = dict(zip(header, r))
        q = norm.sf(np.sqrt(10 ** (float(cols["snr_db"]) / 10)))
        ber = float(cols["ber"])
        assert q / 2 <= ber + 1e-6 and ber <= 2 * q + 3 * float(
            cols["wilson95_half_width"])


def test_ber_sweep_two_detectors(tmp_path):
    ckpt = tmp_path / "net.cdnn"
    n1 = 160
    h1, h2 = default_hidden(n1)
    save_params(ckpt, init_params([n1, h1, h2, 1], np.random.default_rng(0)))
    out = tmp_path / "both.csv"
    assert run(["ber-sweep", "--seed", "2", "--trials", "500",
                "--snr-db", "6:3:12", "--detector", "mf,dnn", "--lambda", "6",
                "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert len(data) == 6  # 3 SNRs x 2 detectors


# sha256 of the mf,dnn sweep below, recorded when each chunk of 512 symbols
# came to draw from a stream of its own, shared by both points; 25000 trials
# end in a partial chunk
SWEEP_GOLDEN = "ab1d93a6795e4dc472867d322683ccba40f3eefe402f5e0d45506a87dd4fd708"


def check_ber_sweep_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the checkpoint path is part of the config hash
    n1 = 160
    h1, h2 = default_hidden(n1)
    save_params("net.cdnn", init_params([n1, h1, h2, 1], np.random.default_rng(0)))
    assert run(["ber-sweep", "--seed", "7", "--snr-db", "3:6:9", "--detector", "mf,dnn",
                "--lambda", "6", "--trials", "25000", "--checkpoint", "net.cdnn",
                "--out", "sweep.csv"]) == 0
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == SWEEP_GOLDEN


def test_ber_sweep_golden_digest(tmp_path, monkeypatch, serial):
    check_ber_sweep_golden_digest(tmp_path, monkeypatch)


def test_ber_sweep_golden_digest_with_the_helper(tmp_path, monkeypatch, helper):
    check_ber_sweep_golden_digest(tmp_path, monkeypatch)


@pytest.fixture(scope="module")
def readme_net(tmp_path_factory):
    """The README's trained receiver: its gen-data and train-single runs."""
    path = tmp_path_factory.mktemp("readme")
    assert run(["gen-data", "--seed", "2", "--symbols", "1250", "--lambda", "6",
                "--snr-range", "6", "12", "--sto-range", "0", "60",
                "--out", str(path / "node0.uwds")]) == 0
    assert run(["train-single", "--seed", "3", "--data", str(path / "node0.uwds"),
                "--epochs", "20", "--out", str(path / "net.cdnn")]) == 0
    return load_params(path / "net.cdnn")


# sha256 of the README's mf,dnn sweep on the README's trained receiver,
# recorded when that receiver's training set came to draw from one stream for
# its metadata and one for its noise
README_SWEEP_GOLDEN = "d14e319f454132a4190f4c43b191ac5345265fda31c30c7066c52cf63d86670a"


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_readme_ber_sweep_golden_digest(request, tmp_path, monkeypatch, readme_net, threads):
    request.getfixturevalue(threads)
    monkeypatch.chdir(tmp_path)  # the checkpoint path is part of the config hash
    save_params("net.cdnn", readme_net)
    assert run(["ber-sweep", "--seed", "1", "--snr-db", "9", "--detector", "mf,dnn",
                "--lambda", "6", "--checkpoint", "net.cdnn", "--out", "sweep.csv"]) == 0
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == README_SWEEP_GOLDEN


@pytest.mark.parametrize("scale, snr_db", [(1e200, "9"), (1e25, "9"), (1.0, "-800")])
def test_ber_sweep_of_a_pass_past_the_float_range_exits_2(tmp_path, readme_net, scale,
                                                          snr_db):
    # scaled by 1e200 the pass overflows in any precision; scaled by 1e25 it
    # overflows only in the float32 that the network is scored in, as do
    # samples at -800 dB.  Each used to write a BER near 0.5 and exit 0
    ckpt = tmp_path / "net.cdnn"
    save_params(ckpt, readme_net.from_flat(readme_net.to_flat() * scale))
    out = tmp_path / "sweep.csv"
    rc, err = run_to_stderr(["ber-sweep", "--seed", "1", "--snr-db", snr_db, "--detector",
                             "mf,dnn", "--lambda", "6", "--trials", "5000",
                             "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == cli.EXIT_USAGE and not out.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("chirpfed: ") and \
        "diverged" in lines[0], err


def test_ber_sweep_checks_the_checkpoint_width_before_drawing(tmp_path, monkeypatch):
    ckpt = tmp_path / "net.cdnn"
    n1 = ChirpParams(lam=6).n1
    save_params(ckpt, init_params([n1, *default_hidden(n1), 1], np.random.default_rng(0)))
    sweeps = []
    monkeypatch.setattr(cli.data_mod, "ber_monte_carlo",
                        lambda *args, **kwargs: sweeps.append(args) or [0.5, 0.5])
    out = tmp_path / "sweep.csv"
    rc, err = run_to_stderr(["ber-sweep", "--seed", "1", "--detector", "mf,dnn",
                             "--lambda", "2", "--checkpoint", str(ckpt),
                             "--out", str(out)])
    assert rc == cli.EXIT_USAGE and not out.exists() and sweeps == []
    assert err.count("\n") == 1 and err.startswith("chirpfed: "), err
    assert "160" in err and "480" in err and "--lambda 2" in err, err


def test_ber_sweep_zero_width_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "zero.cdnn"
    ckpt.write_bytes(struct.pack("<4sHB4I", b"CDNN", 1, 4, 0, 0, 0, 1))
    rc = run(["ber-sweep", "--seed", "0", "--trials", "10", "--detector",
              "dnn", "--checkpoint", str(ckpt), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "zero layer width" in err and "Traceback" not in err


def test_ber_sweep_dnn_requires_checkpoint(tmp_path):
    rc = run(["ber-sweep", "--seed", "0", "--trials", "10",
              "--detector", "dnn", "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_USAGE


# ------------------------------------------------- data generation/training

def test_gen_data_and_train_single(tmp_path, capsys):
    data_path = tmp_path / "node.uwds"
    assert run(["gen-data", "--seed", "4", "--symbols", "60",
                "--lambda", "24", "--snr-range", "0", "6",
                "--out", str(data_path)]) == 0
    assert data_path.exists()
    ckpt = tmp_path / "trained.cdnn"
    assert run(["train-single", "--seed", "5", "--data", str(data_path),
                "--epochs", "2", "--batch-size", "16",
                "--out", str(ckpt)]) == 0
    printed = capsys.readouterr().out
    assert "test BER" in printed
    p = load_params(ckpt)
    assert p.layer_sizes[0] == 40  # 960 / 24


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_single_divergence_exit_code(tmp_path, capsys):
    data_path = tmp_path / "node.uwds"
    assert run(["gen-data", "--seed", "4", "--symbols", "60",
                "--lambda", "24", "--out", str(data_path)]) == 0
    rc = run(["train-single", "--seed", "5", "--data", str(data_path),
              "--epochs", "2", "--lr", "1e300",
              "--out", str(tmp_path / "net.cdnn")])
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "training error" in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_single_refuses_a_held_out_pass_that_is_not_finite(tmp_path, capsys):
    # train accepts the network on gen-data's training symbols, but its pass
    # over held-out symbols at the float32 edge overflows: the held-out BER is
    # refused as detect_batch refuses it, before the checkpoint is written
    spec = DatasetSpec(n_symbols=60, split=0.8, chirp=ChirpParams(lam=24), seed=4)
    train, test = build_node_dataset(spec)
    edge = np.where(test.batch.inputs >= 0, 3e38, -3e38).astype(np.float32)
    test = replace(test, batch=LabeledBatch(edge, test.batch.labels))
    data_path, ckpt = tmp_path / "node.uwds", tmp_path / "net.cdnn"
    save_dataset(data_path, train, test, spec)
    rc = run(["train-single", "--seed", "5", "--data", str(data_path),
              "--epochs", "2", "--out", str(ckpt)])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and out == ""
    assert err == ("chirpfed: the network's float32 forward pass is not finite: "
                   "its parameters have diverged on these inputs\n")
    assert not ckpt.exists()


# sha256 of the checkpoint below, recorded when its dataset came to draw
# from one stream for its metadata and one for its noise
TRAIN_SINGLE_GOLDEN = "2b76b6000c9b91666e03543343a95a4fb59b7b929f0290e6ba2ca7863b9ee1b6"


def test_train_single_checkpoint_golden_digest(tmp_path):
    data_path = tmp_path / "node.uwds"
    assert run(["gen-data", "--seed", "2", "--symbols", "100", "--lambda", "24",
                "--snr-range", "0", "6", "--sto-range", "0", "20",
                "--out", str(data_path)]) == 0
    ckpt = tmp_path / "net.cdnn"
    assert run(["train-single", "--seed", "3", "--data", str(data_path),
                "--epochs", "3", "--batch-size", "16", "--out", str(ckpt)]) == 0
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == TRAIN_SINGLE_GOLDEN


def test_train_single_absurd_header(tmp_path, capsys):
    # n1 = 2^32 - 1 and 2^40 records in a 20-byte file
    data_path = tmp_path / "absurd.uwds"
    data_path.write_bytes(struct.pack("<4sHIQH", b"UWDS", 1, 2 ** 32 - 1, 2 ** 40, 6))
    rc = run(["train-single", "--seed", "5", "--data", str(data_path),
              "--out", str(tmp_path / "net.cdnn")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "byte offset" in err and "Traceback" not in err


# ----------------------------------------------------------------- run-fed

def test_run_fed_single_round(tmp_path):
    out = tmp_path / "fed.csv"
    assert run(["run-fed", "--seed", "6", "--rounds", "1", "--g", "1.0",
                "--lambda", "24", "--symbols", "30", "--split", "0.5",
                "--group", "count=1,snr=0:6", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert len(data) == 1
    assert header == ["round", "scheduled", "successful", "train_loss",
                      "test_acc", "adapted_acc"]


def test_run_fed_two_nodes_id_join(tmp_path):
    out = tmp_path / "fed2.csv"
    assert run(["run-fed", "--seed", "6", "--rounds", "2", "--g", "1.0",
                "--lambda", "24", "--symbols", "30", "--split", "0.5",
                "--group", "count=2,snr=0:6", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    for row in data:
        cols = dict(zip(header, row))
        assert cols["scheduled"] == "0;1" and cols["successful"] == "0;1"


def test_readme_run_fed_example_fml_beats_fl(tmp_path):
    # the README's run-fed example: two STO bands at -12 dB per-sample SNR
    argv = ["run-fed", "--seed", "4", "--rounds", "50", "--g", "0.3",
            "--alpha", "0.5", "--beta", "0.2", "--symbols", "250",
            "--group", "count=5,sto=0:60,snr=-12",
            "--group", "count=5,sto=180:240,snr=-12"]
    adapted = {}
    for mode in ("fml", "fl"):
        out = tmp_path / f"{mode}.csv"
        assert run(argv + ["--mode", mode, "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        adapted[mode] = float(dict(zip(header, data[-1]))["adapted_acc"])
    assert adapted["fml"] > adapted["fl"]


def test_readme_run_fed_csvs_are_the_same_with_the_helper(tmp_path):
    # the README's run-fed commands at one BLAS thread, as the benchmark runs
    # them, in a child that shares the node work with a helper thread on two
    # cores, and in one that keeps it on the calling thread
    argv = ["run-fed", "--seed", "4", "--rounds", "50", "--g", "0.3",
            "--alpha", "0.5", "--beta", "0.2", "--symbols", "250",
            "--group", "count=5,sto=0:60,snr=-12",
            "--group", "count=5,sto=180:240,snr=-12"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    outs = {}
    for threads, patch in (("helper", ""),
                           ("serial", "data._use_helper = lambda: False; ")):
        code = ("import sys; from chirpfed import cli, data; " + patch +
                "print(data._use_helper()); "
                "sys.exit(max(cli.main(a.split('|')) for a in sys.argv[1:]))")
        runs = []
        for mode in ("fml", "fl"):
            outs[threads, mode] = tmp_path / f"{threads}-{mode}.csv"
            runs.append("|".join(argv + ["--mode", mode, "--out",
                                         str(outs[threads, mode])]))
        proc = subprocess.run([sys.executable, "-c", code, *runs], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        two_cores = len(os.sched_getaffinity(0)) >= 2
        assert proc.stdout.split()[0] == str(threads == "helper" and two_cores)
    for mode in ("fml", "fl"):
        assert outs["helper", mode].read_bytes() == outs["serial", mode].read_bytes()


def test_bare_run_fed_names_g_and_k_of_its_empty_schedule():
    # with no --group there is one node, which the default G = 0.3 leaves
    # unscheduled
    rc, err = run_to_stderr(["run-fed", "--seed", "0"])
    assert rc == cli.EXIT_USAGE
    assert err.splitlines() == ["chirpfed: N = round(G*K) = round(0.3*1) = 0 must be >= 1"]


def test_run_fed_default_hyperparameters():
    parser = cli.build_parser()
    args = parser.parse_args(["run-fed", "--seed", "0"])
    assert args.alpha == 0.001
    assert args.beta == 0.0001
    assert args.g == 0.3


def test_config_hash_distinguishes_settings(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["run-fed", "--seed", "7", "--rounds", "1", "--g", "1.0",
            "--lambda", "24", "--symbols", "30", "--split", "0.5",
            "--group", "count=1,snr=0:6"]
    assert run(base + ["--alpha", "0.001", "--out", str(out_a)]) == 0
    assert run(base + ["--alpha", "0.002", "--out", str(out_b)]) == 0
    hash_a = read_csv(out_a)[0][1]
    hash_b = read_csv(out_b)[0][1]
    assert hash_a != hash_b


# ---------------------------------------------------------------------- cir

def test_cir_generate_and_inspect(tmp_path):
    cir_path = tmp_path / "chan.uwac"
    assert run(["cir", "generate", "--seed", "8", "--fd", "10",
                "--duration", "0.05", "--fs", "1000",
                "--out", str(cir_path)]) == 0
    report = tmp_path / "report.csv"
    assert run(["cir", "inspect", "--seed", "8", "--path", str(cir_path),
                "--out", str(report)]) == 0
    _, header, data = read_csv(report)
    cols = dict(zip(header, data[0]))
    assert cols["taps"] == "13"
    assert cols["time_steps"] == "50"
    assert "model=rayleigh" in cols["meta"]


def test_cir_inspect_bad_metadata(tmp_path, capsys):
    cir_path = tmp_path / "bad.uwac"
    cir_path.write_bytes(struct.pack("<4sHIQdHH", b"UWAC", 1, 1, 1, 0.001, 1, 2)
                         + b"\xff\xfe" + struct.pack("<2f", 1.0, 0.0))
    rc = run(["cir", "inspect", "--seed", "8", "--path", str(cir_path),
              "--out", str(tmp_path / "report.csv")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_cir_inspect_without_path(capsys):
    assert run(["cir", "inspect", "--seed", "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--path" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# ----------------------------------------------------------- error handling

def test_seed_is_mandatory():
    with pytest.raises(SystemExit) as exc:
        run(["complexity"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["complexity"], ["bound", "--mu", "1", "--big-h", "2"], ["ber-sweep"],
    ["gen-data"], ["train-single", "--data", "node.uwds"], ["run-fed"],
    ["cir", "generate"], ["cir", "inspect", "--path", "h.uwac"],
], ids=" ".join)
@pytest.mark.parametrize("seed", ["-1", "-1e1", "1.5"])
def test_bad_seed_exits_2_on_every_subcommand(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", seed, "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --seed: '{seed}' is not a non-negative integer" in err
    assert not out.exists()


def test_runtime_error_exit_code(tmp_path):
    rc = run(["train-single", "--seed", "0", "--data",
              str(tmp_path / "missing.uwds"), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_RUNTIME


def test_determinism_sample(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ber-sweep", "--seed", "9", "--trials", "2000", "--snr-db", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_grid_in_plain_form(tmp_path):
    plain, joined = tmp_path / "plain.csv", tmp_path / "joined.csv"
    base = ["ber-sweep", "--seed", "1", "--trials", "200"]
    assert run(base + ["--snr-db", "-6:3:0", "--out", str(plain)]) == 0
    assert run(base + ["--snr-db=-6:3:0", "--out", str(joined)]) == 0
    assert plain.read_bytes() == joined.read_bytes()
    _, _, data = read_csv(plain)
    assert [row[0] for row in data] == ["-6", "-3", "0"]


# Other values that start with a minus sign, each beside a form argparse always
# took; both must parse to the same values and write the same bytes.
MINUS_VALUE_ARGV = [
    (["gen-data", "--symbols", "20", "--speed-range", "-1e1", "0"],
     ["gen-data", "--symbols", "20", "--speed-range", "-10", "0"]),
    (["ber-sweep", "--trials", "200", "--sto", "-1.5e1"],
     ["ber-sweep", "--trials", "200", "--sto", "-15"]),
    (["ber-sweep", "--trials", "200", "--snr", "-6:3:0"],
     ["ber-sweep", "--trials", "200", "--snr-db=-6:3:0"]),
]


@pytest.mark.parametrize("minus, plain", MINUS_VALUE_ARGV, ids=lambda a: " ".join(a))
def test_values_with_a_leading_minus(tmp_path, minus, plain):
    a, b = tmp_path / "minus.out", tmp_path / "plain.out"
    assert run(minus + ["--seed", "1", "--out", str(a)]) == 0
    assert run(plain + ["--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    if minus[0] == "gen-data":
        train, test, spec = load_dataset(str(a))
        assert spec.speed_range == (-10.0, 0.0)
        assert min(train.rel_speed.min(), test.rel_speed.min()) < 0
    else:
        _, header, data = read_csv(a)
        cols = [dict(zip(header, row)) for row in data]
        if "--sto" in minus:
            assert [c["sto"] for c in cols] == ["-15"] * 3
        else:
            assert [c["snr_db"] for c in cols] == ["-6", "-3", "0"]


@pytest.mark.parametrize("grid", ["0.0001:0.0001:0.0003", "6:0.0004:6.0008",
                                  "-3:0.0002:-2.9996"])
def test_ber_sweep_of_close_points_matches_each_point_alone(tmp_path, grid):
    # every point scores the same chunks of draws, so points less than a
    # millidecibel apart need no streams of their own, and a point's row is
    # the one it gets when swept alone
    out = tmp_path / "grid.csv"
    base = ["ber-sweep", "--seed", "1", "--trials", "3000"]
    assert run(base + [f"--snr-db={grid}", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 3 and len({row[0] for row in rows}) == 3
    for row in rows:
        alone = tmp_path / "alone.csv"
        assert run(base + [f"--snr-db={row[0]}", "--out", str(alone)]) == 0
        assert read_csv(alone)[2] == [row]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_ber_sweep_rejects_non_finite_snr(tmp_path, capsys, value):
    rc = run(["ber-sweep", "--seed", "1", "--trials", "100", "--snr-db", value,
              "--out", str(tmp_path / "ber.csv")])
    assert rc == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


# Each error message quotes the value as it was typed, leading minus and all.
TYPED_VALUE_ARGV = [
    (["ber-sweep", "--detector", "-1e3"], "--detector '-1e3' is not a comma list"),
    (["ber-sweep", "--snr-db", "-1:1:1:1"], "bad grid '-1:1:1:1'"),
    (["ber-sweep", "--snr-db", "abc"], "'abc' is not a number or a start:step:stop grid"),
    (["ber-sweep", "--snr-db", "1:a:3"], "'1:a:3' is not a number or a start:step:stop grid"),
    (["ber-sweep", "--snr-db", "-1:a:3"], "'-1:a:3' is not a number or a start:step:stop grid"),
    (["ber-sweep", "--trials", "-1e3"], "invalid int value: '-1e3'"),
    (["run-fed", "--mode", "-1e1"], "invalid choice: '-1e1'"),
    *((["bound", "--mu", "1", "--big-h", "2", "--t0", t0],
       f"argument --t0: {t0!r} is not a comma list of integers")
      for t0 in ("-1e1", "", "1,,2")),
]


@pytest.mark.parametrize("argv, message", TYPED_VALUE_ARGV, ids=lambda a: " ".join(a))
def test_error_messages_quote_the_value_as_typed(tmp_path, capsys, argv, message):
    try:
        rc = run(argv + ["--seed", "1", "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # rejected by the argument parser
        rc = exc.code
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "' -" not in err


@pytest.mark.parametrize("detectors", ["mf,mf", "dnn,mf,dnn"])
def test_ber_sweep_rejects_a_repeated_detector(tmp_path, capsys, detectors):
    out = tmp_path / "ber.csv"
    rc = run(["ber-sweep", "--seed", "1", "--trials", "100", "--detector", detectors,
              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--detector '{detectors}' names a detector more than once" in err
    assert not out.exists()


def test_gen_data_rayleigh_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.uwds", tmp_path / "b.uwds"
    argv = ["gen-data", "--seed", "6", "--symbols", "20", "--channel", "rayleigh",
            "--snr-range", "6", "12", "--sto-range", "0", "60"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    train, test, spec = load_dataset(str(a))
    built = DatasetSpec(n_symbols=20, split=0.8, chirp=ChirpParams(lam=6),
                        snr_db_range=(6.0, 12.0), sto_range=(0.0, 60.0),
                        speed_range=(0.0, 0.0), channel_tag="rayleigh", seed=6)
    assert spec == built and isinstance(spec.rayleigh, RayleighModelConfig)
    for orig, back in zip(build_node_dataset(built), (train, test)):
        for a, b in ((orig.batch.inputs, back.batch.inputs),
                     (orig.batch.labels, back.batch.labels),
                     (orig.snr_db, back.snr_db), (orig.sto_samples, back.sto_samples),
                     (orig.rel_speed, back.rel_speed),
                     (orig.channel_tag, back.channel_tag)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert back.tag_table == orig.tag_table


BAD_ARGV = [
    ["ber-sweep", "--detector", "foo"],
    ["ber-sweep", "--detector", "mf,foo"],
    ["ber-sweep", "--snr-db", "0:1:inf"],
    ["ber-sweep", "--snr-db", "0:inf:3"],
    ["ber-sweep", "--snr-db", "nan:1:3"],
    ["ber-sweep", "--snr-db", "0:0:3"],  # grid step must be positive
    ["run-fed", "--group", "count=abc"],
    ["run-fed", "--group", "bogus=1"],
    ["run-fed", "--group", "snr=a:b"],
    ["train-single", "--data", "{data}", "--batch-size", "0"],
    ["train-single", "--data", "{data}", "--batch-size", "-3"],
    ["train-single", "--data", "{data}", "--epochs", "-1"],
    ["cir", "generate", "--fs", "0"],
    ["cir", "generate", "--fs", "nan"],
    ["cir", "generate", "--duration", "inf"],
    ["gen-data", "--snr-range", "nan", "nan"],
    ["gen-data", "--snr-range", "6", "inf"],
    ["gen-data", "--sto-range", "0", "inf"],
    ["ber-sweep", "--snr-db=-1e308:1:1e308"],
    ["ber-sweep", "--trials", "-5"],
    ["ber-sweep", "--sto", "nan"],
    ["ber-sweep", "--speed", "nan"],
    ["ber-sweep", "--snr-db", "1e300"],
    ["ber-sweep", "--snr-db", "-1e300"],
    ["run-fed", "--group", "count=-1", "--group", "count=2"],
    ["run-fed", "--group", "count=0"],
    ["cir", "generate", "--duration", "1e300", "--fs", "1e300"],
    ["gen-data", "--symbols", "1000000000"],
    ["run-fed", "--g", "1", "--group", "count=100000"],
    ["cir", "generate", "--ts", "nan"],
    ["cir", "generate", "--fd", "nan"],
    ["gen-data", "--split", "nan"],
    ["gen-data", "--snr-range", "-inf", "-inf"],
    ["run-fed", "--g", "1", "--group", "snr=-inf"],
    ["run-fed", "--alpha", "nan"],
    ["run-fed", "--beta", "inf"],
    ["train-single", "--data", "{data}", "--lr", "-1"],
    ["train-single", "--data", "{data}", "--lr", "nan"],
    ["bound", "--mu", "1", "--big-h", "2", "--delta", "0.2", "--t0", "1",
     "--alpha", "1e300", "--beta", "1e300"],
    ["bound", "--mu", "nan", "--big-h", "2"],
    ["gen-data", "--snr-range", "1e300", "1e300"],
    ["gen-data", "--snr-range", "-1e39", "0"],
    ["run-fed", "--g", "1", "--group", "snr=1e300"],
    # past the float range: a tap count, a Doppler spectrum, a CIR size
    # product, a noise level, and samples stored as float32
    ["cir", "generate", "--ts", "5e-324"],
    ["cir", "generate", "--fd", "5e-324", "--duration", "10", "--fs", "1000"],
    ["cir", "generate", "--ts", "1e-300", "--duration", "0.05", "--fs", "1e300"],
    ["gen-data", "--symbols", "4", "--snr-range", "-4000", "-4000"],
    ["gen-data", "--symbols", "4", "--snr-range", "-800", "-800"],
    ["run-fed", "--rounds", "1", "--g", "1", "--symbols", "4", "--group",
     "count=1,snr=-4000"],
    ["run-fed", "--rounds", "1", "--g", "1", "--symbols", "4", "--group",
     "count=1,snr=-800"],
    ["ber-sweep", "--detector", "mf,mf"],
    ["ber-sweep", "--detector", "dnn"],  # no --checkpoint
    ["ber-sweep", "--snr-db", "inf"],
    ["cir", "inspect"],  # no --path
    ["complexity", "--n1", "7"],  # lambda = 2 and 6 do not divide it
]

# Arguments that would size an allocation of gigabytes (or without end) if
# their cap were lost; they run in a child with a bounded address space.
OVERSIZED_ARGV = [
    ["ber-sweep", "--snr-db", "0:1e-6:1"],
    ["ber-sweep", "--snr-db", "0:1:1e300"],
    ["cir", "generate", "--fs", "1e7"],
    ["gen-data", "--symbols", "1000000000"],
    ["run-fed", "--g", "1", "--group", "count=100000"],
    # a file argument that names an endless device
    ["cir", "inspect", "--path", "/dev/zero"],
    ["train-single", "--data", "/dev/zero"],
    ["ber-sweep", "--detector", "dnn", "--checkpoint", "/dev/zero"],
]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "node.uwds"
    assert run(["gen-data", "--seed", "4", "--symbols", "40", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_arguments_exit_2_without_traceback(tmp_path, small_dataset, argv):
    out = tmp_path / "out"
    argv = [a.format(data=small_dataset) for a in argv]
    rc, err = run_to_stderr(argv + ["--seed", "1", "--out", str(out)])
    assert rc == cli.EXIT_USAGE, err
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    # one line from main, or the argument parser's usage and error lines
    lines = err.splitlines()
    assert (len(lines) == 1 and lines[0].startswith("chirpfed: ")) or \
        (lines[0].startswith("usage: chirpfed ") and ": error: " in lines[-1]), err
    assert not out.exists()


# finite steps whose parameters leave the float32 range the receiver computes
# in on the datasets' samples; the drawn argv checks found them exiting 0
# with a saturated network
DIVERGING_ARGV = [
    ["train-single", "--epochs", "1", "--lr", "1.859342454799414e+101", "--data", "{data}"],
    ["run-fed", "--rounds", "1", "--symbols", "4", "--g", "1",
     "--alpha", "3.9345064605459196e+102", "--mode", "fml"],
    ["run-fed", "--rounds", "1", "--symbols", "4", "--g", "1",
     "--alpha", "3.9345064605459196e+102", "--mode", "fl"],
]


@pytest.mark.parametrize("argv", DIVERGING_ARGV, ids=" ".join)
def test_a_huge_finite_step_exits_4_without_traceback(tmp_path, small_dataset, argv):
    out = tmp_path / "out"
    argv = [a.format(data=small_dataset) for a in argv]
    rc, err = run_to_stderr(argv + ["--seed", "1", "--out", str(out)])
    assert rc == cli.EXIT_RUNTIME, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("chirpfed: training error: ") \
        and "diverged" in lines[0], err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--fd", "1e-300"],
    ["--duration", "5e-324", "--fs", "1.7976931348623153e308"],
], ids=" ".join)
def test_cir_float_range_edges_exit_0_without_a_warning(tmp_path, argv):
    out = tmp_path / "h.uwac"
    rc, err = run_to_stderr(["cir", "generate", "--seed", "0", *argv, "--out", str(out)])
    assert rc == 0 and err == "", err
    assert out.exists()


@pytest.mark.parametrize("t0", [2 ** 53 + 1, 10 ** 399], ids=["2**53+1", "10**399"])
def test_bound_rejects_a_t0_that_is_no_exact_float(tmp_path, capsys, t0):
    out = tmp_path / "bound.csv"
    argv = ["bound", "--seed", "0", "--mu", "1", "--big-h", "2", "--t0", f"1,{t0}"]
    assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    assert run(argv[:-1] + [str(2 ** 53), "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", OVERSIZED_ARGV, ids=" ".join)
def test_oversized_arguments_exit_2_in_bounded_memory(tmp_path, argv):
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from chirpfed import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--seed", "1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# numbers such as 0, -1, nan, inf, 1e300 and the smallest subnormal, well and
# badly formed; -800 and -4000 dB are SNRs whose noise leaves the float32
# range and the float64 range
NUMBER = st.sampled_from(["0", "-1", "1", "6", "0.5", "nan", "inf", "-inf",
                          "1e300", "-1e300", "1e-300", "5e-324", "-800", "-4000",
                          "abc", ""]) | \
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
LAMBDA = st.sampled_from(["0", "-1", "1", "6", "7", "961", "nan", "1e300"])
SEED = st.sampled_from(["-1", "-1e1", "0", "1.5", "nan", ""]) | \
    st.integers(-2 ** 70, 2 ** 70).map(str)


def small_int(hi):
    """Integers from -1 to hi, and strings that are no integer."""
    return st.integers(-1, hi).map(str) | st.sampled_from(["nan", "1e300", "2.5", ""])


def drawn_argv(options):
    """Lists of up to six drawn options, each from its strategy in `options`,
    a dict of option name -> strategy; a strategy of tuples gives an option
    of several values."""
    option = st.sampled_from(sorted(options)).flatmap(
        lambda name: options[name].map(
            lambda value: [name, *value] if isinstance(value, tuple) else [name, value]))
    return st.lists(option, max_size=6).map(lambda pairs: sum(pairs, []))


def complexity_options():
    """Drawn complexity options: --n1 of 0, negatives, values that lambda =
    1, 2 and 6 do not divide, and 400-digit integers."""
    n1 = st.sampled_from(["0", "-1", "1", "5", "6", "7", "961", "1.5", "nan", "abc", ""]) | \
        st.integers(-2 ** 70, 2 ** 70).map(str) | \
        st.integers(1, 10 ** 6).filter(lambda n: n % 6).map(str) | \
        st.integers(10 ** 399, 10 ** 400 - 1).map(str) | \
        st.integers(-10 ** 400 + 1, -10 ** 399).map(str)
    return {"--n1": n1, "--seed": SEED}


def ber_sweep_options():
    """Drawn ber-sweep options: drawn numbers, grids well and badly formed,
    small trial counts and seeds of any sign."""
    grid = NUMBER | st.lists(NUMBER, min_size=2, max_size=4).map(":".join)
    return {
        "--snr-db": grid,
        "--trials": st.sampled_from(["-1", "nan", "1e300", "2.5", ""]) |
        st.integers(0, 40).map(str),
        "--lambda": LAMBDA,
        "--sto": NUMBER,
        "--speed": NUMBER,
        "--detector": st.sampled_from(["mf", "dnn", "mf,dnn", "dnn,mf", "mf,mf",
                                       "", ",", "zf", "-1"]),
        "--seed": SEED,
    }


def bound_options():
    """Drawn bound options: drawn constants, --t0 lists and node counts with
    0, negatives and 400-digit integers, and xi variants known and unknown."""
    integer = st.sampled_from(["0", "-1", "1", "10", str(2 ** 53), str(2 ** 53 + 1),
                               str(10 ** 399), str(-10 ** 399), "1.5", "abc", ""]) | \
        st.integers(-2 ** 70, 2 ** 70).map(str) | \
        st.integers(10 ** 399, 10 ** 400 - 1).map(str)
    options = {name: NUMBER for name in ("--mu", "--big-h", "--rho", "--b", "--delta",
                                         "--sigma", "--alpha", "--beta", "--c", "--tau",
                                         "--gap0", "--epsilon")}
    options["--n-nodes"] = integer
    options["--t0"] = st.lists(integer, min_size=1, max_size=4).map(",".join)
    options["--xi-variant"] = st.sampled_from([*XI_VARIANTS, "", "bogus"])
    options["--seed"] = SEED
    return options


def gen_data_options():
    """Drawn gen-data options: few symbols, drawn numbers and ranges of them."""
    pair = st.tuples(NUMBER, NUMBER)
    return {
        "--symbols": small_int(12),
        "--split": NUMBER,
        "--lambda": LAMBDA,
        "--snr-range": pair,
        "--sto-range": pair,
        "--speed-range": pair,
        "--channel": st.sampled_from(["identity", "rayleigh", "", "bogus"]),
        "--seed": SEED,
    }


def train_single_options(workdir):
    """Drawn train-single options: few epochs, drawn rates and batch sizes,
    and data files good, missing and of the wrong kind."""
    return {
        "--data": st.sampled_from([os.path.join(workdir, name) for name in
                                   ("node.uwds", "missing.uwds", "net.cdnn")]),
        "--epochs": small_int(3),
        "--lr": NUMBER,
        "--batch-size": small_int(40),
        "--seed": SEED,
    }


def run_fed_options():
    """Drawn run-fed options: few rounds, symbols and nodes, drawn numbers,
    and groups of drawn ranges."""
    group = st.lists(
        st.tuples(st.sampled_from(["snr", "sto", "speed"]), NUMBER, NUMBER).map(
            lambda f: f"{f[0]}={f[1]}:{f[2]}"), max_size=2).map(
        lambda fields: ",".join(["count=1", *fields]))
    return {
        "--group": group,
        "--g": NUMBER,
        "--t0": small_int(2),
        "--rounds": small_int(2),
        "--alpha": NUMBER,
        "--beta": NUMBER,
        "--p-decode": NUMBER,
        "--lambda": LAMBDA,
        "--symbols": small_int(8),
        "--split": NUMBER,
        "--mode": st.sampled_from(["fml", "fl", "bogus"]),
        "--seed": SEED,
    }


def cir_options():
    """Drawn cir generate options: drawn numbers, and short durations."""
    return {
        "--fd": NUMBER,
        "--ts": NUMBER,
        "--fs": NUMBER,
        "--duration": st.sampled_from(["0", "-1", "0.05", "1", "nan", "inf", "1e300",
                                       "5e-324", "abc", ""]),
        "--seed": SEED,
    }


def cir_inspect_options(workdir):
    """Drawn cir inspect options: CIR paths good, missing and malformed, a
    directory and an endless device."""
    return {
        "--path": st.sampled_from(["/dev/zero", workdir] + [
            os.path.join(workdir, name) for name in
            ("chan.uwac", "missing.uwac", "empty.uwac", "truncated.uwac", "garbage.uwac")]),
        "--seed": SEED,
    }


def check_drawn_argv(base, options, exit_codes, examples, written=None):
    """Every argv of base plus options drawn from `options` exits with one of
    exit_codes, without a traceback and without a RuntimeWarning; after an
    exit 0, written() checks what the run wrote."""
    @settings(max_examples=examples, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn_argv(options))
    def check(options):
        rc, err = run_to_stderr(base + options)
        assert rc in exit_codes and "Traceback" not in err and \
            "RuntimeWarning" not in err, (options, rc, err)
        if rc == 0 and written is not None:
            written()

    check()


def check_complexity_argv(workdir, examples):
    """Every drawn complexity argv exits 0 or 2 without a traceback."""
    base = ["complexity", "--seed", "1", "--out", os.path.join(workdir, "cx.csv")]
    check_drawn_argv(base, complexity_options(), (0, 2), examples)


def check_ber_sweep_argv(workdir, examples):
    """Every drawn ber-sweep argv exits 0, 2, 3 or 4 without a traceback."""
    ckpt = os.path.join(workdir, "net.cdnn")
    base = ["ber-sweep", "--seed", "1", "--trials", "5", "--checkpoint", ckpt,
            "--out", os.path.join(workdir, "ber.csv")]
    check_drawn_argv(base, ber_sweep_options(), (0, 2, 3, 4), examples)


def check_bound_argv(workdir, examples):
    """Every drawn bound argv exits 0, 2 or 3 without a traceback, and one
    that exits 0 writes only finite numbers."""
    out = os.path.join(workdir, "bound.csv")
    base = ["bound", "--seed", "1", "--mu", "1", "--big-h", "2", "--out", out]

    def finite():
        _, _, data = read_csv(out)
        assert all(math.isfinite(float(v)) for row in data for v in row[:-1]), data

    check_drawn_argv(base, bound_options(), (0, 2, 3), examples, finite)


def check_data_and_channel_argv(workdir, examples):
    """Every drawn gen-data, train-single, run-fed, cir generate and cir
    inspect argv exits 0, 2 or 4 without a traceback or a RuntimeWarning."""
    out = ["--out", os.path.join(workdir, "out")]
    check_drawn_argv(["gen-data", "--seed", "1", "--symbols", "4", *out],
                     gen_data_options(), (0, 2, 4), examples)
    check_drawn_argv(["train-single", "--seed", "1", "--epochs", "1", "--data",
                      os.path.join(workdir, "node.uwds"), *out],
                     train_single_options(workdir), (0, 2, 4), examples)
    check_drawn_argv(["run-fed", "--seed", "1", "--rounds", "1", "--symbols", "4",
                      "--g", "1", *out], run_fed_options(), (0, 2, 4), examples)
    check_drawn_argv(["cir", "generate", "--seed", "1", "--duration", "0.05", *out],
                     cir_options(), (0, 2, 4), examples)
    check_drawn_argv(["cir", "inspect", "--seed", "1", *out],
                     cir_inspect_options(workdir), (0, 2, 4), examples)


def run_bounded_child(call, workdir, examples):
    """Runs test_cli.<call>(workdir, examples) in a child process with a
    1 GB address space and one BLAS thread."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, here] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            f"import test_cli; test_cli.{call}(sys.argv[1], {examples})")
    proc = subprocess.run([sys.executable, "-c", code, str(workdir)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_drawn_complexity_arguments_exit_cleanly(tmp_path):
    run_bounded_child("check_complexity_argv", tmp_path, 300)


def test_drawn_ber_sweep_arguments_exit_cleanly(tmp_path):
    n1 = ChirpParams(lam=6).n1
    save_params(str(tmp_path / "net.cdnn"),
                init_params([n1, *default_hidden(n1), 1], np.random.default_rng(0)))
    run_bounded_child("check_ber_sweep_argv", tmp_path, 150)


def test_drawn_bound_arguments_exit_cleanly(tmp_path):
    run_bounded_child("check_bound_argv", tmp_path, 400)


def test_drawn_data_and_channel_arguments_exit_cleanly(tmp_path):
    assert run(["gen-data", "--seed", "4", "--symbols", "40",
                "--out", str(tmp_path / "node.uwds")]) == 0
    n1 = ChirpParams(lam=6).n1
    save_params(str(tmp_path / "net.cdnn"),
                init_params([n1, *default_hidden(n1), 1], np.random.default_rng(0)))
    cir = tmp_path / "chan.uwac"
    assert run(["cir", "generate", "--seed", "1", "--duration", "0.05", "--out", str(cir)]) == 0
    (tmp_path / "empty.uwac").write_bytes(b"")
    (tmp_path / "truncated.uwac").write_bytes(cir.read_bytes()[:-3])
    (tmp_path / "garbage.uwac").write_bytes(np.random.default_rng(0).bytes(64))
    run_bounded_child("check_data_and_channel_argv", tmp_path, 250)


def test_drawn_options_name_every_option_of_their_subcommand(tmp_path):
    # an option added to a subcommand needs a strategy in its drawn test;
    # --out and the checkpoint fixed in ber-sweep's base argv are exempt
    subcommands, = (action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    drawn = {"complexity": complexity_options(), "ber-sweep": ber_sweep_options(),
             "bound": bound_options(), "gen-data": gen_data_options(),
             "train-single": train_single_options(str(tmp_path)),
             "run-fed": run_fed_options(),
             "cir": {**cir_options(), **cir_inspect_options(str(tmp_path))}}
    assert sorted(drawn) == sorted(subcommands.choices)
    for name, parser in subcommands.choices.items():
        options = {option for action in parser._actions for option in action.option_strings}
        assert options - {"-h", "--help", "--out", "--checkpoint"} == set(drawn[name]), name


def test_grid_point_cap():
    cap = cli.MAX_GRID_POINTS
    assert len(cli._parse_grid(f"0:1:{cap - 1}")) == cap
    assert cli._parse_grid("5:1:0") == []
    assert cli._parse_grid("0:1e-4:-1e304") == []
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid(f"0:1:{cap}")


def test_group_count_has_its_own_message(tmp_path, capsys):
    rc = run(["run-fed", "--seed", "1", "--group", "count=-1", "--group", "count=2",
              "--out", str(tmp_path / "fed.csv")])
    assert rc == cli.EXIT_USAGE
    assert "group count -1 must be >= 1" in capsys.readouterr().err


def test_noise_free_snr_range_stays_valid(tmp_path):
    out = tmp_path / "node.uwds"
    assert run(["gen-data", "--seed", "1", "--symbols", "10", "--snr-range", "inf",
                "inf", "--out", str(out)]) == 0


def test_cli_import_leaves_scipy_out():
    # and concurrent.futures with the logging it loads, which no command uses
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c",
                    "import chirpfed.cli, sys; "
                    "loaded = {'scipy', 'concurrent.futures', 'logging'} & set(sys.modules); "
                    "assert not loaded, loaded"],
                   env=env, check=True, timeout=60)
