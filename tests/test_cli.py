import csv
import struct

import numpy as np
import pytest

from chirpfed import cli
from chirpfed.chirp import ChirpParams
from chirpfed.data import DatasetSpec, build_node_dataset, save_dataset
from chirpfed.receiver import default_hidden, init_params, load_params, \
    save_params


def run(argv):
    return cli.main(argv)


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


# ----------------------------------------------------------- error handling

def test_seed_is_mandatory():
    with pytest.raises(SystemExit) as exc:
        run(["complexity"])
    assert exc.value.code == 2


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
