"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible in the report summary)
and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from chirpfed import cli
from chirpfed.bound import derive_constants, tz_bound
from chirpfed.channel import (RayleighModelConfig, apply_doppler, bell_spectrum,
                              rayleigh_cir)
from chirpfed.chirp import (ChirpParams, Waveform, downsample, generate_chirp,
                            matched_filter_detect_batch)
from chirpfed.data import DatasetSpec, ber_monte_carlo
from chirpfed.federation import (FmlConfig, NodeState, build_nodes, maml_update,
                                 run_rounds, schedule)
from chirpfed.receiver import (LabeledBatch, default_hidden, detect_batch,
                               grad, init_params, linearize, loss, train)
from oracles import QuadraticFederationSpec, empirical_rounds_to_gap


def hvp(p, batch, v):
    """Oracle: the Hessian-vector product of a fresh linearization."""
    return linearize(p, batch).hvp(v)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def read_csv(path):
    comments, rows = [], []
    with open(path) as f:
        for line in f:
            (comments if line.startswith("#") else rows).append(line.rstrip("\n"))
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:] if r]
    return comments, header, data


def kinked_net(rng, sizes):
    p = init_params(sizes, rng)
    # nonzero biases keep pre-activations off the exact ReLU kink
    return p.from_flat(p.to_flat() + 0.05 * rng.standard_normal(p.n_params))


# --------------------------------------------------------------- criterion 1

def test_criterion_01_complexity_table(tmp_path):
    t0 = time.time()
    out = tmp_path / "cx.csv"
    assert cli.main(["complexity", "--seed", "0", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    rows = {(r[0], r[1]): dict(zip(header, r)) for r in data}
    dnn = rows[("dnn", "6")]
    mf1 = rows[("mf", "1")]
    ok = (dnn["add"] == "301" and dnn["nav"] == "301"
          and dnn["table_mul"] == "42420" and dnn["mul"] == "48140"
          and "mul" in dnn["mismatch_flags"]
          and dnn["table_total"] == "43022"
          and mf1["add"] == "1919" and mf1["table_total"] == "1844159"
          and rows[("advantage_mf6", "6")]["advantage"] == "19.4%")
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0,
           f"ADD=301 NAV=301, MUL 48140 flagged vs 42420, totals 43022/"
           f"1844159, advantage 19.4% ({elapsed:.2f} s)")


# --------------------------------------------------------------- criterion 2

@pytest.mark.slow
def test_criterion_02_mf_sanity():
    t0 = time.time()
    params = ChirpParams(lam=1)
    trials = 100000
    ratios = []
    for ebn0 in (6.0, 9.0, 12.0):
        [(ber,)] = ber_monte_carlo(params, ["mf"], [ebn0], 0.0, 0.0, trials, seed=5)
        q = float(norm.sf(math.sqrt(10 ** (ebn0 / 10))))
        ratios.append(ber / q)
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60.0,
           f"BER/Q ratios at 6/9/12 dB = "
           f"{', '.join(f'{r:.2f}' for r in ratios)} ({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 3

@pytest.mark.slow
def test_criterion_03_impairment_trend():
    # Doppler variant of the impairment criterion: v = 10 m/s at
    # Eb/N0 = 12 dB, lambda = 6, speed-augmented training set.
    t0 = time.time()
    seed = 0
    p6 = ChirpParams(lam=6)
    p1 = ChirpParams(lam=1)
    speeds = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    bank = np.empty((2, len(speeds), p6.n1))
    for b, direction in enumerate(("up", "down")):
        w = generate_chirp(p1, direction)
        for j, v in enumerate(speeds):
            ww = apply_doppler(w, v / 1500.0) if v else w
            bank[b, j] = downsample(ww, 6).samples
    eb = float(np.sum(generate_chirp(p1, "up").samples ** 2))
    sigma = math.sqrt(eb / (2 * 10 ** 1.2))  # Eb/N0 = 12 dB

    rng = np.random.default_rng(seed)
    n_train = 60000
    vi = rng.integers(0, len(speeds), n_train)
    bits = rng.integers(0, 2, n_train)
    x = bank[bits, vi] + rng.standard_normal((n_train, p6.n1)) * sigma
    batch = LabeledBatch(x / sigma, bits.astype(float))
    h1, h2 = default_hidden(p6.n1)
    net = init_params([p6.n1, h1, h2, 1], np.random.default_rng(seed))
    net = train(net, batch, epochs=25, lr=1e-3, batch_size=128,
                rng=np.random.default_rng(seed + 1))

    rng2 = np.random.default_rng(seed + 2)
    trials = 100000
    err_mf = err_dnn = done = 0
    while done < trials:
        m = min(20000, trials - done)
        tb = rng2.integers(0, 2, m)
        rx = bank[tb, len(speeds) - 1] + rng2.standard_normal((m, p6.n1)) * sigma
        err_mf += int(np.sum(matched_filter_detect_batch(rx, p6) != tb))
        err_dnn += int(np.sum(detect_batch(net, rx / sigma) != tb))
        done += m
    ber_mf, ber_dnn = err_mf / trials, err_dnn / trials
    ratio = ber_dnn / ber_mf
    elapsed = time.time() - t0
    order_of_magnitude = ber_mf / max(ber_dnn, 1e-12)
    report(3, ratio <= 0.5 and elapsed < 1200.0,
           f"v=10 m/s: DNN BER {ber_dnn:.4f} vs MF {ber_mf:.4f}, ratio "
           f"{ratio:.3f} <= 0.5; improvement x{order_of_magnitude:.1f} "
           f"(aspirational x10 logged, not gated) ({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(100):
        sizes = [int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                 int(rng.integers(2, 7)), 1]
        p = kinked_net(rng, sizes)
        n_rows = int(rng.integers(2, 6))
        batch = LabeledBatch(rng.standard_normal((n_rows, sizes[0])),
                             rng.integers(0, 2, n_rows).astype(float))
        g = grad(p, batch)
        theta = p.to_flat()
        num = np.empty_like(theta)
        eps = 1e-5
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            num[i] = (loss(p.from_flat(up), batch)
                      - loss(p.from_flat(dn), batch)) / (2 * eps)
        worst_g = max(worst_g, float(np.max(
            np.abs(g - num) / np.maximum(np.abs(num), 1e-8))))
        v = rng.standard_normal(theta.size)
        hv = hvp(p, batch, v)
        num_h = (grad(p.from_flat(theta + eps * v), batch)
                 - grad(p.from_flat(theta - eps * v), batch)) / (2 * eps)
        worst_h = max(worst_h, float(
            np.linalg.norm(hv - num_h) / max(np.linalg.norm(num_h), 1e-10)))
    elapsed = time.time() - t0
    report(4, worst_g < 1e-4 and worst_h < 1e-3 and elapsed < 60.0,
           f"100 draws: max grad rel err {worst_g:.2e} < 1e-4, max HVP rel "
           f"err {worst_h:.2e} < 1e-3 ({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_maml_meta_gradient():
    t0 = time.time()
    rng = np.random.default_rng(5)
    alpha = 0.01
    worst = 0.0
    for _ in range(50):
        sizes = [int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                 int(rng.integers(2, 6)), 1]
        p0 = kinked_net(rng, sizes)
        n_rows = int(rng.integers(3, 6))
        tr = LabeledBatch(rng.standard_normal((n_rows, sizes[0])),
                          rng.integers(0, 2, n_rows).astype(float))
        te = LabeledBatch(rng.standard_normal((n_rows, sizes[0])),
                          rng.integers(0, 2, n_rows).astype(float))
        theta = p0.to_flat()

        def composed(th):
            phi = th - alpha * grad(p0.from_flat(th), tr)
            return loss(p0.from_flat(phi), te)

        def train(th):
            lin = linearize(p0.from_flat(th), tr)
            return lin.grad, lin.hvp

        new = maml_update(
            theta, train,
            grad_test=lambda th: grad(p0.from_flat(th), te),
            alpha=alpha, beta=1.0, T0=1, mode="exact")
        meta = theta - new
        v = rng.standard_normal(theta.size)
        v /= np.linalg.norm(v)
        eps = 1e-6
        fd = (composed(theta + eps * v) - composed(theta - eps * v)) / (2 * eps)
        denom = max(abs(fd), 1e-10)
        worst = max(worst, abs(float(np.dot(meta, v)) - fd) / denom)
    elapsed = time.time() - t0
    report(5, worst < 1e-3 and elapsed < 60.0,
           f"50 draws: max composed-objective directional-derivative rel err "
           f"{worst:.2e} < 1e-3 ({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_channel_statistics():
    t0 = time.time()
    cfg = RayleighModelConfig(Ts=0.001, fd=10.0)
    # tap-power profile over 10^4 realizations
    acc = np.zeros(cfg.n_taps)
    for seed in range(10000):
        h = rayleigh_cir(cfg, 0.1, 1000.0, seed=seed)
        acc += np.mean(np.abs(h.taps) ** 2, axis=1)
    acc /= 10000
    ratio_db = float(np.mean(10 * np.log10(acc[1:] / acc[:-1])))
    ratio_ok = abs(ratio_db + 0.66) <= 0.1

    # PSD shape of the first tap process vs the bell spectrum
    n, fs = 4096, 1000.0
    freqs = np.fft.fftfreq(n, 1.0 / fs)
    est = np.zeros(n)
    n_psd = 300
    for seed in range(n_psd):
        h = rayleigh_cir(cfg, n / fs, fs, seed=20000 + seed)
        est += np.abs(np.fft.fft(h.taps[0])) ** 2
    est /= n_psd
    band = np.abs(freqs) <= cfg.fd
    s_est = est[band] / est[band].mean()
    s_ref = bell_spectrum(freqs[band], cfg.fd, cfg.a)
    s_ref = s_ref / s_ref.mean()
    nmse = float(np.mean((s_est - s_ref) ** 2) / np.mean(s_ref ** 2))
    psd_ok = nmse < 0.05

    # Doppler resampling of a tone
    f0, n_fft = 100.0, 1 << 16
    t = np.arange(n_fft) / fs
    w = Waveform(np.cos(2 * np.pi * f0 * t), fs)
    out = apply_doppler(w, 0.01)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(n_fft)))
    f_peak = np.argmax(spec) * fs / n_fft
    tone_ok = abs(f_peak - 1.01 * f0) <= fs / n_fft

    elapsed = time.time() - t0
    report(6, ratio_ok and psd_ok and tone_ok and elapsed < 120.0,
           f"adjacent-tap ratio {ratio_db:.3f} dB (target -0.66±0.1), PSD "
           f"NMSE {nmse:.4f} < 0.05, tone peak {f_peak:.3f} Hz vs "
           f"{1.01 * f0:.1f} ({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_scheduling_fairness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    counts = np.zeros(33)
    rounds = 10000
    for _ in range(rounds):
        scheduled, _ = schedule(33, 10, 1.0, rng)
        for i in scheduled:
            counts[i] += 1
    freq = counts / rounds
    dev = float(np.max(np.abs(freq - 10 / 33)))
    elapsed = time.time() - t0
    report(7, dev < 0.01 and elapsed < 10.0,
           f"max |frequency - 10/33| = {dev:.4f} < 0.01 over 10^4 rounds "
           f"({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_08_fml_vs_fl():
    t0 = time.time()
    chirp = ChirpParams(lam=12)
    h1, h2 = default_hidden(chirp.n1)
    bands = [(0.0, 60.0)] * 3 + [(180.0, 240.0)] * 3
    margins = []
    for seed in range(5):
        theta = init_params([chirp.n1, h1, h2, 1], np.random.default_rng(seed))
        nodes = build_nodes(
            [DatasetSpec(n_symbols=300, split=2 / 3, chirp=chirp,
                         snr_db_range=(-12.0, -12.0), sto_range=sto,
                         seed=seed * 100 + nid)
             for nid, sto in enumerate(bands)], theta)
        acc = {}
        for mode in ("fml", "fl"):
            fresh = [NodeState(n.id, theta, n.train_split, n.test_split)
                     for n in nodes]
            cfg = FmlConfig(K=6, G=1.0, alpha=0.5, beta=0.2, T0=1, rounds=50,
                            p_decode=1.0, seed=seed)
            logs, _ = run_rounds(cfg, fresh, mode)
            acc[mode] = logs[-1].adapted_acc
        margins.append(acc["fml"] - acc["fl"])
    ok = all(m > 0 for m in margins)
    elapsed = time.time() - t0
    report(8, ok and elapsed < 1800.0,
           f"post-adaptation margins (FML - FL) at round 50 = "
           f"{', '.join(f'{m:+.3f}' for m in margins)}; 5/5 positive "
           f"({elapsed:.1f} s)")


# --------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_09_local_epoch_trend():
    t0 = time.time()
    chirp = ChirpParams(lam=12)
    h1, h2 = default_hidden(chirp.n1)
    seed = 0
    theta = init_params([chirp.n1, h1, h2, 1], np.random.default_rng(seed))
    nodes0 = build_nodes(
        [DatasetSpec(n_symbols=300, split=2 / 3, chirp=chirp,
                     snr_db_range=(-4.0, -4.0), sto_range=(0.0, 60.0),
                     seed=seed * 100 + nid) for nid in range(4)], theta)

    def rounds_to_90(t0_epochs, cap):
        fresh = [NodeState(n.id, theta, n.train_split, n.test_split)
                 for n in nodes0]
        cfg = FmlConfig(K=4, G=1.0, alpha=0.5, beta=0.1, T0=t0_epochs,
                        rounds=cap, p_decode=1.0, seed=seed)
        logs, _ = run_rounds(cfg, fresh, "fml")
        for log in logs:
            if log.test_acc >= 0.9:
                return log.round_index + 1
        return None

    r = {1: rounds_to_90(1, 250), 5: rounds_to_90(5, 100),
         10: rounds_to_90(10, 60)}
    ok = (None not in r.values() and r[1] >= r[5] >= r[10]
          and r[1] - r[5] >= 5)
    elapsed = time.time() - t0
    report(9, ok and elapsed < 1800.0,
           f"rounds to 90% accuracy: T0=1 -> {r[1]}, T0=5 -> {r[5]}, "
           f"T0=10 -> {r[10]}; non-increasing, T0=5 gap {r[1] - r[5]} >= 5 "
           f"(magnitude vs the reported >10 logged, not gated) "
           f"({elapsed:.1f} s)")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_theorem_validation():
    t0 = time.time()
    results = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        task = QuadraticFederationSpec(
            A=np.eye(3), b=rng.standard_normal((4, 3)),
            alpha=0.01, beta=0.01, T0=1)
        gap0 = task.meta_objective(task.theta0) - task.meta_optimum()
        eps = gap0 / 2
        c = task.constants(n_gap_factor=100.0, epsilon=eps)
        d = derive_constants(c)
        assert d.valid, f"instance {seed}: flags {d.flags}"
        tz = tz_bound(c)
        rounds, capped = empirical_rounds_to_gap(task, eps)
        results.append((rounds, math.ceil(tz), capped))
    within = all(r <= tz and not capped for r, tz, capped in results)

    # monotonicity of the bound in T0 and in epsilon on one instance
    rng = np.random.default_rng(0)
    task = QuadraticFederationSpec(A=np.eye(3),
                                   b=rng.standard_normal((4, 3)),
                                   alpha=0.01, beta=0.01)
    gap0 = task.meta_objective(task.theta0) - task.meta_optimum()
    tz_t0 = []
    for t0_val in (1, 2, 5, 10):
        t = QuadraticFederationSpec(A=task.A, b=task.b, alpha=0.01,
                                    beta=0.01, T0=t0_val)
        tz_t0.append(tz_bound(t.constants(n_gap_factor=100.0,
                                          epsilon=gap0 / 2)))
    mono_t0 = all(a >= b - 1e-12 for a, b in zip(tz_t0, tz_t0[1:]))
    tz_eps = [tz_bound(task.constants(n_gap_factor=100.0, epsilon=e))
              for e in (gap0 / 8, gap0 / 4, gap0 / 2)]
    mono_eps = all(a >= b - 1e-12 for a, b in zip(tz_eps, tz_eps[1:]))

    elapsed = time.time() - t0
    worst = max(r - tz for r, tz, _ in results)
    report(10, within and mono_t0 and mono_eps and elapsed < 300.0,
           f"10 instances: empirical rounds <= ceil(tz) (min slack "
           f"{-worst} rounds); tz non-increasing in T0 and epsilon "
           f"({elapsed:.1f} s)")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.time()
    data_path = tmp_path / "node.uwds"
    assert cli.main(["gen-data", "--seed", "2", "--symbols", "20",
                     "--lambda", "24", "--snr-range", "0", "6",
                     "--out", str(data_path)]) == 0
    cir_path = tmp_path / "chan.uwac"
    assert cli.main(["cir", "generate", "--seed", "5", "--duration", "0.05",
                     "--out", str(cir_path)]) == 0
    commands = {
        "complexity": ["complexity", "--seed", "0"],
        "bound": ["bound", "--seed", "0", "--mu", "1", "--big-h", "2",
                  "--delta", "0.2"],
        "ber-sweep": ["ber-sweep", "--seed", "1", "--trials", "2000",
                      "--snr-db", "9"],
        "gen-data": ["gen-data", "--seed", "2", "--symbols", "20",
                     "--lambda", "24", "--snr-range", "0", "6"],
        "train-single": ["train-single", "--seed", "3", "--data",
                         str(data_path), "--epochs", "1",
                         "--batch-size", "8"],
        "run-fed": ["run-fed", "--seed", "4", "--rounds", "2", "--g", "1.0",
                    "--lambda", "24", "--symbols", "20", "--split", "0.5",
                    "--group", "count=2,snr=0:6"],
        "cir": ["cir", "inspect", "--seed", "5", "--path", str(cir_path)],
    }
    identical = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}-a.out"
        out_b = tmp_path / f"{name}-b.out"
        assert cli.main(argv + ["--out", str(out_a)]) == 0, name
        assert cli.main(argv + ["--out", str(out_b)]) == 0, name
        identical.append(out_a.read_bytes() == out_b.read_bytes())
    elapsed = time.time() - t0
    report(11, all(identical),
           f"{sum(identical)}/7 subcommands byte-identical on rerun "
           f"({elapsed:.1f} s)")
