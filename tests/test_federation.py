import collections
import hashlib
import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from chirpfed import data, federation, receiver
from chirpfed.chirp import ChirpParams
from chirpfed.data import MAX_DATASET_SAMPLES, DatasetSpec, build_node_dataset
from chirpfed.errors import (ConfigurationError, EmptyRoundError, InputError,
                             TrainingError)
from chirpfed.federation import (FmlConfig, NodeState, RoundLog, aggregate,
                                 build_nodes, evaluate, local_fedavg_step,
                                 local_maml_step, maml_update, run_rounds,
                                 schedule)
from chirpfed.receiver import (LabeledBatch, default_hidden, grad, init_params,
                               linearize, loss)


def hvp(p, batch, v):
    """Oracle: the Hessian-vector product of a fresh linearization."""
    return linearize(p, batch).hvp(v)


def sgd_step(p, batch, lr):
    """Oracle: one full-batch gradient step."""
    return p.from_flat(p.to_flat() - lr * grad(p, batch))


def make_node(nid, seed, n_in=4, n_rows=8, theta=None):
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = init_params([n_in, 5, 4, 1], np.random.default_rng(1000 + seed))
    tr = LabeledBatch(rng.standard_normal((n_rows, n_in)),
                      rng.integers(0, 2, n_rows).astype(float))
    te = LabeledBatch(rng.standard_normal((n_rows, n_in)),
                      rng.integers(0, 2, n_rows).astype(float))
    return NodeState(nid, theta, tr, te)


def two_group_specs(seed=0, n_symbols=30):
    """Criterion 8's node recipe, one node per STO band."""
    return [DatasetSpec(n_symbols=n_symbols, split=2 / 3, chirp=ChirpParams(lam=12),
                        snr_db_range=(-12.0, -12.0), sto_range=sto,
                        seed=seed * 100 + nid)
            for nid, sto in enumerate([(0.0, 60.0), (180.0, 240.0)])]


def fresh_theta():
    n1 = ChirpParams(lam=12).n1
    return init_params([n1, *default_hidden(n1), 1], np.random.default_rng(0))


# -------------------------------------------------------------------- config

def test_config_validation():
    assert FmlConfig(K=33, G=0.3).N == 10
    with pytest.raises(ConfigurationError):
        FmlConfig(G=0.0)
    with pytest.raises(ConfigurationError):
        FmlConfig(alpha=0.0)
    for alpha, beta in ((float("nan"), 0.1), (0.1, float("inf")), (0.1, float("nan"))):
        with pytest.raises(ConfigurationError):
            FmlConfig(alpha=alpha, beta=beta)
    with pytest.raises(ConfigurationError):
        FmlConfig(p_decode=1.5)
    with pytest.raises(ConfigurationError, match=r"round\(0\.001\*100\) = 0 must"):
        FmlConfig(K=100, G=0.001)  # N rounds to 0
    with pytest.raises(ConfigurationError):
        FmlConfig(mode="third_order")


def test_round_log_subset_invariant():
    with pytest.raises(ConfigurationError):
        RoundLog(0, (1, 2), (3,), 0.0, 0.5, 0.5)


# --------------------------------------------------------------- MAML update

def test_maml_alpha_zero_is_sgd_on_test_split():
    node = make_node(0, 0)
    # alpha must be > 0 in config, but maml_update itself accepts alpha=0
    flat = maml_update(
        node.theta.to_flat(),
        train=lambda th: (grad(node.theta.from_flat(th), node.train_split),
                          lambda v: hvp(node.theta.from_flat(th), node.train_split, v)),
        grad_test=lambda th: grad(node.theta.from_flat(th), node.test_split),
        alpha=0.0, beta=0.05, T0=1)
    want = sgd_step(node.theta, node.test_split, 0.05)
    assert np.allclose(flat, want.to_flat())


def test_exact_meta_gradient_matches_composed_fd():
    node = make_node(0, 1)
    alpha = 0.01
    p0 = node.theta
    theta = p0.to_flat()

    def composed(th):
        phi = th - alpha * grad(p0.from_flat(th), node.train_split)
        return loss(p0.from_flat(phi), node.test_split)

    # one exact step at tiny beta recovers the meta-gradient
    beta = 1.0
    new = maml_update(
        theta,
        train=lambda th: (grad(p0.from_flat(th), node.train_split),
                          lambda v: hvp(p0.from_flat(th), node.train_split, v)),
        grad_test=lambda th: grad(p0.from_flat(th), node.test_split),
        alpha=alpha, beta=beta, T0=1, mode="exact")
    meta = (theta - new) / beta
    rng = np.random.default_rng(2)
    v = rng.standard_normal(theta.size)
    v /= np.linalg.norm(v)
    eps = 1e-6
    fd = (composed(theta + eps * v) - composed(theta - eps * v)) / (2 * eps)
    assert np.dot(meta, v) == pytest.approx(fd, rel=1e-3, abs=1e-10)


def test_maml_on_quadratic_matches_hand_update():
    # L_train = 0.5 theta'A theta - b't theta, L_test with b_test
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    b_tr = np.array([1.0, -0.5])
    b_te = np.array([0.4, 0.9])
    alpha, beta = 0.05, 0.1
    theta = np.array([0.7, -0.2])
    new = maml_update(
        theta,
        train=lambda th: (A @ th - b_tr, lambda v: A @ v),
        grad_test=lambda th: A @ th - b_te,
        alpha=alpha, beta=beta, T0=1, mode="exact")
    phi = theta - alpha * (A @ theta - b_tr)
    meta = (np.eye(2) - alpha * A) @ (A @ phi - b_te)
    assert np.allclose(new, theta - beta * meta, rtol=1e-12)


def test_first_order_drops_hessian_term():
    A = np.diag([3.0, 1.0])
    b = np.zeros(2)
    theta = np.array([1.0, 1.0])
    new = maml_update(theta, lambda th: (A @ th - b, lambda v: A @ v),
                      lambda th: A @ th - b, alpha=0.1, beta=0.1, T0=1,
                      mode="first_order")
    phi = theta - 0.1 * (A @ theta)
    assert np.allclose(new, theta - 0.1 * (A @ phi))


def _out_of_place_maml(theta, train, grad_test, alpha, beta, T0, mode):
    for _ in range(T0):
        g_tr, hvp_tr = train(theta)
        phi = theta - alpha * g_tr
        g_te = grad_test(phi)
        meta = g_te - alpha * hvp_tr(g_te) if mode == "exact" else g_te
        theta = theta - beta * meta
    return theta


@pytest.mark.parametrize("mode", ["exact", "first_order"])
@pytest.mark.parametrize("types", [
    # theta, train gradient, Hessian-vector product, test gradient
    (np.float64, np.float32, np.float32, np.float32),
    (np.float64, np.float32, np.float64, np.float32),
    (np.float64, np.float64, np.float32, np.float64),
    (np.float32, np.float32, np.float32, np.float32),
    (np.float32, np.float64, np.float32, np.float32),
], ids=lambda types: "-".join(np.dtype(t).name for t in types))
def test_maml_update_types_and_rounds_as_the_out_of_place_step(types, mode):
    theta_type, train_type, hvp_type, test_type = types
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    A = A @ A.T / 6 + np.eye(6)
    b_tr, b_te = rng.standard_normal((2, 6))
    theta = rng.standard_normal(6).astype(theta_type)

    def train(th):
        return (A @ th - b_tr).astype(train_type), lambda v: (A @ v).astype(hvp_type)

    def grad_test(th):
        return (A @ th - b_te).astype(test_type)

    got = maml_update(theta, train, grad_test, 0.05, 0.1, T0=3, mode=mode)
    want = _out_of_place_maml(theta, train, grad_test, 0.05, 0.1, 3, mode)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- local updates

def test_fedavg_lr_zero_is_identity():
    node = make_node(0, 3)
    out = local_fedavg_step(node, lr=0.0, T0=3)
    assert np.array_equal(out.to_flat(), node.theta.to_flat())


def test_fedavg_single_step_definition():
    node = make_node(0, 4)
    full = LabeledBatch(
        np.vstack([node.train_split.inputs, node.test_split.inputs]),
        np.concatenate([node.train_split.labels, node.test_split.labels]))
    out = local_fedavg_step(node, lr=0.2, T0=1)
    want = node.theta.to_flat() - 0.2 * grad(node.theta, full)
    assert np.allclose(out.to_flat(), want)


def test_fedavg_descends_on_smooth_objective():
    node = make_node(0, 5, n_rows=32)
    full = LabeledBatch(
        np.vstack([node.train_split.inputs, node.test_split.inputs]),
        np.concatenate([node.train_split.labels, node.test_split.labels]))
    prev = loss(node.theta, full)
    out = local_fedavg_step(node, lr=0.1, T0=20)
    assert loss(out, full) <= prev


def test_local_maml_requires_both_splits():
    node = make_node(0, 6)
    empty = LabeledBatch(np.zeros((0, 4)), np.zeros(0))
    broken = NodeState(0, node.theta, node.train_split, empty)
    with pytest.raises(ConfigurationError):
        local_maml_step(broken, 0.01, 0.01, 1)


# ---------------------------------------------------------------- scheduling

def test_schedule_full_participation():
    rng = np.random.default_rng(0)
    scheduled, u = schedule(5, 5, 1.0, rng)
    assert scheduled == (0, 1, 2, 3, 4)
    assert all(u[i] == 1 for i in range(5))


def test_schedule_decode_failure():
    rng = np.random.default_rng(0)
    scheduled, u = schedule(10, 4, 0.0, rng)
    assert len(scheduled) == 4
    assert all(v == 0 for v in u.values())


def test_schedule_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        schedule(3, 4, 1.0, rng)
    with pytest.raises(ConfigurationError):
        schedule(3, 0, 1.0, rng)


def test_schedule_quick_fairness():
    rng = np.random.default_rng(1)
    counts = np.zeros(33)
    rounds = 2000
    for _ in range(rounds):
        scheduled, _ = schedule(33, 10, 1.0, rng)
        for i in scheduled:
            counts[i] += 1
    freq = counts / rounds
    assert np.all(np.abs(freq - 10 / 33) < 0.03)


# --------------------------------------------------------------- aggregation

def test_aggregate_single_and_midpoint():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 6.0])
    assert np.array_equal(aggregate([(a, 7, 1), (b, 99, 0)]), a)
    assert np.array_equal(aggregate([(a, 5, 1), (b, 5, 1)]), [2.0, 4.0])


def test_aggregate_weight_renormalization():
    a = np.array([2.0])
    # identical parameters, wildly different sizes: result is still exactly a
    out = aggregate([(a, 1, 1), (a, 1000, 1), (a, 3, 0)])
    assert out[0] == pytest.approx(2.0, rel=1e-15)


def test_aggregate_weighted_mean():
    out = aggregate([(np.array([0.0]), 1, 1), (np.array([4.0]), 3, 1)])
    assert out[0] == pytest.approx(3.0)


def test_aggregate_empty_round():
    with pytest.raises(EmptyRoundError):
        aggregate([(np.ones(2), 4, 0)])


# -------------------------------------------------------------------- rounds

def test_zero_rounds():
    nodes = [make_node(0, 7)]
    cfg = FmlConfig(K=1, G=1.0, rounds=0, seed=0)
    logs, theta = run_rounds(cfg, nodes, "fml")
    assert logs == []
    assert np.array_equal(theta.to_flat(), nodes[0].theta.to_flat())


def test_single_node_fl_equals_centralized_gd():
    node = make_node(0, 8)
    theta0 = node.theta  # run_rounds overwrites node.theta with broadcasts
    full = LabeledBatch(
        np.vstack([node.train_split.inputs, node.test_split.inputs]),
        np.concatenate([node.train_split.labels, node.test_split.labels]))
    cfg = FmlConfig(K=1, G=1.0, alpha=0.05, rounds=5, seed=0)
    logs, theta = run_rounds(cfg, [node], "fl")
    ref = theta0
    for _ in range(5):
        ref = sgd_step(ref, full, 0.05)
    assert np.allclose(theta.to_flat(), ref.to_flat(), rtol=1e-12)
    assert len(logs) == 5


def test_run_rounds_deterministic():
    def go():
        theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
        nodes = [make_node(i, 20 + i, theta=theta) for i in range(4)]
        cfg = FmlConfig(K=4, G=0.5, alpha=0.05, beta=0.05, rounds=6,
                        p_decode=0.8, seed=3)
        return run_rounds(cfg, nodes, "fml")
    logs_a, theta_a = go()
    logs_b, theta_b = go()
    assert logs_a == logs_b
    assert np.array_equal(theta_a.to_flat(), theta_b.to_flat())


def test_permutation_invariance_of_trajectory():
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 30 + i, theta=theta) for i in range(4)]
    cfg = FmlConfig(K=4, G=1.0, alpha=0.05, beta=0.05, rounds=4, seed=9)
    _, theta_a = run_rounds(cfg, list(nodes), "fml")
    # relabel ids but keep the same node order -> same trajectory
    relabeled = [NodeState(100 + n.id, theta, n.train_split, n.test_split)
                 for n in nodes]
    logs_b, theta_b = run_rounds(cfg, relabeled, "fml")
    assert np.array_equal(theta_a.to_flat(), theta_b.to_flat())
    assert all(i >= 100 for log in logs_b for i in log.scheduled)


def test_empty_rounds_keep_parameters():
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 40 + i, theta=theta) for i in range(2)]
    cfg = FmlConfig(K=2, G=1.0, alpha=0.05, beta=0.05, rounds=3,
                    p_decode=0.0, seed=1)
    logs, out = run_rounds(cfg, nodes, "fml")
    assert np.array_equal(out.to_flat(), theta.to_flat())
    assert all(log.successful == () for log in logs)


def test_run_rounds_validation():
    nodes = [make_node(0, 50)]
    with pytest.raises(ConfigurationError):
        run_rounds(FmlConfig(K=1, G=1.0), nodes, "centralized")
    with pytest.raises(ConfigurationError):
        run_rounds(FmlConfig(K=2, G=1.0), nodes, "fml")
    with pytest.raises(ConfigurationError):
        run_rounds(FmlConfig(K=1, G=1.0), [], "fml")


@pytest.mark.parametrize("split", ["train_split", "test_split"])
def test_run_rounds_refuses_an_empty_split_before_any_pass(split):
    # an empty test split is a configuration error, not a refused pass
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 100 + i, theta=theta) for i in range(5)]
    setattr(nodes[2], split, LabeledBatch(np.zeros((0, 4)), np.zeros(0)))
    cfg = FmlConfig(K=5, G=0.4, alpha=0.05, beta=0.05, rounds=2, p_decode=0.5, seed=7)
    with pytest.raises(ConfigurationError, match="nonempty train and test splits"):
        run_rounds(cfg, nodes, "fml")


def evaluate_all(theta, nodes, alpha):
    """Oracle: each node's evaluate pair at its train gradient, weighted by
    data size and summed in node order."""
    total = sum(node.data_size for node in nodes)
    acc = adapted = 0.0
    for node in nodes:
        a, b = evaluate(theta, node, alpha, grad(theta, node.train_split))
        w = node.data_size / total
        acc, adapted = acc + w * a, adapted + w * b
    return acc, adapted


def test_evaluate_bounds_and_adaptation():
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 60 + i, theta=theta, n_rows=8 + 2 * i) for i in range(3)]
    cfg = FmlConfig(K=3, G=0.7, alpha=0.3, beta=0.2, rounds=3, p_decode=0.8, seed=4)
    logs, out = run_rounds(cfg, nodes, "fml")
    acc, adapted = evaluate_all(out, nodes, cfg.alpha)
    assert (acc, adapted) == (logs[-1].test_acc, logs[-1].adapted_acc)
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= adapted <= 1.0


@pytest.mark.parametrize("mode, step", [("fml", "local_maml_step"),
                                        ("fl", "local_fedavg_step")])
def test_local_steps_only_on_scheduled_nodes(monkeypatch, mode, step):
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 70 + i, theta=theta) for i in range(6)]
    cfg = FmlConfig(K=6, G=0.5, alpha=0.05, beta=0.05, rounds=4,
                    p_decode=0.5, seed=2)
    stepped = []
    original = getattr(federation, step)

    def counted(node, *args):
        stepped.append(node.id)
        return original(node, *args)

    monkeypatch.setattr(federation, step, counted)
    logs, _ = run_rounds(cfg, nodes, mode)
    assert len(stepped) == cfg.N * cfg.rounds
    assert stepped == [i for log in logs for i in log.scheduled]


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_pass_evaluates_each_node_once_per_evaluated_round(
        request, monkeypatch, threads, mode):
    request.getfixturevalue(threads)
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 75 + i, theta=theta) for i in range(6)]
    cfg = FmlConfig(K=6, G=0.5, alpha=0.05, beta=0.05, rounds=4,
                    p_decode=0.5, seed=2)
    evaluated = collections.Counter()
    original = federation.evaluate

    def counted(theta, node, *args):
        evaluated[node.id] += 1
        return original(theta, node, *args)

    monkeypatch.setattr(federation, "evaluate", counted)
    logs, _ = run_rounds(cfg, nodes, mode)
    assert len(logs) == cfg.rounds
    assert evaluated == {node.id: cfg.rounds for node in nodes}


@pytest.mark.parametrize("mode, T0", [("exact", 1), ("exact", 3), ("first_order", 2)])
def test_local_maml_step_runs_one_train_forward_pass_per_step(monkeypatch, mode, T0):
    # the train-side gradient and Hessian-vector product share one forward pass
    node = make_node(0, 11)
    seen = []
    original = receiver._forward_pass

    def counted(p, x):
        seen.append(x is node.train_split.inputs)
        return original(p, x)

    monkeypatch.setattr(receiver, "_forward_pass", counted)
    local_maml_step(node, alpha=0.05, beta=0.05, T0=T0, mode=mode)
    assert seen.count(True) == T0
    assert seen.count(False) == T0  # the test-side gradient at phi


# sha256 of the final parameter bytes and repr(logs) of 4 nodes, T0=2,
# recorded when the HVP still ran its own forward pass.  The nets and batches
# are large enough, and alpha high enough, that rounding the HVP's d3 as the
# gradient does changes the fml-exact digest.
GOLDEN_RUNS = {
    ("fml", "exact"): "6585b6891da40d81479d4656cd37dd7905e4bffb257a5add53c787a0a59e29a3",
    ("fml", "first_order"): "b2a51fb0b846f0891d8f436b77401c95cf4c6535ac3f6fd1e09c6a26db2e7011",
    ("fl", "exact"): "9a6dda676d9155ce7393218c98b4ef98121b813851f37a75ca3789125d83c0e9",
}


def golden_run(mode, meta, K, **cfg):
    """(logs, sha256 of the final parameter bytes and repr(logs)) of K nodes
    of 64 rows, 32 inputs, alpha 0.1 and beta 0.05."""
    theta = init_params([32, 32, 28, 1], np.random.default_rng(0))
    nodes = [make_node(i, 90 + i, n_in=32, n_rows=64, theta=theta) for i in range(K)]
    cfg = FmlConfig(K=K, alpha=0.1, beta=0.05, mode=meta, **cfg)
    logs, out = run_rounds(cfg, nodes, mode)
    return logs, hashlib.sha256(out.to_flat().tobytes() + repr(logs).encode()).hexdigest()


GOLDEN_RUN_CONFIG = dict(K=4, G=0.5, T0=2, rounds=5, p_decode=0.8, seed=7)


@pytest.mark.parametrize("mode, meta", list(GOLDEN_RUNS))
def test_run_rounds_golden_digest(mode, meta):
    _, digest = golden_run(mode, meta, **GOLDEN_RUN_CONFIG)
    assert digest == GOLDEN_RUNS[mode, meta]


# recorded with the parent code of the per-theta node pass: K=5, N=2, T0=1,
# seed 11, whose rounds 0, 3 and 5 decode no upload
GOLDEN_EMPTY_ROUND_RUNS = {
    ("fml", "exact"): "83326a5b119b34231d98a4f9461ad06d62602be49f1c28eba3f51da36b66da5d",
    ("fml", "first_order"): "0a919a656003465c400aef108bc2f2e93e4657d6fe97b034d5af21338232bf6b",
    ("fl", "exact"): "2ea0b2fe1160cbde04813aecf76ca0278b5c3a12bd0ea91e0b34cf6d526cda89",
}


GOLDEN_EMPTY_ROUND_CONFIG = dict(K=5, G=0.4, T0=1, rounds=6, p_decode=0.5, seed=11)


@pytest.mark.parametrize("mode, meta", list(GOLDEN_EMPTY_ROUND_RUNS))
def test_run_rounds_golden_digest_with_empty_rounds(mode, meta):
    logs, digest = golden_run(mode, meta, **GOLDEN_EMPTY_ROUND_CONFIG)
    assert [log.round_index for log in logs if not log.successful] == [0, 3, 5]
    assert digest == GOLDEN_EMPTY_ROUND_RUNS[mode, meta]


# recorded with the serial node pass: every node scheduled (G=1), T0 = 1
# and 3; round 3 decodes no upload
GOLDEN_FULL_RUNS = {
    (1, "fml", "exact"): "aad082cb795b2e76915e0ad20e08a6bf9c6d0cae33e2267e68eaaa7f0546d0bb",
    (1, "fml", "first_order"): "c9e5d56d2f0e92baab96888a0bb1114f9b721e9d66bd625781c5a6ab307e6b0a",
    (1, "fl", "exact"): "218f1d1223e58e8ee0a3a17d86777ee7fc3fc8bc1fe9638c7104acc2c9eed6ae",
    (3, "fml", "exact"): "e9b58362abe315d634c9e882f029b42489752eb7db80c4b3c61145ffba4f1c6e",
    (3, "fml", "first_order"): "03c6a38ce8411a4a353edb64c3aa49fa47779857824858e30bb55b0d579b2a30",
    (3, "fl", "exact"): "76dad5072a10ab52e59fb88d7a8f0a3e9781202dceba3eb3eef588dac079be28",
}

HELPER_GOLDEN_CASES = (
    [pytest.param(GOLDEN_RUNS[mode, meta], mode, meta, GOLDEN_RUN_CONFIG,
                  id=f"{mode}-{meta}-T0=2") for mode, meta in GOLDEN_RUNS]
    + [pytest.param(GOLDEN_EMPTY_ROUND_RUNS[mode, meta], mode, meta,
                    GOLDEN_EMPTY_ROUND_CONFIG, id=f"{mode}-{meta}-empty-rounds")
       for mode, meta in GOLDEN_EMPTY_ROUND_RUNS]
    + [pytest.param(digest, mode, meta,
                    dict(K=4, G=1.0, T0=T0, rounds=4, p_decode=0.8, seed=7),
                    id=f"{mode}-{meta}-G=1-T0={T0}")
       for (T0, mode, meta), digest in GOLDEN_FULL_RUNS.items()])


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("digest, mode, meta, config", HELPER_GOLDEN_CASES)
def test_run_rounds_golden_digest_with_and_without_the_helper(
        request, threads, digest, mode, meta, config):
    request.getfixturevalue(threads)
    before = threading.active_count()
    assert golden_run(mode, meta, **config)[1] == digest
    assert threading.active_count() == before  # the helper was joined


# sha256 of the final parameter bytes and repr(logs) of run_rounds on four
# build_nodes nodes, recorded when each node's dataset came to draw from one
# stream for its metadata, one for its noise and one for its gains
GOLDEN_BUILT_RUNS = {
    ("fml", "exact"): "41b2dba6338807c626acec16b32048e9658d5379b34bf137fec653cedf2ff80e",
    ("fml", "first_order"): "bce2fa0544e5c0481f0d11df41129f510c595c0f64738b142c143d35d0f3a7a8",
    ("fl", "exact"): "7a1c84b82ae5680732b1d75aa658c08a7ff331a46c541009552861b486ae8e97",
}


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("mode, meta", list(GOLDEN_BUILT_RUNS))
def test_run_rounds_golden_digest_on_built_nodes(request, threads, mode, meta):
    request.getfixturevalue(threads)
    nodes = build_nodes(two_group_specs() + two_group_specs(seed=1), fresh_theta())
    assert all(node.train_split.inputs.dtype == np.float32 for node in nodes)
    cfg = FmlConfig(K=4, G=0.5, alpha=0.5, beta=0.2, T0=2, rounds=4, p_decode=0.8,
                    seed=7, mode=meta)
    logs, out = run_rounds(cfg, nodes, mode)
    digest = hashlib.sha256(out.to_flat().tobytes() + repr(logs).encode()).hexdigest()
    assert digest == GOLDEN_BUILT_RUNS[mode, meta]


@pytest.mark.parametrize("T0", [1, 3])
def test_run_rounds_linearizes_each_train_split_once_per_theta(monkeypatch, T0):
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 80 + i, theta=theta) for i in range(5)]
    cfg = FmlConfig(K=5, G=0.4, alpha=0.05, beta=0.05, T0=T0, rounds=4,
                    p_decode=0.5, seed=3)
    train_inputs = [node.train_split.inputs for node in nodes]
    seen = []
    original = receiver._forward_pass

    def counted(p, x):
        seen.append(any(x is inputs for inputs in train_inputs))
        return original(p, x)

    monkeypatch.setattr(receiver, "_forward_pass", counted)
    run_rounds(cfg, nodes, "fml")
    K, N, R = cfg.K, cfg.N, cfg.rounds
    # one pass per broadcast theta, plus the later steps of each local update;
    # before the per-theta pass it was R * (2K + N*T0)
    assert seen.count(True) == K * (R + 1) + N * R * (T0 - 1)


@pytest.mark.parametrize("mode, T0", [("fml", 1), ("fml", 3), ("fl", 2)])
def test_run_rounds_checks_divergence_on_the_passes_it_makes(monkeypatch, mode, T0):
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 80 + i, theta=theta) for i in range(5)]
    cfg = FmlConfig(K=5, G=0.4, alpha=0.05, beta=0.05, T0=T0, rounds=4,
                    p_decode=0.5, seed=3)
    passes = []
    logits = receiver._logits
    monkeypatch.setattr(receiver, "_logits", lambda *a: passes.append(1) or logits(*a))
    run_rounds(cfg, nodes, mode)
    K, N, R = cfg.K, cfg.N, cfg.rounds
    # per theta, each train split once; per evaluated round, each test split
    # at theta and at phi; per local update, its train- and test-side
    # gradients and the check of its result
    steps = 2 * T0 if mode == "fml" else T0 + 1
    assert len(passes) == K * (R + 1) + 2 * K * R + N * R * steps


@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_diverging_local_step_names_its_round(mode):
    check_diverging_local_step_names_its_round(mode)


@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_diverging_local_step_names_its_round_with_the_helper(helper, mode):
    threads = threading.active_count()
    check_diverging_local_step_names_its_round(mode)
    assert threading.active_count() == threads  # the helper was joined


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_run_rounds_diverges_without_a_warning(mode):
    # overflow on the way to divergence is left to the local updates' checks
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 110 + i, theta=theta) for i in range(3)]
    cfg = FmlConfig(K=3, G=1.0, alpha=1e300, beta=0.05, rounds=3, seed=1)
    with pytest.raises(TrainingError, match="diverged"):
        run_rounds(cfg, nodes, mode)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1e20, 3.9345064605459196e+102])
@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_an_update_past_the_float32_range_diverged(mode, alpha):
    # finite in float64, but the forward pass of the update, or of its inner
    # step, overflows the float32 the nodes compute in
    nodes = build_nodes(two_group_specs(), fresh_theta())
    cfg = FmlConfig(K=2, G=1.0, alpha=alpha, beta=0.2, rounds=1, seed=1)
    with pytest.raises(TrainingError, match=r"update diverged \(round 0, node 0, step 0\)"):
        run_rounds(cfg, nodes, mode)


def diverging_run(mode, split="train_split"):
    """run_rounds on five nodes, of which node 2's inputs in `split` overflow
    x @ W.T at every theta; it is first scheduled in round 3 under seed 7."""
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 100 + i, theta=theta) for i in range(5)]
    bad = getattr(nodes[2], split)
    huge = np.where(bad.inputs > 0, 1.7e308, -1.7e308)
    setattr(nodes[2], split, LabeledBatch(huge, bad.labels))
    cfg = FmlConfig(K=5, G=0.4, alpha=0.05, beta=0.05, rounds=6, p_decode=0.5,
                    seed=7)
    with np.errstate(all="ignore"):
        return run_rounds(cfg, nodes, mode)


def check_diverging_local_step_names_its_round(mode):
    # node 2's loss at the first broadcast theta is refused in the pass that
    # opens round 0, long before its first local step in round 3
    with pytest.raises(TrainingError) as info:
        diverging_run(mode)
    assert info.value.round_index == 0
    assert info.value.step_index is None
    assert info.value.node_id == 2
    assert str(info.value).endswith("train loss is not finite (round 0, node 2)")


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("mode", ["fml", "fl"])
def test_a_test_split_pass_that_is_not_finite_is_refused_for_its_round(
        request, threads, mode):
    # node 2's pass over its test split at the finite theta that evaluates
    # round 0 is refused by ber_eval; the error names that round and node
    request.getfixturevalue(threads)
    with pytest.raises(TrainingError) as info:
        diverging_run(mode, "test_split")
    assert (info.value.round_index, info.value.node_id) == (0, 2)
    assert str(info.value) == ("the network's float64 forward pass is not finite: its "
                               "parameters have diverged on these inputs (round 0, node 2)")


def run_with_train_gradient(monkeypatch, fill):
    """A one-round 'fl' run on three nodes, with alpha 2, in which node 1's
    train gradient at the theta that evaluates round 0 is `fill` in every
    entry."""
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 120 + i, theta=theta) for i in range(3)]
    original = receiver.linearize

    def filled(p, batch, hvp=True):
        lin = original(p, batch, hvp)
        if batch is nodes[1].train_split:  # only linearized when evaluated
            lin.grad = np.full_like(lin.grad, fill)
        return lin

    monkeypatch.setattr(receiver, "linearize", filled)
    cfg = FmlConfig(K=3, G=1.0, alpha=2.0, beta=0.05, rounds=1, seed=1)
    return run_rounds(cfg, nodes, "fl")


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("fill, reason", [
    (1e308, "adapted parameters are not finite"),  # finite, but 2 * 1e308 is not
    (np.inf, "train gradient is not finite"),
    (np.nan, "train gradient is not finite")])
def test_a_gradient_that_is_not_finite_or_overflows_is_refused_for_its_round(
        request, monkeypatch, threads, fill, reason):
    request.getfixturevalue(threads)
    with pytest.raises(TrainingError) as info:
        run_with_train_gradient(monkeypatch, fill)
    assert (info.value.round_index, info.value.node_id) == (0, 1)
    assert str(info.value) == f"{reason} (round 0, node 1)"


@pytest.mark.parametrize("threads", ["serial", "helper"])
@pytest.mark.parametrize("scenario", ["diverging", "overflowing step"])
def test_run_rounds_scores_only_finite_parameters(request, monkeypatch, threads,
                                                  scenario):
    request.getfixturevalue(threads)
    original = receiver.ber_eval
    scored = []

    def spy(p, batch):
        scored.append(bool(np.isfinite(p.to_flat()).all()))
        return original(p, batch)

    monkeypatch.setattr(receiver, "ber_eval", spy)
    with pytest.raises(TrainingError):
        if scenario == "diverging":
            diverging_run("fml")
        else:
            run_with_train_gradient(monkeypatch, 1e308)
    assert all(scored)


def test_evaluate_names_the_node_whose_adapted_parameters_overflow():
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    node = make_node(4, 130, theta=theta)
    g = np.full(theta.n_params, 1e308)
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=r"^adapted parameters are not finite \(node 4\)$"):
        evaluate(theta, node, 2.0, g)


# ---------------------------------------------------------------- the helper

NODE_WORK = federation._node_work


def tiny_run(K=5, G=0.4, rounds=2):
    """run_rounds 'fml' on K tiny nodes; returns the logs and the final
    parameters' bytes."""
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 140 + i, theta=theta) for i in range(K)]
    cfg = FmlConfig(K=K, G=G, alpha=0.05, beta=0.05, rounds=rounds, seed=3)
    logs, theta = run_rounds(cfg, nodes, "fml")
    return logs, theta.to_flat().tobytes()


def wrap_node_work(monkeypatch, before):
    """Calls before(t, node id) at the start of each node's work in the pass
    at t."""
    def work(node, theta, t, *args):
        before(t, node.id)
        return NODE_WORK(node, theta, t, *args)

    monkeypatch.setattr(federation, "_node_work", work)


def pass_orders(logs, K=5):
    """Each pass's node order: the scheduled nodes first, then the others; the
    last pass only evaluates, in node order."""
    return [[*log.scheduled, *(i for i in range(K) if i not in log.scheduled)]
            for log in logs] + [list(range(K))]


def both_threads_take_nodes(passes=3):
    """A before(t, node id) for wrap_node_work that holds the first node each
    pass starts until another node of the pass starts, so that both threads
    take nodes in every pass."""
    first, other_took = {}, [threading.Event() for _ in range(passes)]

    def hold(t, nid):
        if first.setdefault(t, nid) == nid:
            assert other_took[t].wait(timeout=30)
        else:
            other_took[t].set()

    return hold


def test_threaded_pass_without_helpers_runs_in_serial_order(monkeypatch, serial):
    caller = threading.get_ident()
    taken = []
    wrap_node_work(monkeypatch,
                   lambda t, nid: taken.append((t, nid, threading.get_ident() == caller)))
    logs, _ = tiny_run()
    assert taken == [(t, nid, True) for t, order in enumerate(pass_orders(logs))
                     for nid in order]


def test_threaded_pass_merges_in_node_order_what_both_workers_took(monkeypatch):
    # the thread on each pass's first node holds it until the other has taken
    # one, so that node finishes after a later one; the run is the serial one
    monkeypatch.setattr(data, "_use_helper", lambda: False)
    want = tiny_run()
    firsts = [order[0] for order in pass_orders(want[0])]
    other_took = [threading.Event() for _ in firsts]
    taken_by = {}

    def hold(t, nid):
        taken_by[t, nid] = threading.get_ident()
        if nid == firsts[t]:
            assert other_took[t].wait(timeout=30)
        else:
            other_took[t].set()

    monkeypatch.setattr(data, "_use_helper", lambda: True)
    wrap_node_work(monkeypatch, hold)
    assert tiny_run() == want
    workers = set(taken_by.values())
    assert len(workers) == 2 and threading.get_ident() in workers


def test_threaded_pass_raises_the_failure_earliest_in_order(monkeypatch, helper):
    # at G=1 the first pass takes the nodes in node order: one worker holds
    # node 0 while the other fails at node 1; the first then fails too, later
    # in time but earlier in the order
    later_failed = threading.Event()
    events = []

    def fail(t, nid):
        if nid == 1:
            events.append("failed at 1")
            later_failed.set()
            raise ValueError("node 1")
        if nid == 0:
            assert later_failed.wait(timeout=30)
            events.append("failed at 0")
            raise ValueError("node 0")

    wrap_node_work(monkeypatch, fail)
    with pytest.raises(ValueError, match="node 0"):
        tiny_run(G=1.0)
    assert events == ["failed at 1", "failed at 0"]


def test_threaded_pass_starts_no_node_queued_after_the_failure(monkeypatch, helper_events):
    # the helper fails at the first node it takes; the caller holds its own
    # until the helper has recorded the failure and left the pass, and
    # neither thread may start a node after the failure
    caller = threading.get_ident()
    failed = threading.Event()
    started_late = []

    def fail(t, nid):
        if failed.is_set():
            started_late.append(nid)
        if threading.get_ident() != caller:
            failed.set()
            raise ValueError(f"node {nid}")
        assert helper_events.left.wait(timeout=30)

    threads = threading.active_count()
    wrap_node_work(monkeypatch, fail)
    with pytest.raises(ValueError, match="node"):
        tiny_run(K=10, G=1.0)
    assert failed.is_set() and started_late == []
    assert len(helper_events.started) == 1 and threading.active_count() == threads


def test_threaded_pass_works_each_node_once_under_contention(monkeypatch):
    # four runs at once, each pass on its calling thread and a helper of its
    # own: eight threads on the cores, switching every microsecond.  Every
    # run is the serial one, and the four together work each node four times
    # a pass
    import sys
    from concurrent.futures import ThreadPoolExecutor
    monkeypatch.setattr(data, "_use_helper", lambda: False)
    want = tiny_run(K=60, G=0.5)
    monkeypatch.setattr(data, "_use_helper", lambda: True)
    taken = []
    wrap_node_work(monkeypatch, lambda t, nid: taken.append((t, nid)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as runs:
            done = list(runs.map(lambda _: tiny_run(K=60, G=0.5), range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert done == [want] * 4
    assert collections.Counter(taken) == {(t, nid): 4 for t in range(3) for nid in range(60)}


@pytest.mark.parametrize("threads", ["serial", "helper"])
def test_threaded_pass_works_each_node_in_a_fixed_error_state(request, monkeypatch,
                                                              threads):
    # whatever the caller's state, the caller alone, or the caller and each
    # pass's helper, linearize under _node_work's own; with the helper, the
    # first node of each pass waits until the other thread takes one
    request.getfixturevalue(threads)
    if threads == "helper":
        started = request.getfixturevalue("helper_events").started
        wrap_node_work(monkeypatch, both_threads_take_nodes())
    original = receiver.linearize
    seen = []

    def spy(p, batch, hvp=True):
        seen.append((threading.current_thread(), np.geterr()))
        return original(p, batch, hvp)

    monkeypatch.setattr(receiver, "linearize", spy)
    with np.errstate(divide="raise", under="warn"):
        tiny_run(K=4, G=1.0)
    fixed = dict(divide="warn", over="ignore", under="ignore", invalid="ignore")
    assert seen and all(state == fixed for _, state in seen)
    linearized_by = {thread for thread, _ in seen}
    if threads == "serial":
        assert linearized_by == {threading.current_thread()}
    else:  # the caller, and the one helper of each of the 3 passes
        assert len(started) == 3
        assert linearized_by == {threading.current_thread(), *started}


def test_threaded_pass_runs_on_the_caller_and_one_helper(monkeypatch, helper_events):
    # every pass is worked by the calling thread and one helper, which the
    # pass starts and joins
    caller = threading.current_thread()
    threads = threading.active_count()
    hold = both_threads_take_nodes()
    taken_by, counts = [set() for _ in range(3)], []

    def record(t, nid):
        taken_by[t].add(threading.current_thread())
        counts.append(threading.active_count())
        hold(t, nid)

    wrap_node_work(monkeypatch, record)
    tiny_run()
    helpers = helper_events.started
    assert len(helpers) == 3 and not any(h.is_alive() for h in helpers)
    assert taken_by == [{caller, h} for h in helpers]
    assert max(counts) <= threads + 1
    assert threading.active_count() == threads


def test_threaded_pass_restores_the_callers_error_state(monkeypatch, helper):
    # the calling thread works nodes under _node_work's own state and is back
    # in its own after a run, and after a run whose node raises
    def failing(p, batch):
        raise InputError("ber_eval failed")

    with np.errstate(divide="raise", under="warn"):
        state = np.geterr()
        wrap_node_work(monkeypatch, both_threads_take_nodes())
        tiny_run()
        assert np.geterr() == state
        wrap_node_work(monkeypatch, both_threads_take_nodes())
        monkeypatch.setattr(receiver, "ber_eval", failing)
        with pytest.raises(TrainingError, match="^ber_eval failed"):
            tiny_run()
        assert np.geterr() == state


def test_run_rounds_joins_the_helper_when_a_node_raises(helper, monkeypatch):
    theta = init_params([4, 5, 4, 1], np.random.default_rng(0))
    nodes = [make_node(i, 110 + i, theta=theta) for i in range(6)]
    cfg = FmlConfig(K=6, G=0.5, alpha=0.05, beta=0.05, rounds=3, seed=2)
    original = receiver.ber_eval
    calls = []

    def failing(p, batch):
        calls.append(threading.get_ident())
        if len(calls) > 7:
            raise InputError("ber_eval failed")
        return original(p, batch)

    monkeypatch.setattr(receiver, "ber_eval", failing)
    threads = threading.active_count()
    # evaluate names the node, and the pass the round, of the refused pass
    with pytest.raises(TrainingError, match=r"^ber_eval failed \(round 0, node \d\)$"):
        run_rounds(cfg, nodes, "fml")
    assert threading.active_count() == threads


# tracemalloc's peak over one exact-MAML node step at the `fed` benchmark's
# sizes (lambda=6, 1000 train and 250 test rows), in the pass that opens a
# round and evaluates the one before.  Under numpy 2.4.6 with OpenBLAS 0.3.31
# it read 5,677,445 B before the MAML step and the HVP were trimmed, and
# 4,716,121 B after.  The bound sits halfway between: 10% over the second, so
# numpy staging a temporary differently leaves room, and 8% under the first.
# Either thread of a pass, the caller or the helper, steps such nodes, and each
# thread's allocator keeps its own peak, so this bounds what the helper adds to
# a run's peak RSS.
SCHEDULED_NODE_PEAK_BOUND = 5_200_000


def test_a_scheduled_node_step_peaks_below_its_bound():
    import tracemalloc
    rng = np.random.default_rng(0)
    n1 = ChirpParams(lam=6).n1
    theta = init_params([n1, *default_hidden(n1), 1], rng)

    def split(rows):
        return LabeledBatch(rng.standard_normal((rows, n1), dtype=np.float32),
                            rng.integers(0, 2, rows).astype(np.float32))

    node = NodeState(0, theta, split(1000), split(250))
    cfg = FmlConfig(K=10, G=0.3, alpha=0.5, beta=0.2, T0=1, rounds=2, mode="exact")
    federation._node_work(node, theta, 1, True, True, 1, cfg, "fml")  # warm
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, update, _ = federation._node_work(node, theta, 1, True, True, 1, cfg, "fml")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert update is not None
    assert peak < SCHEDULED_NODE_PEAK_BOUND


@pytest.mark.parametrize("env, threads", [
    ({}, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "-4", "GOTO_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": " +1x"}, 1),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": ""}, None),
])
def test_blas_threads_read_as_openblas_reads_them(env, threads):
    assert data._blas_threads(env) == threads


@pytest.mark.parametrize("blas, cores, used", [
    ("1", {0, 1}, True), ("1", {3}, False), ("2", {0, 1}, False),
    (None, {0, 1, 2, 3}, False)])
def test_helper_only_with_one_blas_thread_and_two_cores(monkeypatch, blas, cores, used):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: cores,
                        raising=False)
    assert data._use_helper() is used


# ------------------------------------------------------------------ builder

def test_build_nodes_scales_by_the_train_split():
    specs = two_group_specs()
    nodes = build_nodes(specs, fresh_theta())
    for node, spec in zip(nodes, specs):
        train, test = build_node_dataset(spec)
        scale = 1.0 / np.std(train.batch.inputs)
        # float32 inputs scaled by a float32 std: unit variance to one float32 eps
        assert node.train_split.inputs.dtype == node.test_split.inputs.dtype == np.float32
        assert abs(np.std(node.train_split.inputs, dtype=np.float64) - 1.0) < \
            np.finfo(np.float32).eps
        assert np.array_equal(node.train_split.inputs, train.batch.inputs * scale)
        assert np.array_equal(node.test_split.inputs, test.batch.inputs * scale)
        assert np.array_equal(node.train_split.labels, train.batch.labels)
        assert np.array_equal(node.test_split.labels, test.batch.labels)


def test_build_nodes_ids_and_parameters():
    theta = fresh_theta()
    specs = two_group_specs() + two_group_specs(seed=1)
    nodes = build_nodes(iter(specs), theta)
    assert [node.id for node in nodes] == [0, 1, 2, 3]
    assert all(node.theta is theta for node in nodes)


# sha256 of each node's train then test inputs and labels, recorded when each
# node's dataset came to draw from one stream for its metadata, one for its
# noise and one for its gains
GOLDEN_NODES = "4ad6e12a8fcfb19cd3084f463d025a1ac560b51df40a1bfcde44120c11a3aa5c"


def test_build_nodes_golden_digest():
    h = hashlib.sha256()
    for node in build_nodes(two_group_specs(), fresh_theta()):
        for split in (node.train_split, node.test_split):
            h.update(split.inputs.tobytes())
            h.update(split.labels.tobytes())
    assert h.hexdigest() == GOLDEN_NODES


def test_samples_stay_float32_from_synthesis_to_the_network(tmp_path):
    spec = two_group_specs()[0]
    train, test = build_node_dataset(spec)
    data.save_dataset(tmp_path / "node.uwds", train, test, spec)
    loaded = data.load_dataset(tmp_path / "node.uwds")[:2]
    node = build_nodes([spec], fresh_theta())[0]
    for batch in (train.batch, test.batch, loaded[0].batch, loaded[1].batch,
                  node.train_split, node.test_split):
        assert batch.inputs.dtype == batch.labels.dtype == np.float32
    p = node.theta
    a1, a2, out = receiver._forward_pass(p, node.train_split.inputs)
    assert a1.dtype == a2.dtype == out.dtype == np.float32
    lin = linearize(p, node.train_split)
    assert lin.grad.dtype == lin.hvp(lin.grad).dtype == np.float64
    assert p.to_flat().dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64, np.uint8, bool])
def test_other_inputs_become_float64(dtype):
    x = np.arange(6).reshape(3, 2).astype(dtype)
    batch = LabeledBatch(x, np.array([0, 1, 1], dtype=np.float32))
    assert batch.inputs.dtype == batch.labels.dtype == np.float64
    if dtype is np.float64:
        assert batch.inputs is x
    p = init_params([2, 3, 2, 1], np.random.default_rng(0))
    assert receiver.forward_batch(p, x).dtype == np.float64
    assert grad(p, batch).dtype == np.float64


def test_build_nodes_names_the_node_of_a_dataset_error():
    good, other = two_group_specs()
    bad = replace(other, sto_range=(0.0, 2000.0))
    with pytest.raises(InputError) as exc:
        build_nodes([good, other, bad], fresh_theta())
    assert type(exc.value) is InputError
    assert str(exc.value) == ("node 2: record 2: |delta|=1593.5645717690365 "
                              "exceeds waveform length 960")


def test_build_nodes_passes_a_numpy_memory_error_on_unchanged(monkeypatch):
    from numpy._core._exceptions import _ArrayMemoryError

    def fail(spec):
        raise _ArrayMemoryError((2 ** 40, 64), np.dtype(np.float64))

    monkeypatch.setattr(federation, "build_node_dataset", fail)
    with pytest.raises(MemoryError) as exc:
        build_nodes(two_group_specs(), fresh_theta())
    assert type(exc.value) is _ArrayMemoryError


def test_build_nodes_checks_the_total_before_synthesis(monkeypatch):
    def unreachable(spec):
        raise AssertionError("synthesized a node before the total was checked")

    monkeypatch.setattr(federation, "build_node_dataset", unreachable)
    spec = two_group_specs(n_symbols=MAX_DATASET_SAMPLES // 80)[0]  # 80 samples a record
    with pytest.raises(ConfigurationError):
        build_nodes([spec, spec], fresh_theta())
    with pytest.raises(ConfigurationError):  # a lazy endless recipe stops at the cap
        build_nodes(itertools.repeat(two_group_specs()[0]), fresh_theta())
