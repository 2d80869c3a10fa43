"""Federated meta-learning rounds with random scheduling.

Each communication round: broadcast the global parameters, uniformly
schedule N of K nodes, run T0 local MAML (or FedAvg) steps on the scheduled
nodes only, mark each upload successful with probability p_decode, and
aggregate the successful flat parameter vectors weighted by local data size
(weights renormalized over the successful set so the aggregate stays a
convex combination).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import receiver
from .data import MAX_DATASET_SAMPLES, _helper_pool, build_node_dataset
from .errors import ConfigurationError, EmptyRoundError, TrainingError
from .receiver import LabeledBatch, MlpParams


@dataclass(frozen=True)
class FmlConfig:
    K: int = 33
    G: float = 0.3
    alpha: float = 0.001
    beta: float = 0.0001
    T0: int = 1
    rounds: int = 50
    p_decode: float = 1.0
    seed: int = 0
    mode: str = "exact"  # meta-gradient mode: exact | first_order

    def __post_init__(self):
        if not 0 < self.G <= 1:
            raise ConfigurationError("scheduling ratio G must be in (0, 1]")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):  # NaN too
            raise ConfigurationError("learning rates must be positive and finite")
        if not 0 <= self.p_decode <= 1:
            raise ConfigurationError("p_decode must be a probability")
        if self.T0 < 1 or self.rounds < 0 or self.K < 1:
            raise ConfigurationError("K >= 1, T0 >= 1 and rounds >= 0 required")
        if self.N < 1:
            raise ConfigurationError(f"N = round(G*K) = {self.N} must be >= 1")
        if self.mode not in ("exact", "first_order"):
            raise ConfigurationError(f"unknown meta-gradient mode {self.mode!r}")

    @property
    def N(self) -> int:
        return int(round(self.G * self.K))


@dataclass
class NodeState:
    """One buoy node: parameters plus its disjoint train/test splits."""

    id: int
    theta: MlpParams
    train_split: LabeledBatch
    test_split: LabeledBatch

    @property
    def data_size(self) -> int:
        return len(self.train_split) + len(self.test_split)


def build_nodes(specs, theta: MlpParams) -> list[NodeState]:
    """One node per DatasetSpec, with ids 0..K-1 and parameters theta; both
    splits are scaled to give the train inputs unit variance.  The specs'
    total samples are capped before any node is synthesized."""
    checked, total = [], 0
    for spec in specs:
        total += spec.n_symbols * spec.chirp.n1
        if total > MAX_DATASET_SAMPLES:
            raise ConfigurationError(
                f"the nodes' datasets exceed {MAX_DATASET_SAMPLES} samples in total")
        checked.append(spec)
    nodes = []
    for nid, spec in enumerate(checked):
        train, test = build_node_dataset(spec)
        scale = 1.0 / np.std(train.batch.inputs)
        nodes.append(NodeState(
            nid, theta,
            LabeledBatch(train.batch.inputs * scale, train.batch.labels),
            LabeledBatch(test.batch.inputs * scale, test.batch.labels)))
    return nodes


@dataclass(frozen=True)
class RoundLog:
    round_index: int
    scheduled: tuple
    successful: tuple
    train_loss: float
    test_acc: float
    adapted_acc: float

    def __post_init__(self):
        if not set(self.successful) <= set(self.scheduled):
            raise ConfigurationError("successful ids must be a subset of scheduled")


def maml_update(theta: np.ndarray, train, grad_test, alpha: float, beta: float,
                T0: int, mode: str = "exact") -> np.ndarray:
    """Generic MAML local update on a flat parameter vector.

    train(theta) returns the train-loss gradient at theta and its
    Hessian-vector product there, a callable v -> H v; grad_test(theta) the
    test-loss gradient.  Exact mode applies the full meta-gradient
    (I - alpha*H)*grad_test(phi); first-order mode never calls the product.
    """
    for step in range(T0):
        g_tr, hvp_tr = train(theta)
        phi = theta - alpha * g_tr
        g_te = grad_test(phi)
        meta = g_te - alpha * hvp_tr(g_te) if mode == "exact" else g_te
        theta = theta - beta * meta
        if not np.all(np.isfinite(theta)):
            raise TrainingError("local MAML update diverged", step_index=step)
    return theta


def local_maml_step(node: NodeState, alpha: float, beta: float, T0: int,
                    mode: str = "exact", first=None) -> MlpParams:
    """T0 MAML steps on the node's own splits; returns new parameters.  The
    first step uses `first`, if given: the train split linearized at node.theta."""
    if len(node.train_split) == 0 or len(node.test_split) == 0:
        raise ConfigurationError("both data splits must be nonempty")
    p0 = node.theta

    def train(th):
        nonlocal first
        lin = first or receiver.linearize(p0.from_flat(th), node.train_split,
                                          hvp=mode == "exact")
        first = None
        return lin.grad, lin.hvp

    theta = maml_update(
        p0.to_flat(), train,
        grad_test=lambda th: receiver.grad(p0.from_flat(th), node.test_split),
        alpha=alpha, beta=beta, T0=T0, mode=mode)
    return p0.from_flat(theta)


def local_fedavg_step(node: NodeState, lr: float, T0: int) -> MlpParams:
    """T0 full-batch gradient steps on the node's local data."""
    if len(node.train_split) == 0:
        raise ConfigurationError("train split must be nonempty")
    full = LabeledBatch(
        np.vstack([node.train_split.inputs, node.test_split.inputs]),
        np.concatenate([node.train_split.labels, node.test_split.labels]))
    theta = node.theta.to_flat()
    for step in range(T0):
        theta = theta - lr * receiver.grad(node.theta.from_flat(theta), full)
        if not np.all(np.isfinite(theta)):
            raise TrainingError("local FedAvg update diverged", step_index=step)
    return node.theta.from_flat(theta)


def schedule(K: int, N: int, p_decode: float, rng):
    """Uniform N-of-K selection plus independent Bernoulli decode successes.

    Returns (scheduled ids as a sorted tuple, {id: u_i} over all K nodes).
    """
    if not 1 <= N <= K:
        raise ConfigurationError(f"need 1 <= N <= K, got N={N}, K={K}")
    chosen = rng.choice(K, size=N, replace=False)
    scheduled = tuple(sorted(int(i) for i in chosen))
    decoded = {i for i in scheduled if rng.random() < p_decode}
    return scheduled, {i: int(i in decoded) for i in range(K)}


def aggregate(updates) -> np.ndarray:
    """Data-size-weighted mean over successful updates.

    `updates` is a list of (flat_params, data_size, u); entries with u == 0
    are excluded and the weights renormalized over the rest.
    """
    live = [(theta, size) for theta, size, u in updates if u]
    if not live:
        raise EmptyRoundError("no update decoded successfully this round")
    total = sum(size for _, size in live)
    acc = np.zeros_like(live[0][0])
    for theta, size in live:
        acc += (size / total) * np.asarray(theta)
    return acc


def _accuracies(theta: MlpParams, node: NodeState, alpha: float, g, total):
    """The node's weighted test accuracy at theta and after the step -alpha*g,
    g being its train-split gradient at theta."""
    w = node.data_size / total
    phi = theta.from_flat(theta.to_flat() - alpha * g)
    return (w * (1.0 - receiver.ber_eval(theta, node.test_split)),
            w * (1.0 - receiver.ber_eval(phi, node.test_split)))


def evaluate(theta: MlpParams, nodes, alpha: float):
    """(weighted test accuracy, weighted one-step-adapted test accuracy)."""
    total = sum(n.data_size for n in nodes)
    acc = adapted = 0.0
    for node in nodes:
        g = receiver.grad(theta, node.train_split)
        a, b = _accuracies(theta, node, alpha, g, total)
        acc, adapted = acc + a, adapted + b
    return acc, adapted


def _node_pass(work, first, rest, pool):
    """{pos: work(pos)}: this thread runs the positions in `first`, then it and
    pool's thread, if there is one, take the positions in `rest` from one
    queue.  A failure on either thread empties the queue, and the helper has
    finished its node before this returns or raises.  The helper runs under
    this thread's numpy error state, which numpy keeps per thread."""
    results = {}
    queue = collections.deque(rest)

    def drain():
        try:
            while True:
                try:
                    pos = queue.popleft()
                except IndexError:
                    return
                results[pos] = work(pos)
        except BaseException:
            queue.clear()  # the other thread takes no further node
            raise

    def helper_drain(err):
        with np.errstate(**err):
            drain()

    helper = pool.submit(helper_drain, np.geterr()) if pool else None
    try:
        for pos in first:
            results[pos] = work(pos)
        drain()
    finally:
        queue.clear()
        if helper:
            helper.exception()  # waits for the helper's last node
    if helper:
        helper.result()  # raises what the helper raised
    return results


def _node_work(node, theta: MlpParams, t: int, opens: bool, stepping: bool, u,
               cfg: FmlConfig, mode: str, total: int):
    """One node's part of the pass at broadcast theta: its train loss if theta
    opens round t, its (flat params, data size, u) update if it steps, and
    its two weighted accuracies if theta evaluates round t-1; None for each
    part it does not take."""
    maml = stepping and mode == "fml"
    lin = None
    if t or maml:  # only a node that calls hvp keeps its activations
        lin = receiver.linearize(theta, node.train_split,
                                 hvp=maml and cfg.mode == "exact")
    loss = None
    if opens:
        node.theta = theta
        loss = lin.loss if lin else receiver.loss(theta, node.train_split)
    update = None
    if stepping:
        try:
            if maml:
                new = local_maml_step(node, cfg.alpha, cfg.beta, cfg.T0, cfg.mode, lin)
            else:
                new = local_fedavg_step(node, cfg.alpha, cfg.T0)
        except TrainingError as exc:
            raise TrainingError(exc.reason, round_index=t, node_id=node.id,
                                step_index=exc.step_index) from exc
        update = (new.to_flat(), node.data_size, u)
    accs = _accuracies(theta, node, cfg.alpha, lin.grad, total) if t else None
    return loss, update, accs


def run_rounds(cfg: FmlConfig, nodes, mode: str = "fml"):
    """Execute cfg.rounds communication rounds; returns (logs, final params).

    mode 'fml' runs MAML local steps, 'fl' runs FedAvg with local rate alpha.
    Each broadcast theta gets one pass over the nodes that linearizes each
    train split once, for the loss of the round theta opens, the one-step
    adaptation that evaluates the round that made it, and a scheduled node's
    first MAML step.  A round's schedule is drawn just before its pass, and
    only the N scheduled nodes step.  The first pass takes a plain loss on
    the other nodes; the last only evaluates, leaving the nodes at the last
    broadcast theta.

    In a pass the calling thread steps the scheduled nodes, and then it and,
    with one BLAS thread and two cores (see data._use_helper), one helper thread
    take the other nodes from a shared queue.  The node results are merged
    in node order, so the logs and parameters do not depend on the helper.
    """
    if mode not in ("fml", "fl"):
        raise ConfigurationError(f"mode must be 'fml' or 'fl', got {mode!r}")
    if not nodes:
        raise ConfigurationError("node list is empty")
    if len(nodes) != cfg.K:
        raise ConfigurationError(f"config says K={cfg.K} but got {len(nodes)} nodes")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5C4ED]))
    theta = nodes[0].theta
    total = sum(n.data_size for n in nodes)
    logs = []
    with _helper_pool() as pool:
        for t in range(cfg.rounds + 1):
            opens = t < cfg.rounds  # theta opens round t and evaluates round t-1
            # schedule() draws positions into the node list; logs carry node ids
            positions, u = schedule(cfg.K, cfg.N, cfg.p_decode, rng) if opens else ((), {})
            results = _node_pass(
                lambda pos: _node_work(nodes[pos], theta, t, opens, pos in positions,
                                       u.get(pos), cfg, mode, total),
                positions, [pos for pos in range(cfg.K) if pos not in positions], pool)
            loss, update, accs = zip(*(results[pos] for pos in range(cfg.K)))
            if t:
                acc = adapted = 0.0
                for a, b in accs:
                    acc, adapted = acc + a, adapted + b
                logs.append(RoundLog(*opened, acc, adapted))
            if opens:
                opened = (t, tuple(nodes[pos].id for pos in positions),
                          tuple(nodes[pos].id for pos in positions if u[pos]),
                          float(np.mean(loss)))
                try:
                    theta = theta.from_flat(aggregate([update[pos] for pos in positions]))
                except EmptyRoundError:
                    pass  # keep previous global parameters
    return logs, theta
