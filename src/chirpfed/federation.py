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
import itertools
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
    splits are scaled to give the train inputs unit variance, and stay
    float32 as the datasets store them.  The specs' total samples are capped
    before any node is synthesized."""
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
        # the std of float32 samples is a float32, so the scaled ones stay float32
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


def _widened(a, b) -> np.ndarray:
    """Array a in the type numpy gives a op b: a itself, or a widened copy,
    which a float32-to-float64 cast makes exactly."""
    return np.asarray(a, dtype=np.result_type(a, b))


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
        # rounded and typed as phi = theta - alpha*g_tr, meta = g_te -
        # alpha*H g_te and theta - beta*meta, in two buffers; phi's is freed
        # before the product
        phi = _widened(np.multiply(alpha, g_tr), theta)
        g_te = grad_test(np.subtract(theta, phi, out=phi))
        del phi
        if mode == "exact":
            update = _widened(np.multiply(alpha, hvp_tr(g_te)), g_te)
            np.subtract(g_te, update, out=update)
            np.multiply(beta, update, out=update)
        else:
            update = np.multiply(beta, g_te)
        update = _widened(update, theta)
        theta = np.subtract(theta, update, out=update)
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


def evaluate(theta: MlpParams, node: NodeState, alpha: float, g):
    """The node's test accuracy at theta and after the one-step adaptation
    -alpha*g, g being its train-split gradient at theta.  A g or adapted
    parameters that are not finite raise TrainingError naming the node."""
    if not np.isfinite(g).all():
        raise TrainingError("train gradient is not finite", node_id=node.id)
    phi = theta.from_flat(theta.to_flat() - alpha * g)
    if not np.isfinite(phi.to_flat()).all():
        raise TrainingError("adapted parameters are not finite", node_id=node.id)
    return (1.0 - receiver.ber_eval(theta, node.test_split),
            1.0 - receiver.ber_eval(phi, node.test_split))


def _node_pass(work, first, rest, pool):
    """{pos: work(pos)} over one queue, the positions in `first` then those
    in `rest`: this thread takes the front position, then starts pool's
    thread, if there is one, and both take positions from the front until the
    queue is empty.  A failure empties the queue, so every position before it
    in the queue has been taken; once the helper has finished its position,
    the failure earliest in the queue is raised, the one a serial pass would
    raise.  The helper runs under this thread's numpy error state, which
    numpy keeps per thread."""
    queue = collections.deque(enumerate(itertools.chain(first, rest)))
    results, failures = {}, []

    def take():
        try:
            return queue.popleft()
        except IndexError:
            return None

    def drain(item):
        while item:
            i, pos = item
            try:
                results[pos] = work(pos)
            except BaseException as exc:
                queue.clear()  # neither thread takes a further position
                failures.append((i, exc))
                return
            item = take()

    def helper_drain(err):
        with np.errstate(**err):
            drain(take())

    front = take()
    helper = pool.submit(helper_drain, np.geterr()) if pool else None
    try:
        drain(front)
    finally:
        queue.clear()
        if helper:
            helper.result()  # waits for the helper's last position
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _node_work(node, theta: MlpParams, t: int, opens: bool, stepping: bool, u,
               cfg: FmlConfig, mode: str):
    """One node's part of the pass at broadcast theta: its train loss if theta
    opens round t, its two accuracies from evaluate if theta evaluates round
    t-1, and its (flat params, data size, u) update if it steps; None for each
    part it does not take.  A TrainingError names the node and the round whose
    log it stops: a loss that is not finite (round t), evaluate's refusal
    (round t-1), or an update that is not finite or has diverged on the
    node's test split (round t, see receiver.diverged)."""
    maml = stepping and mode == "fml"
    lin = None
    if t or maml:  # only a node that calls hvp keeps its activations
        lin = receiver.linearize(theta, node.train_split,
                                 hvp=maml and cfg.mode == "exact")
    loss = accs = update = None
    if opens:
        node.theta = theta
        loss = lin.loss if lin else receiver.loss(theta, node.train_split)
        if not math.isfinite(loss):
            raise TrainingError("train loss is not finite", round_index=t, node_id=node.id)
    if t:
        try:
            accs = evaluate(theta, node, cfg.alpha, lin.grad)
        except TrainingError as exc:
            raise TrainingError(exc.reason, round_index=t - 1, node_id=node.id) from exc
    if stepping:
        try:
            if maml:
                new = local_maml_step(node, cfg.alpha, cfg.beta, cfg.T0, cfg.mode, lin)
            else:
                new = local_fedavg_step(node, cfg.alpha, cfg.T0)
            if receiver.diverged(new, node.test_split.inputs):
                raise TrainingError(f"local {'MAML' if maml else 'FedAvg'} update "
                                    "diverged", step_index=cfg.T0 - 1)
        except TrainingError as exc:
            raise TrainingError(exc.reason, round_index=t, node_id=node.id,
                                step_index=exc.step_index) from exc
        update = (new.to_flat(), node.data_size, u)
    return loss, update, accs


def run_rounds(cfg: FmlConfig, nodes, mode: str = "fml"):
    """Execute cfg.rounds communication rounds; returns (logs, final params).

    mode 'fml' runs MAML local steps, 'fl' runs FedAvg with local rate alpha.
    Each broadcast theta gets one pass over the nodes that linearizes each
    train split once, for the loss of the round theta opens, the gradient
    that evaluate takes for the round that made it, and a scheduled node's
    first MAML step.  A round's accuracies are the nodes' evaluate pairs
    weighted by data size.  A round's schedule is drawn just before its
    pass, and only the N scheduled nodes step.  The first pass takes a plain
    loss on the other nodes; the last only evaluates, leaving the nodes at
    the last broadcast theta.

    A pass puts its nodes in one queue, the scheduled nodes first, as their
    MAML steps are the longest work; the calling thread and, with one BLAS
    thread and two cores (see data._use_helper), one helper thread both take
    nodes from its front.  The node results are merged in node order, so
    the logs and parameters do not depend on the helper, and a failing pass
    raises the error of the node a serial pass would fail at first.
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
    # overflow on the way to divergence is caught by the local updates' checks
    with _helper_pool() as pool, np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.rounds + 1):
            opens = t < cfg.rounds  # theta opens round t and evaluates round t-1
            # schedule() draws positions into the node list; logs carry node ids
            positions, u = schedule(cfg.K, cfg.N, cfg.p_decode, rng) if opens else ((), {})
            results = _node_pass(
                lambda pos: _node_work(nodes[pos], theta, t, opens, pos in positions,
                                       u.get(pos), cfg, mode),
                positions, [pos for pos in range(cfg.K) if pos not in positions], pool)
            loss, update, accs = zip(*(results[pos] for pos in range(cfg.K)))
            if t:
                acc = adapted = 0.0  # weighted by data size, summed in node order
                for node, (a, b) in zip(nodes, accs):
                    w = node.data_size / total
                    acc, adapted = acc + w * a, adapted + w * b
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
