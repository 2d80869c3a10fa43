"""Fully connected bit-detection network with exact backprop and HVP.

Architecture is fixed at four layers: input N1, two ReLU hidden layers and a
single sigmoid output neuron.  All arithmetic is float64 so the
finite-difference checks in the test suite are meaningful.  The
Hessian-vector product is computed exactly with forward-over-reverse
differentiation (Pearlmutter's R-operator); the distributional second
derivative of ReLU at its kink is taken as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import ConfigurationError, InputError, ParseError, TrainingError

CHECKPOINT_MAGIC = b"CDNN"
CHECKPOINT_VERSION = 1


def default_hidden(n1: int) -> tuple[int, int]:
    """h1 = N1, h2 = floor(7*N1/8); reproduces the published ADD and NAV counts."""
    return n1, (7 * n1) // 8


def _n_params(sizes) -> int:
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


def _views(sizes, flat) -> list:
    """W1, b1, W2, b2, W3, b3 as views into a flat vector laid out for `sizes`."""
    shapes = [s for a, b in zip(sizes[:-1], sizes[1:]) for s in ((b, a), (b,))]
    ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [part.reshape(s) for part, s in zip(np.split(flat, ends), shapes)]


def _wrap(sizes, flat) -> "MlpParams":
    """Parameters owning `flat`, made read-only, without copying or checking it."""
    p = object.__new__(MlpParams)
    flat.flags.writeable = False
    p._sizes, p._flat = tuple(int(s) for s in sizes), flat
    views = _views(p._sizes, flat)
    p.weights, p.biases = tuple(views[0::2]), tuple(views[1::2])
    return p


class MlpParams:
    """Network parameters: one read-only float64 vector in layer-major order
    W1, b1, W2, b2, W3, b3, the checkpoint order.  `weights` (out, in) and
    `biases` are views into it; `grad` and `hvp` return the same layout.
    """

    def __new__(cls, weights, biases):
        if len(weights) != 3 or len(biases) != 3:
            raise ConfigurationError("expected exactly three computing layers")
        if any(np.ndim(w) != 2 for w in weights):
            raise ConfigurationError("weights must be (out, in) matrices")
        sizes = [np.shape(weights[0])[1]] + [np.shape(w)[0] for w in weights]
        if sizes[-1] != 1:
            raise ConfigurationError("output layer must have exactly one neuron")
        flat = np.empty(_n_params(sizes))
        parts = [a for wb in zip(weights, biases) for a in wb]
        for view, part in zip(_views(sizes, flat), parts):
            if np.shape(part) != view.shape:
                raise ConfigurationError(f"layer shapes do not chain as {sizes}")
            view[...] = part
        if not np.all(np.isfinite(flat)):
            raise ConfigurationError("parameters contain non-finite values")
        return _wrap(sizes, flat)

    @property
    def layer_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def n_params(self) -> int:
        return self._flat.size

    def to_flat(self) -> np.ndarray:
        """The parameter vector itself: read-only, not a copy."""
        return self._flat

    def from_flat(self, flat: np.ndarray) -> "MlpParams":
        """New parameters with the same shapes, values copied from `flat`."""
        flat = np.array(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise InputError(f"expected {self.n_params} values, got {flat.size}")
        return _wrap(self._sizes, flat)


@dataclass(frozen=True)
class LabeledBatch:
    """Rows of received-symbol samples with their transmitted bits."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if inputs.ndim != 2 or labels.ndim != 1 or inputs.shape[0] != labels.size:
            raise InputError("inputs must be (n, N1) with one label per row")
        if not np.all(np.isfinite(inputs)):
            raise InputError("inputs contain non-finite values")
        if not np.all((labels == 0) | (labels == 1)):
            raise InputError("labels must be bits")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.size


def init_params(layer_sizes, rng) -> MlpParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if len(layer_sizes) != 4 or layer_sizes[-1] != 1:
        raise ConfigurationError(f"layer_sizes must be [N1, h1, h2, 1], got {layer_sizes}")
    flat = np.zeros(_n_params(layer_sizes))
    for w in _views(layer_sizes, flat)[0::2]:
        lim = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    return _wrap(layer_sizes, flat)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_pass(p: MlpParams, x: np.ndarray):
    """All intermediate activations for a (B, N1) batch."""
    w1, w2, w3 = p.weights
    b1, b2, b3 = p.biases
    z1 = x @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2.T + b2
    a2 = np.maximum(z2, 0.0)
    z3 = (a2 @ w3.T + b3)[:, 0]
    out = _sigmoid(z3)
    return z1, a1, z2, a2, z3, out


def forward_batch(p: MlpParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != p.layer_sizes[0]:
        raise InputError(
            f"expected (n, {p.layer_sizes[0]}) inputs, got shape {inputs.shape}")
    return _forward_pass(p, inputs)[-1]


def forward(p: MlpParams, x) -> float:
    """Network output in (0, 1) for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != p.layer_sizes[0]:
        raise InputError(f"expected input of length {p.layer_sizes[0]}, got {x.shape}")
    return float(forward_batch(p, x[None, :])[0])


def loss(p: MlpParams, batch: LabeledBatch) -> float:
    """Mean squared error between label bits and network outputs."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    out = forward_batch(p, batch.inputs)
    return float(np.mean((batch.labels - out) ** 2))


def grad(p: MlpParams, batch: LabeledBatch) -> np.ndarray:
    """Exact loss gradient in the canonical flat ordering."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    x, y = batch.inputs, batch.labels
    w1, w2, w3 = p.weights
    z1, a1, z2, a2, z3, out = _forward_pass(p, x)
    n = y.size
    d_out = 2.0 * (out - y) / n
    d3 = d_out * out * (1.0 - out)
    d2 = (d3[:, None] * w3) * (z2 > 0)
    d1 = (d2 @ w2) * (z1 > 0)
    g = np.empty(p.n_params)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = _views(p._sizes, g)
    np.matmul(d3[None, :], a2, out=g_w3)
    g_b3[0] = d3.sum()
    np.matmul(d2.T, a1, out=g_w2)
    d2.sum(axis=0, out=g_b2)
    np.matmul(d1.T, x, out=g_w1)
    d1.sum(axis=0, out=g_b1)
    return g


def hvp(p: MlpParams, batch: LabeledBatch, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product via the R-operator."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    v = np.asarray(v, dtype=np.float64)
    if v.size != p.n_params:
        raise InputError(f"tangent has {v.size} entries, expected {p.n_params}")
    v1, c1, v2, c2, v3, c3 = _views(p._sizes, v)
    x, y = batch.inputs, batch.labels
    w1, w2, w3 = p.weights
    z1, a1, z2, a2, z3, out = _forward_pass(p, x)
    m1 = (z1 > 0).astype(np.float64)
    m2 = (z2 > 0).astype(np.float64)
    n = y.size

    # forward tangent sweep
    rz1 = x @ v1.T + c1
    ra1 = m1 * rz1
    rz2 = a1 @ v2.T + ra1 @ w2.T + c2
    ra2 = m2 * rz2
    rz3 = (a2 @ v3.T + ra2 @ w3.T + c3)[:, 0]
    sp = out * (1.0 - out)                    # sigmoid'
    r_out = sp * rz3

    # reverse sweep with tangents
    d_out = 2.0 * (out - y) / n
    r_d_out = 2.0 * r_out / n
    d3 = d_out * sp
    r_d3 = r_d_out * sp + d_out * sp * (1.0 - 2.0 * out) * rz3
    d2 = (d3[:, None] * w3) * m2
    r_d2 = (d3[:, None] * v3 + r_d3[:, None] * w3) * m2
    d1 = (d2 @ w2) * m1
    r_d1 = (d2 @ v2 + r_d2 @ w2) * m1

    hv = np.empty(p.n_params)
    rg_w1, rg_b1, rg_w2, rg_b2, rg_w3, rg_b3 = _views(p._sizes, hv)
    np.add(r_d3[None, :] @ a2, d3[None, :] @ ra2, out=rg_w3)
    rg_b3[0] = r_d3.sum()
    np.add(r_d2.T @ a1, d2.T @ ra1, out=rg_w2)
    r_d2.sum(axis=0, out=rg_b2)
    np.matmul(r_d1.T, x, out=rg_w1)
    r_d1.sum(axis=0, out=rg_b1)
    return hv


def detect(p: MlpParams, x) -> int:
    """Threshold the network output at 0.5 (ties decide 1)."""
    return int(forward(p, x) >= 0.5)


def detect_batch(p: MlpParams, inputs: np.ndarray) -> np.ndarray:
    return (forward_batch(p, inputs) >= 0.5).astype(np.uint8)


def ber_eval(p: MlpParams, batch: LabeledBatch) -> float:
    """Fraction of rows where detect() disagrees with the label."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    pred = detect_batch(p, batch.inputs)
    return float(np.mean(pred != batch.labels))


def sgd_step(p: MlpParams, batch: LabeledBatch, lr: float) -> MlpParams:
    return p.from_flat(p.to_flat() - lr * grad(p, batch))


class _Rows(LabeledBatch):
    def __post_init__(self):
        """Rows of an already validated batch: not validated again."""


def train(p: MlpParams, batch: LabeledBatch, epochs: int, lr: float,
          batch_size: int, rng) -> MlpParams:
    """Minibatch Adam; raises TrainingError if the parameters diverge."""
    theta = p.to_flat().copy()
    live = _wrap(p._sizes, theta.view())  # sees the in-place updates of theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    n = len(batch)
    # overflow on the way to divergence is caught by the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                sel = order[start: start + batch_size]
                g = grad(live, _Rows(batch.inputs[sel], batch.labels[sel]))
                t += 1
                # in place, but rounded as b1*m + (1-b1)*g and b2*v + (1-b2)*g*g
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    # NaN and inf never turn finite again under these updates
    if not np.all(np.isfinite(theta)):
        raise TrainingError(f"training diverged within {epochs} epochs")
    return p.from_flat(theta)


def save_params(path, p: MlpParams) -> None:
    """Checkpoint: magic, u16 version, u8 layer count, u32 sizes, f64 data."""
    sizes = p.layer_sizes
    container.save(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                   container.pack_fields(f"B{len(sizes)}I", len(sizes), *sizes),
                   p.to_flat().astype("<f8").tobytes())


def load_params(path) -> MlpParams:
    with container.Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as r:
        (n_layers,) = r.fields("B", "layer count")
        if n_layers != 4:
            raise ParseError(f"expected 4 layers, got {n_layers}", offset=r.mark)
        sizes = r.fields("4I", "layer-size table")
        if 0 in sizes:
            raise ParseError("zero layer width", offset=r.mark + 4 * sizes.index(0))
        if sizes[-1] != 1:
            raise ParseError(f"output width {sizes[-1]} is not 1", offset=r.mark + 12)
        flat = r.array("<f8", _n_params(sizes), "parameter payload")
        r.require(np.isfinite(flat), flat, "non-finite parameter value")
    return _wrap(sizes, flat.astype(np.float64))
