"""Fully connected bit-detection network with exact backprop and HVP.

Architecture is fixed at four layers: input N1, two ReLU hidden layers and a
single sigmoid output neuron.  The network computes in its inputs'
precision: float32 for float32 samples, as the datasets store them, and
float64 for any other inputs, which keeps the finite-difference checks in
the test suite meaningful.  The parameters stay one float64 vector either
way (master weights, as in mixed-precision training): each parameter vector
is rounded once to float32, when its MlpParams is made.  Gradients and
Hessian-vector products come back as float64, the Hessian-vector product
computed exactly by forward-over-reverse differentiation (Pearlmutter's
R-operator); the distributional second derivative of ReLU at its kink is taken as zero.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _layout(sizes: tuple) -> tuple:
    """(start, stop, shape) of W1, b1, W2, b2, W3, b3 in the flat vector."""
    shapes = [s for a, b in zip(sizes[:-1], sizes[1:]) for s in ((b, a), (b,))]
    ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
    return tuple(zip(ends[:-1], ends[1:], shapes))


def _views(sizes, flat) -> list:
    """W1, b1, W2, b2, W3, b3 as views into a flat vector laid out for `sizes`."""
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in _layout(tuple(sizes))]


@np.errstate(over="ignore")
def _views_in(sizes, flat, dtype) -> list:
    """_views of `flat` rounded to dtype: `flat`'s own views when it already
    is, else views of one rounded copy.  A value past the float32 range
    turns inf without a warning."""
    return _views(sizes, flat.astype(dtype, copy=False))


def _samples(a) -> np.ndarray:
    """`a` in the precision the network computes it in: a float32 array stays
    float32, anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)


def _wrap(sizes, flat) -> "MlpParams":
    """Parameters owning `flat`, made read-only, without copying it.  `_layers`
    holds its float64 and float32 layers by dtype, made once here for every pass."""
    p = object.__new__(MlpParams)
    flat.flags.writeable = False
    p._sizes, p._flat = tuple(int(s) for s in sizes), flat
    views = _views(p._sizes, flat)
    p.weights, p.biases = tuple(views[0::2]), tuple(views[1::2])
    p._layers = {flat.dtype: views,
                 np.dtype(np.float32): _views_in(p._sizes, flat, np.float32)}
    return p


class MlpParams:
    """Network parameters: one read-only float64 vector in layer-major order
    W1, b1, W2, b2, W3, b3, the checkpoint order.  `weights` (out, in) and
    `biases` are views into it; `grad` and `hvp` return the same layout, in
    float64 whatever precision the network computed them in.  Made by
    init_params, load_params and from_flat.
    """

    @property
    def layer_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def n_params(self) -> int:
        return self._flat.size

    def to_flat(self) -> np.ndarray:
        """The parameter vector itself: read-only, not a copy."""
        return self._flat

    @functools.cached_property
    def _finite(self) -> bool:
        """Whether every parameter is finite, scanned when first read: never for
        the Adam steps whose flag no pass reads."""
        return bool(np.isfinite(self._flat).all())

    def from_flat(self, flat: np.ndarray) -> "MlpParams":
        """New parameters with the same shapes, values copied from `flat`."""
        flat = np.array(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise InputError(f"expected {self.n_params} values, got {flat.size}")
        return _wrap(self._sizes, flat)


@dataclass(frozen=True)
class LabeledBatch:
    """Rows of received-symbol samples with their transmitted bits.  Float32
    inputs stay float32, and the network computes on them in float32; other
    inputs become float64.  The labels take the inputs' dtype."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = _samples(self.inputs)
        labels = np.asarray(self.labels, dtype=inputs.dtype)
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


@np.errstate(over="ignore", invalid="ignore")
def _logits(p: MlpParams, x: np.ndarray):
    """Hidden activations a1, a2 (each made in place) and the output logits,
    in x's precision.  An activation past the float range turns inf or NaN
    without a warning: diverged parameters are caught where they are made
    (see diverged)."""
    w1, b1, w2, b2, w3, b3 = p._layers[x.dtype]
    a1 = x @ w1.T
    np.maximum(np.add(a1, b1, out=a1), 0.0, out=a1)
    a2 = a1 @ w2.T
    np.maximum(np.add(a2, b2, out=a2), 0.0, out=a2)
    return a1, a2, (a2 @ w3.T + b3)[:, 0]


def _forward_pass(p: MlpParams, x: np.ndarray):
    """Hidden activations a1, a2 and the output, in x's precision."""
    a1, a2, z3 = _logits(p, x)
    return a1, a2, _sigmoid(z3)


def _diverged_pass(p: MlpParams, logits) -> bool:
    """Whether a parameter of p, or an array of the _logits pass `logits`,
    is not finite."""
    return not (p._finite and all(np.isfinite(a).all() for a in logits))


def diverged(p: MlpParams, inputs) -> bool:
    """Whether p has diverged on `inputs`: a parameter is not finite, or a
    hidden activation or output logit of the forward pass over them, in
    their precision, is past the float range or NaN."""
    return _diverged_pass(p, _logits(p, _samples(inputs)))


def _checked_inputs(p: MlpParams, inputs) -> np.ndarray:
    """`inputs` in the working precision, checked to be rows of p's width."""
    inputs = _samples(inputs)
    if inputs.ndim != 2 or inputs.shape[1] != p.layer_sizes[0]:
        raise InputError(
            f"expected (n, {p.layer_sizes[0]}) inputs, got shape {inputs.shape}")
    return inputs


def forward_batch(p: MlpParams, inputs: np.ndarray) -> np.ndarray:
    return _forward_pass(p, _checked_inputs(p, inputs))[-1]


def loss(p: MlpParams, batch: LabeledBatch) -> float:
    """Mean squared error between label bits and network outputs."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    out = forward_batch(p, batch.inputs)
    return float(np.mean((batch.labels - out) ** 2))


class Linearization:
    """A batch's loss at fixed parameters: its value, its exact gradient, and,
    if linearized with hvp=True, exact Hessian-vector products, all from the
    gradient's forward pass."""

    def __init__(self, grad: np.ndarray, out: np.ndarray, labels: np.ndarray,
                 cache: tuple | None):
        self.grad, self._out, self._labels, self._cache = grad, out, labels, cache

    @property
    def loss(self) -> float:
        """The batch's mean squared error, rounded as `loss` rounds it."""
        return float(np.mean((self._labels - self._out) ** 2))

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """Exact Hessian-vector product H v, in the canonical flat ordering."""
        if self._cache is None:
            raise ConfigurationError("linearized without hvp=True: no activations kept")
        n_params = self._cache[0].n_params
        v = np.asarray(v, dtype=np.float64)
        if v.size != n_params:
            raise InputError(f"tangent has {v.size} entries, expected {n_params}")
        return _hvp(*self._cache, self._out, v).astype(np.float64, copy=False)


def _hvp(p, x, a1, a2, m1, m2, d_out, out, v):
    """H v in x's precision.  Its (rows, hidden) temporaries live in three
    buffers, ra1, ra2 and one scratch array, all freed when it returns: before
    hvp's float64 cast, which would otherwise set a MAML step's peak."""
    v1, c1, v2, c2, v3, c3 = _views_in(p._sizes, v, x.dtype)
    _, _, w2, _, w3, _ = p._layers[x.dtype]
    rows, h1, h2 = x.shape[0], *p._sizes[1:3]
    scratch = np.empty(rows * max(h1, h2), dtype=x.dtype)
    s1, s2 = scratch[:rows * h1].reshape(rows, h1), scratch[:rows * h2].reshape(rows, h2)

    # forward tangent sweep, each (rows, hidden) array made in place but
    # rounded as m1 * (x v1' + c1) and m2 * (a1 v2' + ra1 w2' + c2)
    ra1 = x @ v1.T
    ra1 += c1
    ra1 *= m1
    ra2 = a1 @ v2.T
    ra2 += np.matmul(ra1, w2.T, out=s2)
    ra2 += c2
    ra2 *= m2
    rz3 = (a2 @ v3.T + ra2 @ w3.T + c3)[:, 0]
    sp = out * (1.0 - out)                    # sigmoid'

    # reverse sweep with tangents; d3 and d2 are rounded as d_out*sp, not
    # as in the gradient, which keeps the HVP's recorded outputs bit-exact
    r_d_out = 2.0 * (sp * rz3) / x.shape[0]
    d3 = d_out * sp
    r_d3 = r_d_out * sp + d_out * sp * (1.0 - 2.0 * out) * rz3
    hv = np.empty(p.n_params, dtype=x.dtype)
    rg_w1, rg_b1, rg_w2, rg_b2, rg_w3, rg_b3 = _views(p._sizes, hv)
    np.add(r_d3[None, :] @ a2, d3[None, :] @ ra2, out=rg_w3)
    rg_b3[0] = r_d3.sum()
    # r_d2 over ra2, then d2 in the scratch, rounded as
    # (d3 v3 + r_d3 w3) * m2 and (d3 w3) * m2
    r_d2 = np.multiply(d3[:, None], v3, out=ra2)
    r_d2 += np.multiply(r_d3[:, None], w3, out=s2)
    r_d2 *= m2
    d2 = np.multiply(d3[:, None], w3, out=s2)
    d2 *= m2
    np.matmul(r_d2.T, a1, out=rg_w2)
    rg_w2 += d2.T @ ra1
    r_d2.sum(axis=0, out=rg_b2)
    # r_d1 over ra1, rounded as (d2 v2 + r_d2 w2) * m1; r_d2 w2 takes the
    # scratch once d2 has been read
    r_d1 = np.matmul(d2, v2, out=ra1)
    r_d1 += np.matmul(r_d2, w2, out=s1)
    r_d1 *= m1
    np.matmul(r_d1.T, x, out=rg_w1)
    r_d1.sum(axis=0, out=rg_b1)
    return hv


def linearize(p: MlpParams, batch: LabeledBatch, hvp: bool = True) -> Linearization:
    """One forward and one backward pass over `batch` at `p`.  With hvp=False
    the result keeps no activations and cannot take Hessian-vector products:
    the backward pass writes d2 over a2 and d1 over a1."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    x, y = batch.inputs, batch.labels
    _, _, w2, _, w3, _ = p._layers[x.dtype]
    a1, a2, out = _forward_pass(p, x)
    m1, m2 = a1 > 0, a2 > 0  # the bits of z > 0, for -0.0 and NaN too
    d_out = 2.0 * (out - y) / y.size
    d3 = d_out * out * (1.0 - out)
    g = np.empty(p.n_params, dtype=x.dtype)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = _views(p._sizes, g)
    np.matmul(d3[None, :], a2, out=g_w3)
    g_b3[0] = d3.sum()
    # rounded as (d3 w3) * m2 and (d2 w2) * m1
    d2 = np.multiply(d3[:, None], w3, out=np.empty_like(a2) if hvp else a2)
    d2 *= m2
    np.matmul(d2.T, a1, out=g_w2)
    d2.sum(axis=0, out=g_b2)
    d1 = np.matmul(d2, w2, out=np.empty_like(a1) if hvp else a1)
    d1 *= m1
    np.matmul(d1.T, x, out=g_w1)
    d1.sum(axis=0, out=g_b1)
    return Linearization(g.astype(np.float64, copy=False), out, y,
                         (p, x, a1, a2, m1, m2, d_out) if hvp else None)


def grad(p: MlpParams, batch: LabeledBatch) -> np.ndarray:
    """Exact loss gradient in the canonical flat ordering."""
    return linearize(p, batch, hvp=False).grad


def detect_batch(p: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Bit decisions, the output >= 0.5, in the inputs' precision.  Raises
    InputError if p has diverged on them (see diverged), checked on the
    decisions' own pass: a network past the float range decides nothing."""
    x = _checked_inputs(p, inputs)
    logits = _logits(p, x)
    if _diverged_pass(p, logits):
        raise InputError(f"the network's {x.dtype} forward pass is not finite: "
                         "its parameters have diverged on these inputs")
    return (_sigmoid(logits[-1]) >= 0.5).astype(np.uint8)


def ber_eval(p: MlpParams, batch: LabeledBatch) -> float:
    """Fraction of rows where detect_batch's decision disagrees with the
    label; like detect_batch, raises InputError if p has diverged on them."""
    if len(batch) == 0:
        raise InputError("batch is empty")
    return float(np.mean(detect_batch(p, batch.inputs) != batch.labels))


class _Rows(LabeledBatch):
    def __post_init__(self):
        """Rows of an already validated batch: not validated again."""


def train(p: MlpParams, batch: LabeledBatch, epochs: int, lr: float,
          batch_size: int, rng) -> MlpParams:
    """Minibatch Adam; raises TrainingError if the parameters diverge on the
    batch (see diverged), which is checked once, after the last step."""
    if batch_size < 1 or epochs < 0:
        raise ConfigurationError(
            f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not 0 < lr < math.inf:  # NaN too
        raise ConfigurationError(f"learning rate {lr} must be positive and finite")
    m = np.zeros_like(p.to_flat())
    v, tmp, step = np.zeros_like(m), np.empty_like(m), np.empty_like(m)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    n = len(batch)
    # overflow on the way to divergence is caught by the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                sel = order[start: start + batch_size]
                g = grad(p, _Rows(batch.inputs[sel], batch.labels[sel]))
                t += 1
                # in buffers, but rounded as b1*m + (1-b1)*g, b2*v + (1-b2)*g*g
                # and lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
                m *= b1
                m += np.multiply(g, 1 - b1, out=tmp)
                v *= b2
                np.multiply(g, 1 - b2, out=tmp)
                v += np.multiply(tmp, g, out=tmp)
                np.divide(m, 1 - b1 ** t, out=step)
                step *= lr
                np.divide(v, 1 - b2 ** t, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                # new parameters: those that grad saw keep their values
                p = _wrap(p._sizes, p.to_flat() - np.divide(step, tmp, out=step))
    # checked once: an activation past the float range makes the gradient, and
    # with it p, NaN or inf, which these updates never make finite again
    if diverged(p, batch.inputs):
        raise TrainingError(f"training diverged within {epochs} epochs")
    return p


def save_params(path, p: MlpParams) -> None:
    """Checkpoint: magic, u16 version, u8 layer count, u32 sizes, f64 data."""
    sizes = p.layer_sizes
    container.save(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                   container.pack_fields(f"B{len(sizes)}I", len(sizes), *sizes),
                   memoryview(np.ascontiguousarray(p.to_flat(), "<f8")).cast("B"))


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
