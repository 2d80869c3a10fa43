import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chirpfed import receiver
from chirpfed.errors import (ConfigurationError, InputError, ParseError,
                             TrainingError)
from chirpfed.receiver import (LabeledBatch, ber_eval, default_hidden,
                               detect_batch, forward_batch, grad, init_params,
                               linearize, load_params, loss, save_params, train)


def hvp(p, batch, v):
    """Oracle: the Hessian-vector product of a fresh linearization."""
    return linearize(p, batch).hvp(v)


def sgd_step(p, batch, lr):
    """Oracle: one full-batch gradient step."""
    return p.from_flat(p.to_flat() - lr * grad(p, batch))


def params(weights, biases):
    """Parameters with these three weight matrices and biases, laid out
    layer-major as W1, b1, W2, b2, W3, b3."""
    sizes = [np.shape(weights[0])[1]] + [np.shape(w)[0] for w in weights]
    flat = np.concatenate([np.ravel(a) for wb in zip(weights, biases) for a in wb])
    return init_params(sizes, np.random.default_rng(0)).from_flat(flat)


def random_net(rng, sizes=None):
    if sizes is None:
        sizes = [int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                 int(rng.integers(2, 7)), 1]
    p = init_params(sizes, rng)
    # random biases keep pre-activations off the exact ReLU kink, where
    # finite differences would disagree with the (zero) subgradient
    return p.from_flat(p.to_flat() + 0.05 * rng.standard_normal(p.n_params))


def random_batch(rng, n_in, n_rows=4):
    return LabeledBatch(rng.standard_normal((n_rows, n_in)),
                        rng.integers(0, 2, size=n_rows).astype(float))


def numeric_grad(p, batch, eps=1e-6):
    theta = p.to_flat()
    out = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += eps
        dn[i] -= eps
        out[i] = (loss(p.from_flat(up), batch) - loss(p.from_flat(dn), batch)) / (2 * eps)
    return out


# ----------------------------------------------------------------- structure

def test_default_hidden():
    assert default_hidden(160) == (160, 140)
    assert default_hidden(80) == (80, 70)


def test_param_validation():
    rng = np.random.default_rng(0)
    p = init_params([4, 3, 3, 1], rng)
    assert p.layer_sizes == [4, 3, 3, 1]
    assert p.n_params == 4 * 3 + 3 + 3 * 3 + 3 + 3 * 1 + 1
    with pytest.raises(ConfigurationError):
        init_params([4, 3, 1], rng)
    with pytest.raises(ConfigurationError):
        init_params([4, 3, 3, 2], rng)


def test_init_bounds_and_zero_bias():
    rng = np.random.default_rng(1)
    p = init_params([8, 8, 7, 1], rng)
    for w in p.weights:
        lim = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= lim)
    for b in p.biases:
        assert np.all(b == 0)


def test_flat_round_trip():
    rng = np.random.default_rng(2)
    p = random_net(rng)
    q = p.from_flat(p.to_flat())
    for a, b in zip(p.weights, q.weights):
        assert np.array_equal(a, b)
    with pytest.raises(InputError):
        p.from_flat(np.zeros(p.n_params + 1))


def test_flat_vector_is_the_only_storage():
    p = random_net(np.random.default_rng(20))
    flat = p.to_flat()
    assert flat is p.to_flat()
    for part in p.weights + p.biases:
        assert np.shares_memory(flat, part)
    with pytest.raises(ValueError):
        flat[0] = 1.0
    with pytest.raises(ValueError):
        p.weights[0][0, 0] = 1.0


def test_from_flat_copies_its_input():
    p = random_net(np.random.default_rng(21))
    v = p.to_flat() + 1.0
    q = p.from_flat(v)
    v[:] = 0.0
    assert np.array_equal(q.to_flat(), p.to_flat() + 1.0)


def test_batch_validation():
    with pytest.raises(InputError):
        LabeledBatch(np.ones((2, 3)), np.array([0.0, 2.0]))
    with pytest.raises(InputError):
        LabeledBatch(np.ones((2, 3)), np.array([0.0]))
    with pytest.raises(InputError):
        LabeledBatch(np.array([[np.nan, 0.0]]), np.array([0.0]))


# ------------------------------------------------------------------- forward

def test_zero_net_outputs_half():
    p = params(tuple(np.zeros(s) for s in [(3, 4), (3, 3), (1, 3)]),
                  (np.zeros(3), np.zeros(3), np.zeros(1)))
    assert forward_batch(p, np.ones((1, 4)))[0] == pytest.approx(0.5)


def test_relu_gating():
    # strongly negative first-layer biases kill every hidden unit, so the
    # output collapses to sigmoid(b3)
    rng = np.random.default_rng(3)
    p = random_net(rng, [4, 5, 5, 1])
    p = params(p.weights, (np.full(5, -100.0), np.full(5, -100.0),
                              np.array([0.7])))
    expect = 1.0 / (1.0 + np.exp(-0.7))
    assert forward_batch(p, rng.standard_normal((1, 4)))[0] == pytest.approx(expect)


def test_forward_matches_straight_line_evaluator():
    rng = np.random.default_rng(4)
    p = random_net(rng, [6, 5, 4, 1])
    x = rng.standard_normal(6)
    # independent plain-loop evaluation
    h = x
    for w, b, last in zip(p.weights, p.biases, (False, False, True)):
        z = np.array([float(np.dot(w[i], h)) + b[i] for i in range(w.shape[0])])
        h = z if last else np.maximum(z, 0.0)
    expect = 1.0 / (1.0 + np.exp(-h[0]))
    assert forward_batch(p, x[None, :])[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forward_pass_saturates_past_the_float_range_without_a_warning():
    # every activation overflows to +inf, and the output saturates at 1;
    # detect_batch, and ber_eval through it, refuse to decide on such a pass
    p = params(tuple(np.full(s, 1e300) for s in [(3, 4), (3, 3), (1, 3)]),
               (np.zeros(3), np.zeros(3), np.zeros(1)))
    assert forward_batch(p, np.ones((2, 4))).tolist() == [1.0, 1.0]
    with pytest.raises(InputError, match="diverged"):
        ber_eval(p, LabeledBatch(np.ones((1, 4)), [1.0]))
    with pytest.raises(InputError, match="diverged"):
        detect_batch(p, np.ones((1, 4)))


def test_forward_shape_checks():
    rng = np.random.default_rng(5)
    p = random_net(rng, [4, 3, 3, 1])
    with pytest.raises(InputError):
        forward_batch(p, np.ones(4))  # one row is still a (1, N1) block
    with pytest.raises(InputError):
        forward_batch(p, np.ones((1, 5)))
    with pytest.raises(InputError):
        forward_batch(p, np.ones((2, 5)))


def test_forward_output_in_open_interval():
    rng = np.random.default_rng(6)
    p = random_net(rng, [4, 3, 3, 1])
    out = forward_batch(p, rng.standard_normal((50, 4)))
    assert np.all((out > 0) & (out < 1))


# ---------------------------------------------------------------------- loss

def test_loss_values():
    rng = np.random.default_rng(7)
    p = params(tuple(np.zeros(s) for s in [(3, 4), (3, 3), (1, 3)]),
                  (np.zeros(3), np.zeros(3), np.zeros(1)))
    b = LabeledBatch(np.ones((1, 4)), np.array([1.0]))
    assert loss(p, b) == pytest.approx(0.25)  # output 0.5, label 1
    big = random_batch(rng, 4, 64)
    assert 0.0 <= loss(random_net(rng, [4, 3, 3, 1]), big) <= 1.0
    with pytest.raises(InputError):
        loss(p, LabeledBatch(np.ones((0, 4)), np.zeros(0)))


# ---------------------------------------------------------------------- grad

def test_grad_zero_at_balanced_point():
    # zero net outputs 0.5 on every input; paired labels 0 and 1 on the same
    # input make the MSE stationary there
    p = params(tuple(np.zeros(s) for s in [(3, 4), (3, 3), (1, 3)]),
                  (np.zeros(3), np.zeros(3), np.zeros(1)))
    b = LabeledBatch(np.vstack([np.ones(4), np.ones(4)]), np.array([0.0, 1.0]))
    assert np.allclose(grad(p, b), 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = random_net(rng)
        b = random_batch(rng, p.layer_sizes[0])
        g = grad(p, b)
        num = numeric_grad(p, b)
        denom = np.maximum(np.abs(num), 1e-8)
        assert np.max(np.abs(g - num) / denom) < 1e-4


def test_grad_1111_hand_chain_rule():
    # scalar chain: out = sigmoid(w3*relu(w2*relu(w1*x+b1)+b2)+b3)
    w1, b1, w2, b2, w3, b3 = 0.8, 0.1, 1.2, 0.2, -0.7, 0.3
    x, y = 1.5, 1.0
    p = params((np.array([[w1]]), np.array([[w2]]), np.array([[w3]])),
                  (np.array([b1]), np.array([b2]), np.array([b3])))
    batch = LabeledBatch(np.array([[x]]), np.array([y]))
    z1 = w1 * x + b1          # > 0
    a1 = z1
    z2 = w2 * a1 + b2         # > 0
    a2 = z2
    z3 = w3 * a2 + b3
    out = 1 / (1 + np.exp(-z3))
    d3 = 2 * (out - y) * out * (1 - out)
    hand = np.array([d3 * w3 * w2 * x,    # dL/dw1
                     d3 * w3 * w2,        # dL/db1
                     d3 * w3 * a1,        # dL/dw2
                     d3 * w3,             # dL/db2
                     d3 * a2,             # dL/dw3
                     d3])                 # dL/db3
    assert np.allclose(grad(p, batch), hand, rtol=1e-12)


# ----------------------------------------------------------------------- hvp

def test_hvp_zero_vector():
    rng = np.random.default_rng(9)
    p = random_net(rng)
    b = random_batch(rng, p.layer_sizes[0])
    assert np.allclose(hvp(p, b, np.zeros(p.n_params)), 0.0)


def test_hvp_matches_grad_differences():
    rng = np.random.default_rng(10)
    for _ in range(5):
        p = random_net(rng)
        b = random_batch(rng, p.layer_sizes[0])
        v = rng.standard_normal(p.n_params)
        eps = 1e-5
        theta = p.to_flat()
        num = (grad(p.from_flat(theta + eps * v), b)
               - grad(p.from_flat(theta - eps * v), b)) / (2 * eps)
        hv = hvp(p, b, v)
        denom = max(np.linalg.norm(num), 1e-10)
        assert np.linalg.norm(hv - num) / denom < 1e-3


def test_linearization_matches_grad_and_hvp_bitwise():
    rng = np.random.default_rng(12)
    p = random_net(rng)
    b = random_batch(rng, p.layer_sizes[0])
    u = rng.standard_normal(p.n_params)
    v = rng.standard_normal(p.n_params)
    lin = linearize(p, b)
    assert np.array_equal(lin.grad, grad(p, b))
    hu = lin.hvp(u)
    assert np.array_equal(hu, hvp(p, b, u))
    # one linearization serves many tangents and is not changed by them
    assert np.array_equal(lin.hvp(v), hvp(p, b, v))
    assert np.array_equal(lin.hvp(u), hu)
    with pytest.raises(InputError):
        lin.hvp(np.ones(p.n_params + 1))


def test_hvp_symmetry_and_linearity():
    rng = np.random.default_rng(11)
    p = random_net(rng)
    b = random_batch(rng, p.layer_sizes[0])
    u = rng.standard_normal(p.n_params)
    v = rng.standard_normal(p.n_params)
    assert np.dot(hvp(p, b, u), v) == pytest.approx(np.dot(u, hvp(p, b, v)),
                                                    abs=1e-10)
    lhs = hvp(p, b, 2.0 * u + 3.0 * v)
    rhs = 2.0 * hvp(p, b, u) + 3.0 * hvp(p, b, v)
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_hvp_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    p = random_net(rng)
    b = random_batch(rng, p.layer_sizes[0])
    u = rng.standard_normal(p.n_params)
    v = rng.standard_normal(p.n_params)
    assert abs(np.dot(hvp(p, b, u), v) - np.dot(u, hvp(p, b, v))) < 1e-10


def out_of_place_linearization(p, batch, v):
    """Oracle: (gradient, H v) from out-of-place expressions, each array a
    new temporary, in the rounding order that linearize and hvp keep."""
    x, y = batch.inputs, batch.labels
    w1, w2, w3 = p.weights
    a1, a2, out = receiver._forward_pass(p, x)
    m1, m2 = a1 > 0, a2 > 0
    d_out = 2.0 * (out - y) / y.size
    d3 = d_out * out * (1.0 - out)
    d2 = (d3[:, None] * w3) * m2
    d1 = (d2 @ w2) * m1
    g = np.concatenate([(d1.T @ x).ravel(), d1.sum(axis=0), (d2.T @ a1).ravel(),
                        d2.sum(axis=0), (d3[None, :] @ a2).ravel(), [d3.sum()]])

    v1, c1, v2, c2, v3, c3 = [v[lo:hi].reshape(shape) for lo, hi, shape
                              in receiver._layout(tuple(p.layer_sizes))]
    ra1 = m1 * (x @ v1.T + c1)
    ra2 = m2 * (a1 @ v2.T + ra1 @ w2.T + c2)
    rz3 = (a2 @ v3.T + ra2 @ w3.T + c3)[:, 0]
    sp = out * (1.0 - out)
    r_d_out = 2.0 * (sp * rz3) / x.shape[0]
    d3 = d_out * sp
    r_d3 = r_d_out * sp + d_out * sp * (1.0 - 2.0 * out) * rz3
    d2 = (d3[:, None] * w3) * m2
    r_d2 = (d3[:, None] * v3 + r_d3[:, None] * w3) * m2
    r_d1 = (d2 @ v2 + r_d2 @ w2) * m1
    hv = np.concatenate([(r_d1.T @ x).ravel(), r_d1.sum(axis=0),
                         (r_d2.T @ a1 + d2.T @ ra1).ravel(), r_d2.sum(axis=0),
                         (r_d3[None, :] @ a2 + d3[None, :] @ ra2).ravel(), [r_d3.sum()]])
    return g, hv


def kinked_case(seed):
    """A random net and batch with zero and -0.0 pre-activations: zero input
    rows, signed-zero inputs, and hidden units with zero weights and signed
    zero biases."""
    rng = np.random.default_rng(seed)
    n_in, h1, h2 = (int(k) for k in rng.integers(3, 9, size=3))
    p = random_net(rng, [n_in, h1, h2, 1])
    w1, w2, w3 = (np.array(w) for w in p.weights)
    b1, b2, b3 = (np.array(b) for b in p.biases)
    w1[0], b1[0] = 0.0, -0.0
    w1[1], b1[1] = -np.abs(w1[1]), -0.0
    w2[0], b2[0] = 0.0, 0.0
    b1[2:] *= rng.integers(0, 2, size=h1 - 2)
    p = params((w1, w2, w3), (b1, b2, b3))
    rows = int(rng.integers(2, 40))
    x = rng.standard_normal((rows, n_in))
    x[rng.random(rows) < 0.3] = 0.0
    x[rng.random((rows, n_in)) < 0.2] = -0.0
    batch = LabeledBatch(x, rng.integers(0, 2, size=rows).astype(float))
    return p, batch, rng.standard_normal(p.n_params)


@pytest.mark.parametrize("seed", range(25))
def test_lean_linearization_gives_the_same_gradient_and_loss_bytes(seed):
    p, b, _ = kinked_case(seed)
    z1 = b.inputs @ p.weights[0].T + p.biases[0]
    assert np.any(z1 == 0) and np.any(np.signbit(b.inputs) & (b.inputs == 0))
    full, lean = linearize(p, b), linearize(p, b, hvp=False)
    assert lean.grad.tobytes() == full.grad.tobytes()
    assert struct.pack("<d", lean.loss) == struct.pack("<d", full.loss)
    assert struct.pack("<d", lean.loss) == struct.pack("<d", loss(p, b))
    with pytest.raises(ConfigurationError):
        lean.hvp(np.zeros(p.n_params))


@pytest.mark.parametrize("seed", range(25))
def test_linearization_matches_the_out_of_place_expressions_bytewise(seed):
    p, b, v = kinked_case(seed)
    g, hv = out_of_place_linearization(p, b, v)
    lin = linearize(p, b)
    assert lin.grad.tobytes() == g.tobytes()
    assert lin.hvp(v).tobytes() == hv.tobytes()
    assert lin.hvp(v).tobytes() == hv.tobytes()  # a tangent leaves no trace


# float32 against float64 arithmetic on the same float32-representable inputs:
# each value is rounded to float32 at every step of the pass, so the gradient,
# the HVP and the loss agree to a relative 1e-5 (84 float32 epsilons) in the
# 2-norm; 200 drawn cases of up to 40 units and 200 rows stayed within 15 of them
F32_RTOL = 1e-5


@pytest.mark.parametrize("seed", range(25))
def test_float32_inputs_give_the_float64_gradient_hvp_and_loss(seed):
    rng = np.random.default_rng(seed)
    p = random_net(rng, [int(k) for k in rng.integers(2, 40, size=3)] + [1])
    rows = int(rng.integers(1, 200))
    x = rng.standard_normal((rows, p.layer_sizes[0])).astype(np.float32)
    y = rng.integers(0, 2, size=rows)
    v = rng.standard_normal(p.n_params)
    lin32 = linearize(p, LabeledBatch(x, y))
    lin64 = linearize(p, LabeledBatch(x.astype(np.float64), y))
    assert receiver._forward_pass(p, x)[-1].dtype == np.float32
    for got, want in ((lin32.grad, lin64.grad), (lin32.hvp(v), lin64.hvp(v)),
                      (np.array([lin32.loss]), np.array([lin64.loss]))):
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= F32_RTOL * np.linalg.norm(want)


# ----------------------------------------------------------- detect and BER

def test_detect_threshold_convention():
    p = params(tuple(np.zeros(s) for s in [(3, 4), (3, 3), (1, 3)]),
                  (np.zeros(3), np.zeros(3), np.zeros(1)))
    assert detect_batch(p, np.ones((1, 4)))[0] == 1  # output exactly 0.5 -> 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_batch_refuses_a_pass_past_the_float32_range(monkeypatch):
    # weights of 1e25 make second-layer activations near 1e50: finite in
    # float64, past the float32 range.  The check reuses the decisions' pass
    p = params(tuple(np.full(s, 1e25) for s in [(3, 4), (3, 3), (1, 3)]),
               (np.zeros(3), np.zeros(3), np.zeros(1)))
    x = np.ones((2, 4))
    assert detect_batch(p, x).tolist() == [1, 1]
    passes = []
    logits = receiver._logits
    monkeypatch.setattr(receiver, "_logits", lambda *a: passes.append(1) or logits(*a))
    with pytest.raises(InputError, match="float32 forward pass is not finite"):
        detect_batch(p, x.astype(np.float32))
    assert passes == [1]


def test_ber_eval_basics():
    rng = np.random.default_rng(12)
    p = params(tuple(np.zeros(s) for s in [(3, 4), (3, 3), (1, 3)]),
                  (np.zeros(3), np.zeros(3), np.zeros(1)))
    x = rng.standard_normal((100, 4))
    ones = LabeledBatch(x, np.ones(100))
    zeros = LabeledBatch(x, np.zeros(100))
    assert ber_eval(p, ones) == 0.0       # constant-1 predictor
    assert ber_eval(p, zeros) == 1.0      # complemented labels
    balanced = LabeledBatch(x, (np.arange(100) % 2).astype(float))
    assert ber_eval(p, balanced) == pytest.approx(0.5)


def test_ber_complement_symmetry():
    rng = np.random.default_rng(13)
    p = random_net(rng, [4, 3, 3, 1])
    b = random_batch(rng, 4, 200)
    flipped = LabeledBatch(b.inputs, 1.0 - b.labels)
    assert ber_eval(p, b) + ber_eval(p, flipped) == pytest.approx(1.0)


# ------------------------------------------------------------------ training

def test_sgd_step_definition():
    rng = np.random.default_rng(14)
    p = random_net(rng)
    b = random_batch(rng, p.layer_sizes[0])
    q = sgd_step(p, b, 0.1)
    assert np.allclose(q.to_flat(), p.to_flat() - 0.1 * grad(p, b))


def test_training_solves_separable_toy():
    rng = np.random.default_rng(15)
    n = 64
    x = np.vstack([rng.normal(-2.0, 0.3, size=(n // 2, 2)),
                   rng.normal(2.0, 0.3, size=(n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    batch = LabeledBatch(x, y)
    p = init_params([2, 8, 8, 1], rng)
    for step in range(10000):
        p = sgd_step(p, batch, 2.0)
        if step % 200 == 0 and loss(p, batch) < 1e-3:
            break
    assert loss(p, batch) < 1e-3


def test_train_loop_reduces_loss():
    rng = np.random.default_rng(16)
    n = 128
    x = np.vstack([rng.normal(-1.5, 0.4, size=(n // 2, 3)),
                   rng.normal(1.5, 0.4, size=(n // 2, 3))])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    batch = LabeledBatch(x, y)
    p0 = init_params([3, 6, 5, 1], rng)
    p1 = train(p0, batch, epochs=30, lr=1e-2, batch_size=16,
               rng=np.random.default_rng(17))
    assert loss(p1, batch) < loss(p0, batch)
    assert ber_eval(p1, batch) < 0.1


def test_train_rounds_adam_as_the_textbook_update():
    # the update runs in buffers, but each value is rounded as in the
    # expressions below, so the result is bit-identical
    rng = np.random.default_rng(18)
    p = random_net(rng, [5, 6, 4, 1])
    batch = random_batch(rng, 5, 37)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    theta = p.to_flat().copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    order_rng, t = np.random.default_rng(19), 0
    for _ in range(3):
        order = order_rng.permutation(len(batch))
        for start in range(0, len(batch), 8):
            sel = order[start: start + 8]
            g = grad(p.from_flat(theta), LabeledBatch(batch.inputs[sel], batch.labels[sel]))
            t += 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    out = train(p, batch, epochs=3, lr=lr, batch_size=8, rng=np.random.default_rng(19))
    assert np.array_equal(out.to_flat(), theta)


@pytest.mark.parametrize("batch_size, epochs", [(0, 1), (-3, 1), (8, -1)])
def test_train_rejects_bad_schedule(batch_size, epochs):
    rng = np.random.default_rng(23)
    p = init_params([3, 6, 5, 1], rng)
    with pytest.raises(ConfigurationError):
        train(p, random_batch(rng, 3, 8), epochs=epochs, lr=1e-3,
              batch_size=batch_size, rng=rng)


def test_train_divergence_is_a_training_error():
    rng = np.random.default_rng(22)
    p = init_params([3, 6, 5, 1], rng)
    batch = random_batch(rng, 3, 32)
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        train(p, batch, epochs=3, lr=1e300, batch_size=8, rng=rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_is_judged_in_the_working_precision():
    # one Adam step of 1e30 leaves every parameter finite in float64, but its
    # activations (about 1e61) overflow float32 and not float64
    rng = np.random.default_rng(24)
    p = init_params([3, 6, 5, 1], rng)
    batch = random_batch(rng, 3, 8)
    x32 = LabeledBatch(batch.inputs.astype(np.float32), batch.labels)
    x64 = LabeledBatch(x32.inputs.astype(np.float64), batch.labels)
    with pytest.raises(TrainingError, match="diverged"):
        train(p, x32, epochs=1, lr=1e30, batch_size=8, rng=np.random.default_rng(0))
    out = train(p, x64, epochs=1, lr=1e30, batch_size=8, rng=np.random.default_rng(0))
    assert np.all(np.isfinite(out.to_flat()))
    assert receiver.diverged(out, x32.inputs) and not receiver.diverged(out, x64.inputs)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    p = random_net(rng, [16, 16, 14, 1])
    path = tmp_path / "net.cdnn"
    save_params(path, p)
    back = load_params(path)
    assert back.layer_sizes == p.layer_sizes
    assert np.array_equal(back.to_flat(), p.to_flat())  # f64 storage is exact


def test_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.cdnn"
    bad.write_bytes(b"YUCK" + bytes(10))
    with pytest.raises(ParseError):
        load_params(bad)
    rng = np.random.default_rng(19)
    good = tmp_path / "good.cdnn"
    save_params(good, random_net(rng, [4, 3, 3, 1]))
    cut = tmp_path / "cut.cdnn"
    cut.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(ParseError):
        load_params(cut)


def checkpoint_bytes(sizes, payload=None):
    n = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if payload is None:
        payload = np.zeros(n)
    return (struct.pack("<4sHB", b"CDNN", 1, len(sizes))
            + struct.pack(f"<{len(sizes)}I", *sizes)
            + np.asarray(payload, dtype="<f8").tobytes())


@pytest.mark.parametrize("sizes, offset", [
    ([4, 3, 1], 6),             # layer count is not 4
    ([4, 3, 3, 3, 1], 6),
    ([4, 3, 3, 2], 19),         # output width is not 1
    ([0, 0, 0, 1], 7),          # zero widths
    ([3, 0, 0, 1], 11),
    ([4, 3, 3, 0], 19),
])
def test_checkpoint_layout_rejected(tmp_path, sizes, offset):
    path = tmp_path / "bad.cdnn"
    path.write_bytes(checkpoint_bytes(sizes))
    with pytest.raises(ParseError) as exc:
        load_params(path)
    assert exc.value.offset == offset


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_payload_rejected(tmp_path, value):
    sizes = [4, 3, 3, 1]
    payload = np.zeros(4 * 3 + 3 + 3 * 3 + 3 + 3 + 1)
    payload[5] = value
    path = tmp_path / "nan.cdnn"
    path.write_bytes(checkpoint_bytes(sizes, payload))
    with pytest.raises(ParseError) as exc:
        load_params(path)
    assert exc.value.offset == 7 + 16 + 8 * 5
