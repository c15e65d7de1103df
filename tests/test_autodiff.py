"""Substrate tests: primitive forwards, adjoint soundness against central
finite differences (float64), determinism, and record (tape) semantics."""

import math
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtts.autodiff import (
    RecordError,
    Segments,
    ShapeError,
    Tensor,
    _accumulate,
    active_dtype,
    add,
    bce_with_logits,
    concat,
    constant,
    embedding_lookup,
    gelu,
    grad_check,
    layer_norm_affine,
    linear,
    mse,
    mul,
    narrow,
    parameter,
    precision,
    primitive_forward_set,
    push_op,
    record,
    rng_stream,
    tensor_sum,
    transformer_block,
    zero_grads,
)
from flowtts.model import MASK_VALUE, ModelConfig, Packing, init_model_state, semantic_hiddens
from oracles import attention, layer_norm, matmul, softmax, stacked_linear
import oracles

RNG = np.random.default_rng(20240811)


def _rand(shape):
    return RNG.standard_normal(shape)


# --------------------------------------------------------------------------
# Forward examples
# --------------------------------------------------------------------------

# The oracles' taped product, normalization and softmax are the references
# the fused primitives are checked against, so they are checked too.
def test_matmul_identity():
    a = _rand((3, 5))
    out = matmul(constant(np.eye(3)), constant(a))
    np.testing.assert_array_equal(out.data, a.astype(np.float32))


def test_softmax_rows_sum_to_one():
    y = softmax(constant(_rand((6, 9)))).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_constant_vector_is_zero():
    y = layer_norm(constant(np.full((4,), 3.7))).data
    np.testing.assert_array_equal(y, np.zeros(4, dtype=np.float32))


def test_layer_norm_affine_maps_a_constant_row_to_the_bias():
    bias = _rand(4)
    y = layer_norm_affine(constant(np.full((4,), 3.7)), constant(_rand(4)), constant(bias)).data
    np.testing.assert_array_equal(y, bias.astype(np.float32))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_layer_norm_is_bitwise_the_np_mean_formulation(dtype):
    # With unit gain and zero bias, layer_norm_affine's output and the
    # gradient of x are the normalization's own: here bitwise the oracle's,
    # which takes every row mean by np.mean.
    rng = np.random.default_rng(41)
    with precision(dtype):
        for rows, width in [(1, 64), (2, 64), (23, 64), (192, 64), (5, 16), (7, 48), (3, 10)]:
            scale, shift = rng.uniform(0.01, 100.0), rng.uniform(-10.0, 10.0)
            data = rng.standard_normal((rows, width)) * scale + shift
            g = constant(rng.standard_normal((rows, width)))
            results = []
            gain, bias = constant(np.ones(width)), constant(np.zeros(width))
            for norm in (lambda x: layer_norm_affine(x, gain, bias), layer_norm):
                x = parameter(data)
                with record() as tape:
                    y = norm(x)
                    loss = tensor_sum(mul(y, g))
                tape.backward(loss)
                results.append((y.data, x.grad))
            (y, grad), (y_ref, grad_ref) = results
            assert y.dtype == grad.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(grad, grad_ref)


GELU_K, GELU_C = math.sqrt(2.0 / math.pi), 0.044715
GELU_SLOPE_ZERO = -0.7524614220710162  # where the tanh form's derivative is 0


def _gelu_tanh_form(x):
    # The formula gelu computes, evaluated in float64.
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(GELU_K * (x + GELU_C * x ** 3)))


def _gelu_exact(x):
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_is_the_tanh_formula(dtype):
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(43)
    grid = np.linspace(-12.0, 12.0, 24001)
    x = np.concatenate([grid, rng.standard_normal(4000) * 4, rng.standard_normal(1000) * 1e3])
    x = x.astype(dtype)
    got = gelu(constant(x, dtype=dtype)).data
    assert got.dtype == dtype
    # The cdf 0.5 (1 + tanh) lies in [0, 1], so its rounding error is a few
    # ulp of 1 and gelu's a few ulp of max(|x|, 1).
    ulp = np.finfo(dtype).eps * np.maximum(np.abs(x.astype(np.float64)), 1.0)
    assert np.all(np.abs(got - _gelu_tanh_form(x)) <= 2 * ulp)
    # Hendrycks & Gimpel's approximation is within 4.7e-4 of x Phi(x).
    assert np.max(np.abs(got[:grid.size] - _gelu_exact(x[:grid.size]))) <= 5e-4


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_raises_no_floating_point_fault_for_a_finite_input(dtype):
    dtype = np.dtype(dtype)
    big = float(np.finfo(dtype).max)
    x = np.array([big, -big, 0.0, -0.0, 1e-30, -1e-30, 2e13, -2e13, 1e20, -1e20, 10.0, -10.0,
                  float(np.finfo(dtype).smallest_subnormal)], dtype=dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        t = parameter(x, dtype=dtype)
        with record() as tape:
            y = gelu(t)
            loss = tensor_sum(y)
        tape.backward(loss)
    assert y.data.dtype == t.grad.dtype == dtype
    np.testing.assert_array_equal(y.data[[0, 6, 8]], x[[0, 6, 8]])
    np.testing.assert_array_equal(y.data[[1, 2, 3, 7, 9]], 0.0)
    assert np.all(np.isfinite(t.grad))
    np.testing.assert_array_equal(t.grad[[0, 1, 6, 7, 8, 9]], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(t.grad[[2, 3, 4, 5]], 0.5)
    # At the infinities it is what x Phi(x) gives as x * cdf: inf, and
    # -inf * 0, a NaN.
    with np.errstate(invalid="ignore"):
        edges = gelu(constant([np.inf, -np.inf, np.nan], dtype=dtype)).data
    assert edges[0] == np.inf and np.isnan(edges[1]) and np.isnan(edges[2])


def test_gelu_gradient_matches_finite_differences_up_to_12():
    points = np.concatenate([[-12.0, -10.0, -9.0, -8.0], np.linspace(-4.5, 12.0, 34),
                             GELU_SLOPE_ZERO + np.array([-1e-2, -1e-4, 1e-4, 1e-2])])
    with precision("float64"):
        # One point per check: in a sum over all of them, the rounding of the
        # large terms swamps the small slopes' central differences.
        for point in points:
            assert grad_check(lambda t: tensor_sum(gelu(t)), parameter([point])) <= 1e-6, point
        # At the zero itself a relative error has no scale: the slope is 0.
        x = parameter([GELU_SLOPE_ZERO])
        with record() as tape:
            loss = tensor_sum(gelu(x))
        tape.backward(loss)
    assert abs(x.grad[0]) <= 1e-15


def test_gelu_gradient_in_the_far_negative_tail_is_the_closed_form():
    # Between -8 and -4.5 gelu is below 1e-5 in size and comes from 1 + tanh
    # near 0, so central differences lose their digits to that cancellation.
    # There the adjoint is held to the derivative written without it:
    # 1 + tanh z = 2 / (1 + e^-2z) and 1 - tanh^2 z = 4 e^2z / (1 + e^2z)^2.
    x = np.linspace(-8.0, -4.5, 71)
    z = GELU_K * (x + GELU_C * x ** 3)
    e = np.exp(2.0 * z)
    want = 1.0 / (1.0 + 1.0 / e) + 0.5 * x * (4.0 * e / (1.0 + e) ** 2) * GELU_K \
        * (1.0 + 3.0 * GELU_C * x ** 2)
    with precision("float64"):
        t = parameter(x)
        with record() as tape:
            loss = tensor_sum(gelu(t))
        tape.backward(loss)
    np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-14)


def _scatter_case(data):
    # A table, ids (distinct or repeating), row gradients over many
    # magnitudes, and an earlier gradient in one of three layouts: none, or
    # one from another use of the table, C- or Fortran-ordered.
    rows, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
    dtype = np.dtype(data.draw(st.sampled_from(["float32", "float64"])))
    unique = data.draw(st.booleans())
    ids = data.draw(st.lists(st.integers(0, rows - 1), unique=unique,
                             max_size=rows if unique else 3 * rows))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = (rng.standard_normal((len(ids), width))
         * 10.0 ** rng.integers(-8, 9, (len(ids), 1))).astype(dtype)
    prior = (rng.standard_normal((rows, width))
             * 10.0 ** rng.integers(-8, 9, (rows, 1))).astype(dtype)
    order = data.draw(st.sampled_from([None, "C", "F"]))
    prior = None if order is None else np.array(prior, order=order)
    return rng.standard_normal((rows, width)), np.array(ids, dtype=np.int64), g, prior


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scatter_is_bitwise_np_add_at(data):
    table_data, ids, g, prior = _scatter_case(data)
    table = parameter(table_data, dtype=g.dtype)
    table.grad = None if prior is None else prior.copy(order="A")
    with record() as tape:
        loss = tensor_sum(mul(embedding_lookup(table, ids), constant(g, dtype=g.dtype)))
    tape.backward(loss)
    want = np.zeros_like(table.data) if prior is None else prior.copy()
    np.add.at(want, ids, g)
    assert table.grad.dtype == g.dtype
    assert table.grad.tobytes() == want.tobytes()


def test_sum_and_item():
    x = constant([[1.0, 2.0], [3.0, 4.0]])
    assert tensor_sum(x).item() == 10.0


def test_add_broadcast_shapes():
    out = add(constant(np.ones((3, 4))), constant(np.ones(4)))
    assert out.shape == (3, 4)
    with pytest.raises(ShapeError):
        add(constant(np.ones((3, 4))), constant(np.ones(5)))


def test_bce_at_zero_logit_is_ln2():
    for label in (0.0, 1.0):
        loss = bce_with_logits(constant(np.zeros(3)), np.full(3, label))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)


def test_bce_at_huge_logits_raises_no_floating_point_fault():
    # The command line trains with overflow raising: a logit far past exp's
    # range is a saturated sigmoid, not a fault.
    logits = np.array([-1e4, -200.0, 0.0, 200.0, 1e4])
    labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        z = parameter(logits)
        with record() as tape:
            loss = bce_with_logits(z, labels)
        tape.backward(loss)
    np.testing.assert_allclose(loss.item(), (200.0 + 200.0 + np.log(2.0)) / 5, rtol=1e-6)
    np.testing.assert_allclose(z.grad, np.array([0.0, -1.0, -0.5, 1.0, 0.0]) / 5, rtol=1e-6)


def _row_means(values, shape):
    return np.array([np.mean(row) for row in np.reshape(values, (shape[0], -1))])


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 2)])
def test_row_weighted_losses_are_weighted_sums_of_row_means(shape):
    rng = np.random.default_rng(zlib.crc32(str(shape).encode()))
    with precision("float64"):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        labels = rng.integers(0, 2, size=shape).astype(np.float64)
        w = rng.uniform(0.1, 1.0, size=shape[0])
        got = mse(constant(a), constant(b), w).item()
        assert got == pytest.approx(w @ _row_means((a - b) ** 2, shape), rel=1e-12)
        per = np.maximum(a, 0) - a * labels + np.log1p(np.exp(-np.abs(a)))
        got = bce_with_logits(constant(a), labels, w).item()
        assert got == pytest.approx(w @ _row_means(per, shape), rel=1e-12)
        # Uniform weights 1/rows give the plain mean.
        uniform = np.full(shape[0], 1.0 / shape[0])
        assert mse(constant(a), constant(b), uniform).item() == \
            pytest.approx(mse(constant(a), constant(b)).item(), rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_without_row_weights_are_bitwise_the_plain_mean(dtype):
    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal((9, 16)).astype(dtype) for _ in range(2))
    labels = rng.integers(0, 2, size=(9, 16)).astype(dtype)
    diff = a - b
    assert mse(constant(a, dtype=dtype), constant(b, dtype=dtype)).data == \
        np.asarray(np.mean(diff * diff), dtype=dtype)
    per = np.maximum(a, 0.0) - a * labels + np.log1p(np.exp(-np.abs(a)))
    assert bce_with_logits(constant(a, dtype=dtype), labels).data == \
        np.asarray(per.mean(), dtype=dtype)


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 2)])
def test_row_weighted_loss_gradients_match_finite_differences(shape):
    rng = np.random.default_rng(zlib.crc32(("weighted" + str(shape)).encode()))
    with precision("float64"):
        like = constant(rng.standard_normal(shape))
        labels = rng.integers(0, 2, size=shape).astype(np.float64)
        w = rng.uniform(0.1, 1.0, size=shape[0])
        cases = {
            "mse first operand": lambda x: mse(x, like, w),
            "mse second operand": lambda x: mse(like, x, w),
            "bce_with_logits": lambda x: bce_with_logits(x, labels, w),
        }
        for name, f in cases.items():
            x = parameter(rng.standard_normal(shape))
            assert grad_check(f, x) <= 1e-4, f"{name} @ {shape}"


def test_row_weights_must_give_one_weight_per_row():
    with pytest.raises(ShapeError):
        mse(constant(np.zeros((3, 2))), constant(np.zeros((3, 2))), np.ones(2))
    with pytest.raises(ShapeError):
        bce_with_logits(constant(np.zeros(())), np.zeros(()), np.ones(1))


# --------------------------------------------------------------------------
# Backward basics
# --------------------------------------------------------------------------

def test_sum_of_squares_gradient():
    with precision("float64"):
        x = parameter(_rand(5))
        with record() as tape:
            loss = tensor_sum(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


def test_mse_self_gradient_is_zero():
    with precision("float64"):
        x = parameter(_rand(4))
        with record() as tape:
            loss = mse(x, x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))


def test_fanout_gradients_add_exactly():
    with precision("float64"):
        base = _rand(6)
        ca, cb = _rand(6), _rand(6)

        def g(x):
            return tensor_sum(mul(x, constant(ca)))

        def h(x):
            return tensor_sum(mul(x, constant(cb)))

        x = parameter(base.copy())
        with record() as tape:
            loss = add(g(x), h(x))
        tape.backward(loss)
        combined = x.grad.copy()

        x1 = parameter(base.copy())
        with record() as t1:
            l1 = g(x1)
        t1.backward(l1)
        x2 = parameter(base.copy())
        with record() as t2:
            l2 = h(x2)
        t2.backward(l2)
        np.testing.assert_array_equal(combined, x1.grad + x2.grad)


def test_backward_twice_raises():
    x = parameter(_rand(3))
    with record() as tape:
        loss = tensor_sum(x)
    tape.backward(loss)
    with pytest.raises(RecordError):
        tape.backward(loss)


def test_nested_record_raises():
    with record():
        with pytest.raises(RecordError):
            with record():
                pass


def test_backward_requires_scalar_loss():
    x = parameter(_rand((2, 2)))
    with record() as tape:
        y = mul(x, constant(2.0))
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_unreachable_parameter_gets_no_gradient():
    x = parameter(_rand(3))
    unused = parameter(_rand(3))
    with record() as tape:
        loss = tensor_sum(x)
    tape.backward(loss)
    assert unused.grad is None  # exact zero contribution


def test_determinism_bitwise():
    # Two identical forward+backward passes must agree bit for bit.
    w1, w2 = _rand((6, 8)), _rand((8, 4))
    x = _rand((5, 6))

    def run():
        p1, p2 = parameter(w1.copy()), parameter(w2.copy())
        inp = constant(x.copy())
        with record() as tape:
            h = gelu(matmul(inp, p1))
            loss = mse(matmul(h, p2), constant(np.zeros((5, 4))))
        tape.backward(loss)
        return loss.data.copy(), p1.grad.copy(), p2.grad.copy()

    la, g1a, g2a = run()
    lb, g1b, g2b = run()
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(g1a, g1b)
    np.testing.assert_array_equal(g2a, g2b)


# --------------------------------------------------------------------------
# grad_check
# --------------------------------------------------------------------------

def test_grad_check_linear_function_is_tight():
    with precision("float64"):
        x = parameter(_rand(7))
        assert grad_check(tensor_sum, x) <= 1e-9


def test_grad_check_rejects_nonscalar():
    with precision("float64"):
        x = parameter(_rand(3))
        with pytest.raises(ShapeError):
            grad_check(lambda t: mul(t, constant(2.0)), x)


def test_three_layer_mlp_matches_finite_differences():
    with precision("float64"):
        rng = np.random.default_rng(7)
        sizes = [(5, 8), (8, 8), (8, 3)]
        weights = [parameter(rng.standard_normal(s) * 0.5) for s in sizes]
        inp = constant(rng.standard_normal((4, 5)))
        target = constant(rng.standard_normal((4, 3)))

        def loss_of(w, index):
            def f(t):
                mats = list(weights)
                mats[index] = t
                h = inp
                for m in mats[:-1]:
                    h = gelu(matmul(h, m))
                return mse(matmul(h, mats[-1]), target)
            return f

        for i, w in enumerate(weights):
            assert grad_check(loss_of(w, i), w) <= 1e-4


# --------------------------------------------------------------------------
# Per-primitive gradient soundness (randomized shapes, rank <= 3, extents <= 8)
# --------------------------------------------------------------------------

def _scalarize(y):
    return tensor_sum(y)


PRIMITIVE_CASES = {
    "matmul": lambda x: _scalarize(matmul(x, constant(_FIXED["mat_b"]))),
    "linear": lambda x: _scalarize(mul(linear(x, constant(_FIXED["mat_b"]), constant(_FIXED["vec"])),
                                       constant(_FIXED["like_out"]))),
    "add": lambda x: _scalarize(add(x, constant(_FIXED["like"]))),
    "mul": lambda x: _scalarize(mul(x, constant(_FIXED["like"]))),
    "gelu": lambda x: _scalarize(gelu(x)),
    "layer_norm": lambda x: _scalarize(mul(layer_norm(x), constant(_FIXED["like"]))),
    "layer_norm_affine": lambda x: _scalarize(mul(
        layer_norm_affine(x, constant(_FIXED["gain"]), constant(_FIXED["bias"])),
        constant(_FIXED["like"]))),
    "softmax": lambda x: _scalarize(mul(softmax(x), constant(_FIXED["like"]))),
    "embedding_lookup": lambda x: _scalarize(embedding_lookup(x, _FIXED["ids"])),
    "concat": lambda x: _scalarize(concat([x, constant(_FIXED["like"])], axis=0)),
    "slice": lambda x: _scalarize(narrow(x, 0, 1, 2)),
    "sum": lambda x: tensor_sum(x),
    "mse": lambda x: mse(x, constant(_FIXED["like"])),
    "bce_with_logits": lambda x: bce_with_logits(x, _FIXED["labels"]),
    "attention": lambda x: _scalarize(mul(_attention_of_blocks(x), constant(_FIXED["like_attn"]))),
    "transformer_block": lambda x: _scalarize(mul(
        transformer_block(x, *_FIXED["block"]), constant(_FIXED["like_block"]))),
    "stacked_linear": lambda x: _scalarize(mul(
        concat(stacked_linear(x, constant(_FIXED["stack_w"]), constant(_FIXED["stack_b"])), 0),
        constant(_FIXED["like_stack"]))),
}

_FIXED: dict = {}

# attention cases: x shape (batch * (Tq + 2 * Tk), heads * d_head)
# -> (heads, batch, causal, Tq, Tk)
_ATTENTION_CASES = {
    (15, 6): (2, 1, True, 5, 5),  # one causal sequence of 5 tokens
    (18, 4): (2, 3, False, 2, 2),  # three bidirectional 2-token sequences
    (18, 6): (3, 2, True, 3, 3),  # two causal 3-token sequences
    (24, 6): (3, 2, True, 2, 5),  # two sequences: 2 queries after 3 cached positions
}


def _block_shapes(d, width):
    """Shapes of a block's 12 parameters, in transformer_block's order."""
    return [(d,), (d,), (3, d, d), (3, d), (d, d), (d,),
            (d,), (d,), (d, width), (width,), (width, d), (d,)]


# transformer_block cases: x shape (batch * T, d) -> (heads, batch, causal, last_only)
_BLOCK_CASES = {
    (4, 4): (2, 1, True, False),  # one causal sequence
    (6, 4): (2, 3, False, True),  # three 2-token pairs, last rows only
    (6, 6): (3, 2, True, True),  # two causal 3-token sequences, last rows only
}


def _attention_of_blocks(x):
    # q, k and v are the three row blocks of x, so one grad_check covers all three.
    heads, batch, causal, tq, tk = _FIXED["attn"]
    nq, nk = batch * tq, batch * tk
    mask = np.triu(np.full((tq, tk), MASK_VALUE), tk - tq + 1) if causal else None
    return attention(narrow(x, 0, 0, nq), narrow(x, 0, nq, nk), narrow(x, 0, nq + nk, nk),
                     heads, mask, batch)


def _shapes_for(name: str):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name in ("matmul", "linear", "stacked_linear"):
        return [(int(rng.integers(1, 8)), int(rng.integers(1, 8))) for _ in range(3)]
    if name == "attention":
        return list(_ATTENTION_CASES)
    if name == "transformer_block":
        return list(_BLOCK_CASES)
    if name == "embedding_lookup":
        return [(int(rng.integers(2, 8)), int(rng.integers(1, 8))) for _ in range(3)]
    if name == "slice":
        return [(4, int(rng.integers(1, 8))) for _ in range(3)]
    shapes = []
    for _ in range(3):
        rank = int(rng.integers(1, 4))
        shapes.append(tuple(int(rng.integers(1, 9)) for _ in range(rank)))
    return shapes


# The oracles' taped primitives the fused ones are checked against.
ORACLE_PRIMITIVES = ["matmul", "layer_norm", "softmax", "attention", "stacked_linear"]


@pytest.mark.parametrize("name", sorted(primitive_forward_set()) + ORACLE_PRIMITIVES)
def test_primitive_gradient_soundness(name):
    if name not in PRIMITIVE_CASES:
        pytest.fail(f"no gradient-soundness case for registered primitive {name!r}")
    rng = np.random.default_rng(zlib.crc32(("grad" + name).encode()))
    with precision("float64"):
        for shape in _shapes_for(name):
            x = parameter(rng.standard_normal(shape))
            _FIXED["like"] = rng.standard_normal(shape)
            if name in ("matmul", "linear"):
                _FIXED["mat_b"] = rng.standard_normal((shape[-1], 3))
                _FIXED["vec"] = rng.standard_normal(3)
                _FIXED["like_out"] = rng.standard_normal((shape[0], 3))
            if name == "layer_norm_affine":
                _FIXED["gain"] = rng.standard_normal(shape[-1])
                _FIXED["bias"] = rng.standard_normal(shape[-1])
            if name == "embedding_lookup":
                _FIXED["ids"] = rng.integers(0, shape[0], size=5)
            if name == "bce_with_logits":
                _FIXED["labels"] = rng.integers(0, 2, size=shape).astype(np.float64)
            if name == "attention":
                _FIXED["attn"] = _ATTENTION_CASES[shape]
                heads, batch, _, tq, _ = _FIXED["attn"]
                _FIXED["like_attn"] = rng.standard_normal((batch * tq, shape[1]))
            if name == "transformer_block":
                heads, batch, causal, last_only = _BLOCK_CASES[shape]
                seq, d = shape[0] // batch, shape[1]
                mask = _causal_mask(seq, np.float64) if causal else None
                params = [constant(rng.standard_normal(s)) for s in _block_shapes(d, 2 * d)]
                _FIXED["block"] = (params, heads, mask, batch, None, last_only)
                _FIXED["like_block"] = rng.standard_normal((batch if last_only else shape[0], d))
            if name == "stacked_linear":
                _FIXED["stack_w"] = rng.standard_normal((3, shape[1], 4))
                _FIXED["stack_b"] = rng.standard_normal((3, 4))
                _FIXED["like_stack"] = rng.standard_normal((3 * shape[0], 4))
            assert grad_check(PRIMITIVE_CASES[name], x) <= 1e-4, f"{name} @ {shape}"


# The fused primitives, operand by operand: (primitive, the composition it
# replaces, operand shapes).  The compositions' taped product and
# normalization are the oracles'.
FUSED = {
    "linear": (linear, lambda x, w, b: add(matmul(x, w), b), [(5, 4), (4, 3), (3,)]),
    "layer_norm_affine": (layer_norm_affine, lambda x, g, b: add(mul(layer_norm(x), g), b),
                          [(2, 3, 6), (6,), (6,)]),
}


@pytest.mark.parametrize("name,operand", [(n, i) for n in sorted(FUSED) for i in range(3)])
def test_fused_primitive_gradients_match_finite_differences_for_every_operand(name, operand):
    fused, _, shapes = FUSED[name]
    rng = np.random.default_rng(zlib.crc32(f"{name}{operand}".encode()))
    with precision("float64"):
        values = [rng.standard_normal(shape) for shape in shapes]
        weights = constant(rng.standard_normal(shapes[0][:-1] + shapes[1][-1:]))

        def f(t):
            args = [constant(v) for v in values]
            args[operand] = t
            return tensor_sum(mul(fused(*args), weights))

        assert grad_check(f, parameter(values[operand])) <= 1e-4


def _forward_and_gradients(build, values, weights):
    params = [parameter(v) for v in values]
    with record() as tape:
        out = build(*params)
        loss = tensor_sum(mul(out, constant(weights)))
    tape.backward(loss)
    return [out.data] + [p.grad for p in params]


@pytest.mark.parametrize("name,shapes", [
    ("linear", [(7, 64), (64, 256), (256,)]),
    ("linear", [(1, 16), (16, 64), (64,)]),
    ("layer_norm_affine", [(7, 64), (64,), (64,)]),
    ("layer_norm_affine", [(2, 3, 64), (64,), (64,)]),
])
def test_fused_primitive_is_bitwise_the_composition_it_replaces(name, shapes):
    # float32, as the model runs: the output and every operand gradient.
    fused, composed, _ = FUSED[name]
    rng = np.random.default_rng(zlib.crc32(f"bitwise{name}{shapes}".encode()))
    values = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    weights = rng.standard_normal(shapes[0][:-1] + shapes[1][-1:]).astype(np.float32)
    got = _forward_and_gradients(fused, values, weights)
    want = _forward_and_gradients(composed, values, weights)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# The stacked q/k/v projection against the three linear calls it replaces.

def _stacked_case(rows, dtype, seed):
    # x, the stacked weight and bias, and a weight for each output's loss term
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(dtype)
            for shape in ((rows, 8), (3, 8, 5), (3, 5), (3, rows, 5))]


def _stacked_loss(outs, weights):
    # q, k and v each weigh in, so every one gets a gradient.
    loss = tensor_sum(mul(outs[0], constant(weights[0])))
    for out, weight in zip(outs[1:], weights[1:]):
        loss = add(loss, tensor_sum(mul(out, constant(weight))))
    return loss


@pytest.mark.parametrize("operand", range(3))
def test_stacked_linear_gradients_match_finite_differences_for_every_operand(operand):
    x, w, b, weights = _stacked_case(3, np.float64, 7 + operand)
    with precision("float64"):
        def f(t):
            args = [constant(x), constant(w), constant(b)]
            args[operand] = t
            return _stacked_loss(stacked_linear(*args), weights)

        assert grad_check(f, parameter([x, w, b][operand])) <= 1e-4


@pytest.mark.parametrize("rows", [1, 2, 4, 49, 130, 192])
def test_stacked_linear_is_bitwise_three_linear_calls(rows):
    # float32 and d_model 64, as the model runs: each output, the gradient of
    # x (summed over v, k, q, the order three tape entries replay in) and
    # those of the stacked weight and bias.
    rng = np.random.default_rng(rows)
    x, w, b, weights = (rng.standard_normal(shape).astype(np.float32)
                        for shape in ((rows, 64), (3, 64, 64), (3, 64), (3, rows, 64)))
    xs, ws, bs = parameter(x), parameter(w), parameter(b)
    with record() as tape:
        stacked = stacked_linear(xs, ws, bs)
        loss = _stacked_loss(stacked, weights)
    tape.backward(loss)

    xl = parameter(x)
    wl = [parameter(w[i].copy()) for i in range(3)]
    bl = [parameter(b[i].copy()) for i in range(3)]
    with record() as tape:
        separate = [linear(xl, wl[i], bl[i]) for i in range(3)]
        loss_l = _stacked_loss(separate, weights)
    tape.backward(loss_l)

    assert loss.data.tobytes() == loss_l.data.tobytes()
    for i in range(3):
        assert stacked[i].data.tobytes() == separate[i].data.tobytes()
        assert ws.grad[i].tobytes() == wl[i].grad.tobytes()
        assert bs.grad[i].tobytes() == bl[i].grad.tobytes()
    assert xs.grad.dtype == np.float32 and xs.grad.tobytes() == xl.grad.tobytes()


def test_stacked_linear_records_one_entry_and_no_gradient_buffer_when_not_recording():
    x, w, b, weights = _stacked_case(4, np.float32, 3)
    with record() as tape:
        outs = stacked_linear(parameter(x), constant(w), constant(b))
    assert len(tape) == 1
    assert all(np.shares_memory(out.grad, outs[0].grad.base) for out in outs)
    outs = stacked_linear(parameter(x), constant(w), constant(b))
    assert [out.grad for out in outs] == [None] * 3


def test_zero_grads_zeroes_in_place_and_leaves_none_as_none():
    a, b = parameter(np.ones(3)), parameter(np.ones(2))
    a.grad = np.full(3, 2.0)
    held = a.grad
    zero_grads([a, b])
    assert a.grad is held and not held.any()
    assert b.grad is None


def test_fused_primitives_reject_operands_of_the_wrong_shape():
    x = constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="linear"):
        linear(x, constant(np.zeros((4, 2))), constant(np.zeros(3)))
    with pytest.raises(ShapeError, match="linear"):
        linear(x, constant(np.zeros((5, 2))), constant(np.zeros(2)))
    with pytest.raises(ShapeError, match="layer_norm_affine"):
        layer_norm_affine(x, constant(np.ones(3)), constant(np.zeros(4)))
    with pytest.raises(ShapeError, match="stacked_linear"):
        stacked_linear(x, constant(np.zeros((3, 5, 2))), constant(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="stacked_linear"):
        stacked_linear(x, constant(np.zeros((3, 4, 2))), constant(np.zeros(2)))


# Each registered primitive with operand shapes it accepts; a Tensor goes in
# every position listed, the other arguments are fixed.
RAW_OPERAND_CASES = {
    "add": (add, [(3, 4), (3, 4)]),
    "mul": (mul, [(3, 4), (3, 4)]),
    "gelu": (gelu, [(3, 4)]),
    "embedding_lookup": (lambda t: embedding_lookup(t, [0, 2]), [(3, 4)]),
    "concat": (lambda a, b: concat([a, b]), [(3, 4), (2, 4)]),
    "slice": (lambda x: narrow(x, 0, 1, 2), [(3, 4)]),
    "sum": (tensor_sum, [(3, 4)]),
    "mse": (mse, [(3, 4), (3, 4)]),
    "bce_with_logits": (lambda z: bce_with_logits(z, np.ones((3, 4))), [(3, 4)]),
    "attention": (lambda q, k, v: attention(q, k, v, 2, np.zeros((3, 3), np.float32)),
                  [(3, 4)] * 3),
    "linear": (linear, [(3, 4), (4, 2), (2,)]),
    "stacked_linear": (stacked_linear, [(3, 4), (3, 4, 2), (3, 2)]),
    "layer_norm_affine": (layer_norm_affine, [(3, 4), (4,), (4,)]),
    "transformer_block": (lambda x, *params: transformer_block(x, params, 2),
                          [(3, 4)] + _block_shapes(4, 8)),
}


# The registry, and the oracles' taped attention and stacked product, which
# keep the cases they had as primitives.
@pytest.mark.parametrize("name", sorted(primitive_forward_set()) + ["attention", "stacked_linear"])
def test_primitives_reject_a_raw_array_or_number_operand(name):
    # Nothing casts an operand: a raw array or number in a Tensor's place
    # raises at the call, also next to operands that need gradients.  (An
    # ndarray's .data is a memoryview, so which error depends on the op.)
    fn, shapes = RAW_OPERAND_CASES[name]
    values = [np.ones(shape, dtype=np.float32) for shape in shapes]
    fn(*[parameter(v) for v in values])
    for i, value in enumerate(values):
        for raw in (value, 0.5):
            args = [parameter(v) for v in values]
            args[i] = raw
            with pytest.raises((AttributeError, TypeError, NotImplementedError)):
                fn(*args)


def test_registry_contains_contract_primitives():
    # Exactly the primitives the model and its losses call: one nothing calls
    # cannot come back unnoticed.
    assert set(primitive_forward_set()) == {
        "add", "mul", "gelu", "embedding_lookup", "concat", "slice", "sum", "mse",
        "bce_with_logits", "linear", "layer_norm_affine", "transformer_block"}


# --------------------------------------------------------------------------
# The fused transformer block against the composition it replaced
# --------------------------------------------------------------------------

def _packed_segments(dtype):
    """Segments of three sequences of 4, 2 and 3 rows, packed as the
    conditioning stacks pack them (every text row, then every history row),
    so a sequence's rows are not adjacent and two sequences are padded."""
    return Packing([2, 1, 3], [2, 1, 0]).mask(dtype)


@pytest.mark.parametrize("batch,filled,last_only,masked,dtype", [
    (batch, filled, last_only, masked, dtype)
    for batch, filled in [(1, None), (1, 0), (1, 5), (3, None)]
    for last_only in (False, True) for masked in (False, True)
    for dtype in (np.float32, np.float64)
] + [(1, None, False, "packed", dtype) for dtype in (np.float32, np.float64)])
def test_transformer_block_is_bitwise_the_composition_it_replaces(batch, filled, last_only,
                                                                  masked, dtype):
    # The output, the gradients of x and of all 12 parameters, and with a
    # store view of `filled` filled rows the store, against the oracles'
    # composition of taped primitives; "packed" attends in segments.
    rng = np.random.default_rng(zlib.crc32(f"{batch}{filled}{last_only}{masked}".encode()))
    seq, d, heads = 4, 8, 2
    cached = filled or 0
    rows = 9 if masked == "packed" else batch * seq
    x = rng.standard_normal((rows, d)).astype(dtype)
    params = [rng.standard_normal(shape).astype(dtype) for shape in _block_shapes(d, 4 * d)]
    if masked == "packed":
        mask = _packed_segments(dtype)
    else:
        mask = _causal_mask(seq, dtype, cached) if masked else None
    store = None if filled is None else rng.standard_normal((2, cached + seq, d)).astype(dtype)
    weights = rng.standard_normal((batch if last_only else rows, d)).astype(dtype)
    results = []
    for block in (transformer_block, oracles.transformer_block):
        xs = parameter(x, dtype=dtype)
        ps = [parameter(p, dtype=dtype) for p in params]
        past = None if store is None else store.copy()
        with record() as tape:
            out = block(xs, ps, heads, mask, batch, past, last_only)
            loss = tensor_sum(mul(out, constant(weights, dtype=dtype)))
        tape.backward(loss)
        results.append([out.data, xs.grad, *[p.grad for p in ps]]
                       + ([] if past is None else [past]))
    assert len(results[0]) == 14 + (filled is not None)
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_transformer_block_records_one_entry_and_pushes_nothing_outside_a_record(monkeypatch):
    import flowtts.autodiff as autodiff

    pushed = []
    real_push = autodiff.push_op
    monkeypatch.setattr(autodiff, "push_op", lambda out, adjoint: (pushed.append(out),
                                                                   real_push(out, adjoint)))
    rng = np.random.default_rng(9)
    x = parameter(rng.standard_normal((6, 8)).astype(np.float32))
    params = [parameter(rng.standard_normal(s).astype(np.float32)) for s in _block_shapes(8, 16)]
    out = transformer_block(x, params, 2, None, 3)
    assert out.requires_grad and pushed == []
    with record() as tape:
        out = transformer_block(x, params, 2, None, 3)
    assert pushed == [out] and len(tape) == 1


def test_a_primitive_call_looks_up_one_constants_table_forward_and_back(monkeypatch):
    import flowtts.autodiff as autodiff

    lookups = []
    real_constants = autodiff._constants
    monkeypatch.setattr(autodiff, "_constants", lambda *key: (lookups.append(key),
                                                              real_constants(*key))[1])
    rng = np.random.default_rng(9)
    x = parameter(rng.standard_normal((6, 8)).astype(np.float32))
    params = [parameter(rng.standard_normal(s).astype(np.float32)) for s in _block_shapes(8, 16)]
    gain, bias = params[:2]
    calls = {"transformer_block": lambda: transformer_block(x, params, 2, None, 3),
             "gelu": lambda: gelu(x), "layer_norm_affine": lambda: layer_norm_affine(x, gain, bias)}
    for name, call in calls.items():
        lookups.clear()
        with record() as tape:
            out = tensor_sum(call())
        tape.backward(out)
        assert len(lookups) == 1, name


def test_transformer_block_shape_errors():
    params = [constant(np.ones(s)) for s in _block_shapes(8, 16)]
    x = constant(np.ones((6, 8)))
    with pytest.raises(ShapeError, match="transformer_block"):
        transformer_block(x, params, 3)  # 8 columns do not split into 3 heads
    with pytest.raises(ShapeError, match="transformer_block"):
        transformer_block(x, params, 2, batch=4)  # 6 rows do not split into 4 sequences
    with pytest.raises(ShapeError, match="transformer_block"):
        transformer_block(x, params, 2, np.zeros((6, 6)), batch=2)  # mask must be (3, 3)
    with pytest.raises(ShapeError, match="transformer_block"):
        transformer_block(x, params, 2, past=np.zeros((2, 4, 8)))  # fewer key rows than rows
    with pytest.raises(ShapeError, match="batch"):
        transformer_block(x, params, 2, batch=2, past=np.zeros((2, 6, 8)))
    with pytest.raises(ShapeError, match="transformer_block"):
        transformer_block(x, params, 2, np.zeros((6, 6)), past=np.zeros((2, 9, 8)))  # (6, 9)


def _segment_block_case(dtype, seed):
    # Parameters of std 0.5 keep the MLP's inputs inside GELU's clip.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((9, 8)).astype(dtype)
    params = [(0.5 * rng.standard_normal(shape)).astype(dtype)
              for shape in _block_shapes(8, 16)]
    weights = rng.standard_normal((9, 8)).astype(dtype)
    return x, params, weights


def _block_and_gradients(x, params, weights, mask):
    xs, ps = parameter(x), [parameter(p) for p in params]
    with record() as tape:
        out = transformer_block(xs, ps, 2, mask)
        loss = tensor_sum(mul(out, constant(weights)))
    tape.backward(loss)
    return [out.data, xs.grad, *[p.grad for p in ps]]


def test_transformer_block_in_segments_matches_finite_differences_for_every_operand():
    # x and all 12 parameters.  The key bias shifts every score of a row
    # alike, which its softmax ignores: its gradient is 0 up to rounding,
    # where a relative check means nothing, so the stacked bias is checked
    # through its query and value rows.
    with precision("float64"):
        x, params, weights = _segment_block_case(np.float64, 71)
        segments = _packed_segments(np.float64)
        values = [x, *params]
        key_bias = constant(params[3][1:2])
        for operand, value in enumerate(values):
            def f(t, operand=operand):
                args = [constant(v) for v in values]
                args[operand] = t
                if operand == 4:
                    args[4] = concat([narrow(t, 0, 0, 1), key_bias, narrow(t, 0, 1, 1)])
                return tensor_sum(mul(transformer_block(args[0], args[1:], 2, segments),
                                      constant(weights)))

            value = value[[0, 2]] if operand == 4 else value
            assert grad_check(f, parameter(value)) <= 1e-4, operand
        grads = _block_and_gradients(x, params, weights, segments)
        assert np.max(np.abs(grads[5][1])) <= 1e-12 * np.max(np.abs(grads[5]))


def test_padding_cells_get_no_gradient_and_change_no_bit():
    # The grid's gradient at every padding cell is an exact zero: no output
    # reads a padding query and the causal mask hides every padding key from
    # every real query.  So where the padding cells point changes no output
    # or gradient bit.
    x, params, weights = _segment_block_case(np.float32, 72)
    segments = _packed_segments(np.float32)
    padding = np.setdiff1d(np.arange(segments.grid.size), segments.cells)
    assert padding.size == 3  # the sequences of 2 and 3 rows are padded to 4
    q, k, v = (parameter(np.random.default_rng(i).standard_normal((12, 8)).astype(np.float32))
               for i in range(3))
    with record() as tape:
        out = attention(q, k, v, 2, segments.mask, 3)
        loss = tensor_sum(mul(oracles.add_at_embedding_lookup(out, segments.cells),
                              constant(weights)))
    tape.backward(loss)
    for t in (q, k, v):
        assert not t.grad[padding].any() and t.grad[segments.cells].any()
    moved = Segments(segments.grid.copy(), segments.cells, segments.mask)
    moved.grid[padding] = 8  # the last packed row, in place of row 0
    for got, want in zip(_block_and_gradients(x, params, weights, moved),
                         _block_and_gradients(x, params, weights, segments)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_no_padding_cell_reaches_a_real_row_wherever_it_points(dtype):
    # Padding never reaches a real row directly, whatever form the mask
    # takes: pointing the padding cells of the grid at any packed rows, each
    # cell at every row in turn and at distinct rows, keeps every bit of the
    # block's output and of the gradients of x and of all 12 parameters.
    with precision(dtype):
        x, params, weights = _segment_block_case(np.dtype(dtype), 74)
        segments = _packed_segments(np.dtype(dtype))
        rows = segments.cells.size
        padding = np.setdiff1d(np.arange(segments.grid.size), segments.cells)
        rng = np.random.default_rng(75)
        targets = [np.full(padding.size, row) for row in range(rows)]
        targets += [rng.permutation(rows)[:padding.size] for _ in range(3)]
        want = _block_and_gradients(x, params, weights, segments)
        for target in targets:
            grid = segments.grid.copy()
            grid[padding] = target
            moved = Segments(grid, segments.cells, segments.mask)
            for got, expected in zip(_block_and_gradients(x, params, weights, moved), want):
                assert got.dtype == np.dtype(dtype) and got.tobytes() == expected.tobytes()


def test_segments_take_batch_one_no_store_and_every_row():
    x, params, _ = _segment_block_case(np.float32, 73)
    x, params = constant(x), [constant(p) for p in params]
    segments = _packed_segments(np.float32)
    with pytest.raises(ShapeError, match="segments"):
        transformer_block(x, params, 2, segments, last_only=True)
    with pytest.raises(ShapeError, match="segments"):
        transformer_block(x, params, 2, segments, past=np.zeros((2, 9, 8), np.float32))
    with pytest.raises(ShapeError, match="segments"):
        transformer_block(constant(np.zeros((18, 8), np.float32)), params, 2, segments, 2)
    with pytest.raises(ShapeError, match="segments"):
        transformer_block(narrow(x, 0, 0, 8), params, 2, segments)  # 8 rows for 9 cells
    with pytest.raises(ShapeError, match="one sequence"):
        Packing([2, 1], [1, 1], past_rows=3).mask(np.float32)


# --------------------------------------------------------------------------
# The oracles' attention against the per-head composition it replaced
# --------------------------------------------------------------------------

def _transpose(x):
    # The rank-2 transpose the per-head composition used, built on push_op.
    out = Tensor(x.data.T.copy(), requires_grad=x.requires_grad, dtype=x.data.dtype)

    def adjoint(g):
        _accumulate(x, g.T)

    push_op(out, adjoint)
    return out


def _reference_attention(q, k, v, heads, mask, batch):
    """Per sequence and head: narrow, k^T, scale, mask, softmax, @ v; then
    concat.  The composition the fused primitive replaced."""
    rows, d = q.data.shape
    seq, dh, dtype = rows // batch, d // heads, q.data.dtype
    sequences = []
    for b in range(batch):
        qb, kb, vb = (narrow(t, 0, b * seq, seq) for t in (q, k, v))
        outputs = []
        for h in range(heads):
            qh, kh, vh = (narrow(t, 1, h * dh, dh) for t in (qb, kb, vb))
            scores = mul(matmul(qh, _transpose(kh)), constant(1.0 / math.sqrt(dh), dtype=dtype))
            if mask is not None:
                scores = add(scores, constant(mask, dtype=dtype))
            outputs.append(matmul(softmax(scores), vh))
        sequences.append(concat(outputs, axis=1))
    return concat(sequences, axis=0)


# (heads, batch, T, causal) at the default ModelConfig width (d_model 64, 4 heads):
# a semantic/residual stack over 23 rows, and a velocity-net call of 9 pairs.
_DEFAULT_ATTENTION_SHAPES = [(4, 1, 23, True), (4, 9, 2, False)]


def _causal_mask(queries, dtype, past=0):
    """Additive (queries, past + queries) mask hiding from each query the
    keys after its own position, for queries that follow ``past`` keys."""
    return np.triu(np.full((queries, past + queries), MASK_VALUE, dtype=dtype), past + 1)


@pytest.mark.parametrize("heads,batch,seq,causal", _DEFAULT_ATTENTION_SHAPES)
def test_attention_forward_is_bitwise_the_per_head_composition(heads, batch, seq, causal):
    rng = np.random.default_rng(31)
    q, k, v = (constant(rng.standard_normal((batch * seq, 64)).astype(np.float32))
               for _ in range(3))
    mask = _causal_mask(seq, np.float32) if causal else None
    fused = attention(q, k, v, heads, mask, batch).data
    assert fused.dtype == np.float32
    np.testing.assert_array_equal(fused, _reference_attention(q, k, v, heads, mask, batch).data)


@pytest.mark.parametrize("heads,batch,seq,causal", _DEFAULT_ATTENTION_SHAPES)
def test_attention_gradients_match_the_per_head_composition(heads, batch, seq, causal):
    rng = np.random.default_rng(32)
    with precision("float64"):
        arrays = [rng.standard_normal((batch * seq, 64)) for _ in range(3)]
        weight = constant(rng.standard_normal((batch * seq, 64)))
        mask = _causal_mask(seq, np.float64) if causal else None
        grads = []
        for fn in (attention, _reference_attention):
            q, k, v = (parameter(a.copy()) for a in arrays)
            with record() as tape:
                loss = tensor_sum(mul(fn(q, k, v, heads, mask, batch), weight))
            tape.backward(loss)
            grads.append([q.grad, k.grad, v.grad])
    for fused, reference in zip(*grads):
        assert np.max(np.abs(fused - reference)) <= 1e-6 * np.max(np.abs(reference))


def test_attention_shape_errors():
    x = constant(np.ones((6, 8)))
    with pytest.raises(ShapeError, match="attention"):
        attention(x, x, constant(np.ones((6, 4))), 2)
    with pytest.raises(ShapeError, match="attention"):
        attention(x, x, x, 3)  # 8 columns do not split into 3 heads
    with pytest.raises(ShapeError, match="attention"):
        attention(x, x, x, 2, batch=4)  # 6 rows do not split into 4 sequences
    with pytest.raises(ShapeError, match="attention"):
        attention(x, x, x, 2, np.zeros((6, 6)), batch=2)  # mask must be (3, 3)
    keys = constant(np.ones((4, 8)))
    with pytest.raises(ShapeError, match="attention"):
        attention(x, keys, keys, 2)  # fewer keys than queries
    with pytest.raises(ShapeError, match="attention"):
        attention(narrow(x, 0, 0, 2), x, x, 2, np.zeros((2, 2)))  # mask must be (2, 6)


@pytest.mark.parametrize("queries", [1, 3, 23])
def test_attention_with_cached_keys_matches_the_last_rows_of_the_full_call(queries):
    # A decode step's queries are the last rows of a causal sequence whose
    # earlier keys and values are cached: its output must be the last rows of
    # the full causal call.  With every row a query (the training shape) the
    # call is the full call, bitwise.
    rng = np.random.default_rng(33)
    seq = 23
    q, k, v = (constant(rng.standard_normal((seq, 64)).astype(np.float32)) for _ in range(3))
    full = attention(q, k, v, 4, _causal_mask(seq, np.float32)).data
    past = seq - queries
    tail = attention(narrow(q, 0, past, queries), k, v, 4,
                     _causal_mask(queries, np.float32, past)).data
    if queries == seq:
        np.testing.assert_array_equal(tail, full)
    np.testing.assert_allclose(tail, full[past:], rtol=0, atol=1e-6)


@pytest.mark.parametrize("axis,start,length,step", [
    (0, 1, 4, 2),  # the last row of each of four 2-row sequences
    (0, 3, 2, 4),  # the last row of each of two 4-row sequences
    (1, 0, 3, 3),  # columns
    (0, 5, 1, 9),  # one row: the step reaches past the end
])
def test_strided_slice_is_a_view_with_sound_gradients(axis, start, length, step):
    rng = np.random.default_rng(start * 7 + step)
    with precision("float64"):
        x = parameter(rng.standard_normal((8, 7)))
        y = narrow(x, axis, start, length, step)
        assert np.shares_memory(y.data, x.data)
        picked = start + step * np.arange(length)
        np.testing.assert_array_equal(y.data, np.take(x.data, picked, axis=axis))
        like = constant(rng.standard_normal(y.data.shape))
        assert grad_check(lambda t: tensor_sum(mul(narrow(t, axis, start, length, step), like)),
                          x) <= 1e-6


def test_a_slice_past_the_extent_or_with_a_step_below_one_is_rejected():
    x = constant(np.ones((8, 3)))
    assert narrow(x, 0, 1, 4, 2).data.shape == (4, 3)  # rows 1, 3, 5, 7
    for args in ((0, 1, 5, 2), (0, 0, 2, 0), (0, -1, 1, 1), (1, 0, 2, 3)):
        with pytest.raises(ShapeError, match="slice"):
            narrow(x, *args)


# --------------------------------------------------------------------------
# Thread isolation of the tape and the default dtype
# --------------------------------------------------------------------------

def _run_in_thread(target):
    errors = []

    def body():
        try:
            target()
        except Exception as exc:  # reported by the main thread's assertion
            errors.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    return thread, errors


def test_recording_in_one_thread_ignores_ops_of_another():
    state = init_model_state(ModelConfig(), seed=0)
    a_recording, b_done = threading.Event(), threading.Event()

    def thread_b():
        assert a_recording.wait(timeout=30)
        h = semantic_hiddens(state, [1, 2, 3], constant(np.zeros((0, 64), dtype=np.float32)),
                             Packing([3], [0]))
        assert h.requires_grad
        b_done.set()

    thread, errors = _run_in_thread(thread_b)
    with record() as tape:
        a_recording.set()
        assert b_done.wait(timeout=60)
        assert len(tape) == 0
    thread.join(timeout=30)
    assert not thread.is_alive() and not errors


def test_precision_block_in_one_thread_leaves_another_at_float32():
    a_in_block, b_done = threading.Event(), threading.Event()
    seen = {}

    def thread_b():
        assert a_in_block.wait(timeout=30)
        seen["active"] = active_dtype()
        seen["tensor"] = constant([1.0]).data.dtype
        b_done.set()

    thread, errors = _run_in_thread(thread_b)
    with precision("float64"):
        a_in_block.set()
        assert b_done.wait(timeout=30)
        assert active_dtype() == np.float64
    thread.join(timeout=30)
    assert not thread.is_alive() and not errors
    assert seen == {"active": np.float32, "tensor": np.float32}
    assert active_dtype() == np.float32


# --------------------------------------------------------------------------
# RNG streams
# --------------------------------------------------------------------------

def test_named_streams_are_reproducible_and_independent():
    a1 = rng_stream(42, "eps").standard_normal(8)
    a2 = rng_stream(42, "eps").standard_normal(8)
    b = rng_stream(42, "t").standard_normal(8)
    c = rng_stream(43, "eps").standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
