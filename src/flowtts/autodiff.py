"""Dense-tensor substrate with tape-based reverse-mode differentiation.

Everything downstream (the generator, the flow-matching decoder, training)
is built on the primitives in this module.  Arrays are plain numpy; a
``Tape`` records primitive applications during a forward pass and replays
their adjoints in exact reverse order.  Gradients accumulate additively at
fan-out points.

Precision is float32 by default; a float64 mode exists for finite-difference
gradient checks, where float32 tolerances are meaningless.

The active tape and the default dtype are context variables, so a recording
or a ``precision`` block in one thread is invisible to every other thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "RecordError",
    "record",
    "push_op",
    "constant",
    "parameter",
    "zero_grads",
    "precision",
    "active_dtype",
    "grad_check",
    "rng_stream",
    "RngHub",
    "primitive_forward_set",
    "linear",
    "stacked_linear",
    "add",
    "mul",
    "gelu",
    "layer_norm_affine",
    "embedding_lookup",
    "concat",
    "narrow",
    "attention",
    "tensor_sum",
    "mse",
    "bce_with_logits",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested primitive."""


class RecordError(RuntimeError):
    """Invalid use of a computation record (tape)."""


_DEFAULT_DTYPE: contextvars.ContextVar[np.dtype] = contextvars.ContextVar(
    "flowtts_default_dtype", default=np.dtype(np.float32))


def active_dtype() -> np.dtype:
    """Dtype used for tensors created without an explicit dtype."""
    return _DEFAULT_DTYPE.get()


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ("float32" or "float64") of the
    calling thread."""
    token = _DEFAULT_DTYPE.set(np.dtype(dtype))
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


class Tensor:
    """A dense array plus an accumulated gradient slot.

    The shape is fixed at creation.  Ops never mutate their inputs, so
    tensors are safe to share read-only across concurrent evaluations.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE.get())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.data.shape}, expected a scalar")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _from_array(arr: np.ndarray, requires_grad: bool) -> Tensor:
    # Internal: wrap an op result without re-casting to the default dtype.
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = requires_grad
    return out


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def zero_grads(tensors) -> None:
    """Zero the gradients of ``tensors`` in place; a tensor with none keeps
    none.  In place, so a gradient that is a view into a shared buffer (a
    ``ModelState`` parameter's) stays that view."""
    for t in tensors:
        if t.grad is not None:
            t.grad.fill(0)


# --------------------------------------------------------------------------
# Recording
# --------------------------------------------------------------------------

_ACTIVE_TAPE: "contextvars.ContextVar[Tape | None]" = contextvars.ContextVar(
    "flowtts_active_tape", default=None)


class Tape:
    """Ordered log of primitive applications for one forward pass.

    ``backward`` replays the registered adjoints in exact reverse order of
    recording and may run at most once per record.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad``, in place where it already
        exists, for every tensor on the tape."""
        if self._consumed:
            raise RecordError("backward was already run on this record; re-record the forward pass")
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for out, adjoint in reversed(self._entries):
            if out.grad is None:
                continue
            adjoint(out.grad)


@contextlib.contextmanager
def record():
    """Activate a fresh tape for the calling thread; ops it applies inside
    are recorded on it."""
    if _ACTIVE_TAPE.get() is not None:
        raise RecordError("nested recording is not supported; one record per forward pass")
    tape = Tape()
    token = _ACTIVE_TAPE.set(tape)
    try:
        yield tape
    finally:
        _ACTIVE_TAPE.reset(token)


def push_op(out: Tensor, adjoint: Callable[[np.ndarray], None]) -> None:
    """Register the adjoint of a primitive application on the active tape.

    No-op when nothing is recording or the output does not need gradients,
    so the same ops serve inference without bookkeeping overhead.

    The adjoint must add into each input's ``.grad`` in place, through
    ``_accumulate``, never rebind it: a parameter's ``.grad`` is a view into
    its state's flat gradient buffer, which the optimizer reads, so a
    gradient assigned as a new array would be lost without an error.
    """
    if out.requires_grad:
        tape = _ACTIVE_TAPE.get()
        if tape is not None:
            tape._entries.append((out, adjoint))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Reduce a broadcast gradient back to the operand's shape.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


_SCALARS: dict[tuple[float, np.dtype], np.ndarray] = {}


def _scalar(value: float, dtype: np.dtype) -> np.ndarray:
    """``value`` as a read-only 0-d array of ``dtype``, made once per pair.

    numpy casts a Python number to the array's dtype before the arithmetic,
    so this gives the same bits while skipping that per-call conversion,
    which costs more than the arithmetic itself on the small rows used here.
    Only the primitives' own constants come here (row widths, eps, 1, 0.5,
    sqrt 2), so the table stays a few entries long.
    """
    key = (value, dtype)
    s = _SCALARS.get(key)
    if s is None:
        s = np.asarray(value, dtype=dtype)
        s.flags.writeable = False
        s = _SCALARS.setdefault(key, s)
    return s


# --------------------------------------------------------------------------
# Primitives
# --------------------------------------------------------------------------
# Operands are Tensors, taken as given: nothing is cast.  Their requires_grad
# flags are combined with `|`, which reads every one, so a raw array or
# number raises at the call rather than in the adjoint.

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b of (n, d_in) rows, with w (d_in, d_out) and b (d_out,).

    One tape entry in place of a taped product x @ w and an ``add`` of b; the
    output and every operand gradient are bitwise that composition's (the bias
    is added in place to the product, and the adjoint forms the same sums in
    the same order).
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear: shapes {xd.shape}, {wd.shape} and {bd.shape} "
                         f"are not (n, d_in), (d_in, d_out) and (d_out,)")
    data = xd @ wd
    np.add(data, bd, out=data)
    out = _from_array(data, x.requires_grad | w.requires_grad | b.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(b, _unbroadcast(g, bd.shape))
        if x.requires_grad:
            _accumulate(x, g @ wd.T)
        if w.requires_grad:
            _accumulate(w, xd.T @ g)

    push_op(out, adjoint)
    return out


def stacked_linear(x: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, ...]:
    """``linear(x, w[i], b[i])`` for each of s stacked affine maps, with
    w (s, d_in, d_out) and b (s, d_out): s (n, d_out) tensors from one product.

    One tape entry in place of s ``linear`` calls, with their outputs and
    operand gradients bitwise: the stacked product runs the same product per
    map, and the adjoint sums x's gradient over the maps last first, as s
    separate entries would replay.  While recording, the outputs' gradients
    are views into one (s, n, d_out) array, which the adjoint reads whole.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 3 or xd.shape[1] != wd.shape[1] \
            or bd.shape != (wd.shape[0], wd.shape[2]):
        raise ShapeError(f"stacked_linear: shapes {xd.shape}, {wd.shape} and {bd.shape} "
                         f"are not (n, d_in), (s, d_in, d_out) and (s, d_out)")
    data = np.matmul(xd, wd)
    np.add(data, bd[:, None, :], out=data)
    requires_grad = x.requires_grad | w.requires_grad | b.requires_grad
    outs = tuple(_from_array(part, requires_grad) for part in data)
    if not requires_grad or _ACTIVE_TAPE.get() is None:
        return outs
    stacked = _from_array(data, True)
    stacked.grad = np.zeros_like(data)
    for out, grad in zip(outs, stacked.grad):
        out.grad = grad

    def adjoint(g: np.ndarray) -> None:
        _accumulate(b, np.add.reduce(g, axis=1))
        if x.requires_grad:
            parts = np.matmul(g, wd.swapaxes(1, 2))
            gx = parts[-1]
            for part in parts[-2::-1]:
                gx += part
            _accumulate(x, gx)
        if w.requires_grad:
            _accumulate(w, np.matmul(xd.T, g))

    push_op(stacked, adjoint)
    return outs


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    out = _from_array(data, a.requires_grad | b.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    push_op(out, adjoint)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    out = _from_array(data, a.requires_grad | b.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    push_op(out, adjoint)
    return out


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# scipy.special's erf ufunc, bound at the first gelu call: importing scipy is
# most of the time `import flowtts` would take, and only the model needs it.
_erf = None


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    global _erf
    if _erf is None:
        from scipy.special import erf as _erf
    # erf is most of the forward time; it and the two passes after it run in
    # place, which gives the same bits as 0.5 * (1.0 + erf(x / sqrt(2))).
    dtype = x.data.dtype
    cdf = x.data / _scalar(_SQRT2, dtype)
    _erf(cdf, out=cdf)
    cdf += _scalar(1.0, dtype)
    cdf *= _scalar(0.5, dtype)
    out = _from_array((x.data * cdf).astype(x.data.dtype, copy=False), x.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accumulate(x, g * (cdf + x.data * pdf).astype(x.data.dtype, copy=False))

    push_op(out, adjoint)
    return out


def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1 / std) of the last axis, for ``layer_norm_affine``.

    Row means as np.add.reduce(...) / d: bitwise what np.mean gives, without
    its Python-level wrapper, which dominates on the small rows used here.
    Each step writes into an array it made, and the constants are 0-d arrays
    of x's dtype (``_scalar``): the same bits as (x - mean) / sqrt(var + eps)
    with fewer allocations and conversions.
    """
    width = _scalar(x.shape[-1], x.dtype)
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= width
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= width
    var += _scalar(eps, x.dtype)
    inv = np.sqrt(var, out=var)
    np.divide(_scalar(1.0, x.dtype), inv, out=inv)
    np.multiply(centered, inv, out=centered)
    return centered, inv


def _normalize_adjoint(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    d = xhat.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / d
    gx = np.add.reduce(g * xhat, axis=-1, keepdims=True) / d
    return (inv * (g - gm - xhat * gx)).astype(xhat.dtype, copy=False)


def layer_norm_affine(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias``, both (d,).

    A zero-variance row maps to exactly ``bias``: the epsilon sits in the
    denominator, so constant inputs cannot produce NaN.  One tape entry in
    place of a taped normalization, a ``mul`` by gain and an ``add`` of bias;
    the output and every operand gradient are bitwise that composition's.
    """
    gd = gain.data
    d = x.data.shape[-1:]
    if gd.shape != d or bias.data.shape != d:
        raise ShapeError(f"layer_norm_affine: gain {gd.shape} and bias {bias.data.shape} "
                         f"for rows of shape {d}")
    xhat, inv = _normalize(x.data, eps)
    data = xhat * gd
    np.add(data, bias.data, out=data)
    out = _from_array(data, x.requires_grad | gain.requires_grad | bias.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(bias, _unbroadcast(g, d))
        _accumulate(gain, _unbroadcast(g * xhat, d))
        if x.requires_grad:
            _accumulate(x, _normalize_adjoint(g * gd, xhat, inv))

    push_op(out, adjoint)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows ``table[ids]``; the adjoint scatter-adds into the table."""
    idx = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be rank 2, got shape {table.data.shape}")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError("embedding_lookup: ids must be a 1-d integer sequence")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= table.data.shape[0]):
        raise ShapeError(
            f"embedding_lookup: ids out of range for table with {table.data.shape[0]} rows"
        )
    out = _from_array(table.data[idx], table.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    push_op(out, adjoint)
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[p.data.shape for p in parts]} do not align on axis {axis}"
        ) from None
    out = _from_array(data, any([p.requires_grad for p in parts]))

    def adjoint(g: np.ndarray) -> None:
        start = 0
        for p in parts:
            stop = start + p.data.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(p, g[tuple(sl)])
            start = stop

    push_op(out, adjoint)
    return out


def narrow(x: Tensor, axis: int, start: int, length: int, step: int = 1) -> Tensor:
    """Slice of ``length`` extents along ``axis``: ``start``, ``start + step``,
    ...; contiguous with the default step 1.  The result is a view of
    ``x``'s data, strided for a larger step, never a copy."""
    extent = x.data.shape[axis]
    stop = start + (length - 1) * step + 1 if length else start
    if start < 0 or length < 0 or step < 1 or stop > extent:
        raise ShapeError(f"slice: {length} extents from {start} in steps of {step} "
                         f"exceed extent {extent} on axis {axis}")
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop, step)
    out = _from_array(x.data[tuple(sl)], x.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[tuple(sl)] = g
        _accumulate(x, full)

    push_op(out, adjoint)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None, batch: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention over ``batch`` sequences.

    ``q`` is a (batch * Tq, d) row block and ``k``, ``v`` are (batch * Tk, d)
    row blocks with Tk >= Tq, holding the sequences one after another; the
    queries are the last Tq of each sequence's Tk positions (Tk > Tq when
    earlier keys and values come from a cache).  Head h owns columns
    [h * d_h, (h + 1) * d_h) with d_h = d / heads.  Per sequence and head the
    output is P v, with P the row-normalized exp of q k^T * d_h^-1/2 + mask,
    and the heads are concatenated along columns, so the result is shaped
    like ``q``.
    ``mask`` is an additive (Tq, Tk) ndarray of q's dtype shared by every
    sequence, or None for unmasked attention; it receives no gradient.

    The adjoint is closed-form: with P the attention weights,
    dS = P * (dP - rowsum(dP * P)).
    """
    if q.data.ndim != 2 or k.data.shape != v.data.shape or k.data.ndim != 2 \
            or k.data.shape[1] != q.data.shape[1]:
        raise ShapeError(
            f"attention: q must be (rows, d) and k, v (key rows, d), got "
            f"{q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    rows, d = q.data.shape
    key_rows = k.data.shape[0]
    if heads < 1 or d % heads or batch < 1 or rows % batch or key_rows % batch \
            or key_rows // batch < rows // batch:
        raise ShapeError(
            f"attention: shapes {q.data.shape} and {k.data.shape} do not split into "
            f"{batch} sequences of {heads} heads with at least as many keys as queries"
        )
    seq, key_seq = rows // batch, key_rows // batch
    dh = d // heads
    if mask is not None and mask.shape != (seq, key_seq):
        raise ShapeError(f"attention: mask shape {mask.shape}, expected {(seq, key_seq)}")
    scale = _scalar(1.0 / math.sqrt(dh), q.data.dtype)

    def split(x: np.ndarray) -> np.ndarray:
        # (batch * T, d) -> (batch, heads, T, d_h) view
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # The per-head composition's operation order (scale, mask, subtract the
    # row max, exp, divide by the row sum, @ v), in place.
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if mask is not None:
        p += mask
    # The ufunc reductions are what p.max and p.sum call, minus their wrappers.
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    out = _from_array(merge(p @ vh), q.requires_grad | k.requires_grad | v.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        go = split(g)
        ds = go @ vh.swapaxes(-1, -2)  # dP, turned into dS in place
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        _accumulate(q, merge(ds @ kh))
        _accumulate(k, merge((qh.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)))
        _accumulate(v, merge(p.swapaxes(-1, -2) @ go))

    push_op(out, adjoint)
    return out


def tensor_sum(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""
    out = _from_array(np.asarray(x.data.sum(), dtype=x.data.dtype), x.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False))

    push_op(out, adjoint)
    return out


def _row_weights(row_weights, shape: tuple[int, ...], op: str) -> np.ndarray | None:
    """Per-element weights that make a sum over elements the weighted sum of
    row means: w_r / (elements per row), broadcast over row r; None stays None."""
    if row_weights is None:
        return None
    w = np.asarray(row_weights, dtype=np.float64)
    if not shape or w.shape != shape[:1]:
        raise ShapeError(f"{op}: {w.shape} row weights for operands of shape {shape}")
    per_row = math.prod(shape[1:])
    return (w / max(per_row, 1)).reshape((-1,) + (1,) * (len(shape) - 1))


def mse(a: Tensor, b: Tensor, row_weights=None) -> Tensor:
    """Mean squared error over all elements.

    With ``row_weights`` (one per row along the first axis) it is instead
    sum_r w_r * mean(row r of (a - b)^2); weights 1/rows give the mean.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shapes {a.data.shape} and {b.data.shape} differ")
    weights = _row_weights(row_weights, a.data.shape, "mse")
    diff = a.data - b.data
    n = max(diff.size, 1)
    if weights is None:
        value = np.mean(diff * diff)
    else:
        value = np.add.reduce(weights * (diff * diff), axis=None)
    out = _from_array(np.asarray(value, dtype=a.data.dtype), a.requires_grad | b.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        scaled = (2.0 / n) * g * diff if weights is None else (2.0 * g) * weights * diff
        scaled = scaled.astype(a.data.dtype, copy=False)
        _accumulate(a, scaled)
        _accumulate(b, -scaled)

    push_op(out, adjoint)
    return out


def bce_with_logits(logits: Tensor, targets, row_weights=None) -> Tensor:
    """Mean binary cross-entropy over all elements, stable for large logits.

    With ``row_weights`` (one per row along the first axis) it is instead
    sum_r w_r * mean(row r of the cross-entropy).  Targets are treated as
    constants; gradients flow to the logits only.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.data.shape:
        raise ShapeError(f"bce_with_logits: shapes {logits.data.shape} and {t.shape} differ")
    weights = _row_weights(row_weights, t.shape, "bce_with_logits")
    z = logits.data
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = max(z.size, 1)
    value = per.mean() if weights is None else np.add.reduce(weights * per, axis=None)
    out = _from_array(np.asarray(value, dtype=z.dtype), logits.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        grad = g * (s - t) / n if weights is None else g * weights * (s - t)
        _accumulate(logits, grad.astype(z.dtype, copy=False))

    push_op(out, adjoint)
    return out


def primitive_forward_set() -> dict[str, Callable]:
    """Registry of forward primitives; every entry has a registered adjoint."""
    return {
        "add": add,
        "mul": mul,
        "gelu": gelu,
        "embedding_lookup": embedding_lookup,
        "concat": concat,
        "slice": narrow,
        "sum": tensor_sum,
        "mse": mse,
        "bce_with_logits": bce_with_logits,
        "attention": attention,
        "linear": linear,
        "stacked_linear": stacked_linear,
        "layer_norm_affine": layer_norm_affine,
    }


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must return a scalar tensor.  Run under float64: central
    differences with step ~1e-5 are meaningless in float32.
    """
    zero_grads([x])
    with record() as tape:
        y = f(x)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise ShapeError("grad_check: f must return a scalar Tensor")
    tape.backward(y)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).reshape(-1)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x).item()
        flat[i] = orig - step
        down = f(x).item()
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


# --------------------------------------------------------------------------
# Random streams
# --------------------------------------------------------------------------

def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based (Philox) generator for one named stream.

    Stream identity is derived from a stable hash of ``name`` so draws are
    reproducible across runs and platforms and independent across streams.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return np.random.Generator(np.random.Philox(seq))


class RngHub:
    """Caches named streams for one seed; each stream keeps its own counter."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = rng_stream(self.seed, name)
            self._streams[name] = gen
        return gen
