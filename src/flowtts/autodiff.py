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
The cached constants tables (``_constants``) are shared; two threads that
miss together may each build one, harmlessly: both are equal and read-only.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
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
    "add",
    "mul",
    "gelu",
    "layer_norm_affine",
    "embedding_lookup",
    "concat",
    "narrow",
    "Segments",
    "transformer_block",
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


class _Constants:
    """The primitives' constants as read-only 0-d arrays of one dtype, for
    rows of one width split into ``heads`` attention heads.  numpy casts a
    Python number to the array's dtype before the arithmetic; a 0-d array
    gives the same bits without that conversion, which costs more than the
    arithmetic on the small rows used here.  A primitive call looks up one
    table (``_constants``) and hands it to every helper it calls."""

    __slots__ = ("width", "eps", "one", "half", "clip_low", "clip_high", "gelu_k", "gelu_kc",
                 "gelu_2k", "gelu_6kc", "scale")

    def __init__(self, dtype: np.dtype, width: int, heads: int):
        def scalar(value: float) -> np.ndarray:
            s = np.asarray(value, dtype=dtype)
            s.flags.writeable = False
            return s

        self.width = scalar(width)
        self.eps = scalar(_LAYER_NORM_EPS)
        self.one = scalar(1.0)
        self.half = scalar(0.5)
        self.clip_low = scalar(-_GELU_CLIP)
        self.clip_high = scalar(_GELU_CLIP)
        self.gelu_k = scalar(_GELU_K)
        self.gelu_kc = scalar(_GELU_K * _GELU_C)
        self.gelu_2k = scalar(2.0 * _GELU_K)
        self.gelu_6kc = scalar(6.0 * _GELU_K * _GELU_C)
        self.scale = scalar(1.0 / math.sqrt(width // heads))  # of q k^T


@functools.cache
def _constants(dtype: np.dtype, width: int, heads: int = 1) -> _Constants:
    """The ``_Constants`` of ``dtype``, ``width`` and ``heads``, made once
    per triple."""
    return _Constants(dtype, width, heads)


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


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# tanh of the cubic is exactly +-1 in float32 and float64 beyond |x| = 10.
_GELU_CLIP = 10.0


def _gelu_clip(x: np.ndarray, c: _Constants, out: np.ndarray | None = None) -> np.ndarray:
    # np.clip's Python wrapper costs more than the two ufuncs on these rows.
    u = np.maximum(x, c.clip_low, out=out)
    return np.minimum(u, c.clip_high, out=u)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit in its tanh form (Hendrycks & Gimpel, 2016):
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    It is within 4.7e-4 of the exact x Phi(x) over the reals.  The cubic takes
    x clipped to +-10, where tanh is already +-1, so no finite input
    overflows.  The adjoint is the exact derivative of this form,
    cdf + 0.5 x (1 - tanh^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2) with
    cdf = 0.5 (1 + tanh).
    """
    xd = x.data
    c = _constants(xd.dtype, xd.shape[-1])
    out, cdf = _gelu_forward(xd, c)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, _gelu_adjoint(g, xd, cdf, np.empty_like(xd), np.empty_like(xd), c))

    out = _from_array(out, x.requires_grad)
    push_op(out, adjoint)
    return out


def _gelu_forward(xd: np.ndarray, c: _Constants) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), cdf) of ``gelu``'s form, with the constants ``c`` of x's
    dtype (of any width); the adjoint reads the cdf."""
    # Two arrays in all: fresh ones cost page faults here, not just passes.
    cdf = _gelu_clip(xd, c)
    out = cdf * cdf  # scratch for the cubic, then the output
    out *= c.gelu_kc
    out += c.gelu_k
    cdf *= out
    np.tanh(cdf, out=cdf)
    cdf += c.one
    cdf *= c.half
    np.multiply(xd, cdf, out=out)
    return out, cdf


def _gelu_adjoint(g: np.ndarray, xd: np.ndarray, cdf: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray, c: _Constants) -> np.ndarray:
    """The gradient of ``gelu``'s input for the output gradient ``g``, formed
    in ``out`` (which may be ``xd``) with ``scratch``, both shaped like x:
    no array is allocated.  ``c`` is as for ``_gelu_forward``."""
    # With tanh = 2 cdf - 1 the slope is cdf (1 + (1 - cdf) s) for
    # s = u (2K + 6 K C u^2) and u = x clipped.  Where the clip bites,
    # cdf is exactly 0 or 1, so this is the clipped form's slope, and s
    # stays finite.  Each step is that expression's, in its order, with
    # the operands of a product or sum swapped where it runs in place.
    u = _gelu_clip(xd, c, out)
    s = np.multiply(u, u, out=scratch)
    s *= c.gelu_6kc
    s += c.gelu_2k
    s *= u
    grad = np.subtract(c.one, cdf, out=out)
    grad *= s
    grad += c.one
    grad *= cdf
    grad *= g
    return grad


_LAYER_NORM_EPS = 1e-5  # added to each row's variance


def _normalize(x: np.ndarray, c: _Constants) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1 / std) of the last axis, for ``layer_norm_affine``; ``c``
    holds the constants of x's dtype and row width.

    Row means as np.add.reduce(...) / d: bitwise what np.mean gives, without
    its Python-level wrapper, which dominates on the small rows used here.
    Each step writes into an array it made, and the constants are 0-d arrays
    of x's dtype: the same bits as (x - mean) / sqrt(var + eps)
    with fewer allocations and conversions.
    """
    width = c.width
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= width
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= width
    var += c.eps
    inv = np.sqrt(var, out=var)
    np.divide(c.one, inv, out=inv)
    np.multiply(centered, inv, out=centered)
    return centered, inv


def _normalize_adjoint(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                       c: _Constants) -> np.ndarray:
    gm = np.add.reduce(g, axis=-1, keepdims=True) / c.width
    gx = np.add.reduce(g * xhat, axis=-1, keepdims=True) / c.width
    return (inv * (g - gm - xhat * gx)).astype(xhat.dtype, copy=False)


def _scale_shift(xhat: np.ndarray, gain: Tensor, bias: Tensor,
                 out: np.ndarray | None = None) -> np.ndarray:
    """xhat * gain + bias, the affine step of ``layer_norm_affine``, in one
    new array, or in ``out`` (which may be ``xhat``)."""
    out = np.multiply(xhat, gain.data, out=out)
    np.add(out, bias.data, out=out)
    return out


def layer_norm_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias``, both (d,).

    A zero-variance row maps to exactly ``bias``: the epsilon sits in the
    denominator, so constant inputs cannot produce NaN.  One tape entry in
    place of a taped normalization, a ``mul`` by gain and an ``add`` of bias;
    the output and every operand gradient are bitwise that composition's.
    Where nothing records, the output is formed in place of the normalized
    rows, which nothing keeps.
    """
    xd, gd = x.data, gain.data
    d = xd.shape[-1:]
    if gd.shape != d or bias.data.shape != d:
        raise ShapeError(f"layer_norm_affine: gain {gd.shape} and bias {bias.data.shape} "
                         f"for rows of shape {d}")
    requires_grad = x.requires_grad | gain.requires_grad | bias.requires_grad
    taped = requires_grad and _ACTIVE_TAPE.get() is not None
    c = _constants(xd.dtype, d[0])
    xhat, inv = _normalize(xd, c)
    out = _from_array(_scale_shift(xhat, gain, bias, None if taped else xhat), requires_grad)
    if taped:
        def adjoint(g: np.ndarray) -> None:
            _accumulate(bias, _unbroadcast(g, d))
            _accumulate(gain, _unbroadcast(g * xhat, d))
            if x.requires_grad:
                _accumulate(x, _normalize_adjoint(g * gd, xhat, inv, c))

        push_op(out, adjoint)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows ``table[ids]``; the adjoint scatter-adds into the table.

    The scatter gives the bits of ``np.add.at(table.grad, ids, g)`` for any
    ids, repeated or not.
    """
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
        if table.grad.flags.c_contiguous:
            # One flat index per element: np.add.at then adds each element's
            # contributions in the order the row form does, so the same
            # bits, through numpy's 1-d indexed loop, 3-4x faster here.
            width = table.data.shape[1]
            flat = (idx.astype(np.intp)[:, None] * width + np.arange(width)).reshape(-1)
            np.add.at(table.grad.reshape(-1), flat, g.reshape(-1))
        else:
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


class Segments:
    """Sequences of unequal lengths packed into the rows of one
    ``transformer_block`` call, laid out for its attention: row t of
    sequence b sits in cell b * T + t of a (B, T) grid, with T the longest
    length, and the cells past a sequence's end are padding.

    ``grid`` (B * T,) holds the packed row of each cell (any row for a
    padding cell), ``cells`` (rows,) the cell of each packed row, and
    ``mask`` the additive (T, T) mask that every sequence shares, which must
    hide from each row of a sequence the cells past its own position.  A
    real row's keys past its position include every padding cell of its
    sequence, so no padding reaches a real row, whichever rows the padding
    cells hold.  Attention then runs per sequence over the grid, so it
    scores B * T * T pairs where one packed sequence scores rows * rows;
    padding rows add nothing to any output or gradient.
    """

    __slots__ = ("grid", "cells", "mask")

    def __init__(self, grid: np.ndarray, cells: np.ndarray, mask: np.ndarray):
        self.grid, self.cells, self.mask = grid, cells, mask


def transformer_block(x: Tensor, params: Sequence[Tensor], heads: int, mask=None,
                      batch: int = 1, past: np.ndarray | None = None,
                      last_only: bool = False) -> Tensor:
    """One pre-LN transformer block over ``batch`` sequences of T rows each,
    stored one after another in the (batch * T, d) rows ``x``:

        y = x + attention(ln1(x)) @ wo + bo
        out = y + gelu(ln2(y) @ w1 + b1) @ w2 + b2

    ``params`` is (ln1 gain, ln1 bias, wqkv, bqkv, wo, bo, ln2 gain, ln2 bias,
    w1, b1, w2, b2), with the query, key and value maps stacked in wqkv
    (3, d, d) and bqkv (3, d).  Attention has ``heads`` heads, head h owning
    columns [h * d_h, (h + 1) * d_h) with d_h = d / heads; per sequence and
    head it is P v, with P the row-normalized exp of q k^T * d_h^-1/2 +
    ``mask``.  ``mask`` is an additive (T, Tk) ndarray of x's dtype shared by
    every sequence, or None for unmasked attention; it gets no gradient.

    ``mask`` may instead be the ``Segments`` of several sequences packed
    into x's rows (batch 1, no ``past``, no ``last_only``).  Every row-wise
    step runs on the packed rows as they stand; only attention gathers q, k
    and v into the segments' grid, runs there with the grid's B sequences as
    the batch and their shared mask, and gathers each row's result back.

    ``past`` (batch 1 only) views the (2, Tk, d) rows of a key/value store
    that the block attends to, keys at ``past[0]`` and values at
    ``past[1]``, with Tk - T rows already filled: the block writes the keys
    and values of ``x`` into the last T rows and attends to all Tk.  The
    filled rows are constants.  Without ``past``, Tk = T.

    With ``last_only`` the result is the last row of each sequence: every row
    still gives its keys and values, but the queries, the output projection,
    the residual adds and the MLP run for the last rows only (a strided view
    of them, with the mask's last row).

    One tape entry in place of the composition of taped primitives it
    replaces (an affine layer norm, a stacked q/k/v product, the cached-row
    and row selections, attention, three affine maps, GELU and two adds):
    the forward runs their numpy ops in their order and the adjoint replays
    their adjoints in reverse, so the output and every gradient are bitwise
    that composition's.  Where nothing records, each intermediate is freed
    after its last use (the attention weights before the MLP runs), and a
    step works in place on an array the block made where the composition
    formed a new one (a layer norm's output in its normalized rows).
    """
    xd = x.data
    requires_grad = x.requires_grad | any([p.requires_grad for p in params])
    rows, d = xd.shape
    key_rows = rows if past is None else past.shape[1]
    if heads < 1 or d % heads or batch < 1 or rows % batch or key_rows < rows \
            or past is not None and batch != 1:
        raise ShapeError(f"transformer_block: {rows} rows of {d} do not split into {batch} "
                         f"sequences of {heads} heads attending to {key_rows} key rows "
                         f"(cached keys and values need batch == 1)")
    if isinstance(mask, Segments):
        width = mask.mask.shape[0]
        if batch != 1 or past is not None or last_only or mask.cells.shape != (rows,) \
                or mask.mask.shape != (width, width) or mask.grid.ndim != 1 \
                or mask.grid.size % width:
            raise ShapeError(f"transformer_block: segments of grid {mask.grid.shape}, "
                             f"cells {mask.cells.shape} and mask {mask.mask.shape} for "
                             f"{rows} rows (segments take batch 1, no store, no last_only)")
    elif mask is not None and mask.shape != (rows // batch, key_rows // batch):
        raise ShapeError(f"transformer_block: mask shape {mask.shape}, expected "
                         f"{(rows // batch, key_rows // batch)}")
    taped = requires_grad and _ACTIVE_TAPE.get() is not None
    c = _constants(xd.dtype, d, heads)
    y, attention_saved = _attention_forward(xd, params, heads, mask, batch, past, last_only,
                                            taped, c)
    data, mlp_saved = _mlp_forward(y, params, taped, c)
    out = _from_array(data, requires_grad)
    if taped:
        def adjoint(g: np.ndarray) -> None:
            gy = _mlp_adjoint(g, params, mlp_saved, c)
            # x's residual share, through the row selection if there is one,
            # then the layer norm's share: the composition's order.
            picked = attention_saved[-1]
            if picked is not None and x.requires_grad:
                full = np.zeros_like(xd)
                full[picked] = gy
                _accumulate(x, full)
            else:
                _accumulate(x, gy)
            _accumulate(x, _attention_adjoint(gy, params, heads, batch, attention_saved, c))

        push_op(out, adjoint)
    return out


def _attention_forward(xd, params, heads, mask, batch, past, last_only, keep, c):
    """x + the attention half of ``transformer_block`` (for the rows it
    keeps), and with ``keep`` what ``_attention_adjoint`` reads; ``c`` holds
    the constants of x's dtype, width and heads."""
    gain, bias, wqkv, bqkv, wo, bo = params[:6]
    rows, d = xd.shape
    dh = d // heads
    xhat, inv = _normalize(xd, c)
    qkv = np.matmul(_scale_shift(xhat, gain, bias, None if keep else xhat), wqkv.data)
    np.add(qkv, bqkv.data[:, None, :], out=qkv)
    normed = (xhat, inv) if keep else None
    del xhat, inv  # where nothing records, freed before attention runs
    seq = rows // batch
    segments = mask if isinstance(mask, Segments) else None
    stacked, cached, picked = qkv, 0, None
    if segments is not None:
        # The packed rows into the grid, whose sequences are the batch.
        stacked = np.take(qkv, segments.grid, axis=1)
        mask = segments.mask
        batch = segments.grid.size // len(mask)
    if past is not None:
        cached = past.shape[1] - rows
        past[:, cached:] = qkv[1:]
    if last_only and seq > 1:
        # The last row of each sequence, as a strided view.  The sequences
        # share the mask, so a last row's mask row is its last row.
        picked = slice(seq - 1, None, seq)
        xd = xd[picked]
        mask = None if mask is None else mask[-1:]
    # (s, batch * T, d) stacks -> (s, batch, heads, T, d_h) views, one
    # reshape for q, k and v where they stand stacked as made.
    if cached or picked is not None:
        q = stacked[0] if picked is None else stacked[0, picked]
        qh = q.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)
        kv = past if cached else stacked[1:]
        kh, vh = kv.reshape(2, batch, -1, heads, dh).transpose(0, 1, 3, 2, 4)
    else:
        qh, kh, vh = stacked.reshape(3, batch, -1, heads, dh).transpose(0, 1, 3, 2, 4)
    # Scale, mask, subtract the row max, exp, divide by the row sum, in
    # place; the ufunc reductions are what p.max and p.sum call, minus their
    # wrappers.
    p = qh @ kh.swapaxes(-1, -2)
    p *= c.scale
    if mask is not None:
        p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    attended = (p @ vh).transpose(0, 2, 1, 3).reshape(-1, d)
    if segments is not None:
        attended = np.take(attended, segments.cells, axis=0)  # back to the packed rows
    saved = (*normed, qkv, qh, kh, vh, p, attended, segments, cached, picked) if keep else None
    del p  # where nothing records, freed before the output map
    y = attended @ wo.data
    np.add(y, bo.data, out=y)
    np.add(xd, y, out=y)
    return y, saved


def _mlp_forward(y, params, keep, c):
    """y + the MLP half of ``transformer_block``, and with ``keep`` what
    ``_mlp_adjoint`` reads; ``c`` holds the constants of y's dtype and
    width, which GELU reads too."""
    gain, bias, w1, b1, w2, b2 = params[6:]
    xhat, inv = _normalize(y, c)
    m = _scale_shift(xhat, gain, bias, None if keep else xhat) @ w1.data
    np.add(m, b1.data, out=m)
    act, cdf = _gelu_forward(m, c)
    saved = (xhat, inv, m, cdf) if keep else None
    del xhat, inv, m, cdf  # where nothing records, freed before the next product
    out = act @ w2.data
    np.add(out, b2.data, out=out)
    np.add(y, out, out=out)
    return out, saved


# The adjoints read each array the forward kept for the last time, so they
# form the gradients in place of those arrays.  The two layer norms' outputs
# and the GELU output are not kept but formed again, bitwise (the same ops on
# the same operands), so the tape holds less.

def _mlp_adjoint(g, params, saved, c) -> np.ndarray:
    """The MLP half's adjoints in reverse tape order: the residual add, the
    w2 map, GELU, the w1 map and the layer norm, with the forward's
    constants ``c``.  Accumulates the half's parameter gradients and returns
    y's gradient."""
    gain, bias, w1, b1, w2, b2 = params[6:]
    xhat, inv, m, cdf = saved
    _accumulate(b2, np.add.reduce(g, axis=0))
    act = np.multiply(m, cdf)
    _accumulate(w2, act.T @ g)
    g_m = _gelu_adjoint(np.matmul(g, w2.data.T, out=act), m, cdf, m, np.empty_like(m), c)
    _accumulate(b1, np.add.reduce(g_m, axis=0))
    h = _scale_shift(xhat, gain, bias)
    _accumulate(w1, h.T @ g_m)
    g_h = np.matmul(g_m, w1.data.T, out=h)
    _accumulate(bias, np.add.reduce(g_h, axis=0))
    _accumulate(gain, np.add.reduce(g_h * xhat, axis=0))
    gy = _normalize_adjoint(g_h * gain.data, xhat, inv, c)
    gy += g  # the residual add's share, which y's gradient took first
    return gy


def _attention_adjoint(gy, params, heads, batch, saved, c) -> np.ndarray:
    """The attention half's adjoints in reverse tape order, for the gradient
    ``gy`` of its output: the wo map, attention, the row selections, the
    q/k/v product and the layer norm, with the forward's constants ``c``.
    Accumulates the half's parameter gradients and returns the layer norm's
    share of x's gradient."""
    gain, bias, wqkv, bqkv, wo, bo = params[:6]
    xhat, inv, qkv, qh, kh, vh, p, attended, segments, cached, picked = saved
    _, rows, d = qkv.shape
    dh = d // heads
    _accumulate(bo, np.add.reduce(gy, axis=0))
    _accumulate(wo, attended.T @ gy)
    go = np.matmul(gy, wo.data.T, out=attended)
    if segments is not None:
        # The packed rows' gradient into their cells; the padding cells' is 0.
        grid = np.zeros((segments.grid.size, d), dtype=go.dtype)
        grid[segments.cells] = go
        go, batch = grid, segments.grid.size // len(segments.mask)
    go = go.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)
    # With P the attention weights, dS = P * (dP - rowsum(dP * P)).
    ds = go @ vh.swapaxes(-1, -2)  # dP, turned into dS in place
    ds -= np.add.reduce(ds * p, axis=-1, keepdims=True)
    ds *= p
    ds *= c.scale
    gq = (ds @ kh).transpose(0, 2, 1, 3).reshape(-1, d)
    gk = (qh.swapaxes(-1, -2) @ ds).swapaxes(-1, -2).transpose(0, 2, 1, 3).reshape(-1, d)
    gv = (p.swapaxes(-1, -2) @ go).transpose(0, 2, 1, 3).reshape(-1, d)
    if segments is not None:
        # Each packed row's share from its cell; the padding cells' are
        # exact zeros (no output reads them, no query sees them) and dropped.
        gq, gk, gv = (np.take(t, segments.cells, axis=0) for t in (gq, gk, gv))
    # The gradient of the stacked q, k and v rows: the queries' at the rows
    # they were picked from, the keys' and values' past the cached rows.
    g = qkv
    if picked is None:
        g[0] = gq
    else:
        g[0].fill(0)
        g[0, picked] = gq
    g[1] = gk[cached:]
    g[2] = gv[cached:]
    _accumulate(bqkv, np.add.reduce(g, axis=1))
    # The normalized rows' gradient, summed over the maps last first, as
    # three separate entries would replay.
    parts = np.matmul(g, wqkv.data.swapaxes(1, 2))
    gh = parts[-1]
    for part in parts[-2::-1]:
        gh += part
    _accumulate(wqkv, np.matmul(_scale_shift(xhat, gain, bias).T, g))
    _accumulate(bias, np.add.reduce(gh, axis=0))
    _accumulate(gain, np.add.reduce(gh * xhat, axis=0))
    return _normalize_adjoint(gh * gain.data, xhat, inv, c)


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
        # sigmoid(z) from exp(-|z|), which cannot overflow: the same bits
        # as 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below.
        e = np.exp(-np.abs(z))
        s = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
        "linear": linear,
        "transformer_block": transformer_block,
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
