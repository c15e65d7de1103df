"""Independent oracles shared by the unit and acceptance suites.

These stay deliberately naive: the hand-written numeral table, the memoized
recursive edit distance, the row-by-row DP, the per-character
normalization stages and the taped primitives the fused ones replaced exist
to check the production code, so they must not share its implementation
strategy.
"""

import functools
import logging
import math
import unicodedata

import numpy as np

from flowtts.autodiff import (
    _ACTIVE_TAPE,
    Segments,
    ShapeError,
    Tensor,
    _accumulate,
    _from_array,
    add,
    gelu,
    layer_norm_affine,
    linear,
    narrow,
    push_op,
)
from flowtts.flowmatch import cfg_combine, velocity
from flowtts.model import MASK_VALUE, Packing
from flowtts.thai_text import MAI_YAMOK

logger = logging.getLogger(__name__)

# Thai readings written out by hand from the normative grammar: digit words,
# place words sip/roi/phan/muen/saen, recursive lan grouping, and the three
# irregulars (final 1 -> et after a higher place, tens 2 -> yi sip,
# tens 1 -> bare sip).
NUMERAL_ORACLE = {
    "0": "ศูนย์",
    "1": "หนึ่ง",
    "2": "สอง",
    "3": "สาม",
    "4": "สี่",
    "5": "ห้า",
    "6": "หก",
    "7": "เจ็ด",
    "8": "แปด",
    "9": "เก้า",
    "10": "สิบ",
    "11": "สิบเอ็ด",
    "12": "สิบสอง",
    "15": "สิบห้า",
    "20": "ยี่สิบ",
    "21": "ยี่สิบเอ็ด",
    "22": "ยี่สิบสอง",
    "30": "สามสิบ",
    "31": "สามสิบเอ็ด",
    "45": "สี่สิบห้า",
    "99": "เก้าสิบเก้า",
    "100": "หนึ่งร้อย",
    "101": "หนึ่งร้อยเอ็ด",
    "110": "หนึ่งร้อยสิบ",
    "111": "หนึ่งร้อยสิบเอ็ด",
    "121": "หนึ่งร้อยยี่สิบเอ็ด",
    "200": "สองร้อย",
    "500": "ห้าร้อย",
    "1000": "หนึ่งพัน",
    "1001": "หนึ่งพันเอ็ด",
    "1100": "หนึ่งพันหนึ่งร้อย",
    "2500": "สองพันห้าร้อย",
    "10000": "หนึ่งหมื่น",
    "10001": "หนึ่งหมื่นเอ็ด",
    "12345": "หนึ่งหมื่นสองพันสามร้อยสี่สิบห้า",
    "100000": "หนึ่งแสน",
    "123456": "หนึ่งแสนสองหมื่นสามพันสี่ร้อยห้าสิบหก",
    "999999": "เก้าแสนเก้าหมื่นเก้าพันเก้าร้อยเก้าสิบเก้า",
    "1000000": "หนึ่งล้าน",
    "1000001": "หนึ่งล้านเอ็ด",
    "2500001": "สองล้านห้าแสนเอ็ด",
    "10000000": "สิบล้าน",
    "21000000": "ยี่สิบเอ็ดล้าน",
    "100000000": "หนึ่งร้อยล้าน",
    "1000000000": "หนึ่งพันล้าน",
    "1000000000000": "หนึ่งล้านล้าน",
    "9999999999999": ("เก้าล้านเก้าแสนเก้าหมื่นเก้าพันเก้าร้อยเก้าสิบเก้า"
                      "ล้าน"
                      "เก้าแสนเก้าหมื่นเก้าพันเก้าร้อยเก้าสิบเก้า"),
}


def brute_force_levenshtein(a: str, b: str) -> int:
    """Memoized recursion straight from the edit-distance definition."""

    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def dp_levenshtein(a: str, b: str) -> int:
    """The row-by-row Wagner-Fischer DP that `levenshtein` replaced."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,          # deletion
                current[j - 1] + 1,       # insertion
                previous[j - 1] + (ca != cb),  # substitution
            ))
        previous = current
    return previous[-1]


def char_loop_expand_mai_yamok(text: str) -> str:
    """The per-character mai-yamok expansion that `expand_mai_yamok` replaced."""
    out: list[str] = []
    for ch in text:
        if ch != MAI_YAMOK:
            out.append(ch)
            continue
        while out and out[-1].isspace():
            out.pop()
        start = len(out)
        while start > 0 and not out[start - 1].isspace() and out[start - 1] != MAI_YAMOK:
            start -= 1
        token = out[start:]
        if not token:
            logger.warning("repetition marker %s with no preceding token left verbatim", MAI_YAMOK)
            out.append(ch)
        else:
            out.extend(token)
    return "".join(out)


def category_strip_separators(text: str) -> str:
    """The per-character category filter that `_strip_separators` replaced."""
    return "".join(c for c in text if unicodedata.category(c)[0] not in ("P", "Z"))


def _taped(data, inputs, adjoint):
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs), dtype=data.dtype)
    push_op(out, adjoint)
    return out


def matmul(a, b):
    """Taped a @ b of rank-2 tensors: the product ``linear`` fuses with its
    bias add."""

    def adjoint(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _taped(a.data @ b.data, (a, b), adjoint)


def layer_norm(x, eps=1e-5):
    """Taped normalization of the last axis to zero mean and unit variance,
    with every row mean taken by np.mean: what ``layer_norm_affine`` fuses
    with its gain and bias."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True) + eps)
    xhat = (centered * inv).astype(x.data.dtype, copy=False)

    def adjoint(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (inv * (g - gm - xhat * gx)).astype(x.data.dtype, copy=False))

    return _taped(xhat, (x,), adjoint)


def softmax(x):
    """Taped, max-shifted softmax over the last axis: what ``attention``
    fuses per head."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = (e / e.sum(axis=-1, keepdims=True)).astype(x.data.dtype, copy=False)

    def adjoint(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, (y * (g - dot)).astype(x.data.dtype, copy=False))

    return _taped(y, (x,), adjoint)


def stacked_linear(x, w, b):
    """``linear(x, w[i], b[i])`` for each of s stacked affine maps, with
    w (s, d_in, d_out) and b (s, d_out): s (n, d_out) tensors from one product.

    One tape entry in place of s ``linear`` calls, with their outputs and
    operand gradients bitwise: the stacked product runs the same product per
    map, and the adjoint sums x's gradient over the maps last first, as s
    separate entries would replay.  While recording, the outputs' gradients
    are views into one (s, n, d_out) array, which the adjoint reads whole.
    The q/k/v product of ``transformer_block`` below.
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

    def adjoint(g):
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


def attention(q, k, v, heads, mask=None, batch=1):
    """Multi-head scaled dot-product attention over ``batch`` sequences:
    the attention of ``transformer_block`` below.

    ``q`` is a (batch * Tq, d) row block and ``k``, ``v`` are (batch * Tk, d)
    row blocks with Tk >= Tq, holding the sequences one after another; the
    queries are the last Tq of each sequence's Tk positions (Tk > Tq when
    earlier keys and values come from a cache).  Head h owns columns
    [h * d_h, (h + 1) * d_h) with d_h = d / heads.  Per sequence and head the
    output is P v, with P the row-normalized exp of q k^T * d_h^-1/2 + mask,
    and the heads are concatenated along columns, so the result is shaped
    like ``q``.  ``mask`` is an additive (Tq, Tk) ndarray of q's dtype shared
    by every sequence, or None for unmasked attention; it receives no
    gradient.

    ``mask`` may instead be the ``Segments`` of several sequences packed
    into the rows (batch 1): q, k and v are then gathered into the
    segments' grid, attended there per sequence under the segments' shared
    causal mask and gathered back, each gather one taped
    ``add_at_embedding_lookup``, whose adjoint scatter-adds every cell's
    gradient, padding cells' included, into its row.

    The adjoint is closed-form: with P the attention weights,
    dS = P * (dP - rowsum(dP * P)).
    """
    if isinstance(mask, Segments):
        grid = [add_at_embedding_lookup(t, mask.grid) for t in (q, k, v)]
        attended = attention(*grid, heads, mask.mask, mask.grid.size // len(mask.mask))
        return add_at_embedding_lookup(attended, mask.cells)
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
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)

    def split(x):
        # (batch * T, d) -> (batch, heads, T, d_h) view
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # The per-head composition's operation order (scale, mask, subtract the
    # row max, exp, divide by the row sum, @ v), in place.
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if mask is not None:
        p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    out = _from_array(merge(p @ vh), q.requires_grad | k.requires_grad | v.requires_grad)

    def adjoint(g):
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


def cached_rows(rows, new):
    """A store's filled ``rows``, the last of which hold ``new``'s data.
    Gradients reach ``new`` only; the earlier rows are constants."""
    past_rows = rows.shape[0] - new.data.shape[0]
    out = _from_array(rows, new.requires_grad)
    push_op(out, lambda g: _accumulate(new, g[past_rows:]))
    return out


def transformer_block(x, params, heads, mask=None, batch=1, past=None, last_only=False):
    """The taped composition ``autodiff.transformer_block`` fuses, as the
    model ran its blocks before: an affine layer norm, the stacked q/k/v
    product (written into ``past`` if given, attending to all its rows),
    the last rows of each sequence with ``last_only``, attention (over the
    grid of ``mask``'s ``Segments``, if it is one), the output map and the
    residual add, then the layer-normed GELU MLP and its residual add; one
    tape entry per primitive."""
    g1, c1, wqkv, bqkv, wo, bo, g2, c2, w1, b1, w2, b2 = params
    q, k, v = stacked_linear(layer_norm_affine(x, g1, c1), wqkv, bqkv)
    if past is not None:
        cached = past.shape[1] - k.data.shape[0]
        past[0, cached:] = k.data
        past[1, cached:] = v.data
        if cached:
            k, v = cached_rows(past[0], k), cached_rows(past[1], v)
    seq = x.data.shape[0] // batch
    if last_only and seq > 1:
        x, q = narrow(x, 0, seq - 1, batch, seq), narrow(q, 0, seq - 1, batch, seq)
        mask = None if mask is None else mask[-1:]
    x = add(x, linear(attention(q, k, v, heads, mask, batch), wo, bo))
    return add(x, linear(gelu(linear(layer_norm_affine(x, g2, c2), w1, b1)), w2, b2))


def add_at_embedding_lookup(table, ids):
    """Taped gather ``table[ids]`` whose adjoint scatters with the row form
    of np.add.at: what ``embedding_lookup``'s flat-index scatter replaces."""
    idx = np.asarray(ids)

    def adjoint(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _taped(table.data[idx], (table,), adjoint)


def two_call_sample_patch(state, h_final, z_prev, steps, cfg_scale, rng):
    """The guided Euler sampler written out with one velocity call per branch
    and step: the reference the one-call sampler is checked against."""
    z = rng.standard_normal(state.config.d_patch).astype(state.dtype)
    dt = 1.0 / steps
    for k in range(steps):
        t = 1.0 - k * dt
        v_cond = velocity(state, z, t, h_final, z_prev, True).data[0]
        v_uncond = velocity(state, z, t, h_final, z_prev, False).data[0]
        z = (z - dt * cfg_combine(v_cond, v_uncond, cfg_scale)).astype(state.dtype)
    return np.asarray(z)


def block_mask(text_lengths, history_lengths, dtype):
    """The additive block causal mask of packed sequences, written as the
    packed training step first built it: every text row, then every history
    row; a row sees the rows of its own sequence up to its own position."""
    owner = np.arange(len(text_lengths))
    seq = np.r_[np.repeat(owner, text_lengths), np.repeat(owner, history_lengths)]
    text_positions = np.concatenate([np.arange(n) for n in text_lengths])
    history_positions = np.concatenate([np.arange(k) for k in history_lengths])
    pos = np.r_[text_positions, np.repeat(text_lengths, history_lengths) + history_positions]
    allowed = (seq[:, None] == seq[None, :]) & (pos[None, :] <= pos[:, None])
    return np.where(allowed, 0.0, MASK_VALUE).astype(dtype)


def _ranges(lengths):
    # [0..n0) ++ [0..n1) ++ ... as one index array.
    return np.concatenate([np.arange(n) for n in lengths])


def packing_layout(text_lengths, history_lengths, past_rows, dtype):
    """``Packing``'s layout written sequence by sequence, as it was first
    built: position ranges that restart in each sequence (a cached call
    takes no text row, and its history continues after the ``past_rows``
    cached rows), each row's owner and position rebuilt from them, the
    dense additive mask over the columns (the cached rows of sequence 0,
    then the fresh rows), and, for an uncached layout, the step rows and
    history steps from per-sequence loops."""
    owner = np.arange(len(text_lengths))
    text_rows = sum(text_lengths)
    text_positions = _ranges(text_lengths)
    history_positions = (past_rows - text_rows if past_rows else 0) + _ranges(history_lengths)
    seq = np.repeat(owner, history_lengths)
    pos = history_positions + np.repeat(text_lengths, history_lengths)
    if past_rows:
        text_positions = text_positions[:0]
    else:
        seq = np.r_[np.repeat(owner, text_lengths), seq]
        pos = np.r_[text_positions, pos]
    column_seq = np.r_[np.zeros(past_rows, dtype=int), seq]
    column_pos = np.r_[np.arange(past_rows), pos]
    allowed = (column_seq == seq[:, None]) & (column_pos <= pos[:, None])
    layout = {"owner": seq, "position": pos, "text_positions": text_positions,
              "history_positions": history_positions,
              "mask": np.where(allowed, 0.0, MASK_VALUE).astype(dtype)}
    if not past_rows:
        rows, steps, text_end, history_start, step = [], [], -1, text_rows, 0
        for n, k in zip(text_lengths, history_lengths):
            text_end += n
            rows += [text_end, *range(history_start, history_start + k)]
            steps += range(step, step + k)
            history_start += k
            step += k + 1
        layout["step_rows"], layout["history_steps"] = rows, steps
    return layout


def with_block_masks(patched):
    """Make several packed sequences attend as one sequence under
    ``block_mask``, the dense path their segments replaced; ``patched`` is
    a pytest monkeypatch.  One sequence keeps its own mask."""
    real = Packing.mask

    def dense(packing, dtype):
        if packing.size == 1:
            return real(packing, dtype)
        history_lengths = np.bincount(packing.owner[packing.text_rows:], minlength=packing.size)
        return block_mask(packing.text_lengths, history_lengths, dtype)

    patched.setattr(Packing, "mask", dense)


class PerTensorAdam:
    """Adam written tensor by tensor, each reading its own ``.grad`` (0 where
    it has none), as the optimizer was before the flat buffers: the
    reference the flat update is checked against."""

    def __init__(self, state, lr):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in state.parameters()}
        self.v = {name: np.zeros_like(p.data) for name, p in state.parameters()}

    def step(self, state):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in state.parameters():
            g = p.grad if p.grad is not None else 0.0
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (self.lr * update).astype(p.data.dtype, copy=False)
