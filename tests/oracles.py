"""Independent oracles shared by the unit and acceptance suites.

These stay deliberately naive: the hand-written numeral table, the memoized
recursive edit distance, the row-by-row DP, the per-character
normalization stages and the taped primitives the fused ones replaced exist
to check the production code, so they must not share its implementation
strategy.
"""

import functools
import logging
import unicodedata

import numpy as np

from flowtts.autodiff import Tensor, _accumulate, push_op
from flowtts.flowmatch import cfg_combine, velocity
from flowtts.model import MASK_VALUE
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
