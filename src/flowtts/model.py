"""Conditioning-side model: patch encoder, semantic and residual transformers,
scalar-lattice quantizer with straight-through gradients, and the stop head.

Each generation step produces a quantized "skeleton" hidden plus a residual
hidden; their sum conditions the patch decoder.  All transformers are causal
pre-LN stacks with learned absolute position embeddings (separate tables for
text and acoustic segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    RngHub,
    ShapeError,
    Tensor,
    _accumulate,
    _from_array,
    active_dtype,
    add,
    attention,
    concat,
    constant,
    embedding_lookup,
    gelu,
    layer_norm_affine,
    linear,
    narrow,
    parameter,
    push_op,
    stacked_linear,
)

__all__ = [
    "ModelConfig",
    "ModelState",
    "StepHiddens",
    "ConditioningCache",
    "NonFiniteError",
    "Packing",
    "VELOCITY_LAYERS",
    "init_model_state",
    "param_layout",
    "encode_patches",
    "semantic_hiddens",
    "fsq_quantize",
    "residual_hiddens",
    "stop_logits",
    "conditioning",
    "conditioning_batch",
    "step_hiddens",
    "transformer_stack",
]

MASK_VALUE = -1e9
INIT_STD = 0.02
VELOCITY_LAYERS = 2  # depth of the patch-decoder transformer
MLP_WIDTH = 4  # hidden width multiplier inside transformer blocks


@dataclass(frozen=True)
class ModelConfig:
    """Sizes and constants shared by all five submodules."""

    d_model: int = 64
    n_layers_semantic: int = 2
    n_layers_residual: int = 2
    n_heads: int = 4
    d_patch: int = 16
    vocab_size: int = 64
    fsq_delta: float = 0.5
    fsq_bound: int = 4
    max_patches: int = 256
    max_text_len: int = 64
    lambda_stop: float = 0.1
    cfg_drop_prob: float = 0.1
    frame_ms: int = 40

    def __post_init__(self):
        for name in ("d_model", "n_layers_semantic", "n_layers_residual", "n_heads",
                     "d_patch", "vocab_size", "max_patches", "max_text_len", "frame_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ModelConfig.{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("ModelConfig.d_model must be divisible by n_heads")
        if not (math.isfinite(self.fsq_delta) and self.fsq_delta > 0):
            raise ValueError("ModelConfig.fsq_delta must be finite and > 0")
        if not (math.isfinite(self.lambda_stop) and self.lambda_stop >= 0):
            raise ValueError("ModelConfig.lambda_stop must be finite and >= 0")
        if self.fsq_bound < 1:
            raise ValueError("ModelConfig.fsq_bound must be a positive integer")
        if not 0.0 <= self.cfg_drop_prob <= 1.0:
            raise ValueError("ModelConfig.cfg_drop_prob must lie in [0, 1]")


def _stack_layout(prefix: str, n_layers: int, d: int):
    # Each block's wq, wk, wv and its bq, bk, bv are adjacent: ModelState
    # views each triple as one stacked tensor for the q/k/v product.
    for i in range(n_layers):
        base = f"{prefix}.l{i}"
        yield f"{base}.ln1.g", (d,), "ones"
        yield f"{base}.ln1.b", (d,), "zeros"
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{base}.attn.{proj}", (d, d), "normal"
        for bias in ("bq", "bk", "bv", "bo"):
            yield f"{base}.attn.{bias}", (d,), "zeros"
        yield f"{base}.ln2.g", (d,), "ones"
        yield f"{base}.ln2.b", (d,), "zeros"
        yield f"{base}.mlp.w1", (d, MLP_WIDTH * d), "normal"
        yield f"{base}.mlp.b1", (MLP_WIDTH * d,), "zeros"
        yield f"{base}.mlp.w2", (MLP_WIDTH * d, d), "normal"
        yield f"{base}.mlp.b2", (d,), "zeros"
    yield f"{prefix}.lnf.g", (d,), "ones"
    yield f"{prefix}.lnf.b", (d,), "zeros"


def param_layout(config: ModelConfig):
    """Ordered (name, shape, init) triples for every learnable tensor."""
    d, dp = config.d_model, config.d_patch
    # Local acoustic encoder: per-patch 2-layer MLP.
    yield "enc.w1", (dp, d), "normal"
    yield "enc.b1", (d,), "zeros"
    yield "enc.w2", (d, d), "normal"
    yield "enc.b2", (d,), "zeros"
    # Semantic transformer over [text tokens ++ acoustic embeddings].
    yield "sem.tok", (config.vocab_size, d), "normal"
    yield "sem.pos_text", (config.max_text_len, d), "normal"
    yield "sem.pos_ac", (config.max_patches, d), "normal"
    yield from _stack_layout("sem", config.n_layers_semantic, d)
    # Residual transformer over [text hiddens ++ projected (skeleton ⊕ acoustic) history].
    yield "res.proj.w", (2 * d, d), "normal"
    yield "res.proj.b", (d,), "zeros"
    yield "res.pos_text", (config.max_text_len, d), "normal"
    yield "res.pos_hist", (config.max_patches, d), "normal"
    yield from _stack_layout("res", config.n_layers_residual, d)
    # Stop head reads the quantized skeleton.
    yield "stop.w", (d, 1), "normal"
    yield "stop.b", (1,), "zeros"
    # Velocity net (patch decoder): 2-token bidirectional transformer.
    yield "vel.in.w", (dp, d), "normal"
    yield "vel.in.b", (d,), "zeros"
    yield "vel.pos", (2, d), "normal"
    yield "vel.null", (1, d), "normal"
    yield from _stack_layout("vel", VELOCITY_LAYERS, d)
    yield "vel.out.w", (d, dp), "normal"
    yield "vel.out.b", (dp,), "zeros"


class ModelState:
    """All learnable parameter tensors plus the sizing/quantizer config.

    Every parameter value lives in one flat array, ``data``, and every
    parameter gradient in a second, ``grad``, both in ``param_layout``
    order with the padding ALIGN adds: ``params[name].data`` and
    ``params[name].grad`` are views into them.  Adjoints accumulate into
    those views in place, so zeroing the gradients and an optimizer step are
    each one pass over a flat array.
    ``qkv[prefix]`` views a block's adjacent wq, wk, wv as one (3, d, d)
    weight and bq, bk, bv as one (3, d) bias, over the same memory.

    Immutable during inference: concurrent read-only forward passes are safe.
    Training mutates parameter values under a single writer.
    """

    # Each tensor starts on a multiple of ALIGN elements (16 bytes of
    # float32), except wk, wv, bk and bv, which follow wq and bq directly so
    # that qkv can view them as one tensor.  The padding stays zero.
    ALIGN = 4
    _STACKED_TAILS = (".attn.wk", ".attn.wv", ".attn.bk", ".attn.bv")

    def __init__(self, config: ModelConfig):
        """All-zero parameters of ``config``'s layout, in the active dtype."""
        self.config = config
        layout = [(name, shape) for name, shape, _ in param_layout(config)]
        starts, end = [], 0
        for name, shape in layout:
            if not name.endswith(self._STACKED_TAILS):
                end = -(-end // self.ALIGN) * self.ALIGN
            starts.append(end)
            end += math.prod(shape)
        self.data = np.zeros(end, dtype=active_dtype())
        # np.zeros (calloc) leaves the pages untouched until a backward pass
        # writes them; zeros_like writes every one, and inference would hold
        # the memory.
        self.grad = np.zeros(end, dtype=active_dtype())
        self.params = {name: self._view(start, shape)
                       for (name, shape), start in zip(layout, starts)}
        offsets = dict(zip(self.params, starts))
        d = config.d_model
        attention_prefixes = [name[:-len(".wq")] for name in self.params
                              if name.endswith(".attn.wq")]
        self.qkv = {prefix: (self._view(offsets[f"{prefix}.wq"], (3, d, d)),
                             self._view(offsets[f"{prefix}.bq"], (3, d)))
                    for prefix in attention_prefixes}

    def _view(self, start: int, shape: tuple[int, ...]) -> Tensor:
        stop = start + math.prod(shape)
        t = parameter(self.data[start:stop].reshape(shape), dtype=self.data.dtype)
        t.grad = self.grad[start:stop].reshape(shape)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def parameters(self):
        return self.params.items()

    def zero_grads(self) -> None:
        self.grad.fill(0)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


def init_model_state(config: ModelConfig, seed: int = 0) -> ModelState:
    """Fresh random state; weights are scaled-normal (std 0.02), biases zero."""
    rng = RngHub(seed).stream("init")
    state = ModelState(config)
    for name, shape, kind in param_layout(config):
        if kind == "normal":
            state.params[name].data[...] = rng.standard_normal(shape) * INIT_STD
        elif kind == "ones":
            state.params[name].data[...] = 1
    return state


# --------------------------------------------------------------------------
# Shared transformer machinery
# --------------------------------------------------------------------------

def _ranges(lengths: list[int]) -> np.ndarray:
    # [0..n0) ++ [0..n1) ++ ... as one index array.
    return np.concatenate([np.arange(n) for n in lengths])


class Packing:
    """Row layout of several sequences packed into one for the conditioning
    stacks, and its attention mask.

    Sequence e has ``text_lengths[e]`` text rows and ``history_lengths[e]``
    history rows.  The packed rows are the text rows of every sequence, one
    sequence after another, then the history rows in the same order, so one
    sequence is laid out as it is alone.  Positions restart in each sequence.
    A cache may hold the keys and values of the first ``past_rows`` rows of
    one sequence (its text, then its first history rows); the stacks then
    take the ``rows`` after them, at the positions after them.  The mask
    lets a row see the cached rows, plus the rows of its own sequence up to
    its own position, so no sequence sees another (packing without
    cross-contamination, Krell et al., 2021).
    """

    def __init__(self, text_lengths, history_lengths, past_rows: int = 0):
        self.text_lengths = [int(n) for n in text_lengths]
        self.history_lengths = [int(k) for k in history_lengths]
        self.past_rows = int(past_rows)
        self.size = len(self.text_lengths)
        self.text_rows = sum(self.text_lengths)
        self.text_positions = _ranges(self.text_lengths)
        first = self.past_rows - self.text_rows if self.past_rows else 0
        self.history_positions = first + _ranges(self.history_lengths)
        self.rows = (0 if self.past_rows else self.text_rows) + sum(self.history_lengths)
        self._mask: np.ndarray | None = None

    def step_rows(self) -> np.ndarray:
        """Rows that condition the steps of an uncached call: per sequence,
        its last text row (step 0), then its history rows.  (With cached
        rows every row is a step: the call that cached the last text row
        returned step 0.)"""
        rows, text_end, history_start = [], -1, self.text_rows
        for n, k in zip(self.text_lengths, self.history_lengths):
            text_end += n
            rows += [text_end, *range(history_start, history_start + k)]
            history_start += k
        return np.array(rows)

    def history_steps(self) -> np.ndarray:
        """Index, among the steps of ``step_rows``, of the step each history
        row pairs with (steps 0..k-1 of its sequence)."""
        steps, start = [], 0
        for k in self.history_lengths:
            steps += range(start, start + k)
            start += k + 1
        return np.array(steps, dtype=np.int64)

    def mask(self, dtype) -> np.ndarray | None:
        """Additive (rows, past_rows + rows) mask of the rule above, or None
        when it hides nothing (one row).  It is built at the first call and
        belongs to this packing, so both stacks share it."""
        if self._mask is None and self.rows > 1:
            owner = np.arange(self.size)
            seq = np.repeat(owner, self.history_lengths)
            pos = self.history_positions + np.repeat(self.text_lengths, self.history_lengths)
            if not self.past_rows:
                seq = np.concatenate([np.repeat(owner, self.text_lengths), seq])
                pos = np.concatenate([self.text_positions, pos])
            self._mask = mask = np.zeros((self.rows, self.past_rows + self.rows), dtype=dtype)
            mask[:, self.past_rows:][(seq[:, None] != seq) | (pos > pos[:, None])] = MASK_VALUE
        return self._mask


# The transformer helpers index state.params directly: they run a few hundred
# times per synthesized patch, and ModelState.__getitem__ adds a call to each.

def _ln(state: ModelState, prefix: str, x: Tensor) -> Tensor:
    params = state.params
    return layer_norm_affine(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _qkv(state: ModelState, prefix: str, x: Tensor, past: np.ndarray | None,
         past_rows: int) -> tuple[Tensor, Tensor, Tensor]:
    """Queries, keys and values of ``x``'s rows, from one product.  With a
    store ``past`` the keys and values are written after its filled rows,
    and those returned are all the filled rows."""
    q, k, v = stacked_linear(_ln(state, f"{prefix}.ln1", x), *state.qkv[f"{prefix}.attn"])
    if past is not None:
        rows = past_rows + k.data.shape[0]
        past[0, past_rows:rows] = k.data
        past[1, past_rows:rows] = v.data
        if past_rows:
            k, v = _cached_rows(past[0, :rows], k), _cached_rows(past[1, :rows], v)
    return q, k, v


def _cached_rows(rows: np.ndarray, new: Tensor) -> Tensor:
    """A store's filled ``rows``, the last of which hold ``new``'s data.
    Gradients reach ``new`` only; the earlier rows are constants."""
    past_rows = rows.shape[0] - new.data.shape[0]
    out = _from_array(rows, new.requires_grad)
    push_op(out, lambda g: _accumulate(new, g[past_rows:]))
    return out


def _block(state: ModelState, prefix: str, x: Tensor, mask: np.ndarray | None, batch: int,
           past: np.ndarray | None, past_rows: int, last_only: bool) -> Tensor:
    params = state.params
    q, k, v = _qkv(state, prefix, x, past, past_rows)
    seq = x.data.shape[0] // batch
    if last_only and seq > 1:
        # The last row of each sequence, as a strided view.  The sequences
        # share the mask, so a last row's mask row is its last row.
        x, q = narrow(x, 0, seq - 1, batch, seq), narrow(q, 0, seq - 1, batch, seq)
        mask = None if mask is None else mask[-1:]
    attended = attention(q, k, v, state.config.n_heads, mask, batch)
    x = add(x, linear(attended, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"]))
    h = gelu(linear(_ln(state, f"{prefix}.ln2", x), params[f"{prefix}.mlp.w1"],
                    params[f"{prefix}.mlp.b1"]))
    return add(x, linear(h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"]))


def transformer_stack(state: ModelState, prefix: str, x: Tensor, n_layers: int,
                      mask: np.ndarray | None, batch: int = 1, past: np.ndarray | None = None,
                      past_rows: int = 0, last_only: bool = False) -> Tensor:
    """Pre-LN blocks over ``batch`` equal-length sequences stored row-block
    after row-block; ``mask`` is an additive (T, T) ndarray, or None where
    it would hide nothing (the conditioning stacks use ``Packing.mask``).

    ``past`` is a key/value store of one sequence, shaped (n_layers, 2,
    capacity, d): layer i's keys at ``past[i, 0]`` and values at
    ``past[i, 1]``, of which the first ``past_rows`` rows are filled.  Each
    layer writes the keys and values of ``x`` at the rows after them, and
    the rows of ``x`` attend to all filled rows (``mask`` is then
    (T, past_rows + T)).  With ``past_rows`` 0 the layers attend to their
    fresh keys and values, recording the same ops as no store.

    With ``last_only`` the result is the last row of each sequence, one row
    per sequence, and the last block computes no other: every row still
    gives its keys and values (to attention and the store), but the queries,
    the output projection, the residual add, the MLP and the final norm run
    on the last rows only, a strided ``narrow`` of the rows.  Where every
    row is a last row (one row per sequence) nothing is selected, and the
    ops are those of the full stack.
    """
    if past is not None and batch != 1:
        raise ShapeError("transformer_stack: cached keys and values need batch == 1")
    for i in range(n_layers):
        x = _block(state, f"{prefix}.l{i}", x, mask, batch,
                   None if past is None else past[i], past_rows,
                   last_only and i == n_layers - 1)
    return _ln(state, f"{prefix}.lnf", x)


# --------------------------------------------------------------------------
# Submodules
# --------------------------------------------------------------------------

def _as_patch_matrix(patches, d_patch: int, dtype) -> np.ndarray:
    arr = np.asarray(patches, dtype=dtype)
    if arr.size == 0:
        return arr.reshape(0, d_patch)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d_patch:
        raise ShapeError(f"patches must have length {d_patch}, got shape {arr.shape}")
    return arr


def encode_patches(state: ModelState, patches) -> Tensor:
    """Per-patch MLP producing one compact acoustic embedding per patch.

    Embedding k depends only on patch k, so causality of downstream stacks
    is preserved by construction.
    """
    cfg = state.config
    arr = _as_patch_matrix(patches, cfg.d_patch, state.dtype)
    h = gelu(linear(constant(arr, dtype=state.dtype), state["enc.w1"], state["enc.b1"]))
    return linear(h, state["enc.w2"], state["enc.b2"])


def _check_tokens(config: ModelConfig, text_tokens) -> np.ndarray:
    ids = np.asarray(text_tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("a non-empty text token sequence is required")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError(f"token ids must lie in [0, {config.vocab_size})")
    if ids.size > config.max_text_len:
        raise ShapeError(f"text length {ids.size} exceeds max_text_len {config.max_text_len}")
    return ids


def _join_rows(parts: list[Tensor]) -> Tensor:
    # One sequence from its row blocks; no blocks is a ShapeError from concat.
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


def semantic_hiddens(state: ModelState, text_tokens, acoustic: Tensor,
                     past: np.ndarray | None = None, packing: Packing | None = None) -> Tensor:
    """Causal hidden states over [embedded text] ++ [acoustic embeddings].

    Row (n_text - 1 + i) is the prediction hidden for patch i: it has seen
    the full text plus acoustic context strictly before patch i.

    ``past`` is this stack's key/value store (see ``transformer_stack``).
    When it holds an earlier call's rows, over the same text and the first
    h patches, the text is not recomputed: ``acoustic`` holds the embeddings
    of patches h, h+1, ... and the result has one row per embedding.

    Positions, text skipping, the mask and the number of filled store rows
    come from ``packing``, by default this one sequence's with no store.
    With a ``packing`` passed in, ``text_tokens`` holds the checked ids of
    its sequences one after another and ``acoustic`` their embeddings in the
    same order, and the rows are in the packed order.
    """
    cfg = state.config
    if packing is None:
        if past is not None:
            raise ValueError("semantic_hiddens: a past needs the packing that counts its rows")
        ids = _check_tokens(cfg, text_tokens)
        packing = Packing([ids.size], [acoustic.data.shape[0]])
    else:
        ids = np.asarray(text_tokens, dtype=np.int64)
    ac_positions = packing.history_positions
    if ac_positions.size and ac_positions.max() >= cfg.max_patches:
        raise ShapeError(f"acoustic context of {ac_positions.max() + 1} patches exceeds "
                         f"max_patches {cfg.max_patches}")
    parts = []
    if not packing.past_rows:
        parts.append(add(embedding_lookup(state["sem.tok"], ids),
                         embedding_lookup(state["sem.pos_text"], packing.text_positions)))
    if ac_positions.size:
        parts.append(add(acoustic, embedding_lookup(state["sem.pos_ac"], ac_positions)))
    return transformer_stack(state, "sem", _join_rows(parts), cfg.n_layers_semantic,
                             packing.mask(state.dtype), past=past, past_rows=packing.past_rows)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # Fixed half-away-from-zero rounding, independent of platform default.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class NonFiniteError(ValueError):
    """A NaN or infinity reached the quantizer, which cannot place it on
    the lattice."""


def fsq_quantize(h: Tensor, delta: float, bound: int) -> Tensor:
    """Per-dimension scalar quantization onto the lattice delta * [-bound, bound].

    output[j] = delta * clip(round(h[j] / delta), -bound, bound) with
    half-away-from-zero rounding.  The backward pass is the identity
    (straight-through), so gradients flow to the pre-quantization hidden.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("fsq_quantize: delta must be finite and > 0")
    if bound < 1:
        raise ValueError("fsq_quantize: bound must be >= 1")
    if not np.all(np.isfinite(h.data)):
        raise NonFiniteError("fsq_quantize: non-finite input")
    q = delta * np.clip(_round_half_away(h.data / delta), -bound, bound)
    out = _from_array(q.astype(h.data.dtype, copy=False), h.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(h, g)

    push_op(out, adjoint)
    return out


def residual_hiddens(state: ModelState, text_hiddens: Tensor | None,
                     fsq_history: Tensor, acoustic_history: Tensor,
                     past: np.ndarray | None = None, packing: Packing | None = None) -> Tensor:
    """Causal hidden states over [text hiddens] ++ [proj(skeleton ⊕ acoustic)].

    Row (n_text - 1 + i) is the residual hidden for step i.

    ``past`` is this stack's key/value store (see ``transformer_stack``).
    When it holds an earlier call's rows, over the same text hiddens and the
    first h history steps, the text rows are not recomputed: the histories
    hold steps h, h+1, ..., the result has one row per step, and
    ``text_hiddens`` may be None.

    Positions, text skipping, the mask and the number of filled store rows
    come from ``packing``, by default this one sequence's with no store.
    With a ``packing`` passed in, the text hiddens and the histories hold its
    sequences one after another, and the rows are in the packed order.

    A call with a ``past`` returns the last row only, and the stack's last
    block computes no other (``transformer_stack``'s ``last_only``).
    """
    cfg = state.config
    k = fsq_history.data.shape[0]
    if acoustic_history.data.shape[0] != k:
        raise ShapeError(
            f"history length mismatch: {k} quantized vs {acoustic_history.data.shape[0]} acoustic"
        )
    if packing is None:
        if past is not None:
            raise ValueError("residual_hiddens: a past needs the packing that counts its rows")
        packing = Packing([text_hiddens.data.shape[0]], [k])
    parts = []
    if not packing.past_rows:
        parts.append(add(text_hiddens,
                         embedding_lookup(state["res.pos_text"], packing.text_positions)))
    if k:
        hist = linear(concat([fsq_history, acoustic_history], axis=1),
                      state["res.proj.w"], state["res.proj.b"])
        parts.append(add(hist, embedding_lookup(state["res.pos_hist"], packing.history_positions)))
    return transformer_stack(state, "res", _join_rows(parts), cfg.n_layers_residual,
                             packing.mask(state.dtype), past=past, past_rows=packing.past_rows,
                             last_only=past is not None)


def stop_logits(state: ModelState, h_fsq: Tensor) -> Tensor:
    """Linear head mapping quantized skeleton rows to termination logits."""
    return linear(h_fsq, state["stop.w"], state["stop.b"])


class ConditioningCache:
    """What ``conditioning`` keeps between the calls of one synthesis: the
    text, how many patches it has consumed (not the patches: each is handed
    over once), the last quantized row (the residual stack reads it with the
    next patch) and both stacks' keys and values in ``store``.

    The prefill allocates ``store`` in the model dtype, shaped
    (n_layers_semantic + n_layers_residual, 2, len(tokens) + max_patches,
    d_model): the semantic layers, then the residual ones (see
    ``transformer_stack``).  Both stacks hold one row per token and patch,
    so the first ``len(tokens) + patches`` rows of every layer are filled; a
    decode call writes its rows after them in place.  It never fills up: a
    call reaching max_patches is rejected.

    A cache belongs to one caller and one utterance; the ModelState it is
    used with stays read-only.  A call sets the fields only once it has
    succeeded, so a call that raises leaves them unchanged (it may have
    written rows past the filled ones).
    """

    def __init__(self):
        self.tokens: np.ndarray | None = None
        self.patches = 0
        self.last_quantized: np.ndarray | None = None
        self.store: np.ndarray | None = None


def _last_row(t: Tensor) -> Tensor:
    rows = t.data.shape[0]
    return t if rows == 1 else narrow(t, 0, rows - 1, 1)


def conditioning(state: ModelState, text_tokens, history,
                 cache: ConditioningCache | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Teacher-forced conditioning for every step 0..len(history).

    Returns ``(h_final, quantized, h_residual)`` with one row per step: row i
    conditions patch i on the text and ``history[:i]``, and
    h_final == quantized + h_residual.  Training passes all but the last
    ground-truth patch; synthesis reads the last row for the next patch.

    With a ``cache``, ``history`` holds only the patches the cache does not
    hold yet: all of them at the first call (prefill), which also keeps what
    later calls need, then at least one new patch per call (decode), which
    runs against the cached keys and values.  A cached call returns one row,
    that of its last step (the row synthesis reads): the residual stack's
    last block runs for that row alone (``transformer_stack``'s
    ``last_only``), while every row still gives the cache its keys and
    values.  Other text tokens or no new patch raise ValueError; cached plus
    new patches reaching max_patches raise ShapeError.

    This is ``conditioning_batch`` of a batch of one.
    """
    return conditioning_batch(state, [text_tokens], [history], cache)


def conditioning_batch(state: ModelState, texts, histories,
                       cache: ConditioningCache | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """``conditioning`` of several sequences in one pass of each stack.

    Sequence e is ``texts[e]`` with ``histories[e]``; the sequences are
    packed into one (see ``Packing``), so each stack, the encoder and the
    quantizer run once however many there are, and no sequence sees
    another.  The result has the rows of sequence 0 (steps 0..k_0), then
    those of sequence 1, and so on.  A ``cache`` takes exactly one sequence,
    and its ``histories[0]`` holds only the patches the cache does not hold;
    the result is then the one row of the call's last step.
    """
    cfg = state.config
    histories = [_as_patch_matrix(h, cfg.d_patch, state.dtype) for h in histories]
    lengths = [h.shape[0] for h in histories]
    if not histories or len(texts) != len(histories):
        raise ValueError(f"conditioning: {len(texts)} texts for {len(histories)} histories")
    fresh = cache is None or cache.tokens is None
    done = 0 if fresh else cache.patches
    if done + max(lengths) >= cfg.max_patches:
        raise ShapeError(f"patch history of {done + max(lengths)} reached max_patches "
                         f"{cfg.max_patches}")
    tokens = [_check_tokens(cfg, t) for t in texts]
    if cache is not None and len(tokens) != 1:
        raise ValueError("conditioning: a cache holds one sequence")
    if not fresh:
        if not np.array_equal(tokens[0], cache.tokens):
            raise ValueError("conditioning: the cache was filled for other text tokens")
        if not lengths[0]:
            raise ValueError("conditioning: a decode call needs at least one new patch")
    store = semantic_past = residual_past = None
    if cache is not None:
        layers = cfg.n_layers_semantic + cfg.n_layers_residual
        store = np.empty((layers, 2, tokens[0].size + cfg.max_patches, cfg.d_model),
                         dtype=state.dtype) if fresh else cache.store
        semantic_past, residual_past = store[:cfg.n_layers_semantic], store[cfg.n_layers_semantic:]
    packing = Packing([t.size for t in tokens], lengths, 0 if fresh else tokens[0].size + done)

    embeddings = encode_patches(state, np.concatenate(histories))
    hiddens = semantic_hiddens(state, np.concatenate(tokens), embeddings, semantic_past, packing)
    # Prefill quantizes steps 0..k; decode steps done+1..done+k, which are
    # its rows as they stand.
    rows = packing.step_rows() if fresh else None
    quantized = fsq_quantize(hiddens if rows is None else embedding_lookup(hiddens, rows),
                             cfg.fsq_delta, cfg.fsq_bound)
    # Decode's cached residual keys and values already hold the text rows.
    text_hiddens = narrow(hiddens, 0, 0, packing.text_rows) if fresh else None
    # History step i pairs patch i with the skeleton of step i; decode's
    # first one is the last skeleton of the previous call.
    skeletons = quantized if fresh else concat([constant(cache.last_quantized), quantized], axis=0)
    paired = embedding_lookup(skeletons, packing.history_steps())
    if cache is None:
        residual = residual_hiddens(state, text_hiddens, paired, embeddings, packing=packing)
        h_res = embedding_lookup(residual, rows)
        return add(quantized, h_res), quantized, h_res

    # A cached call returns the row of its last step only, so the residual
    # stack's last block computes that row alone.
    h_res = residual_hiddens(state, text_hiddens, paired, embeddings, residual_past, packing)
    quantized = _last_row(quantized)
    cache.tokens = tokens[0]
    cache.patches = done + lengths[0]
    cache.last_quantized = quantized.data
    cache.store = store
    return add(quantized, h_res), quantized, h_res


@dataclass
class StepHiddens:
    """Per-step conditioning bundle; h_final == h_quantized + h_residual."""

    h_quantized: Tensor
    h_residual: Tensor
    h_final: Tensor
    stop_logit: float


def step_hiddens(state: ModelState, text_tokens, patch_history,
                 cache: ConditioningCache | None = None) -> StepHiddens:
    """Conditioning for the next patch: the last row of ``conditioning``.

    Without a ``cache`` the whole prefix is computed, and the last row is
    taken from it.  Synthesis passes one cache for all its steps and hands
    over each patch once: the reference at the first step, then only the
    patch that step adds; a cached call returns the last row alone.
    """
    h_final, h_fsq, h_res = map(_last_row, conditioning(state, text_tokens, patch_history, cache))
    logit = stop_logits(state, h_fsq)
    return StepHiddens(h_quantized=h_fsq, h_residual=h_res, h_final=h_final,
                       stop_logit=float(logit.data[0, 0]))
