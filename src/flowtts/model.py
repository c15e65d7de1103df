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
    Segments,
    ShapeError,
    Tensor,
    _accumulate,
    _from_array,
    active_dtype,
    add,
    concat,
    constant,
    embedding_lookup,
    gelu,
    layer_norm_affine,
    linear,
    narrow,
    parameter,
    push_op,
    transformer_block,
)

__all__ = [
    "ModelConfig",
    "ModelState",
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
        if self.frame_ms > 2**32 - 1:  # the .jlat header's u32
            raise ValueError("ModelConfig.frame_ms must be at most 2**32 - 1")
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


# A block's parameters in the order of the tuple transformer_block takes;
# attn.wq and attn.bq stand for the q/k/v weight and bias stacked from them.
_BLOCK_PARAMS = ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wo", "attn.bo",
                 "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


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
    ``blocks[stack]`` holds, for each block of the stack ("sem", "res" or
    "vel"), the parameter tuple ``autodiff.transformer_block`` takes, built
    once here so that a block call looks up no names; its q/k/v weight views
    the block's adjacent wq, wk, wv as one (3, d, d) tensor, and its bias bq,
    bk, bv as one (3, d), over the same memory.

    Immutable during inference: concurrent read-only forward passes are safe.
    Training mutates parameter values under a single writer.
    """

    # Each tensor starts on a multiple of ALIGN elements (16 bytes of
    # float32), except wk, wv, bk and bv, which follow wq and bq directly so
    # that a block's q/k/v weight and bias can view them as one tensor each.
    # The padding stays zero.
    ALIGN = 4
    _STACKED_TAILS = (".attn.wk", ".attn.wv", ".attn.bk", ".attn.bv")
    _STACKED_HEADS = ("attn.wq", "attn.bq")

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
        self.blocks: dict[str, list[tuple[Tensor, ...]]] = {}
        for name in self.params:
            if name.endswith(".attn.wq"):
                base = name[:-len(".attn.wq")]
                block = []
                for tail in _BLOCK_PARAMS:
                    p = self.params[f"{base}.{tail}"]
                    if tail in self._STACKED_HEADS:  # with the k and v tensors after it
                        p = self._view(offsets[f"{base}.{tail}"], (3, *p.shape))
                    block.append(p)
                self.blocks.setdefault(base.rsplit(".l", 1)[0], []).append(tuple(block))

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

class Packing:
    """Row layout of several sequences packed into one for the conditioning
    stacks, and its attention mask.

    Sequence e has ``text_lengths[e]`` text rows and ``history_lengths[e]``
    history rows, packed as every sequence's text rows in turn, then their
    history rows in the same order (one sequence is laid out as alone).
    Row r is row ``position[r]`` (text, then history, from 0) of sequence
    ``owner[r]``; every other layout array derives from the two.  A cache
    may hold the first ``past_rows`` rows of one sequence (ShapeError for
    several); the stacks then take no text row and the history rows after
    them.  The mask has one rule: a row sees the columns (cached rows, then
    fresh ones) of its own sequence at or before its own position, so no
    sequence sees another (packing without cross-contamination, Krell et
    al., 2021).  Several sequences attend in segments (see ``mask``), each
    within itself over a grid padded to the longest, as a variable-length
    attention does (FlashAttention-2's ``cu_seqlens``, Dao, 2023).
    """

    def __init__(self, text_lengths, history_lengths, past_rows: int = 0):
        self.size = len(text_lengths)
        self.past_rows = int(past_rows)
        if self.past_rows:
            if self.size != 1:
                raise ShapeError(f"Packing: cached rows belong to one sequence, not {self.size}")
            self.text_lengths, self.text_rows = np.asarray(text_lengths, dtype=np.intp), 0
            self.owner = np.zeros(int(history_lengths[0]), dtype=np.intp)
            self.position = np.arange(self.past_rows, self.past_rows + self.owner.size)
        else:
            # Row blocks: each text, then each history (after its text).
            lengths = np.array([*text_lengths, *history_lengths], dtype=np.intp)
            ends = np.add.accumulate(lengths)
            offset = lengths - ends  # a block's positions minus its packed rows
            self.text_lengths = lengths[:self.size]
            self.text_rows = int(ends[self.size - 1])
            offset[self.size:] += self.text_lengths
            self.owner = np.repeat(np.arange(2 * self.size) % self.size, lengths)
            self.position = np.arange(self.owner.size) + np.repeat(offset, lengths)
        self.rows = self.owner.size
        self.text_positions = self.position[:self.text_rows]
        self.history_positions = (self.position[self.text_rows:]
                                  - self.text_lengths[self.owner[self.text_rows:]])
        self._mask: np.ndarray | Segments | None = None

    def history_steps(self) -> np.ndarray:
        """Index, among the steps of ``step_rows``, of the step each history
        row pairs with (steps 0..k-1 of its sequence, after one step for the
        text of each sequence before it)."""
        return np.arange(self.rows - self.text_rows) + self.owner[self.text_rows:]

    def step_rows(self) -> np.ndarray:
        """Rows that condition the steps of an uncached layout: per sequence,
        its last text row (step 0), then its history rows, each one step
        after the step it pairs with."""
        after = self.history_steps() + 1
        rows = np.empty(self.size + after.size, dtype=np.intp)
        rows[after] = np.arange(self.text_rows, self.rows)
        text = np.ones(rows.size, dtype=bool)
        text[after] = False
        rows[text] = np.add.accumulate(self.text_lengths) - 1
        return rows

    def mask(self, dtype) -> np.ndarray | Segments | None:
        """The rule above as the stacks' ``mask``: None when it hides nothing
        (one row), else one additive (T, T) causal table, T the longest
        sequence, that hides from position i the columns after i.  One
        sequence gets its rows' positions of it, a (rows, past_rows + rows)
        view; several get it whole in their ``autodiff.Segments``, so that
        attention runs within each sequence and never scores a pair of two.
        A row's cell is its position in its sequence's grid row, so the table
        hides from it every padding cell past its sequence's end.  Built at
        the first call, it belongs to this packing, so both stacks share it."""
        if self._mask is None and self.rows > 1:
            width = int(self.position.max()) + 1
            t = np.arange(width)
            causal = np.zeros((width, width), dtype=dtype)
            causal[t > t[:, None]] = MASK_VALUE
            if self.size == 1:
                self._mask = causal[self.past_rows:]
            else:
                cells = self.owner * width + self.position
                grid = np.zeros(self.size * width, dtype=np.intp)
                grid[cells] = np.arange(self.rows)
                self._mask = Segments(grid, cells, causal)
        return self._mask


def transformer_stack(state: ModelState, prefix: str, x: Tensor,
                      mask: np.ndarray | Segments | None, batch: int = 1,
                      past: np.ndarray | None = None, last_only: bool = False) -> Tensor:
    """Every pre-LN block of stack ``prefix`` (``state.blocks[prefix]``), one
    ``autodiff.transformer_block`` each (one tape entry per block), then the
    final layer norm, over ``batch`` equal-length sequences stored row-block
    after row-block; ``mask`` is an additive (T, T) ndarray, None where it
    would hide nothing, or the ``Segments`` of several sequences of unequal
    lengths packed into the rows (batch 1, no ``past``, no ``last_only``),
    each of which attends within itself.  The conditioning stacks use
    ``Packing.mask``.

    ``past`` views the key/value store rows of one sequence that this call
    attends to, shaped (blocks, 2, cached + T, d): layer i's keys at
    ``past[i, 0]`` and values at ``past[i, 1]``, the cached rows first.
    Each layer writes the keys and values of ``x`` into the last T rows, and
    the rows of ``x`` attend to all of them (``mask`` is then
    (T, cached + T)).  With nothing cached the layers attend to their fresh
    keys and values, as with no store.

    With ``last_only`` the result is the last row of each sequence, one row
    per sequence, and the last block computes no other: every row still
    gives its keys and values (to attention and the store), but the queries,
    the output projection, the residual adds, the MLP and the final norm run
    on the last rows only.  Where every row is a last row (one row per
    sequence) nothing is selected.
    """
    blocks, params, heads = state.blocks[prefix], state.params, state.config.n_heads
    last = len(blocks) - 1
    for i, block in enumerate(blocks):
        x = transformer_block(x, block, heads, mask, batch,
                              None if past is None else past[i], last_only and i == last)
    return layer_norm_affine(x, params[f"{prefix}.lnf.g"], params[f"{prefix}.lnf.b"])


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
    ids = np.asarray(text_tokens)  # integer ids: a float or bool id is not truncated
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("a non-empty text token sequence is required")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {ids.dtype}")
    if np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= config.vocab_size:
        raise ValueError(f"token ids must lie in [0, {config.vocab_size})")
    if ids.size > config.max_text_len:
        raise ShapeError(f"text length {ids.size} exceeds max_text_len {config.max_text_len}")
    return ids.astype(np.int64, copy=False)


def _stack_rows(state: ModelState, tables: tuple[str, str], text: Tensor | None,
                history: Tensor | None, packing: Packing) -> Tensor:
    # A stack's input: text rows (a cached call has none), then history
    # rows, each plus its row of the stack's text or history position table.
    parts = []
    if packing.text_rows:
        parts.append(add(text, embedding_lookup(state[tables[0]], packing.text_positions)))
    if packing.history_positions.size:
        parts.append(add(history, embedding_lookup(state[tables[1]], packing.history_positions)))
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


def semantic_hiddens(state: ModelState, ids, acoustic: Tensor, packing: Packing,
                     past: np.ndarray | None = None) -> Tensor:
    """Causal hidden states over [embedded text] ++ [acoustic embeddings],
    in ``packing``'s rows: ``ids`` holds the checked token ids of its
    sequences one after another and ``acoustic`` their patch embeddings.

    Row (n_text - 1 + i) of a sequence is the prediction hidden for its
    patch i: it has seen the full text plus acoustic context strictly
    before patch i.  With cached rows the text is not recomputed, and
    ``ids`` is not read.  ``past`` is this stack's store view (see
    ``transformer_stack``).
    """
    text = embedding_lookup(state["sem.tok"], ids) if packing.text_rows else None
    x = _stack_rows(state, ("sem.pos_text", "sem.pos_ac"), text, acoustic, packing)
    return transformer_stack(state, "sem", x, packing.mask(state.dtype), past=past)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # Fixed half-away-from-zero rounding, independent of platform default.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class NonFiniteError(ValueError):
    """A NaN or infinity reached the quantizer, which cannot place it on
    the lattice, or a synthesis step's stop logit or patch."""


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
    if not np.isfinite(h.data).all():
        raise NonFiniteError("fsq_quantize: non-finite input")
    # np.clip's Python wrapper costs more than the two ufuncs on these rows.
    q = delta * np.minimum(np.maximum(_round_half_away(h.data / delta), -bound), bound)
    out = _from_array(q.astype(h.data.dtype, copy=False), h.requires_grad)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(h, g)

    push_op(out, adjoint)
    return out


def residual_hiddens(state: ModelState, text_hiddens: Tensor | None,
                     fsq_history: Tensor, acoustic_history: Tensor, packing: Packing,
                     past: np.ndarray | None = None) -> Tensor:
    """Causal hidden states over [text hiddens] ++ [proj(skeleton ⊕ acoustic)],
    in ``packing``'s rows: the text hiddens and the histories hold its
    sequences one after another.

    Row (n_text - 1 + i) of a sequence is its residual hidden for step i.
    With cached rows the text rows are not recomputed, and ``text_hiddens``
    may be None.  ``past`` is this stack's store view (see
    ``transformer_stack``); a call with one returns the last row only, and
    the stack's last block computes no other (``last_only``).
    """
    k = fsq_history.data.shape[0]
    if acoustic_history.data.shape[0] != k:
        raise ShapeError(
            f"history length mismatch: {k} quantized vs {acoustic_history.data.shape[0]} acoustic"
        )
    history = linear(concat([fsq_history, acoustic_history], axis=1),
                     state["res.proj.w"], state["res.proj.b"]) if k else None
    x = _stack_rows(state, ("res.pos_text", "res.pos_hist"), text_hiddens, history, packing)
    return transformer_stack(state, "res", x, packing.mask(state.dtype), past=past,
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
    decode call writes its row after them in place.  It never fills up: a
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


def conditioning(state: ModelState, text_tokens, history,
                 cache: ConditioningCache | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Teacher-forced conditioning for every step 0..len(history).

    Returns ``(h_final, quantized, h_residual)`` with one row per step: row i
    conditions patch i on the text and ``history[:i]``, and
    h_final == quantized + h_residual.  Training passes all but the last
    ground-truth patch; synthesis reads the last row for the next patch.

    With a ``cache``, ``history`` holds only the patches the cache does not
    hold yet: all of them at the first call (prefill), which also keeps what
    later calls need, then exactly one new patch per call (decode), which
    runs against the cached keys and values.  A cached call returns one row,
    that of its last step (the row synthesis reads): the residual stack's
    last block runs for that row alone (``transformer_stack``'s
    ``last_only``), while every row still gives the cache its keys and
    values.  Other text tokens, or a decode of other than one patch, raise
    ValueError; cached plus new patches reaching max_patches raise
    ShapeError.

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
    and its ``histories[0]`` holds only the patches the cache does not hold
    (one at a decode); the result is then the one row of the call's last
    step.
    """
    cfg = state.config
    histories = [_as_patch_matrix(h, cfg.d_patch, state.dtype) for h in histories]
    lengths = [h.shape[0] for h in histories]
    if not histories or len(texts) != len(histories):
        raise ValueError(f"conditioning: {len(texts)} texts for {len(histories)} histories")
    warm = cache is not None and cache.tokens is not None
    done = cache.patches if warm else 0
    if done + max(lengths) >= cfg.max_patches:
        raise ShapeError(f"patch history of {done + max(lengths)} reached max_patches "
                         f"{cfg.max_patches}")
    tokens = [_check_tokens(cfg, t) for t in texts]
    if cache is not None and len(tokens) != 1:
        raise ValueError("conditioning: a cache holds one sequence")
    if warm:
        if not np.array_equal(tokens[0], cache.tokens):
            raise ValueError("conditioning: the cache was filled for other text tokens")
        if lengths[0] != 1:
            raise ValueError(f"conditioning: a decode call takes one new patch, not {lengths[0]}")
    packing = Packing([t.size for t in tokens], lengths, tokens[0].size + done if warm else 0)
    semantic_past = residual_past = None
    if cache is not None:
        layers = cfg.n_layers_semantic + cfg.n_layers_residual
        store = cache.store if warm else np.empty(
            (layers, 2, tokens[0].size + cfg.max_patches, cfg.d_model), dtype=state.dtype)
        # The rows this call attends to: the cached ones, then its own.
        view = store[:, :, :packing.past_rows + packing.rows]
        semantic_past, residual_past = view[:cfg.n_layers_semantic], view[cfg.n_layers_semantic:]

    embeddings = encode_patches(state, np.concatenate(histories))
    hiddens = semantic_hiddens(state, np.concatenate(tokens), embeddings, packing, semantic_past)
    if warm:
        # Decode's one row is step done+1, its cached residual keys hold the
        # text rows, and its patch pairs with the previous call's skeleton.
        quantized = fsq_quantize(hiddens, cfg.fsq_delta, cfg.fsq_bound)
        text_hiddens, paired = None, constant(cache.last_quantized)
    else:
        # Steps 0..k; history step i pairs patch i with the skeleton of step i.
        rows = packing.step_rows()
        quantized = fsq_quantize(embedding_lookup(hiddens, rows), cfg.fsq_delta, cfg.fsq_bound)
        text_hiddens = narrow(hiddens, 0, 0, packing.text_rows)
        paired = embedding_lookup(quantized, packing.history_steps())
    if cache is None:
        residual = residual_hiddens(state, text_hiddens, paired, embeddings, packing)
        h_res = embedding_lookup(residual, rows)
        return add(quantized, h_res), quantized, h_res

    # A cached call returns the row of its last step only, so the residual
    # stack's last block computes that row alone (a prefill with patches
    # narrows its quantized steps to the last).
    h_res = residual_hiddens(state, text_hiddens, paired, embeddings, packing, residual_past)
    if not warm and lengths[0]:
        quantized = narrow(quantized, 0, lengths[0], 1)
    cache.tokens, cache.patches, cache.last_quantized, cache.store = (
        tokens[0], done + lengths[0], quantized.data, store)
    return add(quantized, h_res), quantized, h_res


def step_hiddens(state: ModelState, text_tokens, new_patches,
                 cache: ConditioningCache) -> tuple[Tensor, float]:
    """Conditioning for the next patch of a synthesis: ``(h_final,
    stop_logit)`` of the one row a cached ``conditioning`` call returns.

    Synthesis passes one cache for all its steps and hands over each patch
    once: the reference at the first step, then only the patch that step
    adds.
    """
    h_final, quantized, _ = conditioning(state, text_tokens, new_patches, cache)
    return h_final, float(stop_logits(state, quantized).data[0, 0])
