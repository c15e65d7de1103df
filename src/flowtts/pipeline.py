"""End-to-end training and inference: the synthetic latent oracle, the joint
objective, Adam-smoothed SGD, autoregressive synthesis with stop detection,
real-time-factor measurement, and binary persistence (checkpoints, latent
trajectory files, loss CSVs; every writer is atomic).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    RngHub,
    ShapeError,
    Tensor,
    active_dtype,
    add,
    bce_with_logits,
    mul,
    parameter,
    record,
    rng_stream,
    zero_grads,
)
from .fileio import write_atomic
from .flowmatch import (
    DEFAULT_CFG_SCALE,
    DEFAULT_STEPS,
    check_sampling_args,
    fm_loss,
    sample_patch,
)
from .model import (
    ConditioningCache,
    ModelConfig,
    ModelState,
    NonFiniteError,
    _as_patch_matrix,
    conditioning,
    conditioning_batch,
    param_layout,
    step_hiddens,
    stop_logits,
)

__all__ = [
    "TrainConfig",
    "TrainingExample",
    "SyntheticSpec",
    "LossRecord",
    "LossParts",
    "draw_conditioning_enabled",
    "TrainingDiverged",
    "CheckpointError",
    "CheckpointMagicError",
    "CheckpointVersionError",
    "CheckpointTruncatedError",
    "CheckpointShapeError",
    "LatentFileError",
    "default_synthetic_spec",
    "synthetic_example",
    "sample_prompt",
    "stop_loss",
    "total_loss",
    "train",
    "synthesize",
    "measure_rtf",
    "rtf_value",
    "save_checkpoint",
    "load_checkpoint",
    "write_latents",
    "read_latents",
    "write_loss_csv",
]

GOLDEN_FRACTION = 0.6180339887498949  # spreads speaker phases over the offset range
SPEAKER_PHASE_RANGE = 0.5  # speaker phases lie in [0, SPEAKER_PHASE_RANGE)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the stop-loss weight and the guidance-dropout
    probability come from ModelConfig."""

    learning_rate: float = 3e-4
    train_steps: int = 3000
    batch_size: int = 8
    seed: int = 0
    prompt_min_tokens: int = 2
    prompt_max_tokens: int = 6
    prompt_speakers: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("TrainConfig.learning_rate must be finite and > 0")
        if self.train_steps < 0 or self.batch_size < 1:
            raise ValueError("TrainConfig: train_steps must be >= 0 and batch_size >= 1")
        if self.seed < 0:
            raise ValueError("TrainConfig.seed must be >= 0")
        if not 1 <= self.prompt_min_tokens <= self.prompt_max_tokens:
            raise ValueError("TrainConfig: need 1 <= prompt_min_tokens <= prompt_max_tokens")
        if self.prompt_speakers < 1:
            raise ValueError("TrainConfig.prompt_speakers must be >= 1")


@dataclass
class TrainingExample:
    """Token prompt, ground-truth latent patches, and per-patch stop labels."""

    text_tokens: tuple[int, ...]
    patches: np.ndarray  # (n, d_patch)
    stop_labels: np.ndarray  # (n,) bool, true only at the last patch

    def __post_init__(self):
        self.patches = np.asarray(self.patches)
        self.stop_labels = np.asarray(self.stop_labels, dtype=bool)
        n = self.patches.shape[0]
        if n < 1 or self.stop_labels.shape != (n,):
            raise ValueError("TrainingExample: need >= 1 patch and one label per patch")
        if self.stop_labels.sum() != 1 or not self.stop_labels[-1]:
            raise ValueError("TrainingExample: exactly one stop label, at the last patch")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic sinusoid oracle standing in for a latent audio codec.

    Token k maps to a base frequency; speaker identity shifts the phase.
    Patch g (global index) of token k samples sin(2*pi*f(k)*(g + phase + j/d))
    at the d in-patch positions j, so consecutive patches continue the wave.
    """

    token_freq: dict[int, float]
    patches_per_token: int = 3

    def __post_init__(self):
        if self.patches_per_token < 1:
            raise ValueError("SyntheticSpec.patches_per_token must be >= 1")


def default_synthetic_spec(config: ModelConfig) -> SyntheticSpec:
    freq = {k: 0.05 + 0.9 * k / config.vocab_size for k in range(config.vocab_size)}
    return SyntheticSpec(token_freq=freq)


def _speaker_phase(speaker_id: int) -> float:
    return SPEAKER_PHASE_RANGE * ((int(speaker_id) * GOLDEN_FRACTION) % 1.0)


def synthetic_example(spec: SyntheticSpec, config: ModelConfig,
                      text_tokens: Sequence[int], speaker_id: int) -> TrainingExample:
    """Oracle latents for a prompt: patches_per_token patches per token."""
    tokens = tuple(int(t) for t in text_tokens)
    if not tokens:
        raise ValueError("synthetic_example: empty token sequence")
    d = config.d_patch
    per = spec.patches_per_token
    phase = _speaker_phase(speaker_id)
    grid = np.arange(d) / d
    rows = []
    for position, token in enumerate(tokens):
        freq = spec.token_freq.get(token)
        if freq is None:
            raise ValueError(f"synthetic_example: no base frequency for token {token}")
        g = position * per + np.arange(per)
        t = g[:, None] + phase + grid[None, :]
        rows.append(np.sin(2.0 * math.pi * freq * t))
    patches = np.concatenate(rows, axis=0).astype(np.float64)
    labels = np.zeros(patches.shape[0], dtype=bool)
    labels[-1] = True
    return TrainingExample(text_tokens=tokens, patches=patches, stop_labels=labels)


def sample_prompt(cfg: TrainConfig, model_cfg: ModelConfig,
                  rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
    """Draw a (tokens, speaker) pair from the training prompt distribution."""
    length = int(rng.integers(cfg.prompt_min_tokens, cfg.prompt_max_tokens + 1))
    tokens = tuple(int(t) for t in rng.integers(0, model_cfg.vocab_size, size=length))
    speaker = int(rng.integers(0, cfg.prompt_speakers))
    return tokens, speaker


# --------------------------------------------------------------------------
# Joint objective
# --------------------------------------------------------------------------

def stop_loss(logits: Tensor, labels, row_weights=None) -> Tensor:
    """Mean binary cross-entropy of termination logits against stop labels;
    with ``row_weights``, the weighted sum over positions (one weight each)."""
    labels = np.asarray(labels, dtype=bool)
    if logits.data.size != labels.size:
        raise ShapeError(f"stop_loss: {logits.data.size} logits vs {labels.size} labels")
    if labels.size == 0:
        raise ShapeError("stop_loss: need at least one position")
    targets = labels.astype(logits.data.dtype).reshape(logits.data.shape)
    return bce_with_logits(logits, targets, row_weights)


@dataclass
class LossParts:
    """Batch means of the two loss terms, and each example's guidance flag."""

    fm: float
    stop: float
    cond_enabled: tuple[bool, ...]


def draw_conditioning_enabled(rngs: RngHub, drop_prob: float) -> bool:
    """Per-sequence guidance-dropout decision; consumes the cfg_drop stream."""
    return bool(rngs.stream("cfg_drop").uniform() >= drop_prob)


def _teacher_forced_hiddens(state: ModelState, example: TrainingExample):
    """(h_final, quantized) for every patch position of ``example``, each
    conditioned on the ground-truth patches before it (teacher forcing)."""
    h_final, quantized, _ = conditioning(state, example.text_tokens, example.patches[:-1])
    return h_final, quantized


def total_loss(examples: TrainingExample | Sequence[TrainingExample], state: ModelState,
               rngs: RngHub,
               velocity_fn: Callable | None = None,
               stop_logits_fn: Callable | None = None) -> tuple[Tensor, LossParts]:
    """Joint objective of one example or a batch of them, in one forward
    pass: the mean over examples of each example's flow-matching loss
    (averaged over its patch positions, with independent t and eps per
    position) plus its weighted stop loss.

    The examples are packed into one sequence (``model.conditioning_batch``),
    and the velocity net and the stop head each run once over all patch
    positions.  Position i of example e has weight 1 / (B * n_e), so every
    example counts the same however many patches it has.  t, eps and the
    guidance-dropout flag are drawn per example, in example order.
    Conditioning is dropped for a whole example with the model's
    cfg_drop_prob; the dropped branch trains the null embedding used for
    guidance at inference.

    ``velocity_fn`` (the hook of ``fm_loss``, called once with every
    position's row and one flag per row) and ``stop_logits_fn(h_fsq)``
    substitute the velocity net or the stop head; tests use them to plug in
    exact oracles.
    """
    if isinstance(examples, TrainingExample):
        examples = [examples]
    cfg = state.config
    dtype = state.dtype

    h_final, quantized, _ = conditioning_batch(state, [e.text_tokens for e in examples],
                                               [e.patches[:-1] for e in examples])
    logits = (stop_logits_fn or (lambda q: stop_logits(state, q)))(quantized)
    sizes = [e.patches.shape[0] for e in examples]
    weights = np.repeat([1.0 / (len(examples) * n) for n in sizes], sizes)
    l_stop = stop_loss(logits, np.concatenate([e.stop_labels for e in examples]), weights)

    z0, z_prev, t_values, eps, flags = [], [], [], [], []
    for example, n in zip(examples, sizes):
        patches = np.asarray(example.patches, dtype=dtype)
        z0.append(patches)
        z_prev += [np.zeros((1, cfg.d_patch), dtype=dtype), patches[:-1]]
        t_values.append(rngs.stream("t").uniform(size=n))
        eps.append(rngs.stream("eps").standard_normal((n, cfg.d_patch)).astype(dtype))
        flags.append(draw_conditioning_enabled(rngs, cfg.cfg_drop_prob))

    l_fm = fm_loss(state, np.vstack(z0), np.vstack(z_prev), h_final, np.concatenate(t_values),
                   np.vstack(eps), np.repeat(flags, sizes), velocity_fn, weights)

    total = add(l_fm, mul(l_stop, cfg.lambda_stop))
    return total, LossParts(fm=l_fm.item(), stop=l_stop.item(), cond_enabled=tuple(flags))


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite; carries the failing step."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass
class LossRecord:
    step: int
    total: float
    fm: float
    stop: float


class _Adam:
    """Adam moments (b1 0.9, b2 0.999, eps 1e-8) over the named parameters."""

    def __init__(self, state: ModelState, lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in state.parameters()}
        self.v = {name: np.zeros_like(p.data) for name, p in state.parameters()}

    def step(self, state: ModelState) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in state.parameters():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (self.lr * update).astype(p.data.dtype, copy=False)


def train(config: TrainConfig, spec: SyntheticSpec,
          state: ModelState) -> tuple[ModelState, list[LossRecord]]:
    """Jointly optimize all submodules on synthetic batches.

    Each step packs its batch into one forward and one backward pass
    (``total_loss`` of the batch).  A non-finite loss, or a non-finite value
    reaching the quantizer, raises TrainingDiverged with the step.

    Deterministic given the seed: data sampling, noise, times, and the
    conditioning drop all consume dedicated named streams.  Prompts the
    model cannot hold (more tokens than max_text_len, or more patches than
    max_patches) raise ValueError before step 0.
    """
    model_config = state.config
    if config.prompt_max_tokens > model_config.max_text_len:
        raise ValueError(f"train: prompt_max_tokens {config.prompt_max_tokens} exceeds "
                         f"max_text_len {model_config.max_text_len}")
    longest = config.prompt_max_tokens * spec.patches_per_token
    if longest > model_config.max_patches:
        raise ValueError(f"train: prompts of up to {longest} patches ({config.prompt_max_tokens} "
                         f"tokens x {spec.patches_per_token}) exceed max_patches "
                         f"{model_config.max_patches}")
    rngs = RngHub(config.seed)
    data_rng = rngs.stream("data")
    optimizer = _Adam(state, config.learning_rate)
    params = [p for _, p in state.parameters()]
    history: list[LossRecord] = []

    for step in range(config.train_steps):
        examples = [
            synthetic_example(spec, state.config, *sample_prompt(config, state.config, data_rng))
            for _ in range(config.batch_size)
        ]
        with record() as tape:
            try:
                loss, parts = total_loss(examples, state, rngs)
            except NonFiniteError:
                # A NaN or infinity in the weights reached the quantizer.
                raise TrainingDiverged(step) from None
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(step)
        zero_grads(params)
        tape.backward(loss)
        optimizer.step(state)
        history.append(LossRecord(step=step, total=value, fm=parts.fm, stop=parts.stop))
    return state, history


# --------------------------------------------------------------------------
# Synthesis and timing
# --------------------------------------------------------------------------

def synthesize(state: ModelState, text_tokens, reference_patches=(),
               cfg_scale: float = DEFAULT_CFG_SCALE, steps: int = DEFAULT_STEPS,
               rng: np.random.Generator | None = None,
               max_patches: int | None = None) -> np.ndarray:
    """Autoregressive patch generation with stop detection.

    Reference patches seed the history (voice-cloning context) but are never
    part of the output.  Generation ends when the stop logit is positive
    (stop probability above one half) or the history reaches the patch cap;
    at least one patch is produced.

    The first step runs the conditioning stacks over the text and the
    reference (prefill); every later step hands them only the one new patch,
    which runs against keys and values cached by this call (decode).
    """
    cfg = state.config
    tokens = tuple(int(t) for t in np.atleast_1d(np.asarray(text_tokens, dtype=np.int64)))
    if not tokens:
        raise ValueError("synthesize: a non-empty text token sequence is required")
    cap = cfg.max_patches if max_patches is None else int(max_patches)
    if not 1 <= cap <= cfg.max_patches:
        raise ValueError(f"synthesize: max_patches must lie in [1, {cfg.max_patches}]")
    refs = _as_patch_matrix(reference_patches, cfg.d_patch, state.dtype)
    if refs.shape[0] >= cap:
        raise ValueError("synthesize: reference context already fills the patch cap")
    check_sampling_args(steps, cfg_scale)
    if rng is None:
        rng = rng_stream(0, "synth")

    history = np.empty((cap, cfg.d_patch), dtype=state.dtype)
    history[:len(refs)] = refs
    n = len(refs)
    cache = ConditioningCache()
    new_patches = refs
    while True:
        hiddens = step_hiddens(state, tokens, new_patches, cache)
        z_prev = history[n - 1] if n else np.zeros(cfg.d_patch, dtype=state.dtype)
        history[n] = sample_patch(state, hiddens.h_final, z_prev, steps=steps,
                                  cfg_scale=cfg_scale, rng=rng)
        new_patches = history[n:n + 1]
        n += 1
        if hiddens.stop_logit > 0.0 or n >= cap:
            break
    return history[len(refs):n].copy()


def rtf_value(wall_seconds: float, n_patches: int, frame_ms: float) -> float:
    """Real-time factor: synthesis wall-clock seconds over implied audio seconds."""
    audio_seconds = n_patches * frame_ms / 1000.0
    if audio_seconds <= 0:
        raise ValueError("rtf_value: zero-duration output")
    return wall_seconds / audio_seconds


def measure_rtf(synthesis_fn: Callable, text_tokens, frame_ms: float) -> float:
    """Time one synthesis call and report its real-time factor."""
    start = time.perf_counter()
    patches = synthesis_fn(text_tokens)
    wall = time.perf_counter() - start
    return rtf_value(wall, len(patches), frame_ms)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"JTV1"
CHECKPOINT_VERSION = 2
LATENT_MAGIC = b"JLAT"


class CheckpointError(Exception):
    """Base class for checkpoint I/O failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class LatentFileError(Exception):
    """Malformed latent trajectory file."""


class _Reader:
    def __init__(self, blob: bytes, error_cls):
        self.blob = blob
        self.pos = 0
        self.error_cls = error_cls

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.error_cls(
                f"file truncated: needed {n} bytes at offset {self.pos}, have {len(self.blob)}"
            )
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


_CONFIG_PREFIX = "config."  # version 1 stored each config field as a rank-0 f32 entry


def _config_value(field_obj, value):
    """A config field's value as its declared type; None if it is not one."""
    if field_obj.type in ("int", int):
        return value if isinstance(value, int) and not isinstance(value, bool) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _config_json(config: ModelConfig) -> bytes:
    values = {f.name: _config_value(f, getattr(config, f.name))
              for f in dataclasses.fields(ModelConfig)}
    return json.dumps(values, separators=(",", ":")).encode("utf-8")


def save_checkpoint(state: ModelState, path) -> None:
    """Write the state in the versioned binary tensor format.

    Version 2: magic, version, the config as a UTF-8 JSON object (exact:
    floats are written in their shortest round-trip form, integers in full),
    then the parameter tensors in layout order as little-endian f32.
    """
    config = _config_json(state.config)
    entries = [(name, p.data) for name, p in state.parameters()]
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(config))
    out += config
    out += struct.pack("<I", len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    write_atomic(path, bytes(out))


def _read_config_block(reader: _Reader) -> dict:
    (length,) = reader.unpack("<I")
    try:
        values = json.loads(reader.take(length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable config block: {exc}") from None
    if not isinstance(values, dict):
        raise CheckpointError("config block is not a JSON object")
    return values


def _read_tensors(reader: _Reader) -> dict[str, np.ndarray]:
    (count,) = reader.unpack("<I")
    raw: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (rank,) = reader.unpack("<B")
        shape = tuple(reader.unpack("<" + "Q" * rank)) if rank else ()
        size = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(reader.take(4 * size), dtype="<f4").reshape(shape)
        if name in raw:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        raw[name] = values
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"{len(reader.blob) - reader.pos} trailing bytes after tensor data")
    return raw


def _same_as_stored(version: int, a, b) -> bool:
    # Version 1 kept config fields as f32, so it can only be compared as f32.
    return np.float32(a) == np.float32(b) if version == 1 else a == b


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> ModelState:
    """Read a checkpoint (format version 1 or 2) back into a ModelState;
    parameters round-trip bitwise, and so does a version 2 config.

    With ``expected_config`` given, every tensor must match the shape that
    config implies; mismatches raise CheckpointShapeError naming the tensor.
    Every config field stored in the file must then equal the expected one
    (as f32 for version 1 files, whose fields are f32); the first that
    differs raises CheckpointError naming it.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), CheckpointTruncatedError)
    magic = reader.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = reader.unpack("<I")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointVersionError(f"unsupported format version {version}")
    stored = _read_config_block(reader) if version == CHECKPOINT_VERSION else {}
    tensors = _read_tensors(reader)
    if version == 1:
        for name in [n for n in tensors if n.startswith(_CONFIG_PREFIX)]:
            stored[name[len(_CONFIG_PREFIX):]] = float(tensors.pop(name))

    config_fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    config_kwargs = {}
    for key, value in stored.items():
        if key not in config_fields:
            raise CheckpointError(f"unknown config field {key!r} in checkpoint")
        if version == 1 and config_fields[key].type in ("int", int):
            value = int(round(value))
        config_kwargs[key] = _config_value(config_fields[key], value)
        if config_kwargs[key] is None:
            raise CheckpointError(f"config field {key!r}: {value!r} is not a {config_fields[key].type}")
    missing_cfg = set(config_fields) - set(config_kwargs)
    if missing_cfg:
        raise CheckpointError(f"checkpoint lacks config fields: {sorted(missing_cfg)}")
    try:
        config = ModelConfig(**config_kwargs)
    except ValueError as exc:
        raise CheckpointError(f"invalid config in checkpoint: {exc}") from None

    reference = expected_config if expected_config is not None else config
    expected_shapes = {name: shape for name, shape, _ in param_layout(reference)}
    for name, shape in expected_shapes.items():
        if name not in tensors:
            raise CheckpointShapeError(f"tensor {name!r} missing from checkpoint")
        if tensors[name].shape != shape:
            raise CheckpointShapeError(
                f"tensor {name!r}: file shape {tensors[name].shape}, config expects {shape}"
            )
    extra = set(tensors) - set(expected_shapes)
    if extra:
        raise CheckpointShapeError(f"unexpected tensors in checkpoint: {sorted(extra)}")
    for key in config_fields:
        if not _same_as_stored(version, getattr(config, key), getattr(reference, key)):
            raise CheckpointError(f"config field {key!r}: checkpoint has {getattr(config, key)}, "
                                  f"expected_config has {getattr(reference, key)}")

    dtype = active_dtype()
    params = {name: parameter(tensors[name].astype(dtype), dtype=dtype)
              for name in expected_shapes}
    return ModelState(reference, params)


def write_latents(path, patches: np.ndarray, frame_ms: int) -> None:
    """Write a latent trajectory: magic, d_patch, n_patches, frame_ms, f32 rows."""
    arr = np.asarray(patches, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"write_latents: expected (n, d_patch) array, got shape {arr.shape}")
    out = bytearray()
    out += LATENT_MAGIC
    out += struct.pack("<III", arr.shape[1], arr.shape[0], int(frame_ms))
    out += np.ascontiguousarray(arr).tobytes()
    write_atomic(path, bytes(out))


def read_latents(path) -> tuple[np.ndarray, int]:
    """Read a latent trajectory file; returns (patches, frame_ms)."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), LatentFileError)
    magic = reader.take(4)
    if magic != LATENT_MAGIC:
        raise LatentFileError(f"bad magic {magic!r}, expected {LATENT_MAGIC!r}")
    d_patch, n_patches, frame_ms = reader.unpack("<III")
    values = np.frombuffer(reader.take(4 * d_patch * n_patches), dtype="<f4")
    if reader.pos != len(reader.blob):
        raise LatentFileError("trailing bytes after latent data")
    return values.reshape(n_patches, d_patch).copy(), int(frame_ms)


def write_loss_csv(path, history: list[LossRecord]) -> None:
    lines = ["step,total,fm,stop"]
    lines += [f"{r.step},{r.total:.10g},{r.fm:.10g},{r.stop:.10g}" for r in history]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
