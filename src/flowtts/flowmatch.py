"""Flow-matching patch decoder: linear noise schedule, velocity transformer,
training loss, and the classifier-free-guidance Euler sampler.

The schedule is linear/rectified: alpha(t) = 1 - t, sigma(t) = t, which makes
the regression target the closed form eps - z0, independent of t.  Sampling
integrates the learned velocity field from t = 1 (noise) down to t = 0 (data)
with uniform Euler steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    concat,
    constant,
    embedding_lookup,
    linear,
    mse,
    rng_stream,
)
from .model import ModelState, transformer_stack

__all__ = [
    "DEFAULT_STEPS",
    "DEFAULT_CFG_SCALE",
    "alpha",
    "sigma",
    "noise",
    "target_velocity",
    "timestep_embedding",
    "VelocityContext",
    "velocity_context",
    "velocity",
    "velocity_batch",
    "fm_loss",
    "cfg_combine",
    "check_sampling_args",
    "sample_patch",
]

TIME_SCALE = 1000.0  # t is in [0, 1]; scaling spreads the sinusoid frequencies
DEFAULT_STEPS = 10  # Euler steps per patch at inference
DEFAULT_CFG_SCALE = 2.5  # classifier-free guidance scale at inference


def alpha(t: float) -> float:
    """Data coefficient of the interpolation; alpha(0) = 1, alpha(1) = 0."""
    return 1.0 - t


def sigma(t: float) -> float:
    """Noise coefficient of the interpolation; sigma(0) = 0, sigma(1) = 1."""
    return t


def _check_t(t) -> np.ndarray:
    """``t`` as float64 (a scalar or an array of times), each in [0, 1]."""
    t = np.asarray(t, dtype=np.float64)
    if not all(0.0 <= x <= 1.0 for x in t.ravel().tolist()):  # false for NaN too
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return t


def noise(z0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """Interpolate z_t = alpha(t) * z0 + sigma(t) * eps.

    ``t`` is one time, or one time per row of (n, d) ``z0`` and ``eps``.
    """
    t = _check_t(t)
    z0 = np.asarray(z0)
    eps = np.asarray(eps)
    if z0.shape != eps.shape:
        raise ShapeError(f"noise: shapes {z0.shape} and {eps.shape} differ")
    if t.ndim:
        if z0.ndim != 2 or t.shape != (z0.shape[0],):
            raise ShapeError(f"noise: {t.shape} times for rows of shape {z0.shape}")
        t = t[:, None]
    return alpha(t) * z0 + sigma(t) * eps


def target_velocity(z0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Time derivative of the interpolation; eps - z0 under the linear schedule."""
    z0 = np.asarray(z0)
    eps = np.asarray(eps)
    if z0.shape != eps.shape:
        raise ShapeError(f"target_velocity: shapes {z0.shape} and {eps.shape} differ")
    return eps - z0


def timestep_embedding(t_values: np.ndarray, dim: int, dtype) -> np.ndarray:
    """Sinusoidal embeddings of scalar times, one row per value."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half, 1))
    args = t_values[:, None] * TIME_SCALE * freqs[None, :]
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
    if emb.shape[1] < dim:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], dim - emb.shape[1]))], axis=1)
    return emb.astype(dtype)


@dataclass(frozen=True)
class VelocityContext:
    """The inputs of the velocity net for n (z_prev, z_t) pairs that depend
    on neither z_t nor t: the z_prev rows, the 2n token rows (pair by pair,
    z_prev token first) with the z_prev rows filled in, and for each token
    row its position row and its pair's conditioning row.

    ``velocity_context`` builds one.  The sampler builds it once per patch
    and reuses it at every Euler step; ``velocity`` builds one per call.
    """

    z_prev: np.ndarray  # (n, d_patch)
    tokens: np.ndarray  # (2n, d_patch): z_prev rows at the even rows; never written
    pos: Tensor  # (2n, d_model): the two vel.pos rows, gathered once per pair
    cond: Tensor  # (2n, d_model): each pair's conditioning row, once per token


def velocity_context(state: ModelState, h_final, z_prev: np.ndarray,
                     cond_enabled) -> VelocityContext:
    """Context of the pairs whose previous patches are the (n, d_patch) rows
    ``z_prev``.

    ``h_final`` is one conditioning row, which serves every pair, or n of
    them (array or tensor).  ``cond_enabled`` is one flag for all pairs or
    one per pair; where it is false the learned null embedding replaces
    ``h_final``, so that pair's output is invariant to its value.
    """
    cfg = state.config
    dtype = state.dtype
    z_prev = _as_rows(z_prev, dtype)
    if z_prev.ndim != 2 or z_prev.shape[1] != cfg.d_patch:
        raise ShapeError(f"velocity: z_prev must be (n, {cfg.d_patch}), got {z_prev.shape}")
    n = z_prev.shape[0]
    enabled = np.asarray(cond_enabled, dtype=bool)
    if enabled.ndim > 1 or enabled.size not in (1, n):
        raise ShapeError(f"velocity: cond_enabled must be 1 or {n} flags, "
                         f"got shape {enabled.shape}")
    cond = h_final if isinstance(h_final, Tensor) else constant(_as_rows(h_final, dtype),
                                                                 dtype=dtype)
    given = cond.data.shape[0]
    if given not in (1, n) or cond.data.shape[1:] != (cfg.d_model,):
        raise ShapeError(f"velocity: h_final must have 1 or {n} rows of {cfg.d_model}, "
                         f"got shape {cond.data.shape}")
    # Pair i reads its own h_final row (or the only one) or the null row,
    # once per token; one gather whatever the flags, so the recorded ops do
    # not depend on them.  One flag for all pairs broadcasts over ``own``.
    own = np.arange(n) if given == n else np.zeros(n, dtype=np.int64)
    cond = embedding_lookup(concat([cond, state["vel.null"]], axis=0),
                            np.repeat(np.where(enabled, own, given), 2))
    # Each z_prev row twice: the copy at an odd row is a placeholder for z_t.
    tokens = np.repeat(z_prev, 2, axis=0)
    tokens.flags.writeable = False
    pos = embedding_lookup(state["vel.pos"], np.arange(2 * n) % 2)  # rows 0, 1, 0, 1, ...
    return VelocityContext(z_prev, tokens, pos, cond)


def velocity_batch(state: ModelState, z_t: np.ndarray, t_emb: np.ndarray,
                   context: VelocityContext) -> Tensor:
    """Velocity predictions for the pairs of ``context`` at the (n, d_patch)
    rows ``z_t``.

    Each pair forms a 2-token sequence [proj(z_prev), proj(z_t)] seen by a
    bidirectional transformer.  Each token's projection gets, in this order,
    its position row, the time embedding and its pair's conditioning row
    added.  ``t_emb`` (``timestep_embedding`` rows) has one row per token
    (2n rows, pair by pair) or one row for every token.  Output row i is the
    velocity for pair i, read at the z_t position: z_t is the last token of
    its pair, so the stack's last block runs for the z_t tokens only (both
    tokens still give it keys and values; see ``transformer_stack``).  The
    pairs are the stack's batch of n unmasked 2-token sequences, and each
    of its blocks is one ``transformer_block`` call over all of them.
    """
    dtype = state.dtype
    z_t = np.asarray(z_t, dtype=dtype)
    z_prev = context.z_prev
    if z_t.shape != z_prev.shape:
        raise ShapeError(f"velocity: z_t shape {z_t.shape} != z_prev shape {z_prev.shape}")
    tokens = context.tokens.copy()
    tokens[1::2] = z_t
    x = linear(constant(tokens, dtype=dtype), state["vel.in.w"], state["vel.in.b"])
    x = add(add(add(x, context.pos), constant(t_emb, dtype=dtype)), context.cond)
    at_z = transformer_stack(state, "vel", x, None, batch=z_t.shape[0], last_only=True)
    return linear(at_z, state["vel.out.w"], state["vel.out.b"])


def velocity(state: ModelState, z_t: np.ndarray, t, h_final,
             z_prev: np.ndarray, cond_enabled) -> Tensor:
    """Velocity predictions for one pair or for n pairs; a (n, d_patch) tensor.

    ``z_t`` and ``z_prev`` are one patch or (n, d_patch) rows, ``t`` one time
    or n times, and ``h_final`` and ``cond_enabled`` as in
    ``velocity_context``.

    ``partial(velocity, state)`` is the model's ``velocity_fn`` hook, which
    ``fm_loss``, ``pipeline.total_loss`` and ``sample_patch`` accept.
    """
    context = velocity_context(state, h_final, z_prev, cond_enabled)
    n = context.z_prev.shape[0]
    t_values = np.atleast_1d(_check_t(t))
    if t_values.shape != (n,):
        raise ShapeError(f"velocity: expected {n} time values, got shape {t_values.shape}")
    t_emb = np.repeat(timestep_embedding(t_values, state.config.d_model, state.dtype), 2, axis=0)
    return velocity_batch(state, _as_rows(z_t, state.dtype), t_emb, context)


def _as_rows(x, dtype) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=dtype))


def fm_loss(state: ModelState, z0: np.ndarray, z_prev: np.ndarray, h_final,
            t, eps: np.ndarray, cond_enabled,
            velocity_fn: Callable | None = None, row_weights=None) -> Tensor:
    """Flow-matching loss: MSE between the predicted velocity at
    z_t = alpha(t) z0 + sigma(t) eps and the schedule derivative eps - z0,
    averaged over every coordinate, or with ``row_weights`` the weighted sum
    of the row means (see ``autodiff.mse``).

    ``z0``, ``eps`` and ``z_prev`` are one patch or (n, d_patch) rows with one
    time per row in ``t``, and ``cond_enabled`` one flag or one per row; z_t
    is formed in float64 and then rounded to the model dtype.
    ``velocity_fn(z_t, t, h_final, z_prev, cond_enabled)`` replaces the
    model's velocity net (tests substitute exact oracles).
    """
    dtype = state.dtype
    z0 = _as_rows(z0, dtype)
    eps = _as_rows(eps, dtype)
    t = np.atleast_1d(_check_t(t))
    z_t = noise(z0, t, eps).astype(dtype)
    target = target_velocity(z0, eps)
    v = (velocity_fn or partial(velocity, state))(z_t, t, h_final, z_prev, cond_enabled)
    if not isinstance(v, Tensor):
        v = constant(np.asarray(v, dtype=dtype), dtype=dtype)
    return mse(v, constant(target.reshape(v.data.shape), dtype=dtype), row_weights)


def cfg_combine(v_cond: np.ndarray, v_uncond: np.ndarray, scale: float) -> np.ndarray:
    """Guided velocity v_uncond + scale * (v_cond - v_uncond).

    scale == 1 returns the conditional branch bitwise, scale == 0 the
    unconditional one, so guided sampling at those scales is exactly the
    single-branch sampler.
    """
    v_cond = np.asarray(v_cond)
    v_uncond = np.asarray(v_uncond)
    if v_cond.shape != v_uncond.shape:
        raise ShapeError(f"cfg_combine: shapes {v_cond.shape} and {v_uncond.shape} differ")
    if scale == 1.0:
        return v_cond.copy()
    if scale == 0.0:
        return v_uncond.copy()
    return v_uncond + scale * (v_cond - v_uncond)


@cache
def _step_embeddings(steps: int, dim: int, dtype: np.dtype) -> np.ndarray:
    """``timestep_embedding`` of the sampler's step times 1 - k / steps,
    k = 0..steps-1, made once per (steps, dim, dtype) and read-only: every
    patch of every synthesis walks the same grid."""
    emb = timestep_embedding(_step_times(steps), dim, dtype)
    emb.flags.writeable = False
    return emb


def _step_times(steps: int) -> np.ndarray:
    return 1.0 - np.arange(steps) * (1.0 / steps)  # bitwise 1.0 - k * dt


def _values(v) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v)


def check_sampling_args(steps: int, cfg_scale: float) -> int:
    """Reject a step count below 1 or a non-finite guidance scale; returns
    ``int(steps)``.  ``synthesize`` calls it before any conditioning work."""
    if int(steps) < 1:
        raise ValueError(f"sample_patch: steps must be >= 1, got {steps}")
    if not math.isfinite(cfg_scale):
        raise ValueError(f"sample_patch: cfg_scale must be finite, got {cfg_scale}")
    return int(steps)


def sample_patch(state: ModelState, h_final, z_prev: np.ndarray, steps: int = DEFAULT_STEPS,
                 cfg_scale: float = DEFAULT_CFG_SCALE, rng: np.random.Generator | None = None,
                 velocity_fn: Callable | None = None) -> np.ndarray:
    """Decode one patch by Euler integration from t = 1 to t = 0.

    z starts as a standard-normal draw; each of the ``steps`` uniform steps
    combines the conditional and unconditional velocities with ``cfg_scale``
    and updates z <- z - v / steps (the velocity is dz/dt).  Both branches
    come from one velocity call per step with rows [cond, uncond]; at scale 1
    or 0 the call has only the row of the branch that scale reads.

    With the model's velocity net (no ``velocity_fn``), what does not change
    between steps is built once: the ``VelocityContext`` per patch, with its
    z_prev token rows, and the time embeddings of the step grid per step
    count.  Each step then calls ``velocity_batch``.  A
    ``velocity_fn`` hook is called as ``velocity`` is, once per step; its
    return broadcasts to (rows, d_patch).  Both give the same patch bitwise.
    """
    steps = check_sampling_args(steps, cfg_scale)
    cfg = state.config
    dtype = state.dtype
    if rng is None:
        rng = rng_stream(0, "sample")
    if cfg_scale == 1.0 or cfg_scale == 0.0:
        enabled = np.array([cfg_scale == 1.0])
    else:
        enabled = np.array([True, False])
    n = enabled.size
    z = rng.standard_normal(cfg.d_patch).astype(dtype)
    z_prev = np.asarray(z_prev, dtype=dtype).reshape(1, cfg.d_patch).repeat(n, axis=0)
    dt = 1.0 / steps
    if velocity_fn is None:
        context = velocity_context(state, h_final, z_prev, enabled)
        t_emb = _step_embeddings(steps, cfg.d_model, dtype)

        def step_velocity(k: int, z_t: np.ndarray) -> np.ndarray:
            return velocity_batch(state, z_t, t_emb[k:k + 1], context).data
    else:
        times = _step_times(steps)

        def step_velocity(k: int, z_t: np.ndarray) -> np.ndarray:
            v = _values(velocity_fn(z_t, np.full(n, times[k]), h_final, z_prev, enabled))
            return np.broadcast_to(v, (n, cfg.d_patch))
    for k in range(steps):
        v = step_velocity(k, z[None].repeat(n, axis=0))
        v = v[0] if n == 1 else cfg_combine(v[0], v[1], cfg_scale)
        z = (z - dt * v).astype(dtype, copy=False)
    return z
