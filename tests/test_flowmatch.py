"""Flow-matching tests: schedule endpoints, velocity-net contracts, loss
oracles, guidance arithmetic, and sampler exactness on constant fields."""

import inspect
from functools import partial

import numpy as np
import pytest

from flowtts.autodiff import (
    ShapeError,
    add,
    constant,
    embedding_lookup,
    grad_check,
    linear,
    mul,
    parameter,
    precision,
    record,
    tensor_sum,
)
from flowtts.flowmatch import (
    alpha,
    cfg_combine,
    fm_loss,
    noise,
    sample_patch,
    sigma,
    target_velocity,
    timestep_embedding,
    velocity,
    velocity_batch,
    velocity_context,
)
from flowtts.model import ModelConfig, init_model_state, transformer_stack
from flowtts.autodiff import rng_stream
from oracles import two_call_sample_patch

CFG = ModelConfig(d_model=16, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
                  d_patch=4, vocab_size=12, max_patches=32, max_text_len=16)
STATE = init_model_state(CFG, seed=21)
RNG = np.random.default_rng(77)


# --------------------------------------------------------------------------
# Schedule
# --------------------------------------------------------------------------

def test_schedule_endpoints():
    assert alpha(0.0) == 1.0 and sigma(0.0) == 0.0
    assert alpha(1.0) == 0.0 and sigma(1.0) == 1.0


def test_noise_endpoint_identities_exact():
    z0 = RNG.standard_normal(6)
    eps = RNG.standard_normal(6)
    np.testing.assert_array_equal(noise(z0, 0.0, eps), z0)
    np.testing.assert_array_equal(noise(z0, 1.0, eps), eps)


def test_noise_midpoint():
    out = noise(np.array([2.0, 0.0]), 0.5, np.array([0.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_noise_rejects_t_out_of_range():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        noise(z, -0.1, z)
    with pytest.raises(ValueError):
        noise(z, 1.1, z)


def test_noise_one_time_per_row():
    z0 = RNG.standard_normal((3, 4))
    eps = RNG.standard_normal((3, 4))
    t = np.array([0.0, 0.25, 1.0])
    out = noise(z0, t, eps)
    for i in range(3):
        np.testing.assert_array_equal(out[i], (1.0 - t[i]) * z0[i] + t[i] * eps[i])
    with pytest.raises(ValueError):
        noise(z0, np.array([0.1, 1.5, 0.2]), eps)
    with pytest.raises(ShapeError):
        noise(z0, t[:2], eps)


def test_target_velocity():
    z0 = RNG.standard_normal(5)
    eps = RNG.standard_normal(5)
    np.testing.assert_array_equal(target_velocity(z0, eps), eps - z0)
    np.testing.assert_array_equal(target_velocity(z0, z0), np.zeros(5))
    np.testing.assert_array_equal(
        target_velocity(np.array([1.0, 1.0]), np.array([0.0, 0.0])), [-1.0, -1.0])


# --------------------------------------------------------------------------
# Velocity net
# --------------------------------------------------------------------------

def test_velocity_output_shape_and_determinism():
    z_t = RNG.standard_normal(CFG.d_patch)
    z_prev = RNG.standard_normal(CFG.d_patch)
    h_final = RNG.standard_normal(CFG.d_model)
    a = velocity(STATE, z_t, 0.3, h_final, z_prev, True).data
    b = velocity(STATE, z_t, 0.3, h_final, z_prev, True).data
    assert a.shape == (1, CFG.d_patch)
    np.testing.assert_array_equal(a, b)


def test_velocity_uncond_invariant_to_h_final():
    z_t = RNG.standard_normal(CFG.d_patch)
    z_prev = RNG.standard_normal(CFG.d_patch)
    a = velocity(STATE, z_t, 0.7, RNG.standard_normal(CFG.d_model), z_prev, False).data
    b = velocity(STATE, z_t, 0.7, RNG.standard_normal(CFG.d_model), z_prev, False).data
    np.testing.assert_array_equal(a, b)


def test_velocity_batch_matches_single():
    n = 3
    z_t = RNG.standard_normal((n, CFG.d_patch))
    z_prev = RNG.standard_normal((n, CFG.d_patch))
    conds = RNG.standard_normal((n, CFG.d_model)).astype(np.float32)
    t_values = np.array([0.1, 0.5, 0.9])
    t_emb = np.repeat(timestep_embedding(t_values, CFG.d_model, np.float32), 2, axis=0)
    context = velocity_context(STATE, constant(conds), z_prev, True)
    batched = velocity_batch(STATE, z_t, t_emb, context).data
    for i in range(n):
        single = velocity(STATE, z_t[i], t_values[i], conds[i], z_prev[i], True).data[0]
        np.testing.assert_allclose(batched[i], single, rtol=2e-6, atol=2e-7)


def _untrimmed_velocity_batch(state, z_t, t_emb, context):
    """``velocity_batch`` without the last-block rule: the whole stack over
    both tokens of every pair, then a gather of the z_t rows."""
    n = z_t.shape[0]
    tokens = np.empty((2 * n, z_t.shape[1]), dtype=state.dtype)
    tokens[0::2], tokens[1::2] = context.z_prev, z_t
    x = linear(constant(tokens, dtype=state.dtype), state["vel.in.w"], state["vel.in.b"])
    x = add(add(add(x, context.pos), constant(t_emb, dtype=state.dtype)), context.cond)
    hidden = transformer_stack(state, "vel", x, None, batch=n)
    at_z = embedding_lookup(hidden, np.arange(1, 2 * n, 2))
    return linear(at_z, state["vel.out.w"], state["vel.out.b"])


def _velocity_case(state, n, seed):
    rng = np.random.default_rng(seed)
    z_t = rng.standard_normal((n, CFG.d_patch)).astype(state.dtype)
    z_prev = rng.standard_normal((n, CFG.d_patch))
    h = rng.standard_normal((n, CFG.d_model))
    t_emb = np.repeat(timestep_embedding(rng.uniform(size=n), CFG.d_model, state.dtype), 2, axis=0)
    context = velocity_context(state, h, z_prev, rng.uniform(size=n) < 0.7)
    return z_t, t_emb, context


# float32 is not bitwise: the trimmed last block forms n rows' products where
# the untrimmed one forms 2n, and BLAS may sum them in another order.
@pytest.mark.parametrize("dtype,rtol", [("float64", 1e-12), ("float32", 1e-5)])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_velocity_batch_is_the_untrimmed_stack_read_at_z_t(dtype, rtol, n):
    with precision(dtype):
        state = init_model_state(CFG, seed=21)
        z_t, t_emb, context = _velocity_case(state, n, seed=n)
        got = velocity_batch(state, z_t, t_emb, context).data
        want = _untrimmed_velocity_batch(state, z_t, t_emb, context).data
    assert got.shape == want.shape == (n, CFG.d_patch)
    assert got.dtype == np.dtype(dtype)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


def test_velocity_batch_gradients_are_those_of_the_untrimmed_stack():
    # Every parameter's float64 gradient: the strided selections of the last
    # block route each z_t row's gradient back to its own row.
    n = 3
    with precision("float64"):
        state = init_model_state(CFG, seed=21)
        weights = constant(np.random.default_rng(9).standard_normal((n, CFG.d_patch)))
        grads = []
        for fn in (velocity_batch, _untrimmed_velocity_batch):
            state.zero_grads()
            with record() as tape:
                loss = tensor_sum(mul(fn(state, *_velocity_case(state, n, seed=4)), weights))
            tape.backward(loss)
            grads.append(state.grad.copy())
    assert np.any(grads[1])
    np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(grads[1])))


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------

def test_fm_loss_zero_under_oracle_velocity():
    # Same dtype as the model so the oracle's eps - z0 is bitwise the target.
    z0 = RNG.standard_normal(CFG.d_patch).astype(np.float32)
    eps = RNG.standard_normal(CFG.d_patch).astype(np.float32)
    z_prev = RNG.standard_normal(CFG.d_patch).astype(np.float32)
    h = RNG.standard_normal(CFG.d_model)

    def oracle(z_t, t, h_final, z_prev_, cond_enabled):
        return (eps - z0).reshape(1, -1)

    loss = fm_loss(STATE, z0, z_prev, h, 0.37, eps, True, velocity_fn=oracle)
    assert loss.item() == 0.0


def test_fm_loss_zero_net_zero_data():
    z = np.zeros(CFG.d_patch)

    def zero_net(*args):
        return np.zeros((1, CFG.d_patch))

    loss = fm_loss(STATE, z, z, np.zeros(CFG.d_model), 0.5, z, True, velocity_fn=zero_net)
    assert loss.item() == 0.0


def test_fm_loss_nonnegative():
    for _ in range(10):
        loss = fm_loss(STATE, RNG.standard_normal(CFG.d_patch),
                       RNG.standard_normal(CFG.d_patch),
                       RNG.standard_normal(CFG.d_model),
                       float(RNG.uniform()), RNG.standard_normal(CFG.d_patch), True)
        assert loss.item() >= 0.0


def test_fm_loss_invariant_to_t_with_blind_stub():
    # The target is t-independent under the linear schedule, so a net that
    # ignores its inputs yields the same loss at every t.
    z0 = RNG.standard_normal(CFG.d_patch)
    eps = RNG.standard_normal(CFG.d_patch)
    stub_out = RNG.standard_normal((1, CFG.d_patch))

    def stub(*args):
        return stub_out

    values = [fm_loss(STATE, z0, z0, np.zeros(CFG.d_model), t, eps, True,
                      velocity_fn=stub).item()
              for t in (0.0, 0.25, 0.5, 0.99)]
    assert len(set(values)) == 1


def test_fm_loss_gradients_match_finite_differences():
    with precision("float64"):
        state = init_model_state(ModelConfig(
            d_model=8, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
            d_patch=3, vocab_size=8, max_patches=8, max_text_len=8), seed=5)
        rng = np.random.default_rng(31)
        # Amplify the tiny init so first-layer gradients are well above the
        # finite-difference noise floor; the adjoint contract is unchanged.
        for name, p in state.parameters():
            if name.startswith("vel.") and p.data.ndim == 2:
                p.data *= 25.0
        z0 = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        z_prev = rng.standard_normal(3)
        h = rng.standard_normal(8)

        def loss_fn(_):
            return fm_loss(state, z0, z_prev, h, 0.4, eps, True)

        for name in ("vel.in.w", "vel.out.w", "vel.l0.attn.wq", "vel.l1.mlp.w1",
                     "vel.pos", "vel.out.b", "vel.l0.ln1.g"):
            assert grad_check(loss_fn, state[name]) <= 1e-4, name


def test_fm_loss_batched_is_mean_of_single_patch_losses():
    n = 3
    z0 = RNG.standard_normal((n, CFG.d_patch))
    eps = RNG.standard_normal((n, CFG.d_patch))
    z_prev = RNG.standard_normal((n, CFG.d_patch))
    h = RNG.standard_normal((n, CFG.d_model))
    t = np.array([0.15, 0.5, 0.85])
    for cond_enabled in (True, False):
        batched = fm_loss(STATE, z0, z_prev, h, t, eps, cond_enabled).item()
        singles = [fm_loss(STATE, z0[i], z_prev[i], h[i], t[i], eps[i], cond_enabled).item()
                   for i in range(n)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-6)


def test_fm_loss_batched_gradients_match_finite_differences():
    with precision("float64"):
        state = init_model_state(ModelConfig(
            d_model=8, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
            d_patch=3, vocab_size=8, max_patches=8, max_text_len=8), seed=8)
        rng = np.random.default_rng(33)
        for name, p in state.parameters():
            if name.startswith("vel.") and p.data.ndim == 2:
                p.data *= 25.0
        z0, eps, z_prev = (rng.standard_normal((3, 3)) for _ in range(3))
        h = parameter(rng.standard_normal((3, 8)))
        t = np.array([0.1, 0.55, 0.9])

        def loss_fn(_):
            return fm_loss(state, z0, z_prev, h, t, eps, True)

        assert grad_check(loss_fn, state["vel.pos"]) <= 1e-4
        assert grad_check(loss_fn, h) <= 1e-4


def test_fm_loss_null_branch_gradient_reaches_null_embedding():
    with precision("float64"):
        state = init_model_state(ModelConfig(
            d_model=8, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
            d_patch=3, vocab_size=8, max_patches=8, max_text_len=8), seed=6)
        rng = np.random.default_rng(32)
        z0, eps, z_prev = (rng.standard_normal(3) for _ in range(3))

        def loss_fn(_):
            return fm_loss(state, z0, z_prev, np.zeros(8), 0.6, eps, False)

        assert grad_check(loss_fn, state["vel.null"]) <= 1e-4


# --------------------------------------------------------------------------
# Guidance
# --------------------------------------------------------------------------

def test_cfg_combine_identities():
    v_c = RNG.standard_normal(6)
    v_u = RNG.standard_normal(6)
    np.testing.assert_array_equal(cfg_combine(v_c, v_u, 1.0), v_c)
    np.testing.assert_array_equal(cfg_combine(v_c, v_u, 0.0), v_u)
    for scale in RNG.uniform(-4, 4, size=20):
        np.testing.assert_array_equal(cfg_combine(v_c, v_c, float(scale)), v_c)


def test_cfg_combine_formula():
    v_c = np.array([2.0, 0.0])
    v_u = np.array([0.0, 2.0])
    np.testing.assert_array_equal(cfg_combine(v_c, v_u, 2.0), [4.0, -2.0])


# --------------------------------------------------------------------------
# Sampler
# --------------------------------------------------------------------------

def test_sampler_defaults_match_reported_inference_settings():
    params = inspect.signature(sample_patch).parameters
    assert params["steps"].default == 10
    assert params["cfg_scale"].default == 2.5


def test_sampler_rejects_bad_steps():
    with pytest.raises(ValueError):
        sample_patch(STATE, np.zeros(CFG.d_model), np.zeros(CFG.d_patch), steps=0)


def test_sampler_constant_field_recovers_endpoint_exactly():
    # With v ≡ eps0 - z0_true the Euler transport is exact for any steps >= 1.
    rng = np.random.default_rng(55)
    z0_true = rng.standard_normal(CFG.d_patch)
    for steps in (1, 2, 10):
        probe_rng = rng_stream(404, "sample")
        eps0 = probe_rng.standard_normal(CFG.d_patch).astype(np.float32)
        field = (eps0.astype(np.float64) - z0_true).astype(np.float32)

        def oracle(z, t, h_final, z_prev, cond_enabled):
            return field

        out = sample_patch(STATE, np.zeros(CFG.d_model), np.zeros(CFG.d_patch),
                           steps=steps, cfg_scale=2.5,
                           rng=rng_stream(404, "sample"), velocity_fn=oracle)
        assert np.max(np.abs(out - z0_true.astype(np.float32))) <= 1e-6, steps


def test_sampler_seed_reproducible():
    h = RNG.standard_normal(CFG.d_model)
    z_prev = RNG.standard_normal(CFG.d_patch)
    a = sample_patch(STATE, h, z_prev, rng=rng_stream(7, "s"))
    b = sample_patch(STATE, h, z_prev, rng=rng_stream(7, "s"))
    np.testing.assert_array_equal(a, b)


def test_sampler_scale_one_equals_conditional_only_bitwise():
    # Manual conditional-only Euler integration, same draw order as the sampler.
    h = constant(RNG.standard_normal((1, CFG.d_model)).astype(np.float32))
    z_prev = RNG.standard_normal(CFG.d_patch).astype(np.float32)
    steps = 10

    guided = sample_patch(STATE, h, z_prev, steps=steps, cfg_scale=1.0,
                          rng=rng_stream(11, "s"))

    rng = rng_stream(11, "s")
    z = rng.standard_normal(CFG.d_patch).astype(STATE.dtype)
    dt = 1.0 / steps
    for k in range(steps):
        t = 1.0 - k * dt
        v = velocity(STATE, z, t, h, z_prev, True).data[0]
        z = (z - dt * v).astype(STATE.dtype)
    np.testing.assert_array_equal(guided, z)


def test_sampler_scale_zero_equals_unconditional_only_bitwise():
    h = constant(RNG.standard_normal((1, CFG.d_model)).astype(np.float32))
    z_prev = RNG.standard_normal(CFG.d_patch).astype(np.float32)
    steps = 10

    guided = sample_patch(STATE, h, z_prev, steps=steps, cfg_scale=0.0,
                          rng=rng_stream(12, "s"))

    rng = rng_stream(12, "s")
    z = rng.standard_normal(CFG.d_patch).astype(STATE.dtype)
    dt = 1.0 / steps
    for k in range(steps):
        t = 1.0 - k * dt
        v = velocity(STATE, z, t, h, z_prev, False).data[0]
        z = (z - dt * v).astype(STATE.dtype)
    np.testing.assert_array_equal(guided, z)


@pytest.mark.parametrize("state", [STATE, init_model_state(ModelConfig(), seed=21)],
                         ids=["small", "default"])
def test_one_call_sampler_matches_the_two_call_reference(state):
    cfg = state.config
    rng = np.random.default_rng(78)
    for i in range(5):
        h = constant(rng.standard_normal((1, cfg.d_model)).astype(np.float32))
        z_prev = rng.standard_normal(cfg.d_patch).astype(np.float32)
        for scale in (2.5, 1.0, 0.0):
            got = sample_patch(state, h, z_prev, cfg_scale=scale, rng=rng_stream(i, "s"))
            want = two_call_sample_patch(state, h, z_prev, 10, scale, rng_stream(i, "s"))
            if scale in (1.0, 0.0):
                np.testing.assert_array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("state", [STATE, init_model_state(ModelConfig(), seed=21)],
                         ids=["small", "default"])
@pytest.mark.parametrize("scale", [2.5, 1.0, 0.0])
def test_sampler_context_path_is_bitwise_the_velocity_hook(state, scale):
    # The default sampler builds the velocity context and the time-grid
    # embeddings once per patch; the hook rebuilds both at every step.
    cfg = state.config
    rng = np.random.default_rng(79)
    for i, steps in enumerate((10, 7, 1)):
        h = constant(rng.standard_normal((1, cfg.d_model)).astype(np.float32))
        z_prev = rng.standard_normal(cfg.d_patch).astype(np.float32)
        got = sample_patch(state, h, z_prev, steps=steps, cfg_scale=scale, rng=rng_stream(i, "s"))
        want = sample_patch(state, h, z_prev, steps=steps, cfg_scale=scale, rng=rng_stream(i, "s"),
                            velocity_fn=partial(velocity, state))
        assert got.tobytes() == want.tobytes()


def test_velocity_input_rows_add_position_time_and_conditioning_in_order(monkeypatch):
    # ((proj(z) + pos) + t_emb) + cond: the loss history and every sampled
    # patch depend on this order bitwise.
    import flowtts.flowmatch as flowmatch
    seen = []
    real_stack = flowmatch.transformer_stack

    def capture(state, prefix, x, *args, **kwargs):
        seen.append(x.data.copy())
        return real_stack(state, prefix, x, *args, **kwargs)

    monkeypatch.setattr(flowmatch, "transformer_stack", capture)
    z_t = RNG.standard_normal((2, CFG.d_patch)).astype(np.float32)
    z_prev = RNG.standard_normal((2, CFG.d_patch)).astype(np.float32)
    h = RNG.standard_normal((2, CFG.d_model)).astype(np.float32)
    t = np.array([0.3, 0.8])
    velocity(STATE, z_t, t, h, z_prev, [True, False])
    params = {name: p.data for name, p in STATE.parameters()}
    rows = np.empty((4, CFG.d_patch), dtype=np.float32)
    rows[0::2], rows[1::2] = z_prev, z_t
    want = rows @ params["vel.in.w"] + params["vel.in.b"]
    want = want + np.tile(params["vel.pos"], (2, 1))
    want = want + np.repeat(timestep_embedding(t, CFG.d_model, np.float32), 2, axis=0)
    want = want + np.repeat(np.stack([h[0], params["vel.null"][0]]), 2, axis=0)
    assert seen[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 3, 9])
def test_velocity_positions_are_bitwise_vel_pos_tiled_once_per_pair(dtype, n):
    # The positions are a gather of vel.pos rows [0, 1] * n: values and the
    # vel.pos gradient bitwise those of tiling the table, whose adjoint sums
    # the n copies' gradients.
    rng = np.random.default_rng(n)
    with precision(dtype):
        state = init_model_state(CFG, seed=21)
        weights = rng.standard_normal((2 * n, CFG.d_model)).astype(dtype)
        with record() as tape:
            pos = velocity_context(state, np.zeros(CFG.d_model), np.zeros((n, CFG.d_patch)),
                                   True).pos
            loss = tensor_sum(mul(pos, constant(weights)))
        tape.backward(loss)
    table = state["vel.pos"]
    assert pos.data.dtype == table.grad.dtype == np.dtype(dtype)
    assert pos.data.tobytes() == np.tile(table.data, (n, 1)).tobytes()
    assert table.grad.tobytes() == weights.reshape(n, 2, -1).sum(axis=0).tobytes()


def test_velocity_context_rejects_conditioning_of_the_wrong_shape():
    z_prev = np.zeros((2, CFG.d_patch))
    for h_final in (np.zeros((3, CFG.d_model)), np.zeros((2, CFG.d_model + 1))):
        with pytest.raises(ShapeError, match="h_final"):
            velocity_context(STATE, h_final, z_prev, True)
    with pytest.raises(ShapeError, match="z_prev"):
        velocity_context(STATE, np.zeros(CFG.d_model), np.zeros((2, CFG.d_patch + 1)), True)


@pytest.mark.parametrize("scale,rows", [(2.5, [True, False]), (1.0, [True]), (0.0, [False])])
def test_sampler_makes_one_velocity_call_per_step(scale, rows):
    calls = []

    def hook(z_t, t, h_final, z_prev, cond_enabled):
        calls.append((z_t.shape, np.shape(t), z_prev.shape, list(cond_enabled)))
        return np.zeros(CFG.d_patch, dtype=np.float32)

    sample_patch(STATE, np.zeros(CFG.d_model), np.zeros(CFG.d_patch), steps=7,
                 cfg_scale=scale, velocity_fn=hook)
    n = len(rows)
    assert calls == [((n, CFG.d_patch), (n,), (n, CFG.d_patch), rows)] * 7


def test_velocity_with_one_flag_per_row():
    z_t = RNG.standard_normal((2, CFG.d_patch))
    z_prev = RNG.standard_normal((2, CFG.d_patch))
    t = np.array([0.3, 0.7])
    h = RNG.standard_normal((1, CFG.d_model))
    both = velocity(STATE, z_t, t, h, z_prev, [True, False]).data
    cond = velocity(STATE, z_t[0], t[0], h, z_prev[0], True).data
    uncond = velocity(STATE, z_t[1], t[1], h, z_prev[1], False).data
    np.testing.assert_allclose(both, np.vstack([cond, uncond]), rtol=0, atol=1e-6)
    # The unconditional row never reads h_final; one h_final row serves every row.
    other = velocity(STATE, z_t, t, h + 1.0, z_prev, [True, False]).data
    np.testing.assert_array_equal(other[1], both[1])
    assert np.any(other[0] != both[0])
    np.testing.assert_array_equal(
        velocity(STATE, z_t, t, np.vstack([h, h]), z_prev, [True, False]).data, both)
    with pytest.raises(ShapeError):
        velocity(STATE, z_t, t, np.vstack([h, h, h]), z_prev, [True, False])
