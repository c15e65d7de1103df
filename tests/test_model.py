"""Model-core tests: patch encoder locality, transformer causality, lattice
quantizer properties including the straight-through gradient contract, stop
head, and the per-step conditioning composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtts.autodiff import (
    ShapeError,
    attention,
    constant,
    grad_check,
    mul,
    narrow,
    parameter,
    precision,
    record,
    tensor_sum,
    zero_grads,
)
from flowtts.model import (
    MASK_VALUE,
    ConditioningCache,
    ModelConfig,
    NonFiniteError,
    Packing,
    conditioning,
    encode_patches,
    fsq_quantize,
    init_model_state,
    residual_hiddens,
    semantic_hiddens,
    step_hiddens,
    stop_logits,
    transformer_stack,
)
from oracles import block_mask

CFG = ModelConfig(d_model=16, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
                  d_patch=4, vocab_size=12, max_patches=32, max_text_len=16)
STATE = init_model_state(CFG, seed=3)
with precision("float64"):
    STATE64 = init_model_state(CFG, seed=3)
RNG = np.random.default_rng(5)


# --------------------------------------------------------------------------
# ModelConfig validation
# --------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=13, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(fsq_delta=0.0)
    with pytest.raises(ValueError):
        ModelConfig(cfg_drop_prob=1.5)
    for field, value in (("fsq_delta", math.nan), ("fsq_delta", math.inf),
                         ("lambda_stop", math.nan), ("lambda_stop", math.inf),
                         ("lambda_stop", -0.1)):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})


# --------------------------------------------------------------------------
# Patch encoder
# --------------------------------------------------------------------------

def test_encode_empty_sequence():
    out = encode_patches(STATE, np.zeros((0, CFG.d_patch)))
    assert out.data.shape == (0, CFG.d_model)


def test_encode_single_patch_shape():
    out = encode_patches(STATE, RNG.standard_normal((1, CFG.d_patch)))
    assert out.data.shape == (1, CFG.d_model)


def test_encode_identical_patches_identical_embeddings():
    p = RNG.standard_normal(CFG.d_patch)
    out = encode_patches(STATE, np.stack([p, p])).data
    np.testing.assert_array_equal(out[0], out[1])


def test_encode_per_patch_locality():
    patches = RNG.standard_normal((3, CFG.d_patch))
    base = encode_patches(STATE, patches).data.copy()
    changed = patches.copy()
    changed[2] += 1.0
    after = encode_patches(STATE, changed).data
    np.testing.assert_array_equal(base[:2], after[:2])
    assert not np.array_equal(base[2], after[2])


def test_encode_wrong_patch_length():
    with pytest.raises(ShapeError):
        encode_patches(STATE, np.zeros((2, CFG.d_patch + 1)))


# --------------------------------------------------------------------------
# Attention mask: one rule from the Packing
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_text,k", [(1, 1), (3, 0), (4, 5)])
def test_the_mask_of_one_sequence_is_the_causal_mask(dtype, n_text, k):
    n = n_text + k
    mask = Packing([n_text], [k]).mask(dtype).data
    assert mask.dtype == dtype
    assert mask.tobytes() == np.triu(np.full((n, n), MASK_VALUE, dtype=dtype), 1).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6)), min_size=2, max_size=5),
       st.sampled_from([np.float32, np.float64]))
def test_the_mask_of_several_sequences_is_the_block_mask(lengths, dtype):
    text_lengths, history_lengths = zip(*lengths)
    mask = Packing(text_lengths, history_lengths).mask(dtype).data
    assert mask.dtype == dtype
    assert mask.tobytes() == block_mask(text_lengths, history_lengths, dtype).tobytes()


def test_a_decode_of_three_patches_sees_the_cached_rows_and_the_new_rows_up_to_itself():
    # Two text rows and four patches cached, three new patches.
    packing = Packing([2], [3], past_rows=6)
    assert packing.rows == 3
    assert packing.history_positions.tolist() == [4, 5, 6]
    assert packing.step_rows().tolist() == [0, 1, 2]
    mask = packing.mask(np.float32).data
    assert mask.shape == (3, 6 + 3)
    assert not mask[:, :6].any()
    assert mask[:, 6:].tobytes() == np.triu(np.full((3, 3), MASK_VALUE, np.float32), 1).tobytes()


def test_both_stacks_share_one_mask_per_packing():
    packing = Packing([2, 3], [1, 4])
    assert packing.mask(np.float32) is packing.mask(np.float32)


def test_one_row_calls_hand_attention_no_mask(monkeypatch):
    masks = []

    def recording(q, k, v, heads, mask=None, batch=1):
        masks.append(mask)
        return attention(q, k, v, heads, mask, batch)

    monkeypatch.setattr("flowtts.model.attention", recording)
    calls_per_pass = CFG.n_layers_semantic + CFG.n_layers_residual
    history = RNG.standard_normal((3, CFG.d_patch))
    cache = ConditioningCache()
    conditioning(STATE, [1, 2], history[:2], cache)  # prefill of 4 rows: masked
    assert len(masks) == calls_per_pass and all(m is not None for m in masks)
    masks.clear()
    conditioning(STATE, [1, 2], history[2:3], cache)  # decode of one patch
    conditioning(STATE, [7], history[:0])  # one text row, no cache
    assert len(masks) == 2 * calls_per_pass and all(m is None for m in masks)


# --------------------------------------------------------------------------
# Semantic transformer
# --------------------------------------------------------------------------

def test_semantic_requires_text():
    with pytest.raises(ValueError):
        semantic_hiddens(STATE, [], encode_patches(STATE, np.zeros((0, CFG.d_patch))))


def test_semantic_first_patch_prediction_from_text_alone():
    empty = encode_patches(STATE, np.zeros((0, CFG.d_patch)))
    text_h = semantic_hiddens(STATE, [1, 2, 3], empty)
    assert text_h.data.shape == (3, CFG.d_model)
    # The last text row is the prediction hidden for patch 0.
    _, quantized, _ = conditioning(STATE, [1, 2, 3], np.zeros((0, CFG.d_patch)))
    assert quantized.data.shape == (1, CFG.d_model)
    expected = fsq_quantize(narrow(text_h, 0, 2, 1), CFG.fsq_delta, CFG.fsq_bound)
    np.testing.assert_array_equal(quantized.data, expected.data)


def test_semantic_causality_appending_acoustic_leaves_text_hiddens():
    tokens = [4, 7, 1, 0]
    patches = RNG.standard_normal((3, CFG.d_patch))
    base = encode_patches(STATE, patches[:2])
    ext = encode_patches(STATE, patches)
    h_base = semantic_hiddens(STATE, tokens, base).data
    h_ext = semantic_hiddens(STATE, tokens, ext).data
    np.testing.assert_array_equal(h_base, h_ext[: h_base.shape[0]])


def test_semantic_causality_positionwise():
    # Hidden at position k is invariant to changes strictly after k.
    tokens = [2, 5, 9]
    patches = RNG.standard_normal((4, CFG.d_patch))
    h_full = semantic_hiddens(STATE, tokens, encode_patches(STATE, patches)).data
    mutated = patches.copy()
    mutated[3] += 2.0  # last acoustic position only
    h_mut = semantic_hiddens(STATE, tokens, encode_patches(STATE, mutated)).data
    np.testing.assert_array_equal(h_full[:-1], h_mut[:-1])


def test_semantic_bitwise_stable():
    tokens = [1, 2]
    patches = RNG.standard_normal((2, CFG.d_patch))
    a = semantic_hiddens(STATE, tokens, encode_patches(STATE, patches)).data
    b = semantic_hiddens(STATE, tokens, encode_patches(STATE, patches)).data
    np.testing.assert_array_equal(a, b)


def test_semantic_rejects_bad_tokens():
    empty = encode_patches(STATE, np.zeros((0, CFG.d_patch)))
    with pytest.raises(ValueError):
        semantic_hiddens(STATE, [CFG.vocab_size], empty)


# --------------------------------------------------------------------------
# FSQ quantizer
# --------------------------------------------------------------------------

def test_fsq_direct_examples():
    assert fsq_quantize(constant([0.2]), 1.0, 2).data[0] == 0.0
    assert fsq_quantize(constant([3.7]), 1.0, 2).data[0] == 2.0
    assert fsq_quantize(constant([-2.6]), 1.0, 2).data[0] == -2.0


def test_fsq_half_away_from_zero():
    out = fsq_quantize(constant([0.5, -0.5, 1.5, -1.5]), 1.0, 4).data
    np.testing.assert_array_equal(out, [1.0, -1.0, 2.0, -2.0])


def test_fsq_rejects_nonfinite():
    with pytest.raises(ValueError):
        fsq_quantize(constant(np.array([np.nan])), 1.0, 2)
    with pytest.raises(ValueError):
        fsq_quantize(parameter(np.array([np.inf])), 0.5, 4)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            fsq_quantize(constant([0.2]), delta, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=16),
       st.floats(0.05, 2.0), st.integers(1, 8))
def test_fsq_lattice_membership_and_idempotence(values, delta, bound):
    h = constant(np.array(values, dtype=np.float64), dtype=np.float64)
    q = fsq_quantize(h, delta, bound)
    ratio = q.data / delta
    np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-9)
    assert np.all(np.abs(q.data) <= bound * delta + 1e-12)
    q2 = fsq_quantize(q, delta, bound)
    np.testing.assert_array_equal(q.data, q2.data)


def test_fsq_monotonic_per_coordinate():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(-6, 6, size=500))
    q = fsq_quantize(constant(x, dtype=np.float64), 0.5, 4).data
    assert np.all(np.diff(q) >= 0)


def test_fsq_stability_margin():
    rng = np.random.default_rng(12)
    delta, bound = 0.5, 4
    h = rng.uniform(-3, 3, size=(200, 8))
    scaled = h / delta
    dist = np.abs(scaled - np.floor(scaled) - 0.5)  # distance to nearest half-integer
    margin = dist.min(axis=1)
    keep = margin > 1e-3
    h, margin = h[keep], margin[keep]
    q_before = fsq_quantize(constant(h, dtype=np.float64), delta, bound).data
    pert = rng.uniform(-1, 1, size=h.shape) * (0.9 * margin * delta)[:, None]
    q_after = fsq_quantize(constant(h + pert, dtype=np.float64), delta, bound).data
    np.testing.assert_array_equal(q_before, q_after)


def test_fsq_straight_through_gradient():
    # d loss(fsq(h)) / dh must equal the identity-surrogate finite difference.
    with precision("float64"):
        rng = np.random.default_rng(13)
        probe = rng.standard_normal(8)
        h = parameter(rng.uniform(-3, 3, size=8))

        def through_quantizer(t):
            return tensor_sum(mul(fsq_quantize(t, 0.5, 4), constant(probe)))

        def surrogate(t):
            return tensor_sum(mul(t, constant(probe)))

        # Analytic gradient through the quantizer ...
        zero_grads([h])
        with record() as tape:
            loss = through_quantizer(h)
        tape.backward(loss)
        analytic = h.grad.copy()
        # ... equals the finite-difference gradient of the identity surrogate.
        assert grad_check(surrogate, h) <= 1e-4
        np.testing.assert_allclose(analytic, probe, rtol=1e-12)


# --------------------------------------------------------------------------
# Residual transformer
# --------------------------------------------------------------------------

def _text_hiddens(tokens, patches):
    emb = encode_patches(STATE, patches)
    text_h = narrow(semantic_hiddens(STATE, tokens, emb), 0, 0, len(tokens))
    return text_h, emb


def test_residual_empty_history():
    text_h, _ = _text_hiddens([3, 1], np.zeros((0, CFG.d_patch)))
    empty = encode_patches(STATE, np.zeros((0, CFG.d_patch)))
    empty_fsq = fsq_quantize(empty, CFG.fsq_delta, CFG.fsq_bound)
    out = residual_hiddens(STATE, text_h, empty_fsq, empty)
    assert out.data.shape == (2, CFG.d_model)
    # The last text row is the residual hidden for step 0.
    _, _, h_res = conditioning(STATE, [3, 1], np.zeros((0, CFG.d_patch)))
    np.testing.assert_array_equal(h_res.data, out.data[-1:])


def test_residual_history_length_mismatch():
    text_h, emb = _text_hiddens([3, 1], RNG.standard_normal((2, CFG.d_patch)))
    fsq_hist = fsq_quantize(emb, CFG.fsq_delta, CFG.fsq_bound)
    short = encode_patches(STATE, RNG.standard_normal((1, CFG.d_patch)))
    with pytest.raises(ShapeError):
        residual_hiddens(STATE, text_h, fsq_hist, short)


def test_residual_causality_at_final_position():
    # h_res at step i is unchanged by appending step-i history entries.
    tokens = [3, 1, 8]
    patches = RNG.standard_normal((3, CFG.d_patch))
    text_h, emb = _text_hiddens(tokens, patches)
    fsq_hist = fsq_quantize(emb, CFG.fsq_delta, CFG.fsq_bound)
    from flowtts.model import narrow, residual_hiddens
    short = residual_hiddens(STATE, text_h,
                             narrow(fsq_hist, 0, 0, 2), narrow(emb, 0, 0, 2)).data
    longer = residual_hiddens(STATE, text_h, fsq_hist, emb).data
    np.testing.assert_array_equal(short, longer[: short.shape[0]])


# --------------------------------------------------------------------------
# Stop head
# --------------------------------------------------------------------------

def test_stop_zero_head_gives_half_probability():
    state = init_model_state(CFG, seed=9)
    state.params["stop.w"].data[:] = 0.0
    state.params["stop.b"].data[:] = 0.0
    h = constant(RNG.standard_normal((3, CFG.d_model)))
    logits = stop_logits(state, h).data
    np.testing.assert_array_equal(logits, np.zeros((3, 1), dtype=logits.dtype))


def test_stop_deterministic():
    h = constant(RNG.standard_normal((2, CFG.d_model)))
    a = stop_logits(STATE, h).data
    b = stop_logits(STATE, h).data
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# Per-step composition
# --------------------------------------------------------------------------

def test_step_hiddens_sum_identity_and_lattice():
    history = RNG.standard_normal((3, CFG.d_patch))
    sh = step_hiddens(STATE, [1, 2], history)
    np.testing.assert_array_equal(sh.h_final.data, sh.h_quantized.data + sh.h_residual.data)
    ratio = sh.h_quantized.data / CFG.fsq_delta
    np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-5)
    requant = fsq_quantize(sh.h_quantized, CFG.fsq_delta, CFG.fsq_bound)
    np.testing.assert_array_equal(requant.data, sh.h_quantized.data)


def test_step_hiddens_empty_history():
    sh = step_hiddens(STATE, [5, 6, 7], np.zeros((0, CFG.d_patch)))
    assert sh.h_final.data.shape == (1, CFG.d_model)
    assert math.isfinite(sh.stop_logit)


def test_step_hiddens_rejects_full_history():
    history = RNG.standard_normal((CFG.max_patches, CFG.d_patch))
    with pytest.raises(ShapeError):
        step_hiddens(STATE, [1], history)


# --------------------------------------------------------------------------
# Incremental conditioning: prefill once, then only the new patches
# --------------------------------------------------------------------------

def _cached_conditioning(state, tokens, history, prefill, chunk=1):
    """Rows of ``conditioning`` for every step, from one prefill over
    ``history[:prefill]`` and decode calls handing over ``chunk`` new patches
    each."""
    cache = ConditioningCache()
    parts = [conditioning(state, tokens, history[:prefill], cache)]
    for start in range(prefill, history.shape[0], chunk):
        parts.append(conditioning(state, tokens, history[start:start + chunk], cache))
    return [np.concatenate([part[i].data for part in parts]) for i in range(3)]


def _cache_bytes(cache):
    """Everything a cache holds, as bytes and shapes: of its store, the
    filled rows only."""
    filled = cache.store[:, :, :cache.tokens.size + cache.patches]
    return (cache.tokens.tobytes(), cache.patches, cache.last_quantized.tobytes(),
            filled.shape, filled.tobytes())


def _attended_keys_and_values(monkeypatch, state, tokens, history):
    """An uncached ``conditioning`` call and the keys and values of its
    attention calls, stacked as a store is: (layers, 2, rows, d_model),
    semantic layers first."""
    seen = []

    def recording(q, k, v, heads, mask=None, batch=1):
        seen.append(np.stack([k.data, v.data]))
        return attention(q, k, v, heads, mask, batch)

    with monkeypatch.context() as patched:
        patched.setattr("flowtts.model.attention", recording)
        out = conditioning(state, tokens, history)
    return out, np.stack(seen)


@pytest.mark.parametrize("dtype,rtol", [("float64", 1e-12), ("float32", 1e-5)])
def test_cached_decode_matches_full_recompute(dtype, rtol):
    # The cloning shape: 48 tokens, 200 reference patches, 48 decode steps,
    # at the default width.  float32 is not bitwise: numpy computes the
    # 1-row decode matmuls with gemv, the full call with gemm.
    rng = np.random.default_rng(41)
    with precision(dtype):
        state = init_model_state(ModelConfig(), seed=4)
        tokens = rng.integers(0, 64, 48)
        history = rng.standard_normal((248, 16))
        full = conditioning(state, tokens, history)
        cached = _cached_conditioning(state, tokens, history, 200)
    for name, got, want in zip(("h_final", "quantized", "h_residual"), cached, full):
        assert got.shape == want.data.shape == (249, 64)
        assert got.dtype == np.dtype(dtype)
        err = np.max(np.abs(got - want.data)) / np.max(np.abs(want.data))
        assert err <= rtol, (name, err)


def test_decode_of_several_patches_per_call_matches_full_recompute():
    with precision("float64"):
        history = RNG.standard_normal((13, CFG.d_patch))
        full = conditioning(STATE64, [4, 1, 7], history)
        cached = _cached_conditioning(STATE64, [4, 1, 7], history, 1, chunk=3)
    for got, want in zip(cached, full):
        np.testing.assert_allclose(got, want.data, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dtype,rtol", [("float64", 1e-12), ("float32", 1e-5)])
def test_a_long_clone_decodes_up_to_max_patches_in_one_store(dtype, rtol):
    # 48 tokens and a 200-patch reference, then one patch per call until the
    # history is one patch short of max_patches: the store allocated at the
    # prefill holds every row, and is never replaced.
    rng = np.random.default_rng(43)
    config = ModelConfig()
    with precision(dtype):
        state = init_model_state(config, seed=4)
        tokens = rng.integers(0, 64, 48)
        history = rng.standard_normal((config.max_patches - 1, config.d_patch))
        full = conditioning(state, tokens, history)
        cache = ConditioningCache()
        parts = [conditioning(state, tokens, history[:200], cache)]
        store = cache.store
        layers = config.n_layers_semantic + config.n_layers_residual
        assert store.shape == (layers, 2, 48 + config.max_patches, config.d_model)
        assert store.dtype == np.dtype(dtype)
        for start in range(200, history.shape[0]):
            parts.append(conditioning(state, tokens, history[start:start + 1], cache))
            assert cache.store is store
        with pytest.raises(ShapeError, match="max_patches"):
            conditioning(state, tokens, history[:1], cache)
    assert cache.patches == config.max_patches - 1
    for i, name in enumerate(("h_final", "quantized", "h_residual")):
        got, want = np.concatenate([part[i].data for part in parts]), full[i].data
        assert got.shape == want.shape == (config.max_patches, config.d_model)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= rtol, (name, err)


def test_prefill_records_the_ops_of_an_uncached_call(monkeypatch):
    history = RNG.standard_normal((5, CFG.d_patch))
    with record() as plain:
        expected, keys_and_values = _attended_keys_and_values(monkeypatch, STATE, [1, 2, 3],
                                                              history)
    cache = ConditioningCache()
    with record() as cached:
        got = conditioning(STATE, [1, 2, 3], history, cache)
    assert len(cached) == len(plain)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a.data, b.data)
    # Rows [0, 3 + 5) of every layer hold the keys and values the uncached
    # call attended with.
    layers = CFG.n_layers_semantic + CFG.n_layers_residual
    assert cache.store.shape == (layers, 2, 3 + CFG.max_patches, CFG.d_model)
    assert keys_and_values.shape == (layers, 2, 3 + 5, CFG.d_model)
    assert cache.store[:, :, :3 + 5].tobytes() == keys_and_values.tobytes()


def test_cache_rejects_other_tokens():
    history = RNG.standard_normal((4, CFG.d_patch))
    cache = ConditioningCache()
    conditioning(STATE, [1, 2], history[:2], cache)
    with pytest.raises(ValueError, match="other text tokens"):
        conditioning(STATE, [1, 3], history[2:3], cache)
    # A rejected call leaves the cache as it was.
    got = conditioning(STATE, [1, 2], history[2:3], cache)[0].data
    np.testing.assert_allclose(got, conditioning(STATE, [1, 2], history[:3])[0].data[-1:],
                               rtol=1e-5, atol=1e-6)


def test_a_decode_with_no_new_patch_is_rejected_and_leaves_the_cache_unchanged():
    history = RNG.standard_normal((3, CFG.d_patch))
    cache = ConditioningCache()
    conditioning(STATE, [1, 2], history[:2], cache)
    before = _cache_bytes(cache)
    with pytest.raises(ValueError, match="at least one new patch"):
        conditioning(STATE, [1, 2], history[2:2], cache)
    assert _cache_bytes(cache) == before


def test_a_decode_reaching_max_patches_is_rejected():
    history = RNG.standard_normal((CFG.max_patches, CFG.d_patch))
    cache = ConditioningCache()
    conditioning(STATE, [1], history[:CFG.max_patches - 2], cache)
    before = _cache_bytes(cache)
    with pytest.raises(ShapeError, match="max_patches"):
        conditioning(STATE, [1], history[CFG.max_patches - 2:], cache)
    assert _cache_bytes(cache) == before
    # One patch short of the cap is still a step.
    got = conditioning(STATE, [1], history[CFG.max_patches - 2:CFG.max_patches - 1], cache)
    assert got[0].data.shape == (1, CFG.d_model)


def test_decode_writes_keys_and_values_in_place(monkeypatch):
    with precision("float64"):
        history = RNG.standard_normal((4, CFG.d_patch))
        _, keys_and_values = _attended_keys_and_values(monkeypatch, STATE64, [1, 2], history)
        cache = ConditioningCache()
        conditioning(STATE64, [1, 2], history[:2], cache)
        store = cache.store
        prefilled = store[:, :, :2 + 2].copy()
        conditioning(STATE64, [1, 2], history[2:3], cache)
        conditioning(STATE64, [1, 2], history[3:4], cache)
    assert cache.store is store
    assert cache.tokens.size + cache.patches == 2 + 4
    # The decodes wrote rows 4 and 5 after the prefill's, which they left as
    # they were, and the rows are those of an uncached call.
    assert store[:, :, :2 + 2].tobytes() == prefilled.tobytes()
    np.testing.assert_allclose(store[:, :, :2 + 4], keys_and_values, rtol=1e-12, atol=1e-14)


def test_a_decode_that_raises_leaves_the_cache_unchanged():
    history = RNG.standard_normal((4, CFG.d_patch))
    cache, clean = ConditioningCache(), ConditioningCache()
    for c in (cache, clean):
        conditioning(STATE, [1, 2], history[:3], c)
    store, before = cache.store, _cache_bytes(cache)
    poisoned = history[3:].copy()
    poisoned[0] = np.nan
    with pytest.raises(NonFiniteError):
        conditioning(STATE, [1, 2], poisoned, cache)
    # The semantic stack wrote its rows after the filled ones before the
    # quantizer raised; the cache does not count them as filled.
    assert np.isnan(store[0, 0, 2 + 3]).all()
    assert cache.store is store and _cache_bytes(cache) == before
    got = conditioning(STATE, [1, 2], history[3:], cache)
    want = conditioning(STATE, [1, 2], history[3:], clean)
    for a, b in zip(got, want):
        assert a.data.tobytes() == b.data.tobytes()


def test_cached_keys_need_a_single_sequence():
    x = constant(RNG.standard_normal((4, CFG.d_model)).astype(np.float32))
    store = np.zeros((1, 2, 2 + CFG.max_patches, CFG.d_model), dtype=np.float32)
    with pytest.raises(ShapeError, match="batch"):
        transformer_stack(STATE, "sem", x, 1, None, batch=2, past=store)


def test_a_past_without_a_packing_is_rejected():
    # Only the packing says how many of a store's rows are filled.
    store = np.zeros((1, 2, 2 + CFG.max_patches, CFG.d_model), dtype=np.float32)
    emb = encode_patches(STATE, RNG.standard_normal((2, CFG.d_patch)))
    with pytest.raises(ValueError, match="packing"):
        semantic_hiddens(STATE, [1, 2], emb, past=store)
    text_h = narrow(semantic_hiddens(STATE, [1, 2], emb), 0, 0, 2)
    with pytest.raises(ValueError, match="packing"):
        residual_hiddens(STATE, text_h, emb, emb, past=store)
