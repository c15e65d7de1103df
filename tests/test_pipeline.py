"""Pipeline tests: synthetic oracle, joint objective, training mechanics,
synthesis termination, RTF arithmetic, and binary persistence."""

import contextlib
import dataclasses
import json
import math
import os
import struct
import sys
import threading

import numpy as np
import pytest

import flowtts.model as model
from flowtts.autodiff import (
    RngHub,
    ShapeError,
    add,
    constant,
    mul,
    precision,
    record,
    rng_stream,
    zero_grads,
)
from flowtts.model import ModelConfig, init_model_state, step_hiddens
from oracles import two_call_sample_patch
import flowtts.pipeline as pipeline
from flowtts.pipeline import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    LatentFileError,
    LossRecord,
    SyntheticSpec,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
    _teacher_forced_hiddens,
    default_synthetic_spec,
    load_checkpoint,
    measure_rtf,
    read_latents,
    rtf_value,
    sample_prompt,
    save_checkpoint,
    stop_loss,
    synthesize,
    synthetic_example,
    total_loss,
    train,
    write_latents,
    write_loss_csv,
)

CFG = ModelConfig(d_model=16, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
                  d_patch=4, vocab_size=12, max_patches=32, max_text_len=16)
SPEC = default_synthetic_spec(CFG)
STATE = init_model_state(CFG, seed=17)
RNG = np.random.default_rng(23)


# --------------------------------------------------------------------------
# Synthetic oracle
# --------------------------------------------------------------------------

def test_synthetic_deterministic():
    a = synthetic_example(SPEC, CFG, [1, 2, 3], speaker_id=4)
    b = synthetic_example(SPEC, CFG, [1, 2, 3], speaker_id=4)
    np.testing.assert_array_equal(a.patches, b.patches)
    assert a.text_tokens == b.text_tokens


def test_synthetic_length_is_patches_per_token_times_tokens():
    for tokens in ([5], [1, 2], [0, 3, 7, 9]):
        ex = synthetic_example(SPEC, CFG, tokens, speaker_id=0)
        assert ex.patches.shape == (SPEC.patches_per_token * len(tokens), CFG.d_patch)
        assert ex.stop_labels.sum() == 1 and ex.stop_labels[-1]


def test_synthetic_speakers_differ():
    a = synthetic_example(SPEC, CFG, [2, 4], speaker_id=0)
    b = synthetic_example(SPEC, CFG, [2, 4], speaker_id=1)
    assert not np.array_equal(a.patches, b.patches)


def test_synthetic_unknown_token_frequency():
    spec = SyntheticSpec(token_freq={0: 0.1})
    with pytest.raises(ValueError, match="frequency"):
        synthetic_example(spec, CFG, [0, 1], speaker_id=0)


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf, 0.0, -1e-3])
def test_train_config_needs_a_finite_positive_learning_rate(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=learning_rate)


@pytest.mark.parametrize("field,value", [("seed", -1), ("prompt_speakers", 0)])
def test_train_config_rejects_a_negative_seed_and_no_speakers(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value,match", [("max_text_len", 5, "max_text_len"),
                                               ("max_patches", 17, "max_patches")])
def test_train_rejects_prompts_the_model_cannot_hold(field, value, match):
    # Prompts of up to 6 tokens, 3 patches each; nothing is sampled or stepped.
    cfg = ModelConfig(**{**CFG.__dict__, field: value})
    state = init_model_state(cfg, seed=0)
    before = [p.data.copy() for _, p in state.parameters()]
    with pytest.raises(ValueError, match=match):
        train(TrainConfig(train_steps=1, batch_size=1, prompt_max_tokens=6), SPEC, state)
    assert all(np.array_equal(a, p.data) for a, (_, p) in zip(before, state.parameters()))


def test_training_example_invariants():
    with pytest.raises(ValueError):
        TrainingExample((1,), np.zeros((2, 4)), np.array([True, True]))
    with pytest.raises(ValueError):
        TrainingExample((1,), np.zeros((2, 4)), np.array([True, False]))
    with pytest.raises(ValueError):
        TrainingExample((1,), np.zeros((0, 4)), np.zeros(0, dtype=bool))


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def test_stop_loss_analytic_values():
    logits = constant(np.zeros((3, 1)))
    labels = np.array([False, False, True])
    assert stop_loss(logits, labels).item() == pytest.approx(math.log(2.0), rel=1e-6)

    big = constant(np.array([[-1e9], [-1e9], [1e9]]))
    assert stop_loss(big, labels).item() == pytest.approx(0.0, abs=1e-12)

    one = constant(np.zeros((1, 1)))
    assert stop_loss(one, np.array([True])).item() == pytest.approx(math.log(2.0), rel=1e-6)


def test_stop_loss_length_mismatch():
    with pytest.raises(ShapeError):
        stop_loss(constant(np.zeros((2, 1))), np.array([True]))


def test_total_loss_components_and_lambda_zero():
    example = synthetic_example(SPEC, CFG, [1, 2], speaker_id=0)
    total, parts = total_loss(example, STATE, RngHub(0))
    assert parts.fm >= 0.0 and parts.stop >= 0.0
    assert total.item() == pytest.approx(parts.fm + CFG.lambda_stop * parts.stop, rel=1e-6)

    zero_lambda = ModelConfig(**{**CFG.__dict__, "lambda_stop": 0.0})
    state0 = init_model_state(zero_lambda, seed=17)
    total0, parts0 = total_loss(example, state0, RngHub(0))
    assert total0.item() == pytest.approx(parts0.fm, rel=1e-6)


def test_total_loss_oracle_velocity_and_perfect_stop_head():
    example = synthetic_example(SPEC, CFG, [3, 4], speaker_id=1)
    n = example.patches.shape[0]
    dtype = STATE.dtype
    z0 = example.patches.astype(dtype)
    hub = RngHub(123)

    def oracle_velocity(z_t, t_values, h_final, z_prev, cond_enabled):
        # Reconstruct the target from the same draws total_loss made.
        eps = (z_t - (1.0 - t_values)[:, None] * z0)
        # z_t = (1-t) z0 + t eps  =>  eps = (z_t - (1-t) z0) / t
        eps = eps / t_values[:, None]
        return constant((eps - z0).astype(dtype), dtype=dtype)

    def perfect_stop(h_fsq):
        logits = np.where(example.stop_labels, 1e9, -1e9).reshape(n, 1)
        return constant(logits.astype(dtype), dtype=dtype)

    total, parts = total_loss(example, STATE, hub,
                              velocity_fn=oracle_velocity, stop_logits_fn=perfect_stop)
    assert parts.stop == pytest.approx(0.0, abs=1e-12)
    assert total.item() == pytest.approx(0.0, abs=1e-9)


def test_teacher_forced_hiddens_match_stepwise():
    # The batched training path must agree with per-step inference hiddens.
    example = synthetic_example(SPEC, CFG, [2, 5], speaker_id=3)
    h_final, quantized = _teacher_forced_hiddens(STATE, example)
    n = example.patches.shape[0]
    for i in (0, 1, n - 1):
        sh = step_hiddens(STATE, example.text_tokens,
                          example.patches[:i].astype(STATE.dtype))
        np.testing.assert_allclose(h_final.data[i], sh.h_final.data[0], rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(quantized.data[i], sh.h_quantized.data[0])


def test_conditioning_drop_statistics():
    from flowtts.pipeline import draw_conditioning_enabled
    hub = RngHub(2024)
    drops = np.array([not draw_conditioning_enabled(hub, 0.1) for _ in range(10_000)])
    assert abs(drops.mean() - 0.1) <= 0.01


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

def test_train_zero_steps_leaves_state_unchanged():
    state = init_model_state(CFG, seed=8)
    before = {k: p.data.copy() for k, p in state.parameters()}
    state, history = train(TrainConfig(train_steps=0), SPEC, state)
    assert history == []
    for k, p in state.parameters():
        np.testing.assert_array_equal(before[k], p.data)


def test_train_deterministic_history():
    def run():
        state = init_model_state(CFG, seed=8)
        _, history = train(TrainConfig(train_steps=4, batch_size=2, seed=5), SPEC, state)
        return [(r.step, r.total, r.fm, r.stop) for r in history]

    assert run() == run()


def test_train_reduces_loss_on_tiny_run():
    state = init_model_state(CFG, seed=8)
    _, history = train(TrainConfig(train_steps=150, batch_size=2, seed=5,
                                   learning_rate=3e-3), SPEC, state)
    first = np.mean([r.total for r in history[:20]])
    last = np.mean([r.total for r in history[-20:]])
    assert last < first


def test_train_nan_abort_carries_step():
    state = init_model_state(CFG, seed=8)
    state.params["vel.out.w"].data[:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        train(TrainConfig(train_steps=2, batch_size=1, seed=0), SPEC, state)
    assert err.value.step == 0


@pytest.mark.parametrize("name", ["sem.tok", "enc.w1"])
def test_train_nan_before_the_quantizer_aborts_with_the_failing_step(name, monkeypatch):
    # A NaN in these weights reaches fsq_quantize before the loss exists; it
    # must end training as TrainingDiverged, not escape as a ValueError.
    real_step = pipeline._Adam.step

    def step_then_poison(self, state):
        real_step(self, state)
        state.params[name].data[:] = np.nan

    monkeypatch.setattr(pipeline._Adam, "step", step_then_poison)
    with pytest.raises(TrainingDiverged) as err:
        train(TrainConfig(train_steps=3, batch_size=2, seed=0), SPEC, init_model_state(CFG, seed=8))
    assert err.value.step == 1


def test_default_training_step_records_at_most_120_tape_entries(monkeypatch):
    # One packed forward pass per step with the fused linear and affine
    # layer-norm primitives: 112 entries whatever the batch size (184 with
    # matmul + add and layer_norm + mul + add, 1,464 for batch 8 with one
    # forward pass per example, 3,200 before the fused attention primitive).
    lengths = []
    real_record = pipeline.record

    @contextlib.contextmanager
    def counting_record():
        with real_record() as tape:
            yield tape
        lengths.append(len(tape))

    monkeypatch.setattr(pipeline, "record", counting_record)
    cfg = ModelConfig()
    for batch_size in (1, 8):
        train(TrainConfig(train_steps=1, batch_size=batch_size), default_synthetic_spec(cfg),
              init_model_state(cfg, seed=0))
    assert len(lengths) == 2
    assert lengths[0] == lengths[1] <= 120


def _sampled_batch(cfg, size, seed):
    data_rng = RngHub(seed).stream("data")
    spec = default_synthetic_spec(cfg)
    return [synthetic_example(spec, cfg, *sample_prompt(TrainConfig(), cfg, data_rng))
            for _ in range(size)]


def test_packed_batch_loss_and_gradients_equal_the_mean_of_per_example_losses():
    # Drop probability 0.5 gives the batch both guidance branches.
    cfg = dataclasses.replace(ModelConfig(), cfg_drop_prob=0.5)
    with precision("float64"):
        state = init_model_state(cfg, seed=3)
        params = dict(state.parameters())
        examples = _sampled_batch(cfg, 8, seed=41)

        zero_grads(params.values())
        with record() as tape:
            packed, parts = total_loss(examples, state, RngHub(5))
        tape.backward(packed)
        packed_grads = {name: p.grad for name, p in params.items()}
        assert 0 < sum(parts.cond_enabled) < len(examples)

        zero_grads(params.values())
        rngs = RngHub(5)
        with record() as tape:
            losses = [total_loss(example, state, rngs)[0] for example in examples]
            mean = losses[0]
            for loss in losses[1:]:
                mean = add(mean, loss)
            mean = mul(mean, 1.0 / len(examples))
        tape.backward(mean)

    assert packed.item() == pytest.approx(mean.item(), rel=1e-9)
    for name, p in params.items():
        # The attention key biases have an analytically zero gradient, so
        # for them only the absolute bound says anything.
        np.testing.assert_allclose(packed_grads[name], p.grad, rtol=1e-9, atol=1e-13,
                                   err_msg=name)


def test_packed_batch_mates_are_isolated():
    cfg = ModelConfig()
    state = init_model_state(cfg, seed=2)
    examples = _sampled_batch(cfg, 8, seed=42)
    texts = [e.text_tokens for e in examples]
    histories = [e.patches[:-1] for e in examples]
    h_final, quantized, _ = model.conditioning_batch(state, texts, histories)
    steps = [len(h) + 1 for h in histories]
    rows = np.split(np.arange(sum(steps)), np.cumsum(steps)[:-1])

    changed = 3
    perturbed = list(histories)
    perturbed[changed] = histories[changed] + RNG.standard_normal(histories[changed].shape)
    h_other, q_other, _ = model.conditioning_batch(state, texts, perturbed)
    for e, r in enumerate(rows):
        if e == changed:
            assert np.any(h_other.data[r] != h_final.data[r])
        else:
            np.testing.assert_array_equal(h_other.data[r], h_final.data[r])
            np.testing.assert_array_equal(q_other.data[r], quantized.data[r])
    # Each sequence's rows are its own conditioning, up to summation order.
    for e, r in enumerate(rows):
        alone, _, _ = model.conditioning(state, texts[e], histories[e])
        np.testing.assert_allclose(h_final.data[r], alone.data, rtol=1e-4, atol=1e-5)


def test_conditioning_batch_rejects_a_cache_of_several_and_unpaired_inputs():
    history = np.zeros((2, CFG.d_patch))
    with pytest.raises(ValueError, match="one sequence"):
        model.conditioning_batch(STATE, [[1], [2]], [history, history], model.ConditioningCache())
    with pytest.raises(ValueError, match="texts"):
        model.conditioning_batch(STATE, [[1], [2]], [history])


def test_train_drops_conditioning_at_model_cfg_drop_prob(monkeypatch):
    seen = []
    real_draw = pipeline.draw_conditioning_enabled

    def recording_draw(rngs, drop_prob):
        seen.append(drop_prob)
        return real_draw(rngs, drop_prob)

    monkeypatch.setattr(pipeline, "draw_conditioning_enabled", recording_draw)
    cfg = ModelConfig(**{**CFG.__dict__, "cfg_drop_prob": 0.3})
    train(TrainConfig(train_steps=1, batch_size=2), SPEC, init_model_state(cfg, seed=0))
    assert seen and set(seen) == {0.3}


def test_dead_parameter_scan_small_model():
    # Every parameter must receive a nonzero gradient on some batch,
    # including the semantic stack behind the quantizer (straight-through).
    state = init_model_state(CFG, seed=4)
    rngs = RngHub(31)
    data_rng = rngs.stream("data")
    tcfg = TrainConfig(batch_size=4, seed=31)
    touched = {name: False for name, _ in state.parameters()}
    params = [p for _, p in state.parameters()]
    for _ in range(10):
        zero_grads(params)
        with record() as tape:
            acc = None
            for _ in range(tcfg.batch_size):
                tokens, speaker = sample_prompt(tcfg, CFG, data_rng)
                example = synthetic_example(SPEC, CFG, tokens, speaker)
                loss, _ = total_loss(example, state, rngs)
                from flowtts.autodiff import add
                acc = loss if acc is None else add(acc, loss)
        tape.backward(acc)
        for name, p in state.parameters():
            if p.grad is not None and np.any(p.grad != 0.0):
                touched[name] = True
        if all(touched.values()):
            break
    dead = sorted(name for name, hit in touched.items() if not hit)
    assert dead == [], f"parameters with no gradient: {dead}"


def test_gradient_reaches_semantic_stack_through_quantizer():
    state = init_model_state(CFG, seed=4)
    example = synthetic_example(SPEC, CFG, [1, 2, 3], speaker_id=0)
    params = [p for _, p in state.parameters()]
    zero_grads(params)
    with record() as tape:
        loss, _ = total_loss(example, state, RngHub(7))
    tape.backward(loss)
    for name in ("sem.tok", "sem.l0.attn.wq", "enc.w1"):
        grad = state[name].grad
        assert grad is not None and np.any(grad != 0.0), name


# --------------------------------------------------------------------------
# Synthesis
# --------------------------------------------------------------------------

def test_synthesize_respects_cap():
    out = synthesize(STATE, [1, 2], rng=rng_stream(0, "synth"), max_patches=5)
    assert 1 <= out.shape[0] <= 5


def test_synthesize_forced_stop_gives_exactly_one_patch():
    state = init_model_state(CFG, seed=6)
    state.params["stop.w"].data[:] = 0.0
    state.params["stop.b"].data[:] = 1e9
    out = synthesize(state, [1, 2, 3], rng=rng_stream(0, "synth"))
    assert out.shape[0] == 1


def test_synthesize_stops_on_any_positive_stop_logit():
    # A float64 sigmoid of a logit in (0, ~1.1e-16] rounds to exactly 0.5.
    state = init_model_state(CFG, seed=6)
    state.params["stop.w"].data[:] = 0.0
    state.params["stop.b"].data[:] = 1e-20
    out = synthesize(state, [1, 2, 3], rng=rng_stream(0, "synth"))
    assert out.shape[0] == 1


def test_synthesize_requires_text():
    with pytest.raises(ValueError):
        synthesize(STATE, [], rng=rng_stream(0, "synth"))


def _never_stopping_state(seed=17, dtype="float32"):
    with precision(dtype):
        state = init_model_state(CFG, seed=seed)
    state.params["stop.b"].data[:] = -1e4
    return state


@pytest.mark.parametrize("bad", [{"steps": 0}, {"cfg_scale": math.nan}, {"cfg_scale": math.inf}])
def test_synthesize_rejects_bad_sampler_arguments_before_prefill(monkeypatch, bad):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return step_hiddens(*args, **kwargs)

    monkeypatch.setattr(pipeline, "step_hiddens", counting)
    state = init_model_state(dataclasses.replace(CFG, max_patches=256), seed=17)
    refs = RNG.standard_normal((200, CFG.d_patch)).astype(np.float32)
    with pytest.raises(ValueError, match="sample_patch: (steps|cfg_scale) must be"):
        synthesize(state, [4, 5], refs, rng=rng_stream(1, "synth"), **bad)
    assert calls == []


def test_synthesize_excludes_reference_patches():
    # The references count against the cap but are not part of the output.
    refs = RNG.standard_normal((3, CFG.d_patch)).astype(np.float32)
    out = synthesize(_never_stopping_state(), [4, 5], refs, rng=rng_stream(1, "synth"),
                     max_patches=8)
    for ref_row in refs:
        assert not any(np.array_equal(ref_row, row) for row in out)
    assert out.shape[0] == 8 - refs.shape[0]


def test_synthesize_runs_the_stacks_over_one_new_patch_per_step(monkeypatch):
    rows = {"semantic_hiddens": [], "residual_hiddens": []}
    for name, seen in rows.items():
        def counting(*args, _real=getattr(model, name), _seen=seen, **kwargs):
            out = _real(*args, **kwargs)
            _seen.append(out.data.shape[0])
            return out
        monkeypatch.setattr(model, name, counting)
    refs = RNG.standard_normal((3, CFG.d_patch)).astype(np.float32)
    out = synthesize(_never_stopping_state(), [4, 5], refs, rng=rng_stream(1, "synth"),
                     max_patches=8)
    assert out.shape[0] == 5
    # Prefill: 2 text rows + 3 reference rows; then one row per new patch.
    assert rows == {"semantic_hiddens": [5, 1, 1, 1, 1], "residual_hiddens": [5, 1, 1, 1, 1]}


def test_synthesize_hands_step_hiddens_the_references_once_then_one_patch_per_call(monkeypatch):
    handed = []

    def recording(state, text_tokens, patch_history, cache=None):
        handed.append(np.array(patch_history))
        return step_hiddens(state, text_tokens, patch_history, cache)

    monkeypatch.setattr(pipeline, "step_hiddens", recording)
    refs = RNG.standard_normal((3, CFG.d_patch)).astype(np.float32)
    out = synthesize(_never_stopping_state(), [4, 5], refs, rng=rng_stream(1, "synth"),
                     max_patches=8)
    assert [len(patches) for patches in handed] == [3, 1, 1, 1, 1]
    np.testing.assert_array_equal(handed[0], refs)
    for patches, previous in zip(handed[1:], out):
        np.testing.assert_array_equal(patches[0], previous)


def test_synthesize_matches_a_full_recompute_two_call_reference():
    # float64, so cached decode and the one-call sampler agree with the
    # reference to rounding, even fed back through 7 autoregressive steps.
    state = _never_stopping_state(seed=8, dtype="float64")
    tokens = [3, 9, 1]
    refs = RNG.standard_normal((3, CFG.d_patch))
    with precision("float64"):
        out = synthesize(state, tokens, refs, rng=rng_stream(5, "synth"), max_patches=10)
        rng = rng_stream(5, "synth")
        history = list(refs)
        while len(history) < 10:
            h = step_hiddens(state, tokens, np.asarray(history)).h_final
            history.append(two_call_sample_patch(state, h, history[-1], 10, 2.5, rng))
    np.testing.assert_allclose(out, np.asarray(history[3:]), rtol=1e-9, atol=1e-12)


def test_concurrent_synthesis_gives_the_sequential_outputs():
    state = _never_stopping_state()
    refs = RNG.standard_normal((4, CFG.d_patch)).astype(np.float32)
    jobs = [([1, 2, 3], ()), ([4, 5], refs), ([7], refs[:1]), ([2, 2, 8, 9], ())]

    def run(job, i):
        return synthesize(state, job[0], job[1], rng=rng_stream(i, "synth"), max_patches=20)

    sequential = [run(job, i) for i, job in enumerate(jobs)]
    start = threading.Barrier(2)
    results, errors = {}, []

    def worker(offset):
        try:
            start.wait(timeout=30)
            for _ in range(3):
                for i in range(offset, len(jobs), 2):
                    results.setdefault(i, []).append(run(jobs[i], i))
        except Exception as exc:  # reported by the main thread's assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for i, expected in enumerate(sequential):
        assert len(results[i]) == 3
        for got in results[i]:
            np.testing.assert_array_equal(got, expected)


def test_synthesize_rejects_reference_of_wrong_width():
    with pytest.raises(ShapeError):
        synthesize(STATE, [4, 5], np.zeros((2, CFG.d_patch + 1)), rng=rng_stream(1, "synth"))


def test_synthesize_seed_reproducible():
    a = synthesize(STATE, [1, 2], rng=rng_stream(3, "synth"), max_patches=6)
    b = synthesize(STATE, [1, 2], rng=rng_stream(3, "synth"), max_patches=6)
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# RTF
# --------------------------------------------------------------------------

def test_rtf_reported_value_format():
    value = rtf_value(1.136, 250, 40)  # 250 patches x 40 ms = 10.0 s of audio
    assert f"{value:.4f}" == "0.1136"
    assert value == pytest.approx(0.1136, abs=1e-15)


def test_rtf_identities():
    assert rtf_value(10.0, 250, 40) == 1.0
    assert rtf_value(0.5, 250, 40) == 0.05


def test_rtf_zero_duration_errors():
    with pytest.raises(ValueError):
        rtf_value(1.0, 0, 40)


def test_measure_rtf_runs_synthesis():
    value = measure_rtf(
        lambda tokens: synthesize(STATE, tokens, rng=rng_stream(0, "synth"), max_patches=3),
        [1, 2], CFG.frame_ms)
    assert value > 0.0


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    loaded = load_checkpoint(path)
    # Config snapshot survives at the wire format's f32 precision; integer
    # fields are exact.
    import dataclasses
    for f in dataclasses.fields(ModelConfig):
        original = getattr(CFG, f.name)
        restored = getattr(loaded.config, f.name)
        if isinstance(original, int):
            assert restored == original, f.name
        else:
            assert np.float32(restored) == np.float32(original), f.name
    for name, p in STATE.parameters():
        np.testing.assert_array_equal(p.data, loaded[name].data)
    # save -> load -> save must be byte-identical
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_checkpoint_failed_rename_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"previous checkpoint")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(STATE, path)
    assert path.read_bytes() == b"previous checkpoint"
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []


def test_checkpoint_corrupt_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    other = ModelConfig(**{**CFG.__dict__, "d_model": 32})
    with pytest.raises(CheckpointShapeError, match="enc.w1"):
        load_checkpoint(path, expected_config=other)


def test_checkpoint_config_mismatch_names_field(tmp_path):
    path = tmp_path / "model.ckpt"
    trained = ModelConfig(**{**CFG.__dict__, "fsq_delta": 0.25, "fsq_bound": 2})
    save_checkpoint(init_model_state(trained, seed=1), path)
    with pytest.raises(CheckpointError, match="fsq_delta") as err:
        load_checkpoint(path, expected_config=CFG)
    assert not isinstance(err.value, CheckpointShapeError)


def test_checkpoint_loads_with_its_own_default_config(tmp_path):
    # lambda_stop 0.1 is stored as the f32 0.10000000149...; that must match.
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model_state(ModelConfig(), seed=1), path)
    loaded = load_checkpoint(path, expected_config=ModelConfig())
    assert loaded.config == ModelConfig()


def test_checkpoint_config_round_trips_exactly(tmp_path):
    path = tmp_path / "model.ckpt"
    config = ModelConfig(**{**CFG.__dict__, "lambda_stop": 0.1, "fsq_delta": 0.3,
                            "cfg_drop_prob": 0.15, "frame_ms": 2 ** 24 + 1,
                            "fsq_bound": 2 ** 25 + 1})
    save_checkpoint(init_model_state(config, seed=2), path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.config.frame_ms == 2 ** 24 + 1 and loaded.config.fsq_bound == 2 ** 25 + 1
    assert load_checkpoint(path, expected_config=config).config == config
    # Exact comparison: the f32 rounding of a field is another value now.
    rounded = dataclasses.replace(config, lambda_stop=float(np.float32(0.1)))
    with pytest.raises(CheckpointError, match="lambda_stop"):
        load_checkpoint(path, expected_config=rounded)
    off_by_one = dataclasses.replace(config, frame_ms=2 ** 24)
    with pytest.raises(CheckpointError, match="frame_ms"):
        load_checkpoint(path, expected_config=off_by_one)


def _write_version_1_checkpoint(state, path):
    # The version 1 layout: every config field as a rank-0 f32 entry named
    # "config.<field>", then the parameters, all in one entry list.
    entries = [("config." + f.name, np.asarray(getattr(state.config, f.name), dtype="<f4"))
               for f in dataclasses.fields(ModelConfig)]
    entries += [(name, p.data) for name, p in state.parameters()]
    out = bytearray(b"JTV1" + struct.pack("<II", 1, len(entries)))
    for name, arr in entries:
        out += struct.pack("<H", len(name)) + name.encode("utf-8") + struct.pack("<B", arr.ndim)
        out += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    path.write_bytes(bytes(out))


def test_checkpoint_reads_version_1_files(tmp_path):
    path = tmp_path / "v1.ckpt"
    config = ModelConfig(**{**CFG.__dict__, "lambda_stop": 0.1})
    state = init_model_state(config, seed=2)
    _write_version_1_checkpoint(state, path)
    loaded = load_checkpoint(path)
    as_f32 = {k: float(np.float32(v)) if isinstance(v, float) else v
              for k, v in config.__dict__.items()}
    assert loaded.config == ModelConfig(**as_f32) != config
    for name, p in state.parameters():
        np.testing.assert_array_equal(p.data, loaded[name].data)
    # Version 1 fields are f32, so they are compared as f32.
    assert load_checkpoint(path, expected_config=config).config == config
    with pytest.raises(CheckpointError, match="fsq_delta"):
        load_checkpoint(path, expected_config=dataclasses.replace(config, fsq_delta=0.25))
    # Saving again writes the current version.
    save_checkpoint(loaded, tmp_path / "v2.ckpt")
    assert (tmp_path / "v2.ckpt").read_bytes()[4:8] == struct.pack("<I", 2)


def test_checkpoint_rejects_a_bad_config_block(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(STATE, path)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + length])
    for change in ({"d_model": 16.0}, {"surprise": 1}, {"fsq_delta": -1.0}):
        text = json.dumps({**config, **change}).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_latents_round_trip_and_errors(tmp_path):
    path = tmp_path / "traj.jlat"
    patches = RNG.standard_normal((7, CFG.d_patch)).astype(np.float32)
    write_latents(path, patches, CFG.frame_ms)
    loaded, frame_ms = read_latents(path)
    np.testing.assert_array_equal(patches, loaded)
    assert frame_ms == CFG.frame_ms

    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.jlat"
    bad.write_bytes(bytes(blob))
    with pytest.raises(LatentFileError):
        read_latents(bad)

    short = tmp_path / "short.jlat"
    short.write_bytes(path.read_bytes()[:10])
    with pytest.raises(LatentFileError):
        read_latents(short)


def test_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv(path, [LossRecord(0, 1.5, 1.4, 1.0), LossRecord(1, 1.2, 1.1, 1.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,total,fm,stop"
    assert lines[1].startswith("0,1.5,1.4,1")
    write_loss_csv(path, [])
    assert path.read_text() == "step,total,fm,stop\n"
