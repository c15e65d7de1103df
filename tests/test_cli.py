"""CLI tests: subcommand behavior, determinism, exit codes, config parsing,
and output-file atomicity, driving main() in-process."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowtts.cli import (
    EXIT_BAD_ROWS,
    EXIT_EMPTY_TOKENS,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    build_configs,
    build_parser,
    main,
    parse_config_file,
)
from flowtts.cli import ConfigError
from flowtts.evaluation import write_embedding
from flowtts.flowmatch import DEFAULT_CFG_SCALE, DEFAULT_STEPS
from flowtts.model import ModelConfig, init_model_state
from flowtts.pipeline import load_checkpoint, read_latents, save_checkpoint, write_latents

TINY_CONFIG = """
# tiny geometry for fast tests
d_model=16
n_layers_semantic=1
n_layers_residual=1
n_heads=2
d_patch=4
vocab_size=12
max_patches=32
max_text_len=16
train_steps=3
batch_size=2
"""


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_checkpoint(tmp_path):
    cfg = ModelConfig(d_model=16, n_layers_semantic=1, n_layers_residual=1, n_heads=2,
                      d_patch=4, vocab_size=12, max_patches=32, max_text_len=16)
    state = init_model_state(cfg, seed=0)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(state, path)
    return str(path)


# --------------------------------------------------------------------------
# Config file parsing
# --------------------------------------------------------------------------

def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d_model=32\nd_modle=64\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="d_modle"):
        parse_config_file(path)


def test_config_flags_override_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("train_steps=100\nseed=7\n", encoding="utf-8")
    values = parse_config_file(path)
    _, train_cfg = build_configs(values, {"train_steps": 3, "seed": 9})
    assert train_cfg.train_steps == 3
    assert train_cfg.seed == 9


def test_config_with_bom_parses_as_without(tmp_path):
    text = "# tiny\nd_model=32\nseed=7\n"
    plain, marked = tmp_path / "c.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config_file(marked) == parse_config_file(plain) == {"d_model": "32", "seed": "7"}


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def test_train_zero_steps_writes_initialized_state(tmp_path, tiny_config_path, capsys):
    ckpt = tmp_path / "out.ckpt"
    csv = tmp_path / "loss.csv"
    code = main(["train", "--config", tiny_config_path, "--steps", "0",
                 "--out-checkpoint", str(ckpt), "--loss-csv", str(csv), "--seed", "4"])
    assert code == EXIT_OK
    assert csv.read_text() == "step,total,fm,stop\n"
    loaded = load_checkpoint(ckpt)
    fresh = init_model_state(loaded.config, seed=4)
    for name, p in fresh.parameters():
        np.testing.assert_array_equal(p.data, loaded[name].data)


def test_train_nan_fsq_delta_is_config_error(tmp_path):
    config = tmp_path / "nan.cfg"
    config.write_text(TINY_CONFIG + "fsq_delta=nan\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                 "--loss-csv", str(tmp_path / "loss.csv")])
    assert code == EXIT_IO
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_learning_rate_is_config_error(tmp_path, capsys, value):
    config = tmp_path / "lr.cfg"
    config.write_text(TINY_CONFIG + f"learning_rate={value}\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                 "--loss-csv", str(tmp_path / "loss.csv")])
    _assert_rejected_as_config_error(code, capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["lr.cfg"]


def test_train_nan_weights_abort_with_model_exit_code(tmp_path, tiny_config_path, monkeypatch,
                                                     capsys):
    # A NaN reaching the quantizer ends the run as a diverged training run.
    import flowtts.cli as cli
    real_init = cli.init_model_state

    def poisoned_init(config, seed=0):
        state = real_init(config, seed=seed)
        state.params["sem.tok"].data[:] = np.nan
        return state

    monkeypatch.setattr(cli, "init_model_state", poisoned_init)
    ckpt = tmp_path / "m.ckpt"
    code = main(["train", "--config", tiny_config_path, "--out-checkpoint", str(ckpt),
                 "--loss-csv", str(tmp_path / "loss.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert "training aborted" in err and "step 0" in err
    assert "Traceback" not in err
    assert not ckpt.exists()


def test_train_same_seed_identical_loss_csv(tmp_path, tiny_config_path):
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        csv = tmp_path / f"{tag}.csv"
        code = main(["train", "--config", tiny_config_path,
                     "--out-checkpoint", str(ckpt), "--loss-csv", str(csv), "--seed", "11"])
        assert code == EXIT_OK
        outputs.append(csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_prints_final_components(tmp_path, tiny_config_path, capsys):
    code = main(["train", "--config", tiny_config_path,
                 "--out-checkpoint", str(tmp_path / "c.ckpt"),
                 "--loss-csv", str(tmp_path / "l.csv"), "--seed", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "final total=" in out and "loss ratio" in out


def test_train_env_seed_fallback(tmp_path, tiny_config_path, monkeypatch):
    csvs = []
    for tag in ("a", "b"):
        monkeypatch.setenv("JAITTS_SEED", "21")
        csv = tmp_path / f"{tag}.csv"
        code = main(["train", "--config", tiny_config_path,
                     "--out-checkpoint", str(tmp_path / f"{tag}.ckpt"),
                     "--loss-csv", str(csv)])
        assert code == EXIT_OK
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["train", "synth", "eval rtf"])
def test_a_negative_seed_is_a_config_error(tmp_path, tiny_config_path, tiny_checkpoint, capsys,
                                           monkeypatch, command, source):
    argv = {
        "train": ["train", "--config", tiny_config_path, "--out-checkpoint",
                  str(tmp_path / "m.ckpt"), "--loss-csv", str(tmp_path / "loss.csv")],
        "synth": ["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1,2",
                  "--out", str(tmp_path / "out.jlat")],
        "eval rtf": ["eval", "rtf", "--checkpoint", tiny_checkpoint, "--tokens", "1,2"],
    }[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("JAITTS_SEED", "-1")
    before = sorted(os.listdir(tmp_path))
    code = main(argv)
    captured = capsys.readouterr()
    _assert_rejected_as_config_error(code, captured.err)
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def _train(tmp_path, config_text, *flags):
    """Exit code of ``flowtts -v train`` with a config file holding
    ``config_text``."""
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    return main(["-v", "train", "--config", str(config), "--out-checkpoint",
                 str(tmp_path / "m.ckpt"), "--loss-csv", str(tmp_path / "loss.csv"), *flags])


@pytest.mark.parametrize("flag,env,seed", [(None, None, 7), ("3", None, 3), (None, "5", 5),
                                           ("3", "5", 3)])
def test_the_train_seed_is_the_flag_then_the_env_then_the_config_file(
        tmp_path, capsys, monkeypatch, flag, env, seed):
    if env is not None:
        monkeypatch.setenv("JAITTS_SEED", env)
    flags = ["--steps", "0"] + (["--seed", flag] if flag is not None else [])
    assert _train(tmp_path, TINY_CONFIG + "seed=7\n", *flags) == EXIT_OK
    assert f"seed={seed}" in capsys.readouterr().err
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    for name, p in init_model_state(loaded.config, seed=seed).parameters():
        assert p.data.tobytes() == loaded[name].data.tobytes(), name


def test_a_negative_seed_in_the_config_file_is_a_config_error(tmp_path, capsys):
    code = _train(tmp_path, TINY_CONFIG + "seed=-1\n", "--steps", "0")
    _assert_rejected_as_config_error(code, capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


# A .jlat header stores frame_ms as u32.
FRAME_MS_PAST_U32 = 2**32


def test_model_config_bounds_frame_ms_by_the_latent_header():
    assert ModelConfig(frame_ms=2**32 - 1).frame_ms == 2**32 - 1
    with pytest.raises(ValueError, match="frame_ms"):
        ModelConfig(frame_ms=FRAME_MS_PAST_U32)


def test_train_with_a_frame_ms_past_the_latent_header_is_a_config_error(tmp_path, capsys):
    code = _train(tmp_path, TINY_CONFIG + f"frame_ms={FRAME_MS_PAST_U32}\n", "--steps", "1")
    captured = capsys.readouterr()
    _assert_rejected_as_config_error(code, captured.err)
    assert "frame_ms" in captured.err and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


# Every prompt of 6 tokens, so each step meets the longest prompt: 6 text rows
# and 6 x 3 = 18 patches.
LONGEST_PROMPTS = TINY_CONFIG + "prompt_min_tokens=6\nprompt_max_tokens=6\n"


@pytest.mark.parametrize("setting,fits", [
    ("max_text_len=6", True), ("max_text_len=5", False),
    ("max_patches=18", True), ("max_patches=17", False),
    ("prompt_speakers=1", True), ("prompt_speakers=0", False),
])
def test_training_configs_that_cannot_run_fail_before_step_0(tmp_path, capsys, setting, fits):
    code = _train(tmp_path, LONGEST_PROMPTS + setting + "\n", "--steps", "1")
    if fits:
        assert code == EXIT_OK
    else:
        _assert_rejected_as_config_error(code, capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("existing", [False, True], ids=["no-checkpoint", "old-checkpoint"])
def test_train_with_a_loss_csv_in_a_missing_directory_writes_nothing(
        tmp_path, tiny_config_path, monkeypatch, capsys, existing):
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "m.ckpt").write_bytes(b"old checkpoint")
    before = sorted(os.listdir(tmp_path))
    code = main(["train", "--config", tiny_config_path, "--steps", "0",
                 "--out-checkpoint", "m.ckpt", "--loss-csv", "missing/loss.csv"])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "missing/loss.csv" in err and ".tmp-" not in err
    assert sorted(os.listdir(tmp_path)) == before
    if existing:
        assert (tmp_path / "m.ckpt").read_bytes() == b"old checkpoint"


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------

def test_synth_fixed_seed_byte_identical(tmp_path, tiny_checkpoint, capsys):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.jlat"
        code = main(["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1,2,3",
                     "--out", str(out), "--seed", "5"])
        assert code == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    stdout = capsys.readouterr().out
    assert "patches=" in stdout and "seconds=" in stdout


def test_sampler_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    for argv in (["synth", "--checkpoint", "c", "--tokens", "1", "--out", "o"],
                 ["eval", "rtf"]):
        args = parser.parse_args(argv)
        assert (args.cfg, args.steps) == (DEFAULT_CFG_SCALE, DEFAULT_STEPS)


def test_synth_header_echoes_defaults(tmp_path, tiny_checkpoint, capsys):
    code = main(["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1",
                 "--out", str(tmp_path / "t.jlat"), "--seed", "0"])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "cfg=2.5" in err and "steps=10" in err


def test_synth_max_patches_one(tmp_path, tiny_checkpoint):
    out = tmp_path / "one.jlat"
    code = main(["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1,2",
                 "--out", str(out), "--seed", "0", "--max-patches", "1"])
    assert code == EXIT_OK
    patches, _ = read_latents(out)
    assert patches.shape[0] == 1


@pytest.fixture
def nan_checkpoint(tmp_path, tiny_checkpoint):
    # NaN in the token table reaches the quantizer at the first patch.
    state = load_checkpoint(tiny_checkpoint)
    state.params["sem.tok"].data[:] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(state, path)
    return str(path)


def test_synth_nan_checkpoint_exits_with_model_code(tmp_path, nan_checkpoint, capsys):
    out = tmp_path / "nan.jlat"
    code = main(["synth", "--checkpoint", nan_checkpoint, "--tokens", "1,2",
                 "--out", str(out), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert "synthesis aborted" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not [name for name in os.listdir(tmp_path) if name.startswith(out.name)]


def _checkpoint_with(tmp_path, tiny_checkpoint, name, row, value):
    state = load_checkpoint(tiny_checkpoint)
    state.params[name].data[row] = value
    path = tmp_path / f"{name}-{value}.ckpt"
    save_checkpoint(state, path)
    return str(path)


def _assert_model_error_and_no_output(code, err, directory, *outputs):
    assert code == EXIT_MODEL
    assert "Traceback" not in err and "Warning" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR ")]) == 1
    assert not [name for name in os.listdir(directory)
                if name in outputs or name.startswith(".tmp-")]


# A value near float32's maximum overflows a layer norm's variance; the
# numeric fault is a model error, not a warning and an output computed on.
@pytest.mark.parametrize("source", ["reference", "checkpoint"])
def test_synth_numeric_fault_exits_with_model_code(tmp_path, tiny_checkpoint, capsys, source):
    args = ["--checkpoint", tiny_checkpoint]
    if source == "reference":
        reference = tmp_path / "huge.jlat"
        write_latents(reference, np.full((1, 4), 3e38, dtype=np.float32), 40)
        args += ["--ref-latents", str(reference)]
    else:
        args = ["--checkpoint", _checkpoint_with(tmp_path, tiny_checkpoint, "sem.tok", 1, 3e38)]
    out = tmp_path / "fault.jlat"
    code = main(["synth", *args, "--tokens", "1,2", "--out", str(out), "--seed", "0"])
    err = capsys.readouterr().err
    _assert_model_error_and_no_output(code, err, tmp_path, out.name)
    assert "numeric fault: overflow" in err


def test_eval_rtf_numeric_fault_exits_with_model_code(tmp_path, tiny_checkpoint, capsys):
    checkpoint = _checkpoint_with(tmp_path, tiny_checkpoint, "sem.tok", 1, 3e38)
    code = main(["eval", "rtf", "--checkpoint", checkpoint, "--tokens", "1,2", "--seed", "0"])
    captured = capsys.readouterr()
    _assert_model_error_and_no_output(code, captured.err, tmp_path)
    assert "numeric fault: overflow" in captured.err and captured.out == ""


def test_train_numeric_fault_exits_with_model_code(tmp_path, capsys):
    # Steps of 1e38 drive the weights out of float range.
    config = tmp_path / "huge-lr.cfg"
    config.write_text(TINY_CONFIG + "learning_rate=1e38\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--out-checkpoint", str(tmp_path / "out.ckpt"),
                 "--loss-csv", str(tmp_path / "out.csv"), "--steps", "3"])
    err = capsys.readouterr().err
    _assert_model_error_and_no_output(code, err, tmp_path, "out.ckpt", "out.csv")
    assert "training aborted: overflow encountered" in err and "at step 1" in err


def test_synth_non_finite_last_patch_is_not_written(tmp_path, tiny_checkpoint, capsys):
    # A NaN velocity bias makes a NaN patch without a floating-point fault;
    # a patch that is the last one never reaches the quantizer's check.
    checkpoint = _checkpoint_with(tmp_path, tiny_checkpoint, "vel.out.b", 0, np.nan)
    out = tmp_path / "nan.jlat"
    code = main(["synth", "--checkpoint", checkpoint, "--tokens", "1,2", "--out", str(out),
                 "--seed", "0", "--max-patches", "1"])
    err = capsys.readouterr().err
    _assert_model_error_and_no_output(code, err, tmp_path, out.name)
    assert "synthesis aborted" in err and "non-finite patch" in err


# Arguments both synth and eval rtf pass to synthesize (a later --tokens wins).
BAD_SYNTHESIS_ARGUMENTS = {
    "steps-0": ["--steps", "0"],
    "token-outside-vocab": ["--tokens", "1,12"],
    "tokens-above-max-text-len": ["--tokens", ",".join(["1"] * 17)],
    "cfg-nan": ["--cfg", "nan"],
}
BAD_SYNTH_ARGUMENTS = {
    **BAD_SYNTHESIS_ARGUMENTS,
    "cfg-nan-one-patch": ["--cfg", "nan", "--max-patches", "1"],
    "max-patches-0": ["--max-patches", "0"],
    "max-patches-above-model": ["--max-patches", "33"],
}


def _assert_rejected_as_config_error(code, err):
    assert code == EXIT_IO
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR ")]) == 1


@pytest.mark.parametrize("extra", BAD_SYNTH_ARGUMENTS.values(), ids=BAD_SYNTH_ARGUMENTS.keys())
def test_synth_rejects_bad_synthesis_arguments(tmp_path, tiny_checkpoint, capsys, extra):
    out = tmp_path / "bad.jlat"
    code = main(["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1,2",
                 "--out", str(out), "--seed", "0", *extra])
    _assert_rejected_as_config_error(code, capsys.readouterr().err)
    assert not [name for name in os.listdir(tmp_path) if name.startswith(out.name)]


@pytest.mark.parametrize("extra", BAD_SYNTHESIS_ARGUMENTS.values(),
                         ids=BAD_SYNTHESIS_ARGUMENTS.keys())
def test_eval_rtf_rejects_bad_synthesis_arguments(tiny_checkpoint, capsys, extra):
    code = main(["eval", "rtf", "--checkpoint", tiny_checkpoint, "--tokens", "1,2",
                 "--seed", "0", *extra])
    captured = capsys.readouterr()
    _assert_rejected_as_config_error(code, captured.err)
    assert captured.out == ""


def test_synth_empty_tokens_exit_code(tmp_path, tiny_checkpoint):
    code = main(["synth", "--checkpoint", tiny_checkpoint, "--tokens", ",,",
                 "--out", str(tmp_path / "x.jlat"), "--seed", "0"])
    assert code == EXIT_EMPTY_TOKENS


def test_synth_bad_checkpoint_exit_code(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(["synth", "--checkpoint", str(bad), "--tokens", "1",
                 "--out", str(tmp_path / "x.jlat"), "--seed", "0"])
    assert code == EXIT_MODEL
    assert not (tmp_path / "x.jlat").exists()  # no partial outputs


def _first_tensor_offset(blob: bytes) -> int:
    # magic, version, config length and block, tensor count
    (config_len,) = struct.unpack_from("<I", blob, 8)
    return 12 + config_len + 4


def _with_first_tensor_header(path, name: bytes, shape) -> bytes:
    """The checkpoint at ``path`` with its first tensor's name and shape
    rewritten, its data kept."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = _first_tensor_offset(blob)
    (name_len,) = struct.unpack_from("<H", blob, start)
    rank = blob[start + 2 + name_len]
    data = start + 2 + name_len + 1 + 8 * rank
    header = struct.pack(f"<H{len(name)}sB{len(shape)}Q", len(name), name, len(shape), *shape)
    return blob[:start] + header + blob[data:]


CORRUPT_CHECKPOINT_HEADERS = {
    # rank 65: one more dimension than numpy allows
    "rank-above-64": (b"enc.w1", (1,) * 65),
    # 2**32 * 2**32 wraps to 0 elements in int64
    "shape-product-wraps": (b"enc.w1", (2 ** 32, 2 ** 32)),
    # (2**62 + 16) * 4 wraps to 64 elements in int64, the true size of enc.w1
    "shape-product-wraps-to-the-size": (b"enc.w1", (2 ** 62 + 16, 4)),
    "name-not-utf8": (b"enc.\xffw1", (4, 16)),
}


@pytest.mark.parametrize("name,shape", CORRUPT_CHECKPOINT_HEADERS.values(),
                         ids=CORRUPT_CHECKPOINT_HEADERS.keys())
def test_synth_corrupt_tensor_header_exits_with_model_code(tmp_path, tiny_checkpoint, capsys,
                                                           name, shape):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_first_tensor_header(tiny_checkpoint, name, shape))
    out = tmp_path / "x.jlat"
    code = main(["synth", "--checkpoint", str(bad), "--tokens", "1",
                 "--out", str(out), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR ")]) == 1
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def _with_config_block(path, config: bytes) -> bytes:
    """The checkpoint at ``path`` with its config block replaced by ``config``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    return blob[:8] + struct.pack("<I", len(config)) + config + blob[12 + config_len:]


UNREADABLE_CONFIG_BLOCKS = {
    # json raises RecursionError, not a JSONDecodeError, on deep nesting
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    # int() refuses more than 4,300 digits with a plain ValueError
    "int-of-5000-digits": b'{"d_model":' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("config", UNREADABLE_CONFIG_BLOCKS.values(),
                         ids=UNREADABLE_CONFIG_BLOCKS.keys())
def test_synth_unreadable_config_block_exits_with_model_code(tmp_path, tiny_checkpoint, capsys,
                                                             config):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_config_block(tiny_checkpoint, config))
    out = tmp_path / "x.jlat"
    code = main(["synth", "--checkpoint", str(bad), "--tokens", "1",
                 "--out", str(out), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1 and "unreadable config block" in errors[0]
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_synth_from_a_checkpoint_with_a_frame_ms_past_the_latent_header_is_invalid(
        tmp_path, tiny_checkpoint, capsys):
    with open(tiny_checkpoint, "rb") as fh:
        blob = fh.read()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    config = json.loads(blob[12:12 + config_len])
    config["frame_ms"] = FRAME_MS_PAST_U32
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_config_block(tiny_checkpoint, json.dumps(config).encode("utf-8")))
    out = tmp_path / "x.jlat"
    code = main(["synth", "--checkpoint", str(bad), "--tokens", "1",
                 "--out", str(out), "--seed", "0"])
    err = capsys.readouterr().err
    _assert_model_error_and_no_output(code, err, tmp_path, out.name)
    assert "invalid config" in err and "frame_ms" in err


def test_synth_missing_checkpoint_is_io_error(tmp_path):
    code = main(["synth", "--checkpoint", str(tmp_path / "absent.ckpt"), "--tokens", "1",
                 "--out", str(tmp_path / "x.jlat"), "--seed", "0"])
    assert code == EXIT_IO


# --------------------------------------------------------------------------
# eval cer / sim / rtf / tally
# --------------------------------------------------------------------------

def test_eval_cer_identical_columns_mean_zero(tmp_path, capsys):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("r1\tสวัสดี\tสวัสดี\nr2\tต่างๆ\tต่างต่าง\n", encoding="utf-8")
    code = main(["eval", "cer", "--input", str(tsv)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "id,cer"
    assert out[1] == "r1,0.000000"
    assert out[2] == "r2,0.000000"
    assert out[3] == "mean,0.000000"


def test_eval_cer_malformed_row_exit_code(tmp_path):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("r1\tonly-two-fields\n", encoding="utf-8")
    code = main(["eval", "cer", "--input", str(tsv)])
    assert code == EXIT_BAD_ROWS


def test_eval_sim_pairs(tmp_path, capsys):
    a = tmp_path / "a.jemb"
    b = tmp_path / "b.jemb"
    write_embedding(a, np.array([1.0, 0.0, 0.0]))
    write_embedding(b, np.array([1.0, 0.0, 0.0]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"p1\t{a}\t{b}\n", encoding="utf-8")
    code = main(["eval", "sim", "--pairs", str(pairs)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "p1,1.000000"
    assert out[2] == "mean,1.000000"


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_eval_sim_non_finite_embedding_is_a_malformed_row(tmp_path, capsys, value):
    # cosine_sim rejects it: inf gave a RuntimeWarning, NaN a similarity of "nan".
    a = tmp_path / "a.jemb"
    b = tmp_path / "b.jemb"
    write_embedding(a, np.array([1.0, value, 0.0]))
    write_embedding(b, np.array([1.0, 0.5, 0.0]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"p1\t{a}\t{b}\n", encoding="utf-8")
    out = tmp_path / "sim.csv"
    code = main(["eval", "sim", "--pairs", str(pairs), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_ROWS
    assert [line for line in err.splitlines() if line.startswith("ERROR ")] == [
        "ERROR flowtts: pairs row 1: cosine_sim: "
        "a vector has zero norm or a NaN or infinite value"]
    assert not out.exists()


def test_eval_sim_pairs_with_bom_read_as_without(tmp_path, capsys):
    a = tmp_path / "a.jemb"
    b = tmp_path / "b.jemb"
    write_embedding(a, np.array([1.0, 0.0, 0.0]))
    write_embedding(b, np.array([0.0, 1.0, 0.0]))
    text = f"p1\t{a}\t{b}\n"
    outputs = []
    for name, prefix in (("pairs.tsv", b""), ("bom.tsv", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(prefix + text.encode("utf-8"))
        assert main(["eval", "sim", "--pairs", str(tmp_path / name)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1] == "p1,0.000000"


def test_eval_sim_path_with_a_nul_byte_is_io_error(tmp_path, capsys):
    a = tmp_path / "a.jemb"
    write_embedding(a, np.array([1.0, 0.0, 0.0]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"p1\t{a}\t{a}\x00.jemb\n", encoding="utf-8")
    out = tmp_path / "sim.csv"
    code = main(["eval", "sim", "--pairs", str(pairs), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR ")]) == 1
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_eval_cer_with_bom_lexicon_and_rows(tmp_path, capsys):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(b"\xef\xbb\xbf" + "# latin\tthai\nok\tโอเค\n".encode("utf-8"))
    rows = tmp_path / "rows.tsv"
    rows.write_bytes(b"\xef\xbb\xbf" + "r1\tok ดี\tโอเคดี\n".encode("utf-8"))
    code = main(["eval", "cer", "--input", str(rows), "--lexicon", str(lexicon)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["id,cer", "r1,0.000000"]


def test_eval_rtf_arithmetic(tmp_path, capsys):
    from flowtts.pipeline import write_latents
    traj = tmp_path / "t.jlat"
    write_latents(traj, np.zeros((250, 4), dtype=np.float32), 40)
    code = main(["eval", "rtf", "--trajectory", str(traj), "--wall-seconds", "1.136"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.1136"


@pytest.mark.parametrize("patches,frame_ms", [(0, 40), (250, 0)], ids=["no-patches", "frame-ms-0"])
def test_eval_rtf_of_a_trajectory_with_no_audio_exits_with_model_code(tmp_path, capsys,
                                                                      patches, frame_ms):
    from flowtts.pipeline import write_latents
    traj = tmp_path / "t.jlat"
    write_latents(traj, np.zeros((patches, 4), dtype=np.float32), frame_ms)
    code = main(["eval", "rtf", "--trajectory", str(traj), "--wall-seconds", "1.136"])
    captured = capsys.readouterr()
    assert code == EXIT_MODEL
    assert "Traceback" not in captured.err and "no audio" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("wall_seconds", ["-1", "0", "nan", "inf", "-inf"])
def test_eval_rtf_rejects_wall_seconds_that_are_not_finite_and_positive(tmp_path, capsys,
                                                                        wall_seconds):
    from flowtts.pipeline import write_latents
    traj = tmp_path / "t.jlat"
    write_latents(traj, np.zeros((250, 4), dtype=np.float32), 40)
    code = main(["eval", "rtf", "--trajectory", str(traj), f"--wall-seconds={wall_seconds}"])
    captured = capsys.readouterr()
    _assert_rejected_as_config_error(code, captured.err)
    assert "--wall-seconds" in captured.err
    assert captured.out == ""


def test_eval_rtf_live_measurement(tmp_path, tiny_checkpoint, capsys):
    code = main(["eval", "rtf", "--checkpoint", tiny_checkpoint, "--tokens", "1,2",
                 "--seed", "0"])
    assert code == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value > 0.0


def test_eval_rtf_nan_checkpoint_exits_with_model_code(nan_checkpoint, capsys):
    code = main(["eval", "rtf", "--checkpoint", nan_checkpoint, "--tokens", "1,2",
                 "--seed", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_MODEL
    assert "synthesis aborted" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def _write_fig2_votes(path):
    lines = ["model_a,model_b,outcome"]
    lines += ["ours,eleven_v3,A"] * 161
    lines += ["ours,eleven_v3,TIE"] * 19
    lines += ["ours,eleven_v3,B"] * 20
    lines += ["speech-2.8-hd,ours,B"] * 122
    lines += ["speech-2.8-hd,ours,TIE"] * 40
    lines += ["speech-2.8-hd,ours,A"] * 38
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_eval_tally_headline(tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    _write_fig2_votes(votes)
    code = main(["eval", "tally", "--votes", str(votes)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "eleven_v3,161,19,20" in out
    assert "speech-2.8-hd,122,40,38" in out
    assert out[-1] == "overall,283,59,58"


def test_eval_tally_malformed_row(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("ours,x,A\nours,x\n", encoding="utf-8")
    code = main(["eval", "tally", "--votes", str(votes)])
    assert code == EXIT_BAD_ROWS


def test_eval_tally_field_over_the_csv_size_limit_is_a_malformed_row(tmp_path, capsys):
    # csv.reader raises _csv.Error, not ValueError, past its 131,072-character
    # field limit.
    votes = tmp_path / "votes.csv"
    votes.write_text("ours,x,A\nours,x," + "A" * 131_073 + "\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    code = main(["eval", "tally", "--votes", str(votes), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_ROWS
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("ERROR ")] == [
        "ERROR flowtts: votes row 2: field larger than field limit (131072)"]
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_eval_tally_output_file_atomic(tmp_path):
    votes = tmp_path / "votes.csv"
    _write_fig2_votes(votes)
    out = tmp_path / "report.csv"
    code = main(["eval", "tally", "--votes", str(votes), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().splitlines()[-1] == "overall,283,59,58"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("command,flag", [("cer", "--input"), ("sim", "--pairs")])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_an_empty_cer_batch_or_pair_list_is_malformed(tmp_path, capsys, command, flag, text):
    # The mean of no rows is undefined: it was reported as 0, a perfect CER
    # (or a similarity of 0) for no data.
    rows = tmp_path / "rows.tsv"
    rows.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(["eval", command, flag, str(rows), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ROWS
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len([line for line in captured.err.splitlines() if line.startswith("ERROR ")]) == 1
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_eval_tally_of_no_votes_reports_zero_counts(tmp_path, capsys):
    # Counts of nothing are defined, unlike a mean of nothing.
    votes = tmp_path / "votes.csv"
    votes.write_text("model_a,model_b,outcome\n", encoding="utf-8")
    assert main(["eval", "tally", "--votes", str(votes), "--ours", "ours"]) == EXIT_OK
    assert capsys.readouterr().out == "competitor,wins,ties,losses\noverall,0,0,0\n"


def test_every_subcommand_runs_under_the_numeric_error_state(tmp_path, tiny_config_path,
                                                             tiny_checkpoint, monkeypatch):
    # main enters the error state once, around the whole command: each
    # command's numeric work runs with overflow, invalid operations and
    # division by zero raising, the eval commands' included.
    import flowtts.cli as cli

    seen = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, np.geterr()))
            return fn(*args, **kwargs)
        return wrapper

    names = ["train", "synthesize", "evaluate_cer_rows", "cosine_sim", "aggregate_tally",
             "rtf_value"]
    for name in names:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    rows = tmp_path / "rows.tsv"
    rows.write_text("r1\tok\tok\n", encoding="utf-8")
    embedding = tmp_path / "a.jemb"
    write_embedding(embedding, np.array([1.0, 0.5, 0.0]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"p1\t{embedding}\t{embedding}\n", encoding="utf-8")
    votes = tmp_path / "votes.csv"
    _write_fig2_votes(votes)
    trajectory = tmp_path / "t.jlat"
    write_latents(trajectory, np.zeros((5, 4)), 40)
    commands = [
        ["train", "--config", tiny_config_path, "--out-checkpoint", str(tmp_path / "m.ckpt"),
         "--loss-csv", str(tmp_path / "loss.csv"), "--seed", "1"],
        ["synth", "--checkpoint", tiny_checkpoint, "--tokens", "1,2", "--max-patches", "2",
         "--out", str(tmp_path / "s.jlat")],
        ["eval", "cer", "--input", str(rows), "--out", str(tmp_path / "cer.csv")],
        ["eval", "sim", "--pairs", str(pairs), "--out", str(tmp_path / "sim.csv")],
        ["eval", "rtf", "--trajectory", str(trajectory), "--wall-seconds", "0.1"],
        ["eval", "tally", "--votes", str(votes), "--out", str(tmp_path / "tally.csv")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    assert sorted({name for name, _ in seen}) == sorted(names)
    for name, state in seen:
        assert (state["over"], state["invalid"], state["divide"]) == ("raise",) * 3, name


# --------------------------------------------------------------------------
# Paths no file can have
# --------------------------------------------------------------------------

# Every path argument, each in a command whose other paths are good: a path
# holding a NUL byte fails as a missing file does (exit 2, one ERROR line)
# and leaves nothing behind, not even the other outputs of the command.
NUL_PATH_ARGUMENTS = {
    "train --config": ["train", "--config", "{bad}", "--out-checkpoint", "{dir}/m.ckpt",
                       "--loss-csv", "{dir}/loss.csv", "--steps", "0"],
    "train --out-checkpoint": ["train", "--config", "{cfg}", "--out-checkpoint", "{bad}",
                               "--loss-csv", "{dir}/loss.csv", "--steps", "0"],
    "train --loss-csv": ["train", "--config", "{cfg}", "--out-checkpoint", "{dir}/m.ckpt",
                         "--loss-csv", "{bad}", "--steps", "0"],
    "synth --checkpoint": ["synth", "--checkpoint", "{bad}", "--tokens", "1,2",
                           "--out", "{dir}/x.jlat"],
    "synth --ref-latents": ["synth", "--checkpoint", "{ckpt}", "--tokens", "1,2",
                            "--ref-latents", "{bad}", "--out", "{dir}/x.jlat"],
    "synth --out": ["synth", "--checkpoint", "{ckpt}", "--tokens", "1,2", "--max-patches", "2",
                    "--out", "{bad}"],
    "eval rtf --checkpoint": ["eval", "rtf", "--checkpoint", "{bad}", "--tokens", "1,2"],
    "eval rtf --trajectory": ["eval", "rtf", "--trajectory", "{bad}", "--wall-seconds", "1"],
    "eval sim --pairs": ["eval", "sim", "--pairs", "{bad}", "--out", "{dir}/sim.csv"],
    "eval sim --out": ["eval", "sim", "--pairs", "{pairs}", "--out", "{bad}"],
    "eval cer --input": ["eval", "cer", "--input", "{bad}", "--out", "{dir}/cer.csv"],
    "eval cer --out": ["eval", "cer", "--input", "{rows}", "--out", "{bad}"],
    "eval tally --votes": ["eval", "tally", "--votes", "{bad}", "--ours", "ours",
                           "--out", "{dir}/tally.csv"],
    "eval tally --out": ["eval", "tally", "--votes", "{votes}", "--ours", "ours", "--out", "{bad}"],
}


@pytest.mark.parametrize("argv", NUL_PATH_ARGUMENTS.values(), ids=NUL_PATH_ARGUMENTS.keys())
def test_a_path_with_a_nul_byte_is_an_io_error_and_leaves_nothing_behind(
        tmp_path, tiny_config_path, tiny_checkpoint, capsys, argv):
    embedding = tmp_path / "a.jemb"
    write_embedding(embedding, np.array([1.0, 0.0, 0.0]))
    write_latents(tmp_path / "ref.jlat", np.zeros((2, 4), dtype=np.float32), 40)
    (tmp_path / "pairs.tsv").write_text(f"p1\t{embedding}\t{embedding}\n", encoding="utf-8")
    (tmp_path / "rows.tsv").write_text("r1\tสวัสดี\tสวัสดี\n", encoding="utf-8")
    (tmp_path / "votes.csv").write_text("ours,x,A\n", encoding="utf-8")
    before = sorted(os.listdir(tmp_path))
    paths = {"bad": f"{tmp_path}/nul\x00.out", "dir": str(tmp_path), "cfg": tiny_config_path,
             "ckpt": tiny_checkpoint, "pairs": str(tmp_path / "pairs.tsv"),
             "rows": str(tmp_path / "rows.tsv"), "votes": str(tmp_path / "votes.csv")}
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR ")]) == 1
    assert "NUL byte" in err
    assert sorted(os.listdir(tmp_path)) == before


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------

# A TSV row ends only at LF, so an id may hold a lone CR, which the report quotes.
ODD_IDS = ["a,b", 'say "hi"', ' padded ', "cr\rid", "plain"]


@pytest.mark.parametrize("command", ["cer", "sim"])
def test_eval_csv_ids_with_commas_and_quotes_parse_back(tmp_path, capsys, command):
    embedding = tmp_path / "a.jemb"
    write_embedding(embedding, np.array([1.0, 0.0, 0.0]))
    rows = tmp_path / "rows.tsv"
    if command == "cer":
        rows.write_text("".join(f"{i}\tสวัสดี\tสวัสดี\n" for i in ODD_IDS), encoding="utf-8")
        argv = ["eval", "cer", "--input", str(rows)]
    else:
        rows.write_text("".join(f"{i}\t{embedding}\t{embedding}\n" for i in ODD_IDS),
                        encoding="utf-8")
        argv = ["eval", "sim", "--pairs", str(rows)]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    with open(out, encoding="utf-8", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert [len(row) for row in parsed] == [2] * (len(ODD_IDS) + 2)
    assert [row[0] for row in parsed] == ["id", *ODD_IDS, "mean"]
    # stdout carries the same bytes.
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8")


def test_eval_tally_names_with_a_cr_a_comma_and_a_quote_parse_back(tmp_path):
    # The votes CSV can quote a CR into a name; csv.writer with a "\n"
    # terminator would leave it bare.
    names = ["cr\rname", "comma,name", 'quote"name']
    votes = tmp_path / "votes.csv"
    with open(votes, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("ours", name, "A") for name in names])
    out = tmp_path / "tally.csv"
    assert main(["eval", "tally", "--votes", str(votes), "--out", str(out)]) == EXIT_OK
    with open(out, encoding="utf-8", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed == [["competitor", "wins", "ties", "losses"],
                      *([name, "1", "0", "0"] for name in names), ["overall", "3", "0", "0"]]
    assert out.read_bytes().count(b"\n") == len(names) + 2


def test_an_output_that_cannot_be_created_is_reported_under_its_own_path(tmp_path, capsys):
    rows = tmp_path / "rows.tsv"
    rows.write_text("r1\tสวัสดี\tสวัสดี\n", encoding="utf-8")
    out = f"{tmp_path}/missing/cer.csv"
    assert main(["eval", "cer", "--input", str(rows), "--out", out]) == EXIT_IO
    err = capsys.readouterr().err
    assert repr(out) in err and ".tmp-" not in err
    assert os.listdir(tmp_path) == ["rows.tsv"]


def _load_benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 over the four eval_cer CSVs of a benchmark seed, in file order, as
# the CLI wrote them when each row was joined by hand.
BENCHMARK_CER_DIGESTS = {
    1: "147dd3b17335a726889e0d7059885978d885c810a4c5f73388c22bbbf2e80148",
    610: "20e9278fd829d8f32fda84714d0f65991b6cf15339b984e1c02e16fe8af1e211",
    611: "1370875ecb0d1972a98790a197757d1206b6ff773ece2b0fb2219456871932a6",
}


@pytest.mark.parametrize("seed", BENCHMARK_CER_DIGESTS)
def test_eval_cer_csvs_of_the_benchmark_files_are_unchanged(tmp_path, seed):
    inputs = _load_benchmark_inputs()
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("\n".join(inputs.lexicon_tsv()) + "\n", encoding="utf-8")
    rng = np.random.default_rng([seed, 2])
    digest = hashlib.sha256()
    for f in range(4):
        rows = tmp_path / f"cer-{f}.tsv"
        rows.write_text("\n".join(inputs.cer_tsv(rng, 200, 29, f"f{f}")) + "\n", encoding="utf-8")
        out = tmp_path / f"cer-{f}.csv"
        assert main(["eval", "cer", "--input", str(rows), "--lexicon", str(lexicon),
                     "--out", str(out)]) == EXIT_OK
        digest.update(out.read_bytes())
    assert digest.hexdigest() == BENCHMARK_CER_DIGESTS[seed]


def test_eval_csvs_of_plain_ids_are_unchanged(tmp_path, capsys):
    # The fixtures above, byte for byte as the hand-joined rows gave them.
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("r1\tสวัสดี\tสวัสดี\nr2\tต่างๆ\tต่างต่าง\n", encoding="utf-8")
    assert main(["eval", "cer", "--input", str(tsv)]) == EXIT_OK
    assert capsys.readouterr().out == "id,cer\nr1,0.000000\nr2,0.000000\nmean,0.000000\n"
    a, b = tmp_path / "a.jemb", tmp_path / "b.jemb"
    write_embedding(a, np.array([1.0, 0.0, 0.0]))
    write_embedding(b, np.array([0.0, 1.0, 0.0]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"p1\t{a}\t{a}\np2\t{a}\t{b}\n", encoding="utf-8")
    assert main(["eval", "sim", "--pairs", str(pairs)]) == EXIT_OK
    assert capsys.readouterr().out == "id,sim\np1,1.000000\np2,0.000000\nmean,0.500000\n"
    votes = tmp_path / "votes.csv"
    _write_fig2_votes(votes)
    assert main(["eval", "tally", "--votes", str(votes)]) == EXIT_OK
    assert capsys.readouterr().out == ("competitor,wins,ties,losses\neleven_v3,161,19,20\n"
                                       "speech-2.8-hd,122,40,38\noverall,283,59,58\n")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

IMPORT_PROBE = """
import gc, sys
def top_level():
    return {name.partition(".")[0] for name in sys.modules}
import numpy  # with what it loads
dependencies = top_level()
import flowtts.cli
from flowtts.autodiff import Tensor
from flowtts.model import ModelState
print(sorted(top_level() - dependencies - set(sys.stdlib_module_names) - {"flowtts"}))
print(sum(isinstance(o, (Tensor, ModelState)) for o in gc.get_objects()))
"""


def _probe(code: str, *args: str) -> list[str]:
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_importing_the_cli_loads_only_numpy_and_builds_no_parameters():
    # A fresh interpreter's import is most of every workload's setup time:
    # flowtts itself adds no third-party package and allocates no model.
    assert _probe(IMPORT_PROBE) == ["[]", "0"]


# numpy is the only runtime dependency: with scipy unimportable, training,
# synthesis and evaluation all run.
SCIPY_FREE_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from flowtts.cli import main
config, checkpoint, loss_csv, latents, rows = sys.argv[1:]
codes = [
    main(["train", "--config", config, "--steps", "2", "--out-checkpoint", checkpoint,
          "--loss-csv", loss_csv, "--seed", "1"]),
    main(["synth", "--checkpoint", checkpoint, "--tokens", "1,2,3", "--out", latents,
          "--seed", "1"]),
    main(["eval", "cer", "--input", rows]),
]
print("exit codes", *codes)
"""


def test_train_synth_and_eval_cer_run_with_scipy_unimportable(tmp_path, tiny_config_path):
    rows = tmp_path / "rows.tsv"
    rows.write_text("r1\tok\tok\n", encoding="utf-8")
    paths = [str(tmp_path / name) for name in ("tiny.ckpt", "loss.csv", "tiny.jlat")]
    lines = _probe(SCIPY_FREE_PROBE, tiny_config_path, *paths, str(rows))
    assert lines[-1] == "exit codes 0 0 0"
    assert all(os.path.exists(path) for path in paths)


def test_console_entry_point_help():
    result = subprocess.run([sys.executable, "-m", "flowtts.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "train" in result.stdout and "eval" in result.stdout
