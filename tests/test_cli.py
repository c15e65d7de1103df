"""CLI tests: subcommand behavior, determinism, exit codes, config parsing,
and output-file atomicity, driving main() in-process."""

import os
import subprocess
import sys

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
from flowtts.pipeline import load_checkpoint, read_latents, save_checkpoint

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


def test_eval_tally_output_file_atomic(tmp_path):
    votes = tmp_path / "votes.csv"
    _write_fig2_votes(votes)
    out = tmp_path / "report.csv"
    code = main(["eval", "tally", "--votes", str(votes), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().splitlines()[-1] == "overall,283,59,58"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def test_console_entry_point_help():
    result = subprocess.run([sys.executable, "-m", "flowtts.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "train" in result.stdout and "eval" in result.stdout
