"""Mutation fuzzing of every file reader through the command line.

Each reader's valid input file is damaged by bit flips, truncation,
insertion and duplication, then handed to ``main([...])``.  The command must
return one of its documented exit codes without raising, leave no ``.tmp-``
sibling, and write no output file unless it succeeded.  The float readers
(checkpoints and latent files) also get value mutations: an exponent bit of
one stored float flipped, which keeps the file well formed.  The examples
are derandomized and few, and every run is tiny (no training steps, two
patches of one Euler step), so the whole file costs seconds.
"""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtts.cli import main
from flowtts.evaluation import write_embedding
from flowtts.model import ModelConfig, init_model_state
from flowtts.pipeline import save_checkpoint, write_latents

TINY = ModelConfig(d_model=8, n_layers_semantic=1, n_layers_residual=1, n_heads=2, d_patch=4,
                   vocab_size=12, max_patches=8, max_text_len=8)

SYNTH_CODES = {0, 1, 2}  # success, model or checkpoint/latent error, I/O or config error
TRAIN_CODES = {0, 1, 2}
EVAL_CODES = {0, 2, 4}  # success, I/O or config error, malformed rows


def _binary_file(write) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "file")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


CHECKPOINT = _binary_file(lambda path: save_checkpoint(init_model_state(TINY, seed=5), path))
LATENTS = _binary_file(lambda path: write_latents(
    path, np.random.default_rng(6).standard_normal((1, TINY.d_patch)), TINY.frame_ms))
EMBEDDING = _binary_file(lambda path: write_embedding(path, [0.5, -1.0, 2.0, 0.25]))
CER_ROWS = "r1\tสวัสดี 12 ok\tสวัสดี สิบสอง โอเค\nr2\tบ้าน ๆ\tบ้านบ้าน\n".encode()
VOTES = b"model_a,model_b,outcome\nours,base,A\nbase,ours,TIE\nours,other,B\n"
# Run settings only: no size key, so no mutation can ask for a model of
# gigabytes (a valid config, not a reader fault).
CONFIG = b"# fuzz\ntrain_steps=0\nseed=3\nbatch_size=2\nlearning_rate=0.001\nlambda_stop=0.1\n"
LEXICON = "# latin\tthai\nok\tโอเค\nemail\tอีเมล\n".encode()


def _synth(directory, *args):
    return ["synth", "--tokens", "1,2", "--max-patches", "2", "--steps", "1",
            "--out", os.path.join(directory, "out", "out.jlat"), *args]


def _path(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


# reader -> (valid file, argv for a directory and the mutated file's path,
# documented exit codes, output files of a successful run)
READERS = {
    "load_checkpoint": (CHECKPOINT, lambda d, f: _synth(d, "--checkpoint", f),
                        SYNTH_CODES, ["out.jlat"]),
    "read_latents": (LATENTS, lambda d, f: _synth(
        d, "--checkpoint", _path(d, "valid.ckpt", CHECKPOINT), "--ref-latents", f),
        SYNTH_CODES, ["out.jlat"]),
    "read_embedding": (EMBEDDING, lambda d, f: [
        "eval", "sim", "--out", os.path.join(d, "out", "sim.csv"), "--pairs",
        _path(d, "pairs.tsv", f"p1\t{f}\t{_path(d, 'valid.jemb', EMBEDDING)}\n".encode())],
        EVAL_CODES, ["sim.csv"]),
    "read_cer_batch": (CER_ROWS, lambda d, f: [
        "eval", "cer", "--input", f, "--out", os.path.join(d, "out", "cer.csv")],
        EVAL_CODES, ["cer.csv"]),
    "read_votes_csv": (VOTES, lambda d, f: [
        "eval", "tally", "--votes", f, "--out", os.path.join(d, "out", "tally.csv")],
        EVAL_CODES, ["tally.csv"]),
    "parse_config_file": (CONFIG, lambda d, f: [
        "train", "--config", f, "--steps", "0", "--out-checkpoint",
        os.path.join(d, "out", "c.ckpt"), "--loss-csv", os.path.join(d, "out", "loss.csv")],
        TRAIN_CODES, ["c.ckpt", "loss.csv"]),
    "load_lexicon": (LEXICON, lambda d, f: [
        "eval", "cer", "--input", _path(d, "rows.tsv", CER_ROWS), "--lexicon", f,
        "--out", os.path.join(d, "out", "cer.csv")],
        EVAL_CODES, ["cer.csv"]),
}

# One mutation: (kind, position, argument); positions wrap to the file length.
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("duplicate"), st.integers(0, 1 << 20), st.integers(1, 32)),
)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, position, argument in mutations:
        at = position % (len(buf) + 1)
        if kind == "flip" and buf:
            buf[at % len(buf)] ^= 1 << argument
        elif kind == "truncate":
            del buf[at:]
        elif kind == "insert":
            buf[at:at] = argument
        elif kind == "duplicate":
            buf[at:at] = buf[at:at + argument]
    return bytes(buf)


def _checkpoint_values(blob: bytes) -> list[int]:
    """Byte offsets of every stored f32 value of a version 2 checkpoint."""
    (config_length,) = struct.unpack_from("<I", blob, 8)
    at = 16 + config_length  # past the config block and the tensor count
    offsets = []
    while at < len(blob):
        (name_length,) = struct.unpack_from("<H", blob, at)
        rank = blob[at + 2 + name_length]
        at += 3 + name_length
        shape = struct.unpack_from(f"<{rank}Q", blob, at)
        at += 8 * rank
        end = at + 4 * math.prod(shape)
        offsets += range(at, end, 4)
        at = end
    return offsets


# reader -> byte offsets of the f32 values its valid file stores
STORED_VALUES = {
    "load_checkpoint": _checkpoint_values(CHECKPOINT),
    "read_latents": list(range(16, len(LATENTS), 4)),  # after magic, d_patch, n, frame_ms
}


def flip_exponent_bit(data: bytes, offset: int, bit: int) -> tuple[bytes, float]:
    """``data`` with exponent bit ``bit`` (0-7) of the f32 at ``offset``
    flipped, and the value it then holds."""
    buf = bytearray(data)
    (word,) = struct.unpack_from("<I", buf, offset)
    struct.pack_into("<I", buf, offset, word ^ (1 << (23 + bit)))
    return bytes(buf), struct.unpack_from("<f", buf, offset)[0]


def run_mutated(reader: str, data: bytes) -> int:
    valid, argv, codes, outputs = READERS[reader]
    with tempfile.TemporaryDirectory() as directory:
        os.mkdir(os.path.join(directory, "out"))
        code = main(argv(directory, _path(directory, "input", data)))
        left = sorted(os.listdir(os.path.join(directory, "out")))
        assert not [name for name in os.listdir(directory) if name.startswith(".tmp-")]
    assert code in codes, f"{reader}: exit {code}"
    assert left == (sorted(outputs) if code == 0 else []), f"{reader}: exit {code} left {left}"
    return code


@pytest.mark.parametrize("reader", sorted(READERS))
def test_the_valid_file_of_each_reader_succeeds(reader):
    assert run_mutated(reader, READERS[reader][0]) == 0


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_mutated_file_ends_in_a_documented_exit_code_and_leaves_no_partial_output(reader):
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.lists(MUTATION, min_size=1, max_size=4))
    def check(mutations):
        run_mutated(reader, mutate(READERS[reader][0], mutations))

    check()


@pytest.mark.parametrize("reader", sorted(STORED_VALUES))
def test_a_flipped_exponent_bit_ends_in_a_documented_exit_code_without_a_traceback(reader,
                                                                                    capsys):
    offsets = STORED_VALUES[reader]

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(st.integers(0, len(offsets) - 1), st.integers(0, 7))
    # The top bit scales a value in [2**-126, 1) by 2**128 and turns one in
    # [1, 2) into a NaN or an infinity.
    @example(0, 7)
    def check(index, bit):
        data, value = flip_exponent_bit(READERS[reader][0], offsets[index], bit)
        capsys.readouterr()
        code = run_mutated(reader, data)
        assert "Traceback" not in capsys.readouterr().err
        # A reference value of 1e25 or more already overflows the tiny
        # model's first layer norm (1e20 does not); 1e30 leaves a margin.
        # Most weights, by contrast, still give a finite model when scaled.
        if reader == "read_latents" and not abs(value) < 1e30:
            assert code == 1, f"reference value {value}: exit {code}"

    check()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_tensor_in_a_checkpoint_ends_synthesis_with_exit_1(capsys, value):
    # Every tensor, wholly NaN or +inf, with the stop bias pinned so the run
    # decodes (reading the encoder and the history positions) unless the
    # stop bias is the tensor under test.  Three patches of one Euler step.
    codes = {}
    for name in init_model_state(TINY, seed=5).params:
        state = init_model_state(TINY, seed=5)
        state.params["stop.b"].data[:] = -1e4
        state.params[name].data[:] = value
        with tempfile.TemporaryDirectory() as directory:
            checkpoint = os.path.join(directory, "bad.ckpt")
            save_checkpoint(state, checkpoint)
            capsys.readouterr()
            codes[name] = main(["synth", "--checkpoint", checkpoint, "--tokens", "1,2",
                                "--max-patches", "3", "--steps", "1", "--seed", "0",
                                "--out", os.path.join(directory, "out.jlat")])
            assert "Traceback" not in capsys.readouterr().err, name
            assert sorted(os.listdir(directory)) == ["bad.ckpt"], name
    assert {"stop.w", "stop.b", "enc.w1", "res.pos_hist"} <= set(codes)
    assert {name: code for name, code in codes.items() if code != 1} == {}
