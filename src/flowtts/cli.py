"""Command-line interface: train, synth, and eval (cer | sim | rtf | tally).

Logging goes to stderr; machine-readable results go to stdout or output
files.  Output files are written to a temporary sibling and renamed on
success, so no subcommand leaves a partial file behind.  Every subcommand is
deterministic under a fixed --seed (wall-clock RTF measurement excepted).

Exit codes:
  0  success
  1  model errors: training diverged (NaN), a NaN or infinity met during
     synthesis, checkpoint/latent format errors, a trajectory with no audio
  2  I/O or configuration errors (missing files, unknown config keys, bad
     synthesis arguments, an eval rtf --wall-seconds not finite and > 0)
  3  empty token list
  4  malformed data rows (CER batch, votes, pair lists)
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys
from types import SimpleNamespace

import numpy as np

from .autodiff import rng_stream
from .evaluation import (
    EmbeddingFileError,
    aggregate_tally,
    cosine_sim,
    evaluate_cer_rows,
    read_cer_batch,
    read_embedding,
    read_votes_csv,
)
from .fileio import checked_output_path, open_input, read_tsv_rows, write_atomic
from .flowmatch import DEFAULT_CFG_SCALE, DEFAULT_STEPS
from .model import ModelConfig, NonFiniteError, init_model_state
from .pipeline import (
    CheckpointError,
    LatentFileError,
    TrainConfig,
    TrainingDiverged,
    default_synthetic_spec,
    load_checkpoint,
    measure_rtf,
    read_latents,
    rtf_value,
    save_checkpoint,
    synthesize,
    train,
    write_latents,
    write_loss_csv,
)
from .thai_text import NormalizationConfig, load_lexicon

logger = logging.getLogger("flowtts")

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2
EXIT_EMPTY_TOKENS = 3
EXIT_BAD_ROWS = 4

SEED_ENV_VAR = "JAITTS_SEED"


class ConfigError(Exception):
    """Bad config file contents (unknown key, unparsable value)."""


class MalformedRowError(Exception):
    """Bad row in a batch input file."""


class EmptyTokenList(Exception):
    """A subcommand received no token ids."""


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def parse_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value UTF-8 config file (BOM allowed) with '#' comments."""
    values: dict[str, str] = {}
    with open_input(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_FIELDS and key not in _TRAIN_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _typed(field_obj, raw: str):
    kind = field_obj.type if isinstance(field_obj.type, str) else field_obj.type.__name__
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"config key {field_obj.name!r}: cannot parse {raw!r}") from None


def build_configs(file_values: dict[str, str],
                  overrides: dict[str, object]) -> tuple[ModelConfig, TrainConfig]:
    """Materialize configs from file values plus CLI overrides (flags win)."""
    model_kwargs = {}
    train_kwargs = {}
    for key, raw in file_values.items():
        if key in _CONFIG_FIELDS:
            model_kwargs[key] = _typed(_CONFIG_FIELDS[key], raw)
        if key in _TRAIN_FIELDS:
            train_kwargs[key] = _typed(_TRAIN_FIELDS[key], raw)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _TRAIN_FIELDS:
            train_kwargs[key] = value
        if key in _CONFIG_FIELDS:
            model_kwargs[key] = value
    try:
        return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_seed(seed_arg, fallback: int | None = 0) -> int | None:
    """--seed, else $JAITTS_SEED, else ``fallback``."""
    if seed_arg is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return fallback
        try:
            seed_arg = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed_arg < 0:
        raise ConfigError(f"the seed (--seed or {SEED_ENV_VAR}) must be >= 0, got {seed_arg}")
    return int(seed_arg)


def _parse_tokens(raw: str) -> list[int]:
    parts = [p for p in raw.replace(" ", "").split(",") if p]
    if not parts:
        raise EmptyTokenList("empty token list")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"tokens must be comma-separated integers, got {raw!r}") from None


def _synthesize(state, tokens, *args, **kwargs):
    """``synthesize``, with a bad argument (its ValueError) raised as a
    ConfigError; a NonFiniteError stays a model error."""
    try:
        return synthesize(state, tokens, *args, **kwargs)
    except NonFiniteError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_train(args) -> int:
    # The seed: --seed, else $JAITTS_SEED, else the config file's, else 0.
    overrides = {"seed": _resolve_seed(args.seed, fallback=None), "train_steps": args.steps}
    # An output path no file can have, or whose directory does not exist,
    # fails now: not after the training it would end, nor after the other
    # output is written.
    checked_output_path(args.out_checkpoint)
    checked_output_path(args.loss_csv)
    file_values = parse_config_file(args.config) if args.config else {}
    model_config, train_config = build_configs(file_values, overrides)

    logger.info("train: steps=%d batch=%d lr=%g seed=%d",
                train_config.train_steps, train_config.batch_size,
                train_config.learning_rate, train_config.seed)
    state = init_model_state(model_config, seed=train_config.seed)
    spec = default_synthetic_spec(model_config)
    try:
        state, history = train(train_config, spec, state)
    except TrainingDiverged as exc:
        logger.error("training aborted: %s", exc)
        return EXIT_MODEL
    except ValueError as exc:
        # The configs do not fit together (train() checks before step 0).
        raise ConfigError(str(exc)) from None

    save_checkpoint(state, args.out_checkpoint)
    write_loss_csv(args.loss_csv, history)
    if history:
        first = history[: min(100, len(history))]
        last = history[-min(100, len(history)):]
        initial = sum(r.total for r in first) / len(first)
        final = sum(r.total for r in last) / len(last)
        ratio = final / initial if initial else float("nan")
        print(f"final total={history[-1].total:.6g} fm={history[-1].fm:.6g} "
              f"stop={history[-1].stop:.6g}")
        print(f"loss ratio (last100/first100)={ratio:.4f}")
    else:
        print("final: no training steps run")
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    tokens = _parse_tokens(args.tokens)
    state = load_checkpoint(args.checkpoint)
    config = state.config
    references = np.zeros((0, config.d_patch), dtype=np.float32)
    if args.ref_latents:
        references, _ = read_latents(args.ref_latents)
        if references.shape[1] != config.d_patch:
            raise LatentFileError(
                f"reference latents have d_patch {references.shape[1]}, model expects {config.d_patch}"
            )
    print(f"synth: cfg={args.cfg:g} steps={args.steps} seed={seed} tokens={len(tokens)}",
          file=sys.stderr)
    rng = rng_stream(seed, "synth")
    patches = _synthesize(state, tokens, references, cfg_scale=args.cfg,
                          steps=args.steps, rng=rng, max_patches=args.max_patches)
    write_latents(args.out, patches, config.frame_ms)
    seconds = patches.shape[0] * config.frame_ms / 1000.0
    print(f"patches={patches.shape[0]} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_eval_cer(args) -> int:
    try:
        lexicon = load_lexicon(args.lexicon) if args.lexicon else {}
        config = NormalizationConfig(lexicon=lexicon)
    except ValueError as exc:
        raise ConfigError(f"lexicon: {exc}") from None
    try:
        rows = read_cer_batch(args.input)
        results, mean = evaluate_cer_rows(rows, config)
    except ValueError as exc:
        raise MalformedRowError(str(exc)) from None
    _emit(args.out, [("id", "cer"), *((row_id, f"{value:.6f}") for row_id, value in results),
                     ("mean", f"{mean:.6f}")])
    return EXIT_OK


def cmd_eval_sim(args) -> int:
    results = []
    for lineno, fields in read_tsv_rows(args.pairs):
        if len(fields) != 3:
            raise MalformedRowError(f"pairs row {lineno}: expected `id<TAB>ref<TAB>hyp`")
        pair_id, ref_path, hyp_path = fields
        ref = read_embedding(ref_path)
        hyp = read_embedding(hyp_path)
        try:
            results.append((pair_id, cosine_sim(ref, hyp)))
        except ValueError as exc:
            raise MalformedRowError(f"pairs row {lineno}: {exc}") from None
    mean = sum(v for _, v in results) / len(results) if results else 0.0
    _emit(args.out, [("id", "sim"), *((pair_id, f"{value:.6f}") for pair_id, value in results),
                     ("mean", f"{mean:.6f}")])
    return EXIT_OK


def cmd_eval_rtf(args) -> int:
    if args.wall_seconds is not None:
        if not args.trajectory:
            raise ConfigError("eval rtf: --wall-seconds needs --trajectory")
        if not (np.isfinite(args.wall_seconds) and args.wall_seconds > 0):
            raise ConfigError(f"eval rtf: --wall-seconds must be finite and > 0, "
                              f"got {args.wall_seconds:g}")
        patches, frame_ms = read_latents(args.trajectory)
        try:
            value = rtf_value(args.wall_seconds, patches.shape[0], frame_ms)
        except ValueError:
            raise LatentFileError(f"{args.trajectory}: no audio to time "
                                  f"({patches.shape[0]} patches of {frame_ms} ms)") from None
    else:
        if not args.checkpoint or not args.tokens:
            raise ConfigError("eval rtf needs either --wall-seconds with --trajectory, "
                              "or --checkpoint with --tokens")
        tokens = _parse_tokens(args.tokens)
        state = load_checkpoint(args.checkpoint)
        seed = _resolve_seed(args.seed)
        rng = rng_stream(seed, "synth")
        value = measure_rtf(
            lambda toks: _synthesize(state, toks, cfg_scale=args.cfg, steps=args.steps, rng=rng),
            tokens, state.config.frame_ms)
    print(f"{value:.4f}")
    return EXIT_OK


def cmd_eval_tally(args) -> int:
    try:
        votes = read_votes_csv(args.votes)
    except ValueError as exc:
        raise MalformedRowError(str(exc)) from None
    ours = args.ours
    if ours is None:
        candidates = None
        for vote in votes:
            pair = {vote.model_a, vote.model_b}
            candidates = pair if candidates is None else candidates & pair
        if not candidates or len(candidates) != 1:
            raise ConfigError("cannot infer --ours: no single model appears in every vote")
        ours = candidates.pop()
    try:
        report = aggregate_tally(votes, ours)
    except ValueError as exc:
        raise MalformedRowError(str(exc)) from None
    rows = [("competitor", "wins", "ties", "losses")]
    for name, counts in [*report.per_competitor.items(), ("overall", report.overall)]:
        rows.append((name, counts.wins, counts.ties, counts.losses))
    _emit(args.out, rows)
    return EXIT_OK


def _emit(path: str | None, rows: list[tuple]) -> None:
    """Write ``rows`` as CSV to ``path``, or to stdout without one.

    A field is quoted where it holds a comma, a double quote, a CR or an LF,
    and each row ends in "\n".  csv.writer quotes the characters of its line
    terminator, so it writes "\r\n" rows, which become "\n" ones here; with a
    "\n" terminator it would leave a CR bare.
    """
    records: list[str] = []
    csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerows(rows)
    text = "".join(record[:-2] + "\n" for record in records)
    if path:
        write_atomic(path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtts",
        description="Train, sample, and evaluate the speech-latent generator.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="jointly train all submodules on the synthetic oracle")
    p_train.add_argument("--config", help="key=value config file (ModelConfig/TrainConfig fields)")
    p_train.add_argument("--out-checkpoint", required=True)
    p_train.add_argument("--loss-csv", required=True)
    p_train.add_argument("--steps", type=int, help="override train_steps")
    p_train.add_argument("--seed", type=int, help=f"RNG seed (falls back to ${SEED_ENV_VAR}, "
                         "then the config file's seed, then 0)")
    p_train.set_defaults(fn=cmd_train)

    p_synth = sub.add_parser("synth", help="autoregressively generate a latent trajectory")
    p_synth.add_argument("--checkpoint", required=True)
    p_synth.add_argument("--tokens", required=True, help="comma-separated integer token ids")
    p_synth.add_argument("--ref-latents", help="JLAT file with voice-cloning reference patches")
    p_synth.add_argument("--cfg", type=float, default=DEFAULT_CFG_SCALE,
                         help=f"guidance scale (default {DEFAULT_CFG_SCALE:g})")
    p_synth.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                         help=f"sampler steps (default {DEFAULT_STEPS})")
    p_synth.add_argument("--max-patches", type=int, help="override generation cap")
    p_synth.add_argument("--out", required=True, help="output JLAT path")
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(fn=cmd_synth)

    p_eval = sub.add_parser("eval", help="evaluation utilities")
    eval_sub = p_eval.add_subparsers(dest="target", required=True)

    p_cer = eval_sub.add_parser("cer", help="character error rate over a TSV batch")
    p_cer.add_argument("--input", required=True, help="TSV `id<TAB>reference<TAB>hypothesis`")
    p_cer.add_argument("--lexicon", help="transliteration lexicon TSV")
    p_cer.add_argument("--out", help="output CSV path (default: stdout)")
    p_cer.set_defaults(fn=cmd_eval_cer)

    p_sim = eval_sub.add_parser("sim", help="speaker-similarity cosine over embedding pairs")
    p_sim.add_argument("--pairs", required=True, help="TSV `id<TAB>ref.jemb<TAB>hyp.jemb`")
    p_sim.add_argument("--out", help="output CSV path (default: stdout)")
    p_sim.set_defaults(fn=cmd_eval_sim)

    p_rtf = eval_sub.add_parser("rtf", help="real-time factor")
    p_rtf.add_argument("--trajectory", help="JLAT file giving patch count and frame duration")
    p_rtf.add_argument("--wall-seconds", type=float, help="known wall-clock synthesis seconds")
    p_rtf.add_argument("--checkpoint", help="measure live: checkpoint to synthesize with")
    p_rtf.add_argument("--tokens", help="measure live: comma-separated token ids")
    p_rtf.add_argument("--cfg", type=float, default=DEFAULT_CFG_SCALE)
    p_rtf.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_rtf.add_argument("--seed", type=int)
    p_rtf.set_defaults(fn=cmd_eval_rtf)

    p_tally = eval_sub.add_parser("tally", help="aggregate pairwise judgment votes")
    p_tally.add_argument("--votes", required=True, help="CSV `model_a,model_b,outcome`")
    p_tally.add_argument("--ours", help="model whose perspective to tally (default: inferred)")
    p_tally.add_argument("--out", help="output CSV path (default: stdout)")
    p_tally.set_defaults(fn=cmd_eval_tally)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s", force=True)
    try:
        return args.fn(args)
    except EmptyTokenList as exc:
        logger.error("%s", exc)
        return EXIT_EMPTY_TOKENS
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_IO
    except (MalformedRowError, EmbeddingFileError) as exc:
        logger.error("%s", exc)
        return EXIT_BAD_ROWS
    except (CheckpointError, LatentFileError, TrainingDiverged) as exc:
        logger.error("%s", exc)
        return EXIT_MODEL
    except NonFiniteError as exc:
        # train() reports this as TrainingDiverged; in synthesis a NaN or
        # infinity came from the checkpoint's weights or the reference latents.
        logger.error("synthesis aborted: %s (NaN or infinity in the checkpoint or the "
                     "reference latents)", exc)
        return EXIT_MODEL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
