"""The four benchmark workloads, their correctness checks and the loop that
measures them.

A workload turns a seed into inputs, sets the program up, and then runs
"items" (a training run, an utterance, a CLI call) until the time budget is
spent.  Every item is reproducible from its index, so the traced pass can
replay exactly the items the untraced pass ran and compare outputs bitwise.
Every timed interval is bracketed by the calibration kernel (see
calibration.py) and carries the resulting scale factor.
"""

from __future__ import annotations

import functools
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import flowtts.cli as cli
import flowtts.evaluation as evaluation
import flowtts.model as model
import flowtts.pipeline as pipeline
import flowtts.thai_text as thai_text

import inputs
from calibration import Calibration, Uncalibrated
from tracer import Tracer, per_layer_metrics

STOP_BIAS = -1.0e4  # pins stop probability at ~0, so every utterance runs to its cap
FIRST_SHARE = 0.2  # of the measuring time, spent on first-result requests


@dataclass(frozen=True)
class Sizes:
    """Input dimensions and repetition counts; the defaults are the benchmark."""

    train_steps: int = 60  # steps per training run
    loss_window: int = 10  # steps averaged at each end of a run
    short_tokens: tuple[int, int] = (2, 6)
    patches_per_token: int = 3
    clone_tokens: int = 48
    clone_reference: int = 200
    clone_generated: int = 48
    euler_steps: int = 10
    cfg_scale: float = 2.5
    cer_files: int = 4
    cer_rows: int = 200
    cer_tokens: int = 29  # gives ~170 normalized characters per row
    cer_checked_rows: int = 8  # rows per file re-scored by the independent DP
    setup_reps: int = 7
    first_min: int = 5  # first-result requests at least; more while time allows


TINY = Sizes(train_steps=30, loss_window=10, clone_tokens=6, clone_reference=8,
             clone_generated=3, cer_files=2, cer_rows=3, cer_tokens=8,
             cer_checked_rows=2, setup_reps=1, first_min=1)


@dataclass
class Outcome:
    """One item: the milliseconds of each unit of work it did (a training
    step, a generated patch, a CER row), and the factor that scales each to
    the calibration kernel's reference speed."""

    units: int
    latencies_ms: list[float]
    factors: list[float]
    digest: str
    ok: bool
    extra: dict = field(default_factory=dict)

    def busy_ms(self, calibrated: bool = True) -> float:
        if calibrated:
            return sum(ms * f for ms, f in zip(self.latencies_ms, self.factors))
        return sum(self.latencies_ms)


def _check_units(call: str, hook: str, found: int, expected: int) -> None:
    if found != expected:
        raise RuntimeError(f"{call} called {hook} {found} times for {expected} units of work; "
                           "the benchmark splits units at that call")


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str, cal: Calibration):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cal = cal

    def setup_args(self) -> list[str]:
        """Arguments of ``program_setup`` for this run, as strings."""
        return [str(self.seed)]

    @staticmethod
    def program_setup(arg: str):
        """The program's own set-up, which ``setup_s`` times in a fresh
        interpreter together with importing flowtts."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_item(self, i: int) -> Outcome:
        raise NotImplementedError

    def first_result(self, i: int) -> tuple[float, float]:
        """Raw milliseconds and scale factor of the smallest complete request."""
        raise NotImplementedError

    def checks(self, outcomes: list[Outcome]) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def named_metrics(self, outcomes: list[Outcome], first_ms: list[float]) -> dict:
        """The workload's own end-to-end figures, from calibrated times."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

class Train(Workload):
    name = "train"

    @staticmethod
    def program_setup(seed: str):
        config = model.ModelConfig()
        return (config, pipeline.default_synthetic_spec(config),
                model.init_model_state(config, int(seed)))

    def setup(self) -> None:
        self.model_config, self.spec, _ = self.program_setup(str(self.seed))

    def _train(self, kind: int, i: int, steps: int, timer):
        """Train from a fresh init for ``steps`` steps.  Request i of a kind
        has its own seed for init, data and noise, so a run's steps and
        first results cover many batches rather than one."""
        seed = int(np.random.default_rng([self.seed, kind, i]).integers(2 ** 31))
        state = model.init_model_state(self.model_config, seed)
        return timer(pipeline.train, pipeline.TrainConfig(train_steps=steps, seed=seed),
                     self.spec, state)

    def run_item(self, i: int) -> Outcome:
        """One training run, split into steps at record(), which train()
        opens once per step."""
        timer = functools.partial(self.cal.timed_units, pipeline, "record")
        (_, history), millis, factors = self._train(0, i, self.sizes.train_steps, timer)
        _check_units("train()", "pipeline.record", len(millis), self.sizes.train_steps)
        losses = np.array([(r.total, r.fm, r.stop) for r in history], dtype=np.float64)
        return Outcome(units=len(history), latencies_ms=millis, factors=factors,
                       digest=_digest(losses), ok=bool(np.all(np.isfinite(losses))),
                       extra={"loss": losses[:, 0].tolist()})

    def first_result(self, i):
        _, seconds, factor = self._train(1, i, 1, self.cal.timed)
        return seconds * 1000.0, factor

    def _windows(self, loss: list[float]) -> tuple[float, float]:
        w = self.sizes.loss_window
        return float(np.mean(loss[:w])), float(np.mean(loss[-w:]))

    def checks(self, outcomes):
        first, last = self._windows(outcomes[0].extra["loss"])
        return [("train: last-window mean loss of run 0 below its first-window mean",
                 last < first)]

    def named_metrics(self, outcomes, first_ms):
        steps = [ms * f for o in outcomes for ms, f in zip(o.latencies_ms, o.factors)]
        return {
            "train_step_ms_p50": (statistics.median(steps), "ms"),
            "train_step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
            "train_loss_final": (self._windows(outcomes[0].extra["loss"])[1], "loss"),
        }

    def describe(self):
        tc = pipeline.TrainConfig()
        return {"config": "default ModelConfig and TrainConfig", "batch_size": tc.batch_size,
                "prompt_tokens": [tc.prompt_min_tokens, tc.prompt_max_tokens],
                "steps_per_run": self.sizes.train_steps, "loss_window": self.sizes.loss_window,
                "seeds": "run i trains from init_model_state(ModelConfig(), s) with "
                         "TrainConfig(seed=s), s drawn from (--seed, i)",
                "input_seed": self.seed}


# --------------------------------------------------------------------------
# synth_short and synth_clone_long
# --------------------------------------------------------------------------

class Synth(Workload):
    @staticmethod
    def program_setup(seed: str):
        state = model.init_model_state(model.ModelConfig(), int(seed))
        state["stop.b"].data[...] = STOP_BIAS
        return state

    def setup(self) -> None:
        self.state = self.program_setup(str(self.seed))

    def item_inputs(self, i: int):
        """(tokens, reference patches, cap) of utterance i."""
        raise NotImplementedError

    def _synthesize(self, i: int, cap: int, timer):
        tokens, refs, _ = self.item_inputs(i)
        return timer(pipeline.synthesize, self.state, tokens, reference_patches=refs,
                     cfg_scale=self.sizes.cfg_scale, steps=self.sizes.euler_steps,
                     rng=np.random.default_rng([self.seed, i]), max_patches=cap)

    def run_item(self, i: int) -> Outcome:
        """One utterance, split into patches at sample_patch(), which
        synthesize() calls once per patch."""
        _, refs, cap = self.item_inputs(i)
        timer = functools.partial(self.cal.timed_units, pipeline, "sample_patch")
        out, millis, factors = self._synthesize(i, cap, timer)
        _check_units("synthesize()", "pipeline.sample_patch", len(millis), len(out))
        ok = out.shape == (cap - len(refs), inputs.D_PATCH) and bool(np.all(np.isfinite(out)))
        return Outcome(units=len(out), latencies_ms=millis, factors=factors,
                       digest=_digest(out), ok=ok)

    def first_result(self, i):
        _, refs, _ = self.item_inputs(i)
        _, seconds, factor = self._synthesize(i, len(refs) + 1, self.cal.timed)
        return seconds * 1000.0, factor

    def checks(self, outcomes):
        again = self.run_item(0)
        return [(f"{self.name}: re-synthesizing utterance 0 gives bitwise the same patches",
                 again.digest == outcomes[0].digest)]

    def named_metrics(self, outcomes, first_ms):
        frame_ms = self.state.config.frame_ms
        rtf = [pipeline.rtf_value(o.busy_ms() / 1000.0, o.units, frame_ms) for o in outcomes]
        return {
            "rtf_p50": (statistics.median(rtf), "1"),
            "rtf_p90": (float(np.percentile(rtf, 90)), "1"),
            "rtf_samples": (len(rtf), "count"),
            "first_patch_ms_p50": (statistics.median(first_ms), "ms"),
            "synth_patches_per_s": (1000.0 * sum(o.units for o in outcomes)
                                    / sum(o.busy_ms() for o in outcomes), "1/s"),
        }

    def describe(self):
        return {"euler_steps": self.sizes.euler_steps, "cfg_scale": self.sizes.cfg_scale,
                "stop_bias": STOP_BIAS, "model": "init_model_state(ModelConfig(), seed)",
                "batch": 1, "input_seed": self.seed}


class SynthShort(Synth):
    name = "synth_short"

    def item_inputs(self, i):
        rng = np.random.default_rng([self.seed, i, 1])
        tokens = inputs.prompt_tokens(rng, *self.sizes.short_tokens)
        return tokens, (), self.sizes.patches_per_token * len(tokens)

    def describe(self):
        return {**super().describe(), "prompt_tokens": list(self.sizes.short_tokens),
                "reference_patches": 0,
                "generated_patches": f"{self.sizes.patches_per_token} per prompt token"}


class SynthCloneLong(Synth):
    name = "synth_clone_long"

    def item_inputs(self, i):
        rng = np.random.default_rng([self.seed, i, 1])
        n = self.sizes.clone_tokens
        tokens = inputs.prompt_tokens(rng, n, n)
        refs = inputs.reference_patches(rng, self.sizes.clone_reference)
        return tokens, refs, self.sizes.clone_reference + self.sizes.clone_generated

    def describe(self):
        return {**super().describe(), "prompt_tokens": self.sizes.clone_tokens,
                "reference_patches": self.sizes.clone_reference,
                "generated_patches": self.sizes.clone_generated}


# --------------------------------------------------------------------------
# eval_cer
# --------------------------------------------------------------------------

class EvalCer(Workload):
    name = "eval_cer"

    def __init__(self, seed, sizes, workdir, cal):
        super().__init__(seed, sizes, workdir, cal)
        rng = np.random.default_rng([seed, 2])
        self.lexicon_path = self._write("lexicon.tsv", inputs.lexicon_tsv())
        self.files = []
        for f in range(sizes.cer_files):
            lines = inputs.cer_tsv(rng, sizes.cer_rows, sizes.cer_tokens, f"f{f}")
            self.files.append((self._write(f"cer-{f}.tsv", lines), lines))
        # One-row files for the first-result requests, one per row of the
        # first file, so their median runs over rows of every length.
        self.single_rows = [self._write(f"cer-one-{k}.tsv", [line])
                            for k, line in enumerate(self.files[0][1])]
        self.outputs: dict[int, str] = {}

    def _write(self, name: str, lines: list[str]) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def setup_args(self):
        return [self.lexicon_path]

    @staticmethod
    def program_setup(lexicon_path: str):
        return thai_text.NormalizationConfig(lexicon=thai_text.load_lexicon(lexicon_path))

    def setup(self) -> None:
        self.config = self.program_setup(self.lexicon_path)

    def _argv(self, tsv: str, out: str) -> list[str]:
        return ["eval", "cer", "--input", tsv, "--lexicon", self.lexicon_path, "--out", out]

    def run_item(self, i: int) -> Outcome:
        """One CLI call over a file, split into rows at score_pair(), which
        evaluate_cer_rows() calls once per row."""
        f = i % len(self.files)
        out = os.path.join(self.workdir, f"cer-{f}.csv")
        code, millis, factors = self.cal.timed_units(evaluation, "score_pair", cli.main,
                                                     self._argv(self.files[f][0], out))
        rows = self.sizes.cer_rows
        _check_units("flowtts eval cer", "evaluation.score_pair", len(millis), rows)
        text = ""
        if code == 0:
            with open(out, "r", encoding="utf-8") as fh:
                text = fh.read()
            self.outputs.setdefault(f, text)
        return Outcome(units=rows, latencies_ms=millis, factors=factors,
                       digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
                       ok=code == 0 and len(text.splitlines()) == rows + 2, extra={"file": f})

    def first_result(self, i):
        argv = self._argv(self.single_rows[i % len(self.single_rows)],
                          os.path.join(self.workdir, "cer-one.csv"))
        code, seconds, factor = self.cal.timed(cli.main, argv)
        if code != 0:
            raise RuntimeError(f"flowtts eval cer exited {code} on a one-row batch")
        return seconds * 1000.0, factor

    def checks(self, outcomes):
        found = []
        for f, text in sorted(self.outputs.items()):
            digests = {o.digest for o in outcomes if o.extra["file"] == f}
            found.append((f"eval_cer: repeated calls on file {f} give the same CSV",
                          len(digests) == 1))
            scored = dict(line.split(",") for line in text.splitlines()[1:])
            for line in self.files[f][1][:self.sizes.cer_checked_rows]:
                row_id, ref, hyp = line.split("\t")
                ref_n = thai_text.normalize(ref, self.config)
                hyp_n = thai_text.normalize(hyp, self.config)
                expected = f"{inputs.edit_distance(ref_n, hyp_n) / len(ref_n):.6f}"
                found.append((f"eval_cer: CER of row {row_id} matches an independent DP",
                              scored.get(row_id) == expected))
        return found

    def named_metrics(self, outcomes, first_ms):
        return {"cer_rows_per_s": (1000.0 * sum(o.units for o in outcomes)
                                   / sum(o.busy_ms() for o in outcomes), "1/s")}

    def describe(self):
        return {"command": "flowtts.cli.main(['eval', 'cer', ...]) in-process",
                "files": self.sizes.cer_files, "rows_per_file": self.sizes.cer_rows,
                "tokens_per_row": self.sizes.cer_tokens,
                "content": "Thai words, digit runs, mai-yamok, Latin lexicon words",
                "input_seed": self.seed}


WORKLOADS = {w.name: w for w in (Train, SynthShort, SynthCloneLong, EvalCer)}


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def time_setup(workload: Workload) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import flowtts and run the
    workload's set-up, as measured inside that interpreter, and the scale
    factor of the kernels around it."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        "import time\n"
        "begin = time.perf_counter()\n"
        "import sys\n"
        f"sys.path[:0] = [{src!r}, {here!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload.name!r}].program_setup(*sys.argv[1:])\n"
        "print(time.perf_counter() - begin)\n"
    )
    done, _, factor = workload.cal.timed(
        subprocess.run, [sys.executable, "-c", code, *workload.setup_args()],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]), factor


def _run_items(workload: Workload, count: int | None, budget_s: float,
               tracer: Tracer | None = None, first: list | None = None):
    """Run items 0, 1, ... for ``count`` items, or, with ``count`` None,
    while the next one is expected to end within ``budget_s`` (at least one).

    With a ``first`` list, first-result requests run between items, so they
    take FIRST_SHARE of the time and are spread over the whole run; their
    (milliseconds, factor) pairs are appended to ``first``.  Returns the
    outcomes, the items attempted and the items failed.
    """
    outcomes: list[Outcome] = []
    failures = 0
    first_s = 0.0
    begin = time.perf_counter()
    i = 0
    while count is None or i < count:
        if count is None and i:
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / i > budget_s:
                break
        if tracer is not None:
            tracer.op_id = i
        try:
            outcome = workload.run_item(i)
        except Exception:  # a failing item is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            outcome = None
        if outcome is None or not outcome.ok:
            failures += 1
        if outcome is not None:
            outcomes.append(outcome)
        i += 1
        while first is not None and first_s < FIRST_SHARE * (time.perf_counter() - begin):
            started = time.perf_counter()
            first.append(workload.first_result(len(first)))
            first_s += time.perf_counter() - started
    return outcomes, i, failures


def end_to_end(outcomes: list[Outcome], first: list[tuple[float, float]],
               setup: list[tuple[float, float]], calibrated: bool) -> dict:
    """The end-to-end metrics, calibrated or raw."""
    def scale(pairs):
        return [v * (f if calibrated else 1.0) for v, f in pairs]

    latencies = scale((ms, f) for o in outcomes for ms, f in zip(o.latencies_ms, o.factors))
    busy_ms = sum(o.busy_ms(calibrated) for o in outcomes)
    return {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": float(np.percentile(latencies, 90)),
        "ops_per_s": 1000.0 * sum(o.units for o in outcomes) / busy_ms,
        "first_result_ms_p50": statistics.median(scale(first)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(scale(setup)),
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value: end-to-end, plus per-layer when traced
    raw: dict  # end-to-end metrics without calibration
    named: dict  # the workload's own metric name -> (value, unit)
    failed_checks: list[str]
    inputs: dict
    trace: dict | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 sizes: Sizes = Sizes()) -> Result:
    """Measure one workload; with ``trace`` the budget is split between an
    untraced pass and a traced replay of the same items."""
    os.makedirs(workdir, exist_ok=True)
    cal = Calibration()
    workload = WORKLOADS[name](seed, sizes, workdir, cal)
    setup = [time_setup(workload) for _ in range(sizes.setup_reps)]
    workload.setup()
    workload.first_result(0)  # fills lazy caches (masks) before anything is timed
    first: list[tuple[float, float]] = []
    outcomes, attempted, failures = _run_items(workload, None, seconds / 2 if trace else seconds,
                                               first=first)
    while len(first) < sizes.first_min:
        first.append(workload.first_result(len(first)))
    checks = workload.checks(outcomes) if not failures else []

    layer = dump = None
    if trace:
        tracer = Tracer()
        tracer.install()
        workload.cal = Uncalibrated()
        try:
            traced, traced_attempted, traced_failures = _run_items(workload, attempted, 0.0,
                                                                   tracer)
        finally:
            tracer.uninstall()
            workload.cal = cal
        attempted += traced_attempted
        failures += traced_failures
        checks.append((f"{name}: traced outputs are bitwise those of the untraced run",
                       [o.digest for o in traced] == [o.digest for o in outcomes]))
        untraced_ms = sum(o.busy_ms(calibrated=False) for o in outcomes)
        traced_ms = sum(o.busy_ms(calibrated=False) for o in traced)
        layer = per_layer_metrics(tracer, sum(o.units for o in traced), sizes.euler_steps,
                                  traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0)
        dump = tracer.dump()

    failed_checks = [label for label, ok in checks if not ok]
    attempted += len(checks)
    failed = failures + len(failed_checks)

    metrics = end_to_end(outcomes, first, setup, True) if outcomes else {}
    raw = end_to_end(outcomes, first, setup, False) if outcomes else {}
    metrics.update(layer or {})
    named = {"fail_frac": (failed / attempted, "failed/attempted")}
    if outcomes and not failures:
        named.update(setup_s=(metrics["setup_s"], "s"), peak_rss_mb=(metrics["peak_rss_mb"], "MB"))
        named.update(workload.named_metrics(outcomes, [ms * f for ms, f in first]))
    described = workload.describe()
    described.update(items=len(outcomes), units=sum(o.units for o in outcomes))
    return Result(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics,
                  raw=raw, named=named, failed_checks=failed_checks, inputs=described,
                  trace=dump)
