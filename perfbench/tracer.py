"""Span tracing of flowtts from outside the program.

The tracer rebinds module attributes that callers look up at call time
(``flowtts.pipeline.step_hiddens``, ``flowtts.model.semantic_hiddens``,
``flowtts.autodiff.push_op``, ...) to timing wrappers, and puts every
original back on exit.  A function imported into several modules is
rebound in each module that holds it, so every caller sees the wrapper.

Layer calls are kept as spans (name, start, end, parent span, operation id).
Autodiff primitives run thousands of times per training step, so they are
aggregated per name instead of kept one by one; their time still counts as
child time of the enclosing span, which keeps every self time exact.  An
adjoint is timed by wrapping the closure handed to ``push_op`` and is
attributed to the primitive that registered it.
"""

from __future__ import annotations

import contextlib
import sys
import time

import flowtts.autodiff as autodiff

# Layer functions kept as spans: span name -> (module, attribute).
LAYER_FUNCTIONS = {
    "model.encode_patches": ("flowtts.model", "encode_patches"),
    "model.semantic_hiddens": ("flowtts.model", "semantic_hiddens"),
    "model.fsq_quantize": ("flowtts.model", "fsq_quantize"),
    "model.residual_hiddens": ("flowtts.model", "residual_hiddens"),
    "model.stop_logits": ("flowtts.model", "stop_logits"),
    "model.step_hiddens": ("flowtts.model", "step_hiddens"),
    "flowmatch.sample_patch": ("flowtts.flowmatch", "sample_patch"),
    "flowmatch.velocity_batch": ("flowtts.flowmatch", "velocity_batch"),
    "pipeline.train": ("flowtts.pipeline", "train"),
    "pipeline.sample_prompt": ("flowtts.pipeline", "sample_prompt"),
    "pipeline.synthetic_example": ("flowtts.pipeline", "synthetic_example"),
    "pipeline.total_loss": ("flowtts.pipeline", "total_loss"),
    "pipeline.synthesize": ("flowtts.pipeline", "synthesize"),
    "thai_text.normalize": ("flowtts.thai_text", "normalize"),
    "evaluation.levenshtein": ("flowtts.evaluation", "levenshtein"),
    "evaluation.evaluate_cer_rows": ("flowtts.evaluation", "evaluate_cer_rows"),
    "cli.main": ("flowtts.cli", "main"),
}

# Primitives of autodiff.primitive_forward_set() at the commit that defined
# the benchmark.  One later removed from the registry reads 0 and is listed as
# unavailable.
PRIMITIVES = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "embedding_lookup",
              "concat", "slice", "sum", "mse", "sigmoid", "bce_with_logits", "sub",
              "transpose", "repeat_rows", "tile_rows")


# Work counted at layer boundaries: span name -> f(args, result).
COUNTERS = {
    # text rows + history rows fed to the conditioning stacks for one patch
    "model.step_hiddens": lambda args, result: len(args[1]) + len(args[2]),
    "flowmatch.velocity_batch": lambda args, result: len(args[1]),
    "thai_text.normalize": lambda args, result: len(result),
    "evaluation.levenshtein": lambda args, result: len(args[0]) * len(args[1]),
}


class Tracer:
    """Collects spans, per-name aggregates and counts while installed."""

    def __init__(self):
        self.stack: list[list] = []  # open frames, innermost last
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op id)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self.unavailable: dict[str, str] = {}
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def timed(self, name: str, fn, keep: bool, counter=None):
        """Wrap ``fn`` so each call is timed under ``name``.

        ``keep`` stores each call as a span; otherwise calls are only
        aggregated.  ``counter(args, result)`` adds to the count of ``name``.
        The body is written out inline: it runs for every primitive call.
        """
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self._stat(name)

        def wrapped(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id, name]  # child seconds, span id, name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append((span_id, parent, name, start, end, self.op_id))
            if counter is not None:
                self.count(name, counter(args, result))
            return result

        return wrapped

    @contextlib.contextmanager
    def span(self, name: str):
        """A kept span around a with-block; calls inside become its children.

        Same bookkeeping as ``timed`` with ``keep``, for code that is a
        block rather than a call.
        """
        stat = self._stat(name)
        parent = self.stack[-1][1] if self.stack else -1
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id, name]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if self.stack:
                self.stack[-1][0] += duration
            self.spans.append((span_id, parent, name, start, end, self.op_id))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every flowtts module attribute holding ``original`` at the
        replacement."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "flowtts" or mod_name.startswith("flowtts.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the layer functions, the autodiff primitives, push_op, record
        and Tape.backward."""
        for name, (mod_name, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.unavailable[name] = f"{mod_name}.{attr} does not exist"
                continue
            self._rebind(original, self.timed(name, original, True, COUNTERS.get(name)))

        registry = autodiff.primitive_forward_set()
        for p in PRIMITIVES:
            fn = registry.get(p)
            if fn is None:
                self.unavailable[f"autodiff.{p}"] = "not in primitive_forward_set()"
                continue
            self._rebind(fn, self.timed(f"autodiff.{p}", fn, False))

        original_push = autodiff.push_op
        stack = self.stack

        def push_op(out, adjoint):
            owner = stack[-1][2] if stack else "unattributed"
            original_push(out, self.timed(owner + ".bwd", adjoint, False))

        self._rebind(original_push, push_op)

        original_record = autodiff.record

        @contextlib.contextmanager
        def record():
            with self.span("autodiff.record"), original_record() as tape:
                yield tape
                self.count("autodiff.record", len(tape))

        self._rebind(original_record, record)

        tape_cls = autodiff.Tape
        self._patches.append((tape_cls, "backward", tape_cls.backward))
        tape_cls.backward = self.timed("autodiff.backward", tape_cls.backward, True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def dump(self) -> dict:
        return {
            "spans_fields": ["id", "parent", "name", "start_s", "end_s", "op_id"],
            "spans": self.spans,
            "aggregates": {name: {"calls": c, "total_s": t, "self_s": s}
                           for name, (c, t, s) in sorted(self.stats.items())},
            "counts": self.counts,
            "unavailable": self.unavailable,
        }


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def per_layer_metrics(t: Tracer, ops: int, euler_steps: int, overhead_frac: float) -> dict:
    """Per-layer metrics from one traced pass over ``ops`` units of work.

    Unqualified ``.calls``, ``.ms``, ``.fwd_ms``, ``.bwd_ms`` and the
    thai_text/evaluation figures are per unit of work: per training step,
    generated patch or CER row.  A training step is one ``record()`` block;
    ``euler_steps`` is the sampler's step count, so the velocity net's time
    is per training step on train and per Euler step on synthesis.
    """
    def ms(name):
        return t.seconds(name) * 1000.0

    steps = t.calls("autodiff.record")
    patches = t.calls("flowmatch.sample_patch")
    velocity_calls = t.calls("flowmatch.velocity_batch")
    step_hiddens = t.calls("model.step_hiddens")
    synth_ms = ms("pipeline.synthesize")
    m = {
        "autodiff.tape_ops_per_step": _per(t.counts.get("autodiff.record", 0), steps),
        "autodiff.backward_ms_per_step": _per(ms("autodiff.backward"), steps),
    }
    # The quantizer records its own straight-through adjoint, so it is
    # reported with the primitives.
    for p in PRIMITIVES + ("fsq_quantize",):
        span = "model.fsq_quantize" if p == "fsq_quantize" else f"autodiff.{p}"
        m[f"autodiff.{p}.calls"] = _per(t.calls(span), ops)
        m[f"autodiff.{p}.fwd_ms"] = _per(ms(span), ops)
        m[f"autodiff.{p}.bwd_ms"] = _per(ms(span + ".bwd"), ops)
    for f in ("encode_patches", "semantic_hiddens", "fsq_quantize", "residual_hiddens", "stop_logits"):
        m[f"model.{f}.ms"] = _per(ms(f"model.{f}"), ops)
    m["model.step_hiddens.ms_per_patch"] = _per(ms("model.step_hiddens"), step_hiddens)
    m["model.step_hiddens.rows_per_patch"] = _per(t.counts.get("model.step_hiddens", 0), step_hiddens)
    m["flowmatch.sample_patch.ms_per_patch"] = _per(ms("flowmatch.sample_patch"), patches)
    m["flowmatch.velocity_calls_per_patch"] = _per(velocity_calls, patches)
    m["flowmatch.velocity_rows_per_call"] = _per(t.counts.get("flowmatch.velocity_batch", 0),
                                                 velocity_calls)
    m["flowmatch.velocity_batch.ms_per_step"] = _per(ms("flowmatch.velocity_batch"),
                                                     steps + patches * euler_steps)
    m["pipeline.total_loss.ms_per_step"] = _per(ms("pipeline.total_loss"), steps)
    m["pipeline.synthetic_example.ms_per_step"] = _per(ms("pipeline.synthetic_example"), steps)
    # Whatever a step spends outside data, forward and backward: zero_grads
    # and the Adam update.
    m["pipeline.optimizer_ms_per_step"] = _per(
        ms("pipeline.train") - ms("pipeline.sample_prompt") - ms("pipeline.synthetic_example")
        - ms("autodiff.record") - ms("autodiff.backward"), steps)
    m["pipeline.synthesize.ms_per_utt"] = _per(synth_ms, t.calls("pipeline.synthesize"))
    m["pipeline.synthesize.step_hiddens_share"] = _per(ms("model.step_hiddens"), synth_ms)
    m["pipeline.synthesize.sample_patch_share"] = _per(ms("flowmatch.sample_patch"), synth_ms)
    m["thai_text.normalize.ms_per_row"] = _per(ms("thai_text.normalize"), ops)
    m["thai_text.normalize.chars"] = _per(t.counts.get("thai_text.normalize", 0), ops)
    m["evaluation.levenshtein.ms_per_row"] = _per(ms("evaluation.levenshtein"), ops)
    m["evaluation.levenshtein.cells"] = _per(t.counts.get("evaluation.levenshtein", 0), ops)
    m["cli.eval_cer.overhead_ms"] = _per(ms("cli.main") - ms("evaluation.evaluate_cer_rows"),
                                         t.calls("cli.main"))
    m["trace.overhead_frac"] = overhead_frac
    return m
