"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository.  Builds the workload's
inputs from --seed, measures for about --seconds seconds in this one process
with BLAS pinned to one thread, checks the outputs, and prints two lines:
an information line (environment, inputs, the workload's own metrics, failed
checks) and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with --trace 0
and its per-layer metrics with --trace 1.  Exits 1 when a check failed and
2 when the checkout holds no flowtts sources.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import flowtts from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "flowtts", "__init__.py")):
        raise FileNotFoundError(f"no flowtts sources under {SRC}")
    sys.path[:0] = [SRC]
    import flowtts

    if os.path.dirname(os.path.dirname(os.path.abspath(flowtts.__file__))) != SRC:
        raise ImportError(f"flowtts was imported from {flowtts.__file__}, not {SRC}")
    return flowtts


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        import_program()
    except (OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    WORKDIR)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in result.metrics}
    if result.trace is not None:
        path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": result.inputs,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "uncalibrated_end_to_end": result.raw,
        "failed_checks": result.failed_checks,
        "unavailable_layer_metrics": (result.trace or {}).get("unavailable", {}),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
