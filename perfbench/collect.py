"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads train,eval_cer]
        [--seconds 20] [--trace 0|1] [--label NAME]

Runs perfbench/run.py once per (workload, seed), one run at a time, from the
root of the checkout.  Prints, per workload and metric, the median, the
quartiles and the spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  With --label the runs and
the summary are also written to perfbench/trajectory/<label>.json, the
recorded performance trajectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode} without a result:\n"
                           f"{done.stderr[-2000:]}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"seed": seed, "exit": done.returncode, "info": info, **result}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="write perfbench/trajectory/<label>.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst_ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        summary = summarise(runs)
        record["environment"] = runs[0]["info"]["environment"]
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        bad = [r["seed"] for r in runs if r["exit"] != 0 or not r["correct"]]
        print(f"{workload}: {len(runs)} runs, failed seeds {bad or 'none'}")
        worst_ok &= not bad
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:42s} median {s['median']:12.5g} {s['unit']:8s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.label:
        os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
        path = os.path.join(HERE, "trajectory", f"{args.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
