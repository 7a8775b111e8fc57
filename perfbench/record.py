"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BENCH_<tag>.json

Runs ``run.py`` untraced once per (seed, workload) for every workload in
``BENCHMARK.json`` at its ``run_seconds``, seed-major so that slow drift of
the machine spreads over all workloads, then traced once per workload with
the first seed.  For every end-to-end metric it records the values, their
median and quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median, and flags a spread that is not below a third of the
metric's bound in ``BENCHMARK.json``.  The exit code is 1 if any spread is
flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 900.0


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    passes = next((ln.split(": ", 1)[1] for ln in lines if " pass times " in ln), "")
    return {**json.loads(lines[-1]), "passes": passes}, env


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    env = None
    for seed in args.seeds:
        for w in workloads:
            result, env = run(w, seed, seconds, 0)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"seed {seed} {w}: " + " ".join(f"{m}={v[-1]:.6g}" for m, v in values[w].items())
                  + f" passes={result['passes']}", flush=True)

    end_to_end, steady = {}, True
    for w in workloads:
        end_to_end[w] = {}
        for m, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[m] / 3
            steady = steady and ok
            end_to_end[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{w:10s} {m:12s} median {med:.6g}  spread {spread:.4f}  bound {bounds[m]}"
                  f"{'' if ok else '  NOT BELOW BOUND/3'}")

    per_layer, ratio_at = {}, {}
    for w in workloads:
        result, _ = run(w, args.seeds[0], seconds, 1)
        per_layer[w] = {m: v["value"] for m, v in result["metrics"].items()}
        trace = json.loads((HERE / "out" / f"trace-{w}-seed{args.seeds[0]}.json").read_text())
        ratio_at[w] = trace["ratio_at_by_k"]

    if args.out:
        args.out.write_text(json.dumps({
            "label": args.label,
            "command": spec["command"],
            "run_seconds": seconds,
            "seeds": args.seeds,
            "env": env,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "ratio_at_by_k": ratio_at,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
