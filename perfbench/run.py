"""The majorant benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced

Run from the root of a checkout.  Each workload runs in its own worker
process (``worker.py``) with the environment pinned to one thread
(``PIN``).  ``setup_s`` is the median, over ``SETUP_SAMPLES`` fresh
processes plus the measuring worker, of the time from spawning the process
to the moment its first op could start: interpreter start, the numpy and
majorant imports, and input generation.  Half of the fresh processes run
before the measuring worker and half after it, so the samples span the
same stretch of time as ``wall_s``.  The workload names and the default
``--seconds`` come from ``BENCHMARK.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 only when every op's output passed its check.  See ``NOTES.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 16
WORKER_TIMEOUT = 170.0
PIN = {
    "MAJORANT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "digits_min": "digits", "setup_s": "s"}


def spawn(args: list, env: dict, timeout: float) -> dict:
    """Run a worker and return its last stdout line, parsed."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = {**os.environ, **PIN}
    env.pop("PYTHONPATH", None)  # majorant is imported from this checkout's src/ only
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_sample() -> float:
        return spawn([*base, "--setup-only"], env, 60.0)["setup_s"]

    setups = [] if trace else [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    report = spawn([*base, "--trace", str(trace)], env, WORKER_TIMEOUT)
    failed = len(report["failures"])
    correct = failed == 0 and not report["errors"]
    for line in report["failures"] + report["errors"]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    if trace:
        metrics = {k: {"value": report["metrics"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        for row in report["ratio_at_by_k"]:
            print(f"{name} ratio_at D={row['D']} k={row['k']} p={row['p']:g}: {row['s']:.6f} s")
        print(f"{name} spans written to {report['trace_file']}")
    else:
        setups.append(report["setup_s"])
        setups.extend(setup_sample() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2))
        values = {
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "digits_min": report["digits_min"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{name} pass times (s): " + " ".join(f"{t:.4f}" for t in report["passes"]))
        print(f"{name} fail_frac {failed / report['attempted']:.6g} ratio ({failed} of {report['attempted']} ops)")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": report["attempted"], "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="majorant benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, untraced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "majorant" / "cli.py").is_file():
        print(f"error: no majorant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
