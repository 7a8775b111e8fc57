"""Run one workload in this process and print its raw measurements.

Started by ``run.py``, one process per workload so that peak RSS belongs to
that workload alone.  Every op is an in-process call of
``majorant.cli.main(argv)``: argument parsing, rendering (captured) and
manifest writing (to a temporary directory) are part of its time.

Untraced (``--trace 0``): passes over all ops repeat while another pass
fits in ``--seconds``, at least ``MIN_PASSES`` of them; ``wall_s`` is the
median pass time.  Traced (``--trace 1``): a pass with every target in
``tracing.TARGETS`` wrapped, an untraced pass, and a second traced pass.

The last stdout line is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
MIN_PASSES = 2
PIN_VARS = ("MAJORANT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Pass:
    """Outcome of running every op once."""

    def __init__(self):
        self.wall = 0.0
        self.results = {}
        self.failures = []
        self.digits = []


def run_pass(ops, main, tmp, tracer=None) -> Pass:
    out = Pass()
    for i, op in enumerate(ops):
        manifest = Path(tmp) / f"op{i}.manifest.json"
        manifest.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = i
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main([*op.argv, "--manifest", str(manifest)])
        except Exception:  # an op that raises is a failed op; the pass goes on
            out.failures.append(f"{op.name}: {traceback.format_exc(limit=-3)}")
            continue
        finally:
            out.wall += time.perf_counter() - start
        if code != 0:
            out.failures.append(f"{op.name}: exit code {code}: {sink.getvalue()[-500:]}")
            continue
        try:
            results = json.loads(manifest.read_text())["results"]
            out.digits.extend(op.check(results, out.results))
        except Exception as exc:  # unreadable output or a failed check
            out.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        out.results[op.name] = results
    return out


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pins": {k: os.environ.get(k) for k in PIN_VARS},
    }


def timed(ops, main, tmp, seconds) -> dict:
    passes = []
    window = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(run_pass(ops, main, tmp))
        took = time.monotonic() - start
        if len(passes) >= MIN_PASSES and time.monotonic() - window + took > seconds:
            break
    digits = [d for p in passes for d in p.digits]
    return {
        "passes": [p.wall for p in passes],
        "attempted": len(ops) * len(passes),
        "failures": [f for p in passes for f in p.failures],
        "errors": [],
        "wall_s": statistics.median(p.wall for p in passes),
        "digits_min": min(digits, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(ops, cli, tmp, workload, seed) -> dict:
    from tracing import EXACT_COUNTS, Tracer, layer_metrics, ratio_at_by_k

    # The untraced pass gives the reference results.  It runs between the
    # two traced passes, so a steady drift of the machine's speed cancels
    # out of the overhead.
    tracer = Tracer()

    def traced_pass():
        with tracer.instrument():
            run = run_pass(ops, tracer.wrap("cli.main", cli.main), tmp, tracer)
        return run, tracer.take()

    first, first_spans = traced_pass()
    plain = run_pass(ops, cli.main, tmp)
    second, spans = traced_pass()
    runs = [first, second]
    metrics = [layer_metrics(first_spans), layer_metrics(spans)]
    failures = [f for r in [first, plain, second] for f in r.failures]
    reference = plain.results
    # The wrappers must change nothing: every traced result is bit-identical
    # to the untraced one, and work counts repeat exactly.
    canon = lambda res: json.dumps(res, sort_keys=True)  # noqa: E731
    for r in runs:
        for name, res in r.results.items():
            if name in reference and canon(res) != canon(reference[name]):
                failures.append(f"{name}: traced results differ from untraced results")
    errors = [
        f"count {key} differs between traced passes: {[m[key] for m in metrics]}"
        for key in EXACT_COUNTS
        if len({m[key] for m in metrics}) != 1
    ]
    merged = {key: statistics.median(m[key] for m in metrics) for key in metrics[0]}
    merged["trace.overhead"] = statistics.median(r.wall for r in runs) / plain.wall
    by_k = ratio_at_by_k(spans)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "metrics": merged,
        "ratio_at_by_k": by_k,
        "ops": [op.name for op in ops],
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in spans],
    }))
    return {
        "passes": [first.wall, plain.wall, second.wall],
        "attempted": len(ops) * 3,
        "failures": failures,
        "errors": errors,
        "metrics": merged,
        "ratio_at_by_k": by_k,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from majorant import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"majorant imported from {cli.__file__}, not from this checkout")
    from workloads import WORKLOADS, load_references

    ops = WORKLOADS[args.workload](args.seed, load_references())
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            report = traced(ops, cli, tmp, args.workload, args.seed)
        else:
            report = timed(ops, cli.main, tmp, args.seconds)
    report["setup_s"] = setup_s
    report["env"] = environment(numpy)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
