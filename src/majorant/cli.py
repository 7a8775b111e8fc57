"""Command-line interface with reproducible run manifests.

Subcommands: ``norm``, ``construct``, ``search``, ``lemma``, ``bounds``,
``report``.  Every run writes a manifest (command, parameters, seed, tool
version, timestamp, embedded results); ``report`` consumes manifests and
reproduces their printed summaries.  Exit codes: 0 success, 1 numeric
failure, 2 usage or parse error.

Polynomials are given inline as comma-separated ``freq:re[:im]`` tokens or
as a path to a JSON file of ``[frequency, re, im]`` triples.  Frequency sets
are comma-separated integers or a JSON file holding a list.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CSV_FIELDS, interpolation_check, peak_lower_bound, upper_exponent
from .construction import build, eta_empirical, fit_k, ratio_at
from .errors import MajorantError
from .norms import norm, norm_quad
from .search import (
    MajorantInstance,
    exhaustive_roots,
    exhaustive_signs,
    phase_ascent,
)
from .selfsim import sandwich_bounds
from .trigpoly import TrigPoly, make


class UsageError(Exception):
    """Bad input: maps to exit code 2."""


# -- input parsing -----------------------------------------------------------


def parse_poly_spec(spec: str) -> TrigPoly:
    """Inline ``freq:re[:im]`` list, or a path to a JSON triples file."""
    path = Path(spec)
    if path.is_file():
        try:
            return TrigPoly.from_triples(json.loads(path.read_text()))
        except (json.JSONDecodeError, ValueError, TypeError, IndexError, KeyError) as exc:
            raise UsageError(f"cannot read polynomial file {spec!r}: {exc}") from exc
    pairs = []
    for pos, token in enumerate(spec.split(","), start=1):
        parts = token.strip().split(":")
        if len(parts) not in (2, 3):
            raise UsageError(
                f"token {pos} ({token.strip()!r}): expected freq:re or freq:re:im"
            )
        try:
            freq = int(parts[0])
        except ValueError:
            raise UsageError(
                f"token {pos} ({token.strip()!r}): invalid frequency {parts[0]!r}"
            ) from None
        try:
            re = float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise UsageError(
                f"token {pos} ({token.strip()!r}): invalid coefficient"
            ) from None
        pairs.append((freq, complex(re, im)))
    return make(pairs)


def parse_lambda_spec(spec: str) -> tuple:
    path = Path(spec)
    if path.is_file():
        try:
            values = json.loads(path.read_text())
            return tuple(sorted({int(v) for v in values}))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise UsageError(f"cannot read frequency-set file {spec!r}: {exc}") from exc
    out = set()
    for pos, token in enumerate(spec.split(","), start=1):
        try:
            out.add(int(token.strip()))
        except ValueError:
            raise UsageError(
                f"token {pos} ({token.strip()!r}): invalid frequency"
            ) from None
    return tuple(sorted(out))


# -- manifest ----------------------------------------------------------------


def write_manifest(path: str, command: str, parameters: dict, seed: int, results: dict):
    doc = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- output ------------------------------------------------------------------

# the summary line that ``report`` lists as a manifest's headline (default:
# the first line after the command, the first instance for ``bounds``)
_HEADLINE = {"construct": 2, "search": 2, "lemma": 2}
_BOUNDS_CSV = CSV_FIELDS + ("peak_measured", "peak_predicted")
_REPORT_CSV = ("file", "command", "timestamp", "tool_version", "headline")
# argparse attributes that are not parameters of the computation
_NOT_PARAMETERS = {"func", "command", "manifest", "json", "csv", "seed"}


def _summary(command: str, results: dict) -> list:
    """Human-readable summary lines; shared by live runs and ``report``."""
    lines = [f"[{command}]"]
    if command == "norm":
        est = results["estimate"]
        lines.append(
            f"  ||P||_{est['p']:g} = {est['value']:.12g}   "
            f"method={est['method']} error_bound={est['error_bound']:.3g} "
            f"grid={est['grid_size']}"
        )
    elif command == "construct":
        lines.append(
            f"  D={results['D']} k={results['k']} |Lambda|={results['lam_size']} "
            f"N={results['N']}"
        )
        lines.append(
            f"  ratio_p={results['p']:g}: {results['ratio']:.12g}   "
            f"eta={results['eta']:.6g}"
        )
    elif command == "search":
        lines.append(
            f"  method={results['method']} p={results['p']:g} "
            f"evaluations={results['evaluations']}"
        )
        lines.append(f"  best_ratio={results['best_ratio']:.12g}")
        coeffs = ", ".join(
            f"{re:+.4g}{im:+.4g}i" if im else f"{re:+g}"
            for re, im in results["best_coeffs"]
        )
        lines.append(f"  best_coeffs=[{coeffs}]")
    elif command == "lemma":
        lines.append(
            f"  alpha={results['alpha']:g} D={results['D']} "
            f"delta={results['delta']:g} certified={results['certified']}"
        )
        lines.append(
            f"  lower={results['lower']:.9f}  target={results['target']:.9f}  "
            f"upper={results['upper']:.9f}  width={results['envelope_gap']:.6f}"
        )
    elif command == "bounds":
        for row in results["instances"]:
            lines.append(
                f"  |Lam|={row['lam_size']} N={row['N']}: "
                f"slacks=({row['slack_interpolation']:.3g}, "
                f"{row['slack_monotonicity']:.3g}, {row['slack_sup_step']:.3g}, "
                f"{row['slack_combined']:.3g}) C={row['implied_constant']:.6g} "
                f"peak={row['peak_measured']:.4g}>={row['peak_predicted']:.4g}"
            )
        lines.append(
            f"  exponent at p=3: {results['exponent_p3']} "
            f"(checked, not certified: interpolation step verified numerically)"
        )
    else:
        lines.append(f"  {json.dumps(results)}")
    return lines


def _print_csv(fields: tuple, rows: list) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)


def _emit(args, results: dict):
    """Write the manifest, then print the results in the requested form."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    manifest_path = args.manifest or f"majorant-{args.command}.manifest.json"
    write_manifest(manifest_path, args.command, parameters, args.seed, results)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    elif getattr(args, "csv", False):
        _print_csv(_BOUNDS_CSV, results["instances"])
    else:
        print("\n".join(_summary(args.command, results)))


# -- subcommands -------------------------------------------------------------


def _cmd_norm(args) -> int:
    poly = parse_poly_spec(args.poly)
    if args.force_quadrature:
        est = norm_quad(poly, args.p, args.tol)
    else:
        est = norm(poly, args.p, args.tol)
    results = {"estimate": est.to_json(), "poly": poly.to_triples()}
    _emit(args, results)
    return 0


def _cmd_construct(args) -> int:
    if (args.k is None) == (args.N is None):
        raise UsageError("give exactly one of --k or --N")
    k = args.k if args.k is not None else fit_k(args.D, args.N)
    cons = build(args.D, k)
    ratio, n_all, n_sgn = ratio_at(cons, args.p, args.tol)
    eta = eta_empirical(cons, ratio)
    results = {
        **cons.to_json(),
        "p": args.p,
        "ratio": ratio,
        "eta": eta,
        "norm_all_ones": n_all.to_json(),
        "norm_signed": n_sgn.to_json(),
    }
    _emit(args, results)
    return 0


def _cmd_search(args) -> int:
    lam = parse_lambda_spec(args.lam)
    if args.method == "exhaustive-signs":
        report = exhaustive_signs(
            lam, args.p, args.tol, budget=args.budget, threads=args.threads
        )
    elif args.method == "exhaustive-roots":
        report = exhaustive_roots(
            lam, args.p, args.q, args.tol, budget=args.budget, threads=args.threads
        )
    else:
        report = phase_ascent(lam, args.p, args.restarts, args.seed, args.tol)
    _emit(args, report.to_json())
    return 0


def _cmd_lemma(args) -> int:
    poly = parse_poly_spec(args.poly)
    if args.alpha < 1 and not args.best_effort:
        raise UsageError(
            "alpha < 1 has no certified envelopes; pass --best-effort for an "
            "uncertified sampling pass"
        )
    result = sandwich_bounds(
        poly, args.alpha, args.D, args.delta, args.tol, best_effort=args.best_effort
    )
    _emit(args, result.to_json())
    return 0


def _random_instance(rng, max_n: int, max_size: int) -> MajorantInstance:
    size = int(rng.integers(1, max_size + 1))
    lam = sorted(rng.choice(max_n + 1, size=size, replace=False).tolist())
    phases = rng.random(len(lam))
    coeffs = {n: complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)) for n, t in zip(lam, phases)}
    return MajorantInstance(tuple(lam), coeffs)


def _cmd_bounds(args) -> int:
    instances = []
    if args.random is not None:
        if args.random < 1:
            raise UsageError(f"--random COUNT must be >= 1, got {args.random}")
        rng = np.random.default_rng(args.seed)
        for _ in range(args.random):
            instances.append(_random_instance(rng, args.max_n, args.max_size))
    else:
        if args.lam is None:
            raise UsageError("give --lambda or --random COUNT")
        lam = parse_lambda_spec(args.lam)
        if args.coeffs:
            poly = parse_poly_spec(args.coeffs)
            inst = MajorantInstance(lam, dict(poly.terms))
        else:
            inst = MajorantInstance.all_ones(lam)
        instances.append(inst)

    rows = []
    for inst in instances:
        report = interpolation_check(inst, args.tol)
        N = args.N if args.N is not None else max(max(inst.lam), 1)
        peak = peak_lower_bound(inst.lam, N, args.peak_grid)
        row = report.to_json()
        row["peak_measured"] = peak.measured
        row["peak_predicted"] = peak.predicted
        row["cube_norm_lower"] = peak.cube_norm_lower
        row["proposition_constant"] = report.constant_at(N)
        rows.append(row)
    results = {"instances": rows, "exponent_p3": str(upper_exponent(3))}
    _emit(args, results)
    return 0


def _cmd_report(args) -> int:
    rows = []
    for file in args.manifests:
        try:
            doc = json.loads(Path(file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {file!r}: {exc}") from exc
        for key in ("command", "parameters", "results"):
            if key not in doc:
                raise UsageError(f"manifest {file!r} lacks field {key!r}")
        command = doc["command"]
        lines = _summary(command, doc["results"])
        rows.append(
            {
                "file": file,
                "command": command,
                "timestamp": doc.get("timestamp", ""),
                "tool_version": doc.get("tool_version", ""),
                "headline": lines[_HEADLINE.get(command, 1)].strip(),
            }
        )
        if not args.json and not args.csv:
            print("\n".join(lines))
    if args.json:
        print(json.dumps({"rows": rows}, indent=2, sort_keys=True))
    elif args.csv:
        _print_csv(_REPORT_CSV, rows)
    return 0


# -- argument parser ---------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--manifest", help="manifest output path (default per command)")
    sp.add_argument("--json", action="store_true", help="print results as JSON")
    sp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap (default: MAJORANT_THREADS env or 1); results do not depend on it",
    )
    sp.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorant",
        description="Norms of sparse exponential sums, digit-product "
        "counterexamples to the even-p majorant property, and certified "
        "sandwich bounds.",
    )
    parser.add_argument("--version", action="version", version=f"majorant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="L^p norm of a polynomial")
    sp.add_argument("--poly", required=True, help="freq:re[:im],... or a JSON triples file")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--force-quadrature", action="store_true", dest="force_quadrature")
    _add_common(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("construct", help="build a digit-product instance")
    sp.add_argument("--D", type=int, required=True, help="digit base (>= 4)")
    sp.add_argument("--k", type=int, help="digit count")
    sp.add_argument("--N", type=int, help="target length; picks the largest fitting k")
    sp.add_argument("--p", type=float, default=3.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("search", help="maximise the norm ratio over coefficients")
    sp.add_argument("--lambda", dest="lam", required=True, help="comma ints or JSON file")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument(
        "--method",
        choices=("exhaustive-signs", "exhaustive-roots", "phase-ascent"),
        default="exhaustive-signs",
    )
    sp.add_argument("--q", type=int, default=4, help="root order for exhaustive-roots")
    sp.add_argument("--budget", type=int, default=1 << 24)
    sp.add_argument("--restarts", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("lemma", help="certified sandwich bounds for a product of dilates")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--D", type=int, required=True, help="cell count = dilation base")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument(
        "--best-effort",
        action="store_true",
        dest="best_effort",
        help="uncertified sampling pass (required for alpha < 1)",
    )
    _add_common(sp)
    sp.set_defaults(func=_cmd_lemma)

    sp = sub.add_parser("bounds", help="verify the cube-norm inequality chain")
    sp.add_argument("--lambda", dest="lam", help="comma ints or JSON file")
    sp.add_argument("--coeffs", help="coefficients as freq:re[:im],... (default all ones)")
    sp.add_argument("--N", type=int, help="ambient length (default max(lambda))")
    sp.add_argument("--random", type=int, help="check COUNT random instances instead")
    sp.add_argument("--max-n", type=int, default=64, dest="max_n")
    sp.add_argument("--max-size", type=int, default=16, dest="max_size")
    sp.add_argument("--peak-grid", type=int, default=257, dest="peak_grid")
    sp.add_argument("--csv", action="store_true", help="emit one CSV row per instance")
    _add_common(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("report", help="summarise saved manifests")
    sp.add_argument("manifests", nargs="+")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(func=_cmd_report, manifest=None, threads=None, seed=0, tol=None)

    return parser


def _thread_count(threads) -> int:
    """``--threads``, else ``MAJORANT_THREADS``, else 1; a positive integer."""
    raw = str(os.environ.get("MAJORANT_THREADS", "1") if threads is None else threads)
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"thread count must be a positive integer, got {raw!r}")
    return int(raw)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        args.threads = _thread_count(args.threads)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MajorantError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a MemoryError subclass when a grid cannot be allocated
        print(f"numeric failure: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
