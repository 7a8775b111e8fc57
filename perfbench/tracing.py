"""Spans around calls into majorant's public functions, and the per-layer
metrics computed from them.

:class:`Tracer` wraps each function in ``TARGETS`` by rebinding it where it
is defined and under every alias a ``majorant`` module holds (the
``from .norms import norm_quad`` imports in ``construction``, ``search``,
``bounds``, ``selfsim`` and ``cli``), and restores the originals on exit.
Private helpers are not wrapped, so their time stays in their caller's
self time.  Each span records name, start, end, parent span, op id and a
small record taken from the call's arguments or result.  Spans stay in
memory; :func:`layer_metrics` reduces the spans of one pass.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _instance_key(args, kwargs, result):
    inst = args[0]
    return (inst.lam, tuple(sorted(inst.coeffs.items())))


def _norm_quad_info(args, kwargs, result):
    return (args[0], float(args[1]), _arg(args, kwargs, 2, "rel_tol"), result.grid_size)


# (span name, module, owner attribute path, info extractor).  An info
# extractor runs after the span closes and returns what the metrics need;
# a call that raises, or whose arguments or result the extractor cannot
# read, keeps info None and is left out of the metrics.
TARGETS = [
    ("trigpoly.base_sample", "trigpoly", "TrigPoly.sample_uniform", lambda a, k, r: a[1]),
    ("trigpoly.dilated_sample", "trigpoly", "DilatedProduct.sample_uniform", lambda a, k, r: a[1]),
    ("trigpoly.mul", "trigpoly", "TrigPoly.__mul__", lambda a, k, r: len(a[0]) * len(a[1])),
    ("trigpoly.product_of_dilates", "trigpoly", "product_of_dilates", None),
    ("norms.norm_quad", "norms", "norm_quad", _norm_quad_info),
    ("norms.norm_even", "norms", "norm_even", None),
    ("construction.build", "construction", "build", lambda a, k, r: len(r.all_ones) + len(r.signed)),
    ("construction.ratio_at", "construction", "ratio_at", lambda a, k, r: (a[0].D, a[0].k, float(a[1]))),
    ("selfsim.sandwich_bounds", "selfsim", "sandwich_bounds", None),
    ("selfsim.step_envelopes", "selfsim", "step_envelopes", lambda a, k, r: r.rminus.D * r.samples_per_cell),
    # info: the number of coefficient patterns enumerated
    ("search.exhaustive", "search", "exhaustive_signs", lambda a, k, r: 2 ** (len(set(a[0])) - 1)),
    ("search.exhaustive", "search", "exhaustive_roots", lambda a, k, r: _arg(a, k, 2, "q") ** (len(set(a[0])) - 1)),
    ("search.phase_ascent", "search", "phase_ascent", lambda a, k, r: r.evaluations),
    ("search.majorant_ratio", "search", "majorant_ratio", None),
    ("bounds.interpolation_check", "bounds", "interpolation_check", _instance_key),
    ("bounds.proposition_check", "bounds", "proposition_check", _instance_key),
    ("bounds.peak_lower_bound", "bounds", "peak_lower_bound", None),
    ("cli.write_manifest", "cli", "write_manifest", lambda a, k, r: os.path.getsize(a[0])),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, info=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except Exception:  # a call shape the extractor does not know
                    span.info = None
            return result

        return traced

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    @contextmanager
    def instrument(self):
        """Rebind every target and its aliases for the duration."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "majorant" or n.startswith("majorant.")]
        restore = []
        try:
            for name, module, path, info in TARGETS:
                owner = sys.modules[f"majorant.{module}"]
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                traced = self.wrap(name, original, info)
                holders = [owner] + [m for m in modules if m is not owner and getattr(m, attr, None) is original]
                for holder in holders:
                    restore.append((holder, attr, original))
                    setattr(holder, attr, traced)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)


# -- reduction -----------------------------------------------------------------

# Metrics that count work; two traced passes over the same inputs must
# report them identically.
EXACT_COUNTS = (
    "trigpoly.base_sample.calls",
    "trigpoly.base_sample.points",
    "trigpoly.dilated_sample.points",
    "trigpoly.mul.calls",
    "trigpoly.mul.term_pairs",
    "norms.norm_quad.calls",
    "norms.norm_even.calls",
    "construction.build.terms",
    "selfsim.step_envelopes.samples",
    "search.patterns",
    "search.chunk_bytes_computed",
    "search.phase_ascent.evaluations",
    "cli.manifest_bytes",
)

LAYER_UNITS = {
    "trigpoly.base_sample.calls": "count",
    "trigpoly.base_sample.points": "count",
    "trigpoly.base_sample.self_s": "s",
    "trigpoly.base_sample.rough_points_frac": "ratio",
    "trigpoly.dilated_sample.points": "count",
    "trigpoly.dilated_sample.self_s": "s",
    "trigpoly.mul.calls": "count",
    "trigpoly.mul.term_pairs": "count",
    "trigpoly.mul.self_s": "s",
    "trigpoly.product_of_dilates.s": "s",
    "norms.norm_quad.calls": "count",
    "norms.norm_quad.self_s": "s",
    "norms.norm_quad.grids_per_call": "ratio",
    "norms.norm_quad.final_grid_max": "points",
    "norms.norm_quad.useful_points_frac": "ratio",
    "norms.norm_even.calls": "count",
    "norms.norm_even.self_s": "s",
    "construction.build.s": "s",
    "construction.build.terms": "count",
    "construction.ratio_at.s": "s",
    "construction.ratio_at.k_growth": "ratio",
    "selfsim.sandwich_bounds.s": "s",
    "selfsim.step_envelopes.samples": "count",
    "search.exhaustive.s": "s",
    "search.exhaustive.self_s": "s",
    "search.patterns": "count",
    "search.patterns_per_s": "1/s",
    "search.chunk_bytes_computed": "bytes",
    "search.phase_ascent.s": "s",
    "search.phase_ascent.evaluations": "count",
    "search.majorant_ratio.s": "s",
    "bounds.interpolation_check.s": "s",
    "bounds.proposition_check.s": "s",
    "bounds.peak_lower_bound.s": "s",
    "bounds.norm_quad_repeat_frac": "ratio",
    "cli.write_manifest.s": "s",
    "cli.manifest_bytes": "bytes",
    "cli.main.self_s": "s",
    # traced wall_s over untraced wall_s, set by the worker
    "trace.overhead": "ratio",
}

_SAMPLERS = ("trigpoly.base_sample", "trigpoly.dilated_sample")
_BOUNDS_CHECKS = ("bounds.interpolation_check", "bounds.proposition_check")
_COMPLEX_BYTES = 16


def largest_prime_factor(n: int) -> int:
    best, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            best, n = f, n // f
        f += 1
    return max(best, n)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one pass.  Self time is a span's duration minus
    its children's; the load is single-threaded, so children never overlap."""
    dur = [s.end - s.start for s in spans]
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    self_s = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, values=dur):
        return float(sum(values[i] for i in by_name[name]))

    def done(name):
        return [i for i in by_name[name] if spans[i].info is not None]

    def infos(name):
        return [spans[i].info for i in done(name)]

    base_points = infos("trigpoly.base_sample")
    rough_sizes = {m for m in set(base_points) if largest_prime_factor(m) > 7}
    rough = sum(m for m in base_points if m in rough_sizes)

    quad = done("norms.norm_quad")
    grids = [[c for c in children[i] if spans[c].name in _SAMPLERS] for i in quad]
    sampled = sum(spans[c].info for g in grids for c in g)
    final = [spans[i].info[3] for i in quad]

    ratio_times = ratio_at_by_k(spans)
    at8 = {row["k"]: row["s"] for row in ratio_times if row["D"] == 8 and row["p"] == 3.0}
    kmax = max(at8, default=0)
    k_growth = _frac(at8[kmax], at8[kmax - 1]) if kmax - 1 in at8 else 0.0

    # The scanner's grid is the one its all-ones norm_quad converged on; a
    # search that makes no such call counts no chunk bytes.
    patterns = sum(infos("search.exhaustive"))
    chunk_bytes = 0
    for i in done("search.exhaustive"):
        scan = next((c for c in children[i] if spans[c].name == "norms.norm_quad" and spans[c].info), None)
        if scan is not None:
            chunk_bytes += spans[i].info * spans[scan].info[3] * _COMPLEX_BYTES
    ex_self = total("search.exhaustive", self_s)

    return {
        "trigpoly.base_sample.calls": len(base_points),
        "trigpoly.base_sample.points": sum(base_points),
        "trigpoly.base_sample.self_s": total("trigpoly.base_sample", self_s),
        "trigpoly.base_sample.rough_points_frac": _frac(rough, sum(base_points)),
        "trigpoly.dilated_sample.points": sum(infos("trigpoly.dilated_sample")),
        "trigpoly.dilated_sample.self_s": total("trigpoly.dilated_sample", self_s),
        "trigpoly.mul.calls": len(by_name["trigpoly.mul"]),
        "trigpoly.mul.term_pairs": sum(infos("trigpoly.mul")),
        "trigpoly.mul.self_s": total("trigpoly.mul", self_s),
        "trigpoly.product_of_dilates.s": total("trigpoly.product_of_dilates"),
        "norms.norm_quad.calls": len(quad),
        "norms.norm_quad.self_s": total("norms.norm_quad", self_s),
        "norms.norm_quad.grids_per_call": _frac(sum(map(len, grids)), len(quad)),
        "norms.norm_quad.final_grid_max": max(final, default=0),
        "norms.norm_quad.useful_points_frac": _frac(sum(final), sampled),
        "norms.norm_even.calls": len(by_name["norms.norm_even"]),
        "norms.norm_even.self_s": total("norms.norm_even", self_s),
        "construction.build.s": total("construction.build"),
        "construction.build.terms": sum(infos("construction.build")),
        "construction.ratio_at.s": total("construction.ratio_at"),
        "construction.ratio_at.k_growth": k_growth,
        "selfsim.sandwich_bounds.s": total("selfsim.sandwich_bounds"),
        "selfsim.step_envelopes.samples": sum(infos("selfsim.step_envelopes")),
        "search.exhaustive.s": total("search.exhaustive"),
        "search.exhaustive.self_s": ex_self,
        "search.patterns": patterns,
        "search.patterns_per_s": _frac(patterns, ex_self),
        "search.chunk_bytes_computed": chunk_bytes,
        "search.phase_ascent.s": total("search.phase_ascent"),
        "search.phase_ascent.evaluations": sum(infos("search.phase_ascent")),
        "search.majorant_ratio.s": total("search.majorant_ratio"),
        "bounds.interpolation_check.s": total("bounds.interpolation_check"),
        "bounds.proposition_check.s": total("bounds.proposition_check"),
        "bounds.peak_lower_bound.s": total("bounds.peak_lower_bound"),
        "bounds.norm_quad_repeat_frac": _repeat_frac(spans, quad),
        "cli.write_manifest.s": total("cli.write_manifest"),
        "cli.manifest_bytes": sum(infos("cli.write_manifest")),
        "cli.main.self_s": total("cli.main", self_s),
    }


def _repeat_frac(spans: List[Span], quad: List[int]) -> float:
    """Share of the norm_quad calls made on behalf of one bounds instance
    whose (polynomial, p, tol) that instance already computed."""
    seen = set()
    calls = repeats = 0
    for i in quad:
        owner = spans[i].parent
        while owner >= 0 and spans[owner].name not in _BOUNDS_CHECKS:
            owner = spans[owner].parent
        if owner < 0:
            continue
        poly, p, tol, _ = spans[i].info
        key = (spans[owner].info, poly, p, tol)
        calls += 1
        repeats += key in seen
        seen.add(key)
    return _frac(repeats, calls)


def ratio_at_by_k(spans: List[Span]) -> List[dict]:
    """Mean ratio_at time for each (D, k, p), in that order."""
    times: Dict[tuple, List[float]] = defaultdict(list)
    for s in spans:
        if s.name == "construction.ratio_at" and s.info is not None:
            times[s.info].append(s.end - s.start)
    return [
        {"D": D, "k": k, "p": p, "s": sum(v) / len(v), "calls": len(v)}
        for (D, k, p), v in sorted(times.items())
    ]
