"""Span tracing of centroidcut's public functions, from outside the package.

`Tracer.install` replaces a function in every namespace its callers look it
up in with a wrapper that records one span per call: name, start, end, the
enclosing span and the benchmark op the call belongs to.  Spans stay in
memory; `layer_metrics` turns them into the per-layer figures and `dump`
writes them out when the run ends.
"""
from __future__ import annotations

import functools
import math
import statistics
import types
from collections import defaultdict
from time import perf_counter_ns

SETUP_OP = -1  # op id of spans recorded while the inputs are built


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.op_id = SETUP_OP
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, name: str, targets, observe=None):
        """Wrap targets[0] and put the wrapper at every (owner, attribute).

        `observe(tracer, args, result)` runs after a call returns and may
        append to `tracer.notes`; it is not part of the span.
        """
        fn = getattr(*targets[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        for owner, attr in targets:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def span_stats(self):
        """Per name: calls, inclusive durations (s) and self time (s)."""
        child_ns = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += (dur - child_ns[i]) / 1e9
            durations[name].append(dur / 1e9)
        return calls, self_s, durations

    def children_named(self, parent_name: str, child_name: str) -> dict[int, int]:
        """For each span called parent_name: how many direct child_name spans."""
        counts = {i: 0 for i, name in enumerate(self.names) if name == parent_name}
        for i, name in enumerate(self.names):
            p = self.parent[i]
            if name == child_name and p in counts:
                counts[p] += 1
        return counts

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.op):
                fh.write("\t".join(map(str, row)) + "\n")


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds that one span adds to a call: a wrapped no-op against the bare
    one, each the fastest of a few timed loops."""
    ns = types.SimpleNamespace(noop=lambda: None)

    def loop_ns(fn):
        best = None
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for _ in range(calls):
                fn()
            dt = perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        return best

    bare = loop_ns(ns.noop)
    Tracer().install("noop", [(ns, "noop")])
    return max(loop_ns(ns.noop) - bare, 0) / calls / 1e9


# ---------------------------------------------------------------------------
# what is traced


def _observe_hull(tracer, args, poly):
    points = {tuple(p) for p in args[0]}
    bits = [poly.volume.denominator.bit_length()]
    bits += [c.denominator.bit_length() for c in poly.centroid]
    tracer.notes["hull_subsets"].append(math.comb(len(points), poly.dim))
    tracer.notes["simplices"].append(len(poly.triangulation))
    tracer.notes["hull_den_bits"].append(max(bits))


def _observe_cut(tracer, args, cut):
    tracer.notes["cut_snapped"].append(cut.lo == cut.hi)
    tracer.notes["bracket_den_bits"].append(
        max(cut.lo.denominator.bit_length(), cut.hi.denominator.bit_length()))


def _observe_fm(tracer, args, witness):
    tracer.notes["fm_rows"].append(len(args[0]))
    tracer.notes["fm_empty"].append(witness is None)


def _observe_oracle(tracer, args, result):
    tracer.notes["shapes_kept"].append(result.kept)


def install_all(tracer: Tracer, cc) -> None:
    """Wrap the public functions of each module where their callers find them.

    `cc` is the imported centroidcut package.  Modules that import a function
    by name get the wrapper in their own namespace too.
    """
    g, sl, asy, fl, fe, pr, gen = (cc.geometry, cc.slicing, cc.asymmetry, cc.floating,
                                   cc.feasibility, cc.profiles, cc.generators)
    ev = sl.CumulativeEvaluator
    tracer.install("geometry.convex_hull", [(g, "convex_hull"), (gen, "convex_hull")],
                   _observe_hull)
    tracer.install("slicing.CumulativeEvaluator.init", [(ev, "__init__")])
    tracer.install("slicing.CumulativeEvaluator.value", [(ev, "value")])
    tracer.install("slicing.CumulativeEvaluator.value_float", [(ev, "value_float")])
    tracer.install("slicing.section_value", [(sl, "section_value")])
    tracer.install("slicing.profile", [(sl, "profile")])
    tracer.install("slicing.SectionProfile.midpoint_concavity_ok",
                   [(sl.SectionProfile, "midpoint_concavity_ok")])
    tracer.install("slicing.support_interval", [(sl, "support_interval")])
    tracer.install("asymmetry.ratio_at", [(asy, "ratio_at")])
    tracer.install("asymmetry.rho_centroid", [(asy, "rho_centroid"), (fl, "rho_centroid")])
    tracer.install("asymmetry.rho_min", [(asy, "rho_min")])
    tracer.install("floating.floating_body_approx", [(fl, "floating_body_approx")])
    tracer.install("floating.cut_depth", [(fl, "cut_depth")], _observe_cut)
    tracer.install("floating.is_nonempty", [(fl, "is_nonempty")])
    tracer.install("feasibility.feasible_point", [(fe, "feasible_point"),
                                                  (fl, "feasible_point")], _observe_fm)
    tracer.install("profiles.brute_force_extremals", [(pr, "brute_force_extremals")],
                   _observe_oracle)
    tracer.install("profiles.claim4_certificate", [(pr, "claim4_certificate")])
    tracer.install("profiles.min_mu", [(pr, "min_mu")])
    tracer.install("profiles.max_mu", [(pr, "max_mu")])
    tracer.install("generators.random_hull", [(gen, "random_hull")])


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "geometry.convex_hull.calls": ("calls/op", "lower"),
    "geometry.convex_hull.self_s": ("s/op", "lower"),
    "geometry.hull_subsets": ("subsets/op", "lower"),
    "geometry.simplices": ("simplices", "lower"),
    "geometry.den_bits_max": ("bits", "lower"),
    "slicing.CumulativeEvaluator.init.calls": ("calls/op", "lower"),
    "slicing.CumulativeEvaluator.init.self_s": ("s/op", "lower"),
    "slicing.CumulativeEvaluator.value.calls": ("calls/op", "lower"),
    "slicing.CumulativeEvaluator.value.self_s": ("s/op", "lower"),
    "slicing.CumulativeEvaluator.value_float.calls": ("calls/op", "lower"),
    "slicing.CumulativeEvaluator.value_float.self_s": ("s/op", "lower"),
    "slicing.section_value.calls": ("calls/op", "lower"),
    "slicing.section_value.self_s": ("s/op", "lower"),
    "slicing.profile.self_s": ("s/op", "lower"),
    "slicing.SectionProfile.midpoint_concavity_ok.self_s": ("s/op", "lower"),
    "slicing.support_interval.self_s": ("s/op", "lower"),
    "asymmetry.ratio_at.calls": ("calls/op", "lower"),
    "asymmetry.ratio_at.self_s": ("s/op", "lower"),
    "asymmetry.rho_centroid.self_s": ("s/op", "lower"),
    "asymmetry.rho_min.self_s": ("s/op", "lower"),
    "floating.floating_body_approx.self_s": ("s/op", "lower"),
    "floating.cut_depth.calls": ("calls/op", "lower"),
    "floating.cut_depth.self_s": ("s/op", "lower"),
    "floating.cut_depth.p50_ms": ("ms", "lower"),
    "floating.cut_depth.p99_ms": ("ms", "lower"),
    "floating.exact_evals_per_cut": ("evals/cut", "lower"),
    "floating.snapped_ratio": ("ratio", "higher"),
    "floating.bracket_den_bits_max": ("bits", "lower"),
    "floating.is_nonempty.calls": ("calls/op", "lower"),
    "floating.is_nonempty.self_s": ("s/op", "lower"),
    "floating.centroid_witness_ratio": ("ratio", "higher"),
    "feasibility.feasible_point.calls": ("calls/op", "lower"),
    "feasibility.feasible_point.self_s": ("s/op", "lower"),
    "feasibility.feasible_point.max_s": ("s", "lower"),
    "feasibility.feasible_point.rows_max": ("rows", "lower"),
    "feasibility.empty_ratio": ("ratio", "lower"),
    "profiles.brute_force_extremals.self_s": ("s/op", "lower"),
    "profiles.claim4_certificate.self_s": ("s/op", "lower"),
    "profiles.min_mu.self_s": ("s/op", "lower"),
    "profiles.max_mu.self_s": ("s/op", "lower"),
    "profiles.shapes_kept": ("shapes", "higher"),
    "generators.random_hull.self_s": ("s/op", "lower"),
}


def _share(flags) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures; counts and self times are per op of the timed phase.

    The spans of the one traced set-up are included, so set-up work such as
    building hulls is spread over the ops that use them.
    """
    calls, self_s, durations = tracer.span_stats()
    out: dict[str, float] = {}
    for key in PER_LAYER:
        base, _, field = key.rpartition(".")
        if field == "calls":
            out[key] = calls.get(base, 0) / ops
        elif field == "self_s":
            out[key] = self_s.get(base, 0.0) / ops
    notes = tracer.notes
    cut_ms = [d * 1e3 for d in durations.get("floating.cut_depth", [])]
    evals = tracer.children_named("floating.cut_depth", "slicing.CumulativeEvaluator.value")
    fm_per_check = tracer.children_named("floating.is_nonempty", "feasibility.feasible_point")
    out.update({
        "geometry.hull_subsets": sum(notes["hull_subsets"]) / ops,
        "geometry.simplices": statistics.fmean(notes["simplices"]) if notes["simplices"] else 0.0,
        "geometry.den_bits_max": max(notes["hull_den_bits"], default=0),
        "floating.cut_depth.p50_ms": _quantile(cut_ms, 0.50),
        "floating.cut_depth.p99_ms": _quantile(cut_ms, 0.99),
        "floating.exact_evals_per_cut": sum(evals.values()) / len(evals) if evals else 0.0,
        "floating.snapped_ratio": _share(notes["cut_snapped"]),
        "floating.bracket_den_bits_max": max(notes["bracket_den_bits"], default=0),
        "floating.centroid_witness_ratio": _share([c == 0 for c in fm_per_check.values()]),
        "feasibility.feasible_point.max_s": max(durations.get("feasibility.feasible_point", []),
                                                default=0.0),
        "feasibility.feasible_point.rows_max": max(notes["fm_rows"], default=0),
        "feasibility.empty_ratio": _share(notes["fm_empty"]),
        "profiles.shapes_kept": (statistics.fmean(notes["shapes_kept"])
                                 if notes["shapes_kept"] else 0.0),
    })
    return {key: out[key] for key in PER_LAYER}
