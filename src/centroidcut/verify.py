"""Batch invariant suites over generated body fleets.

Each check returns per-invariant pass/fail counts; the CLI prints them as a
table and the acceptance tests assert zero failures.  Everything is seeded
and deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .asymmetry import SearchConfig, delta_bound, rho_bound, rho_centroid
from .errors import BadValue
from .floating import _approximations
from .generators import BodySpec, fleet_specs, make
from .geometry import Polytope, dot, seeded_directions
from .profiles import (
    MomentSpec,
    brute_force_extremals,
    claim4_certificate,
    feasibility_threshold,
    is_feasible,
    max_mu,
    min_mu,
    moment,
)
from .slicing import CumulativeEvaluator, support_interval


@dataclass
class InvariantResult:
    name: str
    passed: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = ""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if note and len(self.notes) < 8:
                self.notes.append(note)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def fleet_bodies(count: int, dims: tuple[int, ...], seed: int) -> list[Polytope]:
    """The seeded random-hull fleet used across the certificate suites."""
    return [make(s) for s in fleet_specs(count, dims, seed)]


BOUND_SEARCH = SearchConfig(random_directions=96, multistart=2)


def check_bound(bodies: list[Polytope], support_dirs: int) -> list[InvariantResult]:
    """Centroid-cut bound, support-ratio window and exact Brunn concavity per body."""
    bound = InvariantResult("rho_centroid <= rho_n")
    exact = InvariantResult("exact witnesses <= rho_n (rational)")
    ratio = InvariantResult("support ratio a/b in [1/n, n]")
    concave = InvariantResult("midpoint concavity of h")
    if support_dirs < 1:
        raise BadValue(f"support direction count must be positive, got {support_dirs}")
    for i, body in enumerate(bodies):
        n = body.dim
        rn = rho_bound(n)
        report = rho_centroid(body, BOUND_SEARCH)
        bound.record(report.rho <= float(rn) + 1e-9, f"body {i}: rho={report.rho}")
        exact.record(all(r <= rn for _, r in report.exact_witnesses),
                     f"body {i}: witness beats bound")
        for theta in itertools.islice(seeded_directions(n, 1000 + i), support_dirs):
            a, b = support_interval(body, theta, body.centroid)
            ratio.record(Fraction(1, n) <= a / b <= n,
                         f"body {i}: a/b={a}/{b} along {theta}")
        theta = next(seeded_directions(n, 5000 + i))
        concave.record(CumulativeEvaluator(body, theta).brunn_concave(),
                       f"body {i} along {theta}")
    return [bound, exact, ratio, concave]


def check_floating(bodies: list[Polytope], n_dirs: int, seed: int) -> list[InvariantResult]:
    """Centroid membership at delta_n and monotonicity of the approximations."""
    member = InvariantResult("centroid in K^delta_n approx")
    mono = InvariantResult("delta-monotone halfspace depths")
    for i, body in enumerate(bodies):
        n = body.dim
        dn = delta_bound(n)
        approx = _approximations(body, n_dirs, seed, "auto")
        approx1 = approx(dn)
        member.record(approx1.contains_point(body.centroid), f"body {i}")
        approx2 = approx((dn + Fraction(1, 2)) / 2)
        mono.record(
            all(c2.hi <= c1.hi and c2.lo <= c1.lo
                for c1, c2 in zip(approx1.cuts, approx2.cuts)),
            f"body {i}")
    return [member, mono]


def check_pyramids(dims: tuple[int, ...]) -> list[InvariantResult]:
    """Exact pyramid identities: ratio rho_n and apex fraction delta_n, cut along
    the last axis, which is the base normal of every pyramid ``make`` builds."""
    equality = InvariantResult("pyramid base-normal ratio == rho_n (exact)")
    apex = InvariantResult("apex-side fraction == delta_n (exact)")
    for n in dims:
        axis = (0,) * (n - 1) + (1,)
        for k, base in enumerate(("cube", "simplex", "cross", "random-hull")):
            body = make(BodySpec(kind="pyramid", n=n, base=base,
                                 seed=23 + 31 * k + n, m=n + 3,
                                 height=str(Fraction(k + 1, 2)),
                                 apex=None if k % 2 == 0 else tuple(
                                     str(Fraction(k, 3)) for _ in range(n - 1))))
            ev = CumulativeEvaluator(body, axis)
            r = ev.split_ratio(body.centroid)
            equality.record(r == rho_bound(n), f"pyramid n={n} #{k}: {r}")
            frac_apex = 1 - ev.value(dot(ev.theta, body.centroid)) / body.volume
            apex.record(frac_apex == delta_bound(n), f"pyramid n={n} #{k}: {frac_apex}")
    return [equality, apex]


def _lemma5_specs() -> list[MomentSpec]:
    """n = 1..3, M in {1/6, 1}, and four slope caps: the feasibility threshold,
    half of it, 0 and 1."""
    specs = []
    for n in (1, 2, 3):
        for M in (1 / 6, 1.0):
            thr = feasibility_threshold(M, n)
            specs += [MomentSpec(M=M, m=m, n=n) for m in (thr, thr / 2, 0.0, 1.0)]
    return specs


def check_lemma5(trials: int) -> list[InvariantResult]:
    """Closed forms, feasibility frontier and oracle ordering on the test grid."""
    closed = InvariantResult("min_mu closed form (b, mu, moment)")
    frontier = InvariantResult("feasibility flips at the threshold")
    ordering = InvariantResult("min_mu <= oracle <= max_mu")
    approach = InvariantResult("oracle approaches closed forms (2%)")
    for spec in _lemma5_specs():
        lo = min_mu(spec)
        hi = max_mu(spec)
        b_expected = (spec.M * spec.n * (spec.n + 1)) ** 0.5
        ok = (abs(lo.b - b_expected) <= 1e-10 * b_expected
              and abs(lo.mu - lo.b / spec.n) <= 1e-10 * lo.mu
              and abs(moment(lo.profile) - spec.M) <= 1e-10 * spec.M
              and abs(moment(hi.profile) - spec.M) <= 1e-10 * spec.M)
        closed.record(ok, f"{spec}")
        thr = feasibility_threshold(spec.M, spec.n)
        frontier.record(
            is_feasible(MomentSpec(spec.M, thr * (1 - 1e-6), spec.n))
            and not is_feasible(MomentSpec(spec.M, thr * (1 + 1e-6), spec.n)),
            f"{spec}")
        bf = brute_force_extremals(spec, grid_size=200, trials=trials, seed=5)
        ordering.record(
            lo.mu - 1e-9 <= bf.mu_lo and bf.mu_hi <= hi.mu + 1e-9,
            f"{spec}: oracle [{bf.mu_lo}, {bf.mu_hi}] vs [{lo.mu}, {hi.mu}]")
        approach.record(
            bf.mu_lo <= lo.mu * 1.02 and bf.mu_hi >= hi.mu * 0.98,
            f"{spec}: oracle [{bf.mu_lo}, {bf.mu_hi}] vs [{lo.mu}, {hi.mu}]")
    return [closed, frontier, ordering, approach]


def check_claim4(trials: int) -> list[InvariantResult]:
    bound = InvariantResult("sampled ratio <= rho_n + 1e-9")
    affine = InvariantResult("affine profile achieves rho_n")
    for n in (1, 2, 3, 4):
        rep = claim4_certificate(n, grid_size=64, trials=trials, seed=3)
        bound.record(rep.bound_ok, f"n={n}: max {rep.max_ratio}")
        affine.record(rep.affine_ok, f"n={n}: affine {rep.affine_ratio}")
    return [bound, affine]


SUITES = ("bound", "floatbody", "pyramids", "lemma5", "claim4")


def run_suites(names, bodies_count: int, dims: tuple[int, ...], seed: int, n_dirs: int,
               trials: int, support_dirs: int) -> list[InvariantResult]:
    """Run the requested suites (or all) and return every invariant result."""
    chosen = list(SUITES) if "all" in names else [n for n in SUITES if n in names]
    # bad counts fail here, before the fleet is built
    if "bound" in chosen and support_dirs < 1:
        raise BadValue(f"support direction count must be positive, got {support_dirs}")
    n = max(dims[:max(bodies_count, 0)], default=0)  # the fleet's largest dimension
    if "floatbody" in chosen and n_dirs < 2 * n:
        raise BadValue(f"direction budget {n_dirs} below 2n = {2 * n}")
    if ("lemma5" in chosen or "claim4" in chosen) and trials < 1:
        raise BadValue(f"trial count must be positive, got {trials}")
    if "pyramids" in chosen and max(dims, default=0) < 2:
        raise BadValue(f"pyramids need a dimension >= 2, got dims {dims}")
    results: list[InvariantResult] = []
    fleet = None
    if "bound" in chosen or "floatbody" in chosen:
        fleet = fleet_bodies(bodies_count, dims, seed)
    if "bound" in chosen:
        results += check_bound(fleet, support_dirs=support_dirs)
    if "floatbody" in chosen:
        results += check_floating(fleet, n_dirs=n_dirs, seed=seed)
    if "pyramids" in chosen:
        results += check_pyramids(dims=tuple(d for d in dims if d >= 2))
    if "lemma5" in chosen:
        results += check_lemma5(trials=trials)
    if "claim4" in chosen:
        results += check_claim4(trials=trials)
    return results
