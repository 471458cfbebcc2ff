"""Batch invariant suites over generated body fleets.

Each check returns per-invariant pass/fail counts; the CLI prints them as a
table and the acceptance tests assert zero failures.  Everything is seeded
and deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .asymmetry import SearchConfig, delta_bound, ratio_at, rho_bound, rho_centroid
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


def fleet_bodies(count: int = 200, dims: tuple[int, ...] = (2, 3, 4),
                 seed: int = 7) -> list[Polytope]:
    """The seeded random-hull fleet used across the certificate suites."""
    return [make(s).body for s in fleet_specs(count, dims, seed)]


def check_bound(bodies: list[Polytope], cfg: SearchConfig | None = None,
                support_dirs: int = 100) -> list[InvariantResult]:
    """Centroid-cut bound, support-ratio window and exact Brunn concavity per body."""
    cfg = cfg or SearchConfig(random_directions=96, multistart=2)
    bound = InvariantResult("rho_centroid <= rho_n")
    exact = InvariantResult("exact witnesses <= rho_n (rational)")
    ratio = InvariantResult("support ratio a/b in [1/n, n]")
    concave = InvariantResult("midpoint concavity of h")
    if support_dirs < 1:
        raise BadValue(f"support direction count must be positive, got {support_dirs}")
    for i, body in enumerate(bodies):
        n = body.dim
        rn = rho_bound(n)
        report = rho_centroid(body, cfg)
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


def check_floating(bodies: list[Polytope], n_dirs: int = 64,
                   seed: int = 11) -> list[InvariantResult]:
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


def check_pyramids(dims: tuple[int, ...] = (2, 3, 4), seed: int = 23) -> list[InvariantResult]:
    """Exact pyramid identities: ratio rho_n and apex fraction delta_n."""
    equality = InvariantResult("pyramid base-normal ratio == rho_n (exact)")
    apex = InvariantResult("apex-side fraction == delta_n (exact)")
    for n in dims:
        for k, base in enumerate(("cube", "simplex", "cross", "random-hull")):
            spec = BodySpec(kind="pyramid", n=n, base=base,
                            seed=seed + 31 * k + n, m=n + 3,
                            height=str(Fraction(k + 1, 2)),
                            apex=None if k % 2 == 0 else tuple(
                                str(Fraction(k, 3)) for _ in range(n - 1)))
            gen = make(spec)
            body = gen.body
            r = ratio_at(body, body.centroid, gen.base_normal)
            equality.record(r == rho_bound(n), f"pyramid n={n} #{k}: {r}")
            ev = CumulativeEvaluator(body, gen.base_normal)
            below = ev.value(dot(ev.theta, body.centroid))
            frac_apex = 1 - below / body.volume
            apex.record(frac_apex == delta_bound(n), f"pyramid n={n} #{k}: {frac_apex}")
    return [equality, apex]


LEMMA5_GRID = {
    "n": (1, 2, 3, 4, 5),
    "M": (Fraction(1, 12), Fraction(1, 6), Fraction(1), Fraction(5)),
    "m_factors": ("threshold", "half", "zero", "one"),
}


def _lemma5_specs(ns=None, Ms=None) -> list[MomentSpec]:
    specs = []
    for n in ns or LEMMA5_GRID["n"]:
        for M in Ms or LEMMA5_GRID["M"]:
            thr = feasibility_threshold(float(M), n)
            for mf in LEMMA5_GRID["m_factors"]:
                m = {"threshold": thr, "half": thr / 2, "zero": 0.0, "one": 1.0}[mf]
                specs.append(MomentSpec(M=float(M), m=m, n=n))
    return specs


def check_lemma5(trials: int = 2000, grid_size: int = 200, seed: int = 5,
                 ns=None, Ms=None) -> list[InvariantResult]:
    """Closed forms, feasibility frontier and oracle ordering on the test grid."""
    closed = InvariantResult("min_mu closed form (b, mu, moment)")
    frontier = InvariantResult("feasibility flips at the threshold")
    ordering = InvariantResult("min_mu <= oracle <= max_mu")
    approach = InvariantResult("oracle approaches closed forms (2%)")
    for spec in _lemma5_specs(ns, Ms):
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
        bf = brute_force_extremals(spec, grid_size=grid_size, trials=trials,
                                   seed=seed)
        ordering.record(
            lo.mu - 1e-9 <= bf.mu_lo and bf.mu_hi <= hi.mu + 1e-9,
            f"{spec}: oracle [{bf.mu_lo}, {bf.mu_hi}] vs [{lo.mu}, {hi.mu}]")
        approach.record(
            bf.mu_lo <= lo.mu * 1.02 and bf.mu_hi >= hi.mu * 0.98,
            f"{spec}: oracle [{bf.mu_lo}, {bf.mu_hi}] vs [{lo.mu}, {hi.mu}]")
    return [closed, frontier, ordering, approach]


def check_claim4(ns=(1, 2, 3, 4), trials: int = 10000, grid: int = 64,
                 seed: int = 3) -> list[InvariantResult]:
    bound = InvariantResult("sampled ratio <= rho_n + 1e-9")
    affine = InvariantResult("affine profile achieves rho_n")
    for n in ns:
        rep = claim4_certificate(n, grid_size=grid, trials=trials, seed=seed)
        bound.record(rep.bound_ok, f"n={n}: max {rep.max_ratio}")
        affine.record(rep.affine_ok, f"n={n}: affine {rep.affine_ratio}")
    return [bound, affine]


SUITES = ("bound", "floatbody", "pyramids", "lemma5", "claim4")


def run_suites(names, bodies_count: int = 200, dims: tuple[int, ...] = (2, 3, 4),
               seed: int = 7, n_dirs: int = 16, trials: int = 2000,
               support_dirs: int = 20) -> list[InvariantResult]:
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
        results += check_lemma5(trials=trials, ns=(1, 2, 3), Ms=(Fraction(1, 6), Fraction(1)))
    if "claim4" in chosen:
        results += check_claim4(trials=trials)
    return results
