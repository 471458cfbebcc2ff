"""The four workloads: inputs made from the seed, and one round of ops.

A workload has three steps.  `recipe` fixes the inputs from the seed,
`build` turns the recipe into the program's inputs (this is what set-up
time measures), and `round_ops` returns one round of ops, each a callable
that drives centroidcut through its public functions and returns what the
output checks need.  `cc` is the imported centroidcut package; every call
goes through a module attribute, so a traced run sees it.

This module imports nothing outside the standard library, so a set-up probe
that imports it has not yet paid for numpy or SciPy.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

NAMES = ("certify", "phi", "hulls", "profiles")

# certify serves the fleet of verify.check_bound: generators.fleet_specs,
# m = n+5..n+8, dimensions cycled.  36 bodies hold every (n, m) pair three
# times.  One n = 4 body costs 0.4 s to 3 s, so a small fleet's cost follows
# the seed's draw: with 12 bodies ops_per_s spread 0.21 of its median over
# ten seeds.  The round takes about 25 s and runs once.
CERTIFY_BODIES = 36
# phi takes fleet_specs bodies with fewer points than the fleet's m: at
# m = 10 one op costs 1 s to 50 s, which leaves no room for repeats in a run.
# m = 4 in the plane draws a quadrilateral or a triangle; m = n + 1 in
# n = 3, 4 draws a simplex.
PHI_BODIES = 3  # one per dimension; a round takes about 4 s
PHI_M = {2: 4, 3: 4, 4: 5}

CERTIFY_SUPPORT_DIRS = 100  # as the criterion-3 fleet check
CERTIFY_GRID = 64
LEMMA5_TRIALS = 2000
LEMMA5_GRID = 200
CLAIM4_TRIALS = 10000
CLAIM4_GRID = 64


def recipe(cc, name: str, seed: int) -> dict:
    """What to build: for the fleets, the (n, m, hull seed) of every body."""
    if name == "certify":
        specs = cc.generators.fleet_specs(CERTIFY_BODIES, (2, 3, 4), seed)
        return {"seed": seed, "hulls": [[s.n, s.m, s.seed] for s in specs]}
    if name == "phi":
        specs = cc.generators.fleet_specs(PHI_BODIES, tuple(PHI_M), seed)
        return {"seed": seed, "hulls": [[s.n, PHI_M[s.n], s.seed] for s in specs]}
    return {"seed": seed}


def build(cc, name: str, rec: dict):
    """The program's inputs.  Fleets are rebuilt with random_hull, never
    through generators.make, whose memo would turn a rebuild into a lookup."""
    if "hulls" in rec:
        return [cc.generators.random_hull(n, m, hs) for n, m, hs in rec["hulls"]]
    if name == "hulls":
        return hull_inputs(rec["seed"])
    return profile_inputs(cc, rec["seed"])


# ---------------------------------------------------------------------------
# point sets for the hull workload


def _unit(n, i, s=1):
    return tuple(s if j == i else 0 for j in range(n))


def _cube(n):
    return list(itertools.product((0, 1), repeat=n))


def _cross(n):
    return [_unit(n, i, s) for i in range(n) for s in (1, -1)]


def _simplex(n):
    return [tuple([0] * n)] + [_unit(n, i) for i in range(n)]


def _random_points(rng, n, m):
    return [tuple(Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(n))
            for _ in range(m)]


def _pyramid(rng, base):
    height = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    apex = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in base[0])
    return [tuple(p) + (0,) for p in base] + [apex + (height,)]


def hull_inputs(seed: int) -> list[dict]:
    """The 5-cube, 6-cross-polytope and 6-simplex (translated), pyramids in
    n = 5, 6, and random point sets with m <= 14.  The 5-cube comes first."""
    rng = random.Random(seed)
    items = []
    for kind, n, pts in (("cube", 5, _cube(5)), ("cross", 6, _cross(6)),
                         ("simplex", 6, _simplex(6))):
        offset = tuple(rng.randint(-3, 3) for _ in range(n))
        items.append({"kind": kind, "n": n, "offset": offset,
                      "points": [tuple(a + b for a, b in zip(p, offset)) for p in pts]})
    bases = [_cube(4), _simplex(4), _cross(4), _random_points(rng, 4, 8),
             _random_points(rng, 5, 9)]
    for base in bases:
        items.append({"kind": "pyramid", "n": len(base[0]) + 1, "points": _pyramid(rng, base)})
    # ten random sets of one size, so that the median op is the middle of
    # ten random hulls rather than one hull whose cost the seed decides
    for n, m in [(5, 12)] * 10 + [(5, 14), (6, 12), (6, 12)]:
        items.append({"kind": "random", "n": n, "points": _random_points(rng, n, m)})
    return items


# ---------------------------------------------------------------------------
# profile specs


def profile_inputs(cc, seed: int) -> list[dict]:
    """The Lemma-5 grid of the verify suite (M in {1/6, 1}, n = 1..5) and
    Claim-4 for n = 1..4."""
    pr = cc.profiles
    rng = random.Random(seed)
    items = []
    for n in (1, 2, 3, 4, 5):
        for M in (Fraction(1, 6), Fraction(1)):
            thr = pr.feasibility_threshold(float(M), n)
            for m in (thr, thr / 2, 0.0, 1.0):
                items.append({"kind": "lemma5", "spec": pr.MomentSpec(M=float(M), m=m, n=n),
                              "seed": rng.randrange(1 << 30)})
    for n in (1, 2, 3, 4):
        items.append({"kind": "claim4", "n": n, "seed": rng.randrange(1 << 30)})
    return items


# ---------------------------------------------------------------------------
# ops


def _directions(rng, n, count):
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-99, 99) for _ in range(n))
        if any(v):
            out.append(v)
    return out


def _certify_op(cc, body, cfg, support_dirs, profile_dir):
    def op():
        report = cc.asymmetry.rho_centroid(body, cfg)
        supports = [cc.slicing.support_interval(body, th, body.centroid)
                    for th in support_dirs]
        prof = cc.slicing.profile(body, profile_dir, CERTIFY_GRID)
        return {"body": body, "report": report, "supports": supports,
                "concave": prof.midpoint_concavity_ok(1e-12)}
    return op


class NonemptyLog:
    """Keeps every (approximation, verdict) that floating.is_nonempty returns,
    so the checks can re-examine the FM answers inside phi_estimate."""

    def __init__(self, cc):
        self.fl = cc.floating
        self.original = self.fl.is_nonempty
        self.calls = []

        def logged(approx):
            verdict = self.original(approx)
            self.calls.append((approx, verdict))
            return verdict
        self.fl.is_nonempty = logged

    def take(self):
        calls, self.calls = self.calls, []
        return calls

    def close(self):
        self.fl.is_nonempty = self.original


def _phi_op(cc, body, cfg, log):
    n_dirs = max(2 * body.dim, 16)  # phi_estimate's auto budget
    delta_n = Fraction(body.dim, body.dim + 1) ** body.dim
    memo = []

    def delta_n_cuts():
        """The cuts of the approximation at delta_n, which phi_estimate takes
        to be nonempty without building it.  Built once, after the timing."""
        if not memo:
            approx = cc.floating.floating_body_approx(body, delta_n, n_dirs=n_dirs,
                                                      seed=cfg.seed, directions="auto")
            memo.append([(c.theta, c.lo, c.hi) for c in approx.cuts])
        return memo[0]

    def op():
        log.take()
        est = cc.floating.phi_estimate(body, cfg)
        rm = cc.asymmetry.rho_min(body, cfg)
        return {"body": body, "estimate": est, "rho_min": rm, "fm": log.take(),
                "sample_seed": cfg.seed, "delta_n_cuts": delta_n_cuts}
    return op


def _hull_op(cc, item):
    n = item["n"]
    axis = _unit(n, n - 1)

    def op():
        body = cc.geometry.convex_hull(item["points"])
        out = {"item": item, "body": body}
        if item["kind"] == "pyramid":
            c = body.centroid
            out["ratio"] = cc.asymmetry.ratio_at(body, c, axis)
            below = cc.slicing.CumulativeEvaluator(body, axis).value(c[-1])
            out["apex_fraction"] = 1 - below / body.volume
        return out
    return op


def _lemma5_op(cc, item):
    def op():
        pr, spec = cc.profiles, item["spec"]
        return {"item": item, "lo": pr.min_mu(spec), "hi": pr.max_mu(spec),
                "oracle": pr.brute_force_extremals(spec, grid_size=LEMMA5_GRID,
                                                   trials=LEMMA5_TRIALS, seed=item["seed"])}
    return op


def _claim4_op(cc, item):
    def op():
        return {"item": item, "report": cc.profiles.claim4_certificate(
            item["n"], grid_size=CLAIM4_GRID, trials=CLAIM4_TRIALS, seed=item["seed"])}
    return op


def round_ops(cc, name: str, inputs, seed: int):
    """One round: a list of ops, in which an op may appear more than once.
    Returns (ops, close) where close() undoes any hook a workload put in place."""
    rng = random.Random(seed)
    # each body gets its own search seed, so that the cost of one seed's
    # Nelder-Mead runs does not move every op of a run together
    if name == "certify":
        return [_certify_op(cc, b, cc.asymmetry.SearchConfig(seed=rng.randrange(1 << 30),
                                                             random_directions=96, multistart=2),
                            _directions(rng, b.dim, CERTIFY_SUPPORT_DIRS),
                            _directions(rng, b.dim, 1)[0]) for b in inputs], None
    if name == "phi":
        log = NonemptyLog(cc)  # the config is the one `centroidcut phi --seed` uses
        return [_phi_op(cc, b, cc.asymmetry.SearchConfig(seed=rng.randrange(1 << 30)), log)
                for b in inputs], log.close
    if name == "hulls":
        # the 5-cube takes about 12 s, most of a round; the round runs every
        # hull twice, the cube last each time, so that the cube's time is
        # taken over two spells of the host rather than one
        ops = [_hull_op(cc, item) for item in inputs]
        cube, rest = ops[0], ops[1:]
        return (rest + [cube]) * 2, None
    if name == "profiles":
        return [_lemma5_op(cc, it) if it["kind"] == "lemma5" else _claim4_op(cc, it)
                for it in inputs], None
    raise ValueError(f"unknown workload {name!r}")
