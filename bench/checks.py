"""Output checks made apart from centroidcut.

Every check takes plain numbers (rationals, tuples, floats) and returns True
when the answer is right.  The references are closed forms and properties of
the method computed here, or SciPy's Qhull / HiGHS in floating point; no
check compares against a saved copy of the program's own output.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

REL_FLOAT = 1e-9  # float resolution allowed where SciPy is the reference


def rho_n(n: int) -> Fraction:
    """(1 + 1/n)^n - 1, the sharp centroid-cut ratio."""
    return (1 + Fraction(1, n)) ** n - 1


def delta_n(n: int) -> Fraction:
    """(n / (n + 1))^n, the apex-side volume fraction of a pyramid."""
    return Fraction(n, n + 1) ** n


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# float volumes with Qhull


def hull_volume(points) -> float:
    """Float volume of conv(points); 0 when the set is lower-dimensional."""
    pts = np.asarray(points, dtype=float)
    if len(pts) <= pts.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


def halfspace_volume(vertices, theta, t, above: bool) -> float:
    """Float volume of conv(vertices) ∩ {x·theta >= t} (above) or {<= t}.

    The clipped body is the hull of the vertices on the kept side and of the
    points where each vertex pair crosses the hyperplane: those crossings lie
    in the body and include every edge crossing.
    """
    v = np.asarray(vertices, dtype=float)
    p = v @ np.asarray(theta, dtype=float) - float(t)
    if above:
        p = -p
    kept = [v[i] for i in range(len(v)) if p[i] <= 0.0]
    for i, j in itertools.combinations(range(len(v)), 2):
        if (p[i] < 0.0 < p[j]) or (p[j] < 0.0 < p[i]):
            lam = p[i] / (p[i] - p[j])
            kept.append(v[i] + lam * (v[j] - v[i]))
    return hull_volume(kept) if kept else 0.0


# ---------------------------------------------------------------------------
# certify


def witnesses_within_bound(ratios, n: int) -> bool:
    """Every exact witness ratio is at most (1 + 1/n)^n - 1."""
    bound = rho_n(n)
    return all(Fraction(r) <= bound for r in ratios)


def split_ratio_matches(vertices, theta, point, ratio, rel: float = REL_FLOAT) -> bool:
    """The larger-over-smaller split through point along theta agrees with Qhull."""
    t = _dot(theta, point)
    below = halfspace_volume(vertices, theta, t, above=False)
    above = halfspace_volume(vertices, theta, t, above=True)
    if below <= 0.0 or above <= 0.0:
        return False
    ref = max(below / above, above / below)
    return abs(float(ratio) - ref) <= rel * ref


def support_ratio_ok(a, b, n: int) -> bool:
    """The centroid's support distances satisfy 1/n <= a/b <= n."""
    a, b = Fraction(a), Fraction(b)
    return a > 0 and b > 0 and Fraction(1, n) <= a / b <= n


# ---------------------------------------------------------------------------
# depth cuts (theta, lo, hi) of floating-body approximations


def depths_decrease(cuts_small, cuts_large) -> bool:
    """Along each direction the depth at the larger delta is not deeper."""
    if len(cuts_small) != len(cuts_large):
        return False
    for (th1, lo1, hi1), (th2, lo2, hi2) in zip(cuts_small, cuts_large):
        if tuple(th1) != tuple(th2) or hi2 > hi1 or lo2 > lo1:
            return False
    return True


def bracket_narrow(cut, vertices, bits: int = 64) -> bool:
    """lo <= hi and hi - lo is at most 2^-bits of the support width."""
    theta, lo, hi = cut
    projs = [_dot(theta, v) for v in vertices]
    width = max(projs) - min(projs)
    return lo <= hi and (hi - lo) * (1 << bits) <= width


def cap_volumes_bracket(vertices, cut, delta, rel: float = REL_FLOAT) -> bool:
    """cap(hi) <= delta·vol <= cap(lo), where cap(t) = vol(K ∩ {x·theta >= t})."""
    theta, lo, hi = cut
    target = float(delta) * hull_volume(vertices)
    cap_hi = halfspace_volume(vertices, theta, hi, above=True)
    cap_lo = halfspace_volume(vertices, theta, lo, above=True)
    slack = rel * target
    return cap_hi <= target + slack and target - slack <= cap_lo


# ---------------------------------------------------------------------------
# phi


def centroid_in_cuts(cuts, centroid) -> bool:
    """The centroid satisfies theta·c <= hi for every cut, in exact arithmetic."""
    c = [Fraction(x) for x in centroid]
    return all(_dot([Fraction(t) for t in theta], c) <= Fraction(hi) for theta, _, hi in cuts)


def phi_bracket_ok(n: int, delta_feasible, delta_infeasible, lo: float, hi: float) -> bool:
    """delta_n <= delta_feasible < delta_infeasible <= 1/2, and lo <= hi."""
    half = Fraction(1, 2)
    feas = Fraction(delta_feasible)
    if delta_infeasible is None:
        in_order = feas == half
    else:
        in_order = delta_n(n) <= feas < Fraction(delta_infeasible) <= half
    return in_order and lo <= hi


def witness_feasible(system, witness) -> bool:
    """The witness satisfies every halfspace (theta, rhs) in exact arithmetic."""
    x = [Fraction(c) for c in witness]
    return all(_dot([Fraction(c) for c in theta], x) <= Fraction(rhs)
               for theta, rhs in system)


def max_slack(system, n: int) -> float:
    """Largest Euclidean slack s with theta_i·x + s·|theta_i| <= rhs_i (HiGHS).

    Positive means the system has interior points, negative means it is
    empty; s is capped at 1 so the LP stays bounded.
    """
    rows, rhs = [], []
    for theta, r in system:
        th = np.asarray([float(c) for c in theta])
        norm = float(np.linalg.norm(th))
        rows.append(list(th / norm) + [1.0])
        rhs.append(float(r) / norm)
    res = linprog(c=[0.0] * n + [-1.0], A_ub=rows, b_ub=rhs,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -float(res.fun)


def empty_verdict_agrees(system, n: int) -> bool:
    """An 'empty' verdict is wrong when the LP finds clearly positive slack.

    A slack within float resolution of 0 cannot decide the question in
    floating point, so it counts as agreement.
    """
    scale = max(1.0, max(abs(float(r)) for _, r in system))
    return max_slack(system, n) <= REL_FLOAT * scale


# ---------------------------------------------------------------------------
# hulls


def closed_form_ok(kind: str, n: int, offset, volume, centroid) -> bool:
    """Volume and centroid of a translated unit cube, cross-polytope or simplex."""
    off = [Fraction(c) for c in offset]
    if kind == "cube":
        vol, cen = Fraction(1), [Fraction(1, 2)] * n
    elif kind == "cross":
        vol, cen = Fraction(2**n, math.factorial(n)), [Fraction(0)] * n
    elif kind == "simplex":
        vol, cen = Fraction(1, math.factorial(n)), [Fraction(1, n + 1)] * n
    else:
        raise ValueError(f"no closed form for {kind!r}")
    return (Fraction(volume) == vol
            and [Fraction(c) for c in centroid] == [c + o for c, o in zip(cen, off)])


def hull_matches_qhull(points, vertices, volume, rel: float = REL_FLOAT) -> bool:
    """Vertex set and volume agree with scipy.spatial.ConvexHull."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    ref_vertices = {tuple(pts[i]) for i in hull.vertices}
    got_vertices = {tuple(float(c) for c in v) for v in vertices}
    if ref_vertices != got_vertices:
        return False
    return abs(float(volume) - hull.volume) <= rel * hull.volume


def pyramid_identities_ok(n: int, ratio, apex_fraction) -> bool:
    """Base-parallel centroid cut: ratio rho_n and apex side delta_n, exactly."""
    return Fraction(ratio) == rho_n(n) and Fraction(apex_fraction) == delta_n(n)


# ---------------------------------------------------------------------------
# profiles


def min_mu_closed_form_ok(M: float, n: int, b: float, mu: float,
                          rel: float = 1e-10) -> bool:
    """b_min = sqrt(M n (n+1)) and mu_min = b_min / n."""
    b_ref = math.sqrt(M * n * (n + 1))
    return abs(b - b_ref) <= rel * b_ref and abs(mu - b_ref / n) <= rel * (b_ref / n)


def oracle_brackets_ok(mu_min: float, mu_max: float, oracle_lo: float,
                       oracle_hi: float, share: float = 0.02) -> bool:
    """The sampled extremes lie inside [mu_min, mu_max] and within 2 % of each."""
    inside = mu_min - 1e-9 <= oracle_lo and oracle_hi <= mu_max + 1e-9
    near = oracle_lo <= mu_min * (1 + share) and oracle_hi >= mu_max * (1 - share)
    return inside and near


def claim4_ok(n: int, max_ratio: float, affine_ratio: float, tol: float = 1e-9) -> bool:
    """No sampled profile beats rho_n, and the affine profile attains it."""
    bound = float(rho_n(n))
    return max_ratio <= bound + tol and abs(affine_ratio - bound) <= tol


# ---------------------------------------------------------------------------
# one op's output, per workload: True when every check holds

CAP_SAMPLE = 6  # cuts per op whose cap volumes are checked


def _cut_triples(approx):
    return [(c.theta, c.lo, c.hi) for c in approx.cuts]


def verify_certify(out) -> bool:
    body, report = out["body"], out["report"]
    n = body.dim
    return (witnesses_within_bound([r for _, r in report.exact_witnesses], n)
            and split_ratio_matches(body.vertices, report.theta_star, body.centroid,
                                    report.rho_exact)
            and all(support_ratio_ok(a, b, n) for a, b in out["supports"])
            and out["concave"] is True)


def verify_phi(out) -> bool:
    body, est = out["body"], out["estimate"]
    n = body.dim
    if not phi_bracket_ok(n, est.delta_feasible, est.delta_infeasible, est.lo, est.hi):
        return False
    if not out["fm"] or not out["rho_min"].value >= 1.0:
        return False
    if not centroid_in_cuts(out["delta_n_cuts"](), body.centroid):
        return False
    for approx, (nonempty, witness) in out["fm"]:
        system = [(c.theta, c.hi) for c in approx.cuts]
        if nonempty:
            if witness is None or not witness_feasible(system, witness):
                return False
        elif not empty_verdict_agrees(system, n):
            return False
    # the depth cuts behind the verdicts, one approximation per bisection step
    approxs = sorted((a for a, _ in out["fm"]), key=lambda a: a.delta)
    cuts = [_cut_triples(a) for a in approxs]
    if not all(depths_decrease(c1, c2) for c1, c2 in zip(cuts, cuts[1:])):
        return False
    if not all(bracket_narrow(c, body.vertices) for cs in cuts for c in cs):
        return False
    rng = random.Random(out["sample_seed"])
    sample = [(a.delta, c) for a, cs in zip(approxs, cuts) for c in cs]
    return all(cap_volumes_bracket(body.vertices, c, delta)
               for delta, c in rng.sample(sample, min(CAP_SAMPLE, len(sample))))


def verify_hulls(out) -> bool:
    item, body = out["item"], out["body"]
    n, kind = item["n"], item["kind"]
    if kind in ("cube", "cross", "simplex"):
        return closed_form_ok(kind, n, item["offset"], body.volume, body.centroid)
    if kind == "pyramid":
        return pyramid_identities_ok(n, out["ratio"], out["apex_fraction"])
    return hull_matches_qhull(item["points"], body.vertices, body.volume)


def verify_profiles(out) -> bool:
    item = out["item"]
    if item["kind"] == "claim4":
        rep = out["report"]
        return claim4_ok(item["n"], rep.max_ratio, rep.affine_ratio)
    spec, lo, hi, bf = item["spec"], out["lo"], out["hi"], out["oracle"]
    return (min_mu_closed_form_ok(spec.M, spec.n, lo.b, lo.mu)
            and oracle_brackets_ok(lo.mu, hi.mu, bf.mu_lo, bf.mu_hi))
