"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime; tolerances and budgets are
pinned to the stated requirements.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion report.
"""
from __future__ import annotations

import time
from fractions import Fraction

import pytest

from centroidcut import (
    SearchConfig,
    cumulative_volume,
    delta_bound,
    floating_body_approx,
    phi_estimate,
    ratio_at,
    rho_bound,
    rho_centroid,
    section_value,
)
from centroidcut.generators import BodySpec, make
from centroidcut.geometry import dot
from centroidcut.profiles import (
    MomentSpec,
    brute_force_extremals,
    claim4_certificate,
    feasibility_threshold,
    is_feasible,
    max_mu,
    min_mu,
    moment,
)
from centroidcut.verify import check_bound, check_floating

F = Fraction

RHO_EXPECTED = {2: F(5, 4), 3: F(37, 27), 4: F(369, 256), 5: F(4651, 3125)}


def _report(name: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f"  [{detail}]" if detail else ""
    print(f"PASS {name} ({elapsed:.1f}s){suffix}")


def test_criterion_1_simplex_bound_identities():
    """n = 2..5 simplices: exact rho_n along a facet normal; search within 1e-6."""
    started = time.perf_counter()
    for n in (2, 3, 4, 5):
        body = make(BodySpec(kind="simplex", n=n))
        exact = ratio_at(body, body.centroid, (-1,) * n)  # toward the apex at 0
        assert exact == RHO_EXPECTED[n] == rho_bound(n)
        report = rho_centroid(body, SearchConfig(random_directions=96, multistart=2))
        assert abs(report.rho - float(RHO_EXPECTED[n])) < 1e-6
        assert report.rho_exact == RHO_EXPECTED[n]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 exceeded 30 s: {elapsed:.1f}"
    _report("criterion 1 (centroid-cut bound, simplices n=2..5)", started)


def test_criterion_2_pyramid_equality():
    """Pyramids with varied bases: exact rho_n ratio and exact delta_n apex slice."""
    started = time.perf_counter()
    bases = ["cube", "simplex", "cross", "random-hull"]
    count = 0
    for n in (2, 3, 4):
        axis = (0,) * (n - 1) + (1,)  # the base normal: apex above z_n = 0
        for k, base in enumerate(bases):
            if n == 2 and base in ("cross", "random-hull"):
                continue  # 1-D bases coincide with the segment
            spec = BodySpec(kind="pyramid", n=n, base=base, seed=5 + k, m=n + 3,
                            height=str(F(k + 1, 2)),
                            apex=None if k % 2 == 0 else tuple("1/3" for _ in range(n - 1)))
            body = make(spec)
            assert ratio_at(body, body.centroid, axis) == rho_bound(n)
            below = cumulative_volume(body, axis, dot(axis, body.centroid))
            apex_fraction = 1 - below / body.volume
            assert apex_fraction == delta_bound(n)
            count += 1
    assert count >= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 exceeded 1 min: {elapsed:.1f}"
    _report("criterion 2 (pyramid equality + apex fraction)", started,
            f"{count} pyramids")


def test_criterion_3_bound_certificate_fleet(fleet200):
    """200 random hulls: bound, support-ratio window, concavity; zero violations."""
    started = time.perf_counter()
    results = check_bound(fleet200, support_dirs=100)
    for r in results:
        assert r.failed == 0, f"{r.name}: {r.notes}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 3 exceeded 5 min: {elapsed:.1f}"
    _report("criterion 3 (200-body certificate fleet)", started,
            "; ".join(f"{r.name}: {r.passed}" for r in results))


def test_criterion_4_symmetry_baseline():
    """Cubes and cross-polytopes n = 2..5: rho = 1 within 1e-6, phi ∋ 1/2."""
    started = time.perf_counter()
    for kind in ("cube", "cross"):
        for n in (2, 3, 4, 5):
            body = make(BodySpec(kind=kind, n=n))
            report = rho_centroid(body, SearchConfig(random_directions=48,
                                                     multistart=1))
            assert abs(report.rho - 1.0) < 1e-6, f"{kind} n={n}: {report.rho}"
            est = phi_estimate(body, SearchConfig(random_directions=48, multistart=1),
                               directions="axes")
            assert est.lo <= 0.5 <= est.hi + 1e-12, f"{kind} n={n}: {est}"
    _report("criterion 4 (symmetric baseline n=2..5)", started)


def _lemma5_grid():
    for n in (1, 2, 3, 4, 5):
        for M in (F(1, 12), F(1, 6), F(1), F(5)):
            thr = feasibility_threshold(float(M), n)
            for m in (thr, thr / 2, 0.0, 1.0):
                yield MomentSpec(M=float(M), m=m, n=n)


def test_criterion_5_lemma5_closed_forms():
    """Closed forms across the grid; feasibility flips at the exact threshold."""
    started = time.perf_counter()
    checked = 0
    for spec in _lemma5_grid():
        lo = min_mu(spec)
        b_expected = (spec.M * spec.n * (spec.n + 1)) ** 0.5
        assert abs(lo.b - b_expected) <= 1e-10 * b_expected
        assert abs(lo.mu - lo.b / spec.n) <= 1e-10 * abs(lo.mu)
        assert abs(moment(lo.profile) - spec.M) <= 1e-10 * spec.M
        hi = max_mu(spec)
        assert abs(moment(hi.profile) - spec.M) <= 1e-10 * spec.M
        thr = feasibility_threshold(spec.M, spec.n)
        assert is_feasible(MomentSpec(spec.M, thr * (1 - 1e-6), spec.n))
        assert not is_feasible(MomentSpec(spec.M, thr * (1 + 1e-6), spec.n))
        checked += 1
    _report("criterion 5 (Lemma 5 closed forms)", started, f"{checked} specs")


def test_criterion_6_lemma5_oracle_bracketing():
    """10^4-trial oracle never beats the closed forms and lands within 2%."""
    started = time.perf_counter()
    worst = 0.0
    for spec in _lemma5_grid():
        spec_start = time.perf_counter()
        bf = brute_force_extremals(spec, grid_size=200, trials=10000, seed=42)
        lo, hi = min_mu(spec).mu, max_mu(spec).mu
        assert bf.mu_lo >= lo - 1e-9, f"{spec}: {bf.mu_lo} < {lo}"
        assert bf.mu_hi <= hi + 1e-9, f"{spec}: {bf.mu_hi} > {hi}"
        assert bf.mu_lo <= lo * 1.02, f"{spec}: oracle min not within 2%"
        assert bf.mu_hi >= hi * 0.98, f"{spec}: oracle max not within 2%"
        per_spec = time.perf_counter() - spec_start
        worst = max(worst, per_spec)
        assert per_spec < 120.0, f"{spec} exceeded 2 min: {per_spec:.1f}"
    _report("criterion 6 (Lemma 5 oracle bracketing)", started,
            f"worst spec {worst:.2f}s")


def test_criterion_7_claim4_certificate():
    """10^4 centered concave profiles per n stay below rho_n; affine attains it."""
    started = time.perf_counter()
    for n in (1, 2, 3, 4):
        rep = claim4_certificate(n, grid_size=64, trials=10000, seed=2024)
        assert rep.trials >= 10000
        assert rep.max_ratio <= rep.rho_n + 1e-9, f"n={n}: {rep.max_ratio}"
        assert abs(rep.affine_ratio - rep.rho_n) <= 1e-9, f"n={n}: {rep.affine_ratio}"
    _report("criterion 7 (claim4 profile certificate)", started)


def test_criterion_8_profile_body_cross_module():
    """Affine-profile bodies are exact pyramids along the axis and round-trip."""
    started = time.perf_counter()
    cases = {
        2: (("-2/3", "1/3"), ("0", "1")),
        3: (("-3/4", "1/4"), ("0", "1")),
        4: (("-1", "2/3"), ("0", "1")),
    }
    for n, profile_data in cases.items():
        body = make(BodySpec(kind="profile-body", n=n, profile=profile_data))
        axis = (0,) * (n - 1) + (1,)  # h(t0) = 0: the apex is on the -axis side
        assert ratio_at(body, body.centroid, axis) == rho_bound(n)
        report = rho_centroid(body, SearchConfig(random_directions=48,
                                                 multistart=1))
        assert report.equality_exact
        assert report.rho_exact == rho_bound(n)
        # exact section round-trip on a rational grid
        t0, t1 = F(profile_data[0][0]), F(profile_data[0][1])
        h0, h1 = F(profile_data[1][0]), F(profile_data[1][1])
        for k in range(9):
            t = t0 + F(k, 8) * (t1 - t0)
            h = h0 + (h1 - h0) * (t - t0) / (t1 - t0)
            assert section_value(body, axis, t) == h ** (n - 1)
    _report("criterion 8 (profile-body cross-module consistency)", started)


def test_criterion_9_floating_membership(fleet200):
    """Centroid membership at delta_n with 64 directions; delta-monotone depths."""
    started = time.perf_counter()
    results = check_floating(fleet200, n_dirs=64, seed=7)
    for r in results:
        assert r.failed == 0, f"{r.name}: {r.notes}"
    _report("criterion 9 (floating-body membership, N=64)", started,
            "; ".join(f"{r.name}: {r.passed}" for r in results))
