from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import sympy

from centroidcut import (
    BadSpec,
    ConcaveProfile,
    Infeasible,
    MomentSpec,
    brute_force_extremals,
    claim4_certificate,
    is_feasible,
    max_mu,
    min_mu,
    moment,
    mu,
    support_ratio_extremes,
)
from centroidcut import profiles
from centroidcut.profiles import feasibility_threshold, profile_cut_ratio


def sympy_mass_and_moment(grid, values, n):
    """Independent oracle: symbolic per-segment integration of h^(n-1)."""
    t = sympy.Symbol("t")
    mass = sympy.Integer(0)
    mom = sympy.Integer(0)
    for (t0, h0), (t1, h1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        h = sympy.Rational(h0) + (sympy.Rational(h1) - sympy.Rational(h0)) * \
            (t - sympy.Rational(t0)) / (sympy.Rational(t1) - sympy.Rational(t0))
        f = h ** (n - 1)
        mass += sympy.integrate(f, (t, sympy.Rational(t0), sympy.Rational(t1)))
        mom += sympy.integrate(t * f, (t, sympy.Rational(t0), sympy.Rational(t1)))
    return float(mass), float(mom)


class TestMuMoment:
    def test_affine_n2(self):
        p = ConcaveProfile(grid=(0.0, 1.0), values=(1.0, 0.0), n=2)
        assert mu(p) == pytest.approx(0.5, abs=1e-14)
        assert moment(p) == pytest.approx(1 / 6, abs=1e-14)

    def test_flat_n1(self):
        p = ConcaveProfile(grid=(0.0, 1.0), values=(1.0, 1.0), n=1)
        assert mu(p) == pytest.approx(1.0, abs=1e-14)
        assert moment(p) == pytest.approx(0.5, abs=1e-14)

    def test_long_affine_n3(self):
        p = ConcaveProfile(grid=(0.0, 2.0), values=(1.0, 0.0), n=3)
        assert mu(p) == pytest.approx(2 / 3, abs=1e-13)
        assert moment(p) == pytest.approx(1 / 3, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_piecewise_against_sympy(self, n):
        grid = ("0", "1/4", "1/2", "5/4", "2")
        values = ("1", "9/8", "7/6", "3/4", "0")
        p = ConcaveProfile(grid=tuple(float(sympy.Rational(g)) for g in grid),
                           values=tuple(float(sympy.Rational(v)) for v in values),
                           n=n)
        mass_ref, mom_ref = sympy_mass_and_moment(
            [sympy.Rational(g) for g in grid], [sympy.Rational(v) for v in values], n)
        assert mu(p) == pytest.approx(mass_ref, rel=1e-12)
        assert moment(p) == pytest.approx(mom_ref, rel=1e-12)

    def test_validation(self):
        with pytest.raises(BadSpec):
            ConcaveProfile(grid=(0.0, 1.0), values=(2.0, 0.0), n=2)  # h(0) != 1
        with pytest.raises(BadSpec):
            ConcaveProfile(grid=(0.0, 1.0, 0.5), values=(1.0, 0.5, 0.2), n=2)
        with pytest.raises(BadSpec):
            ConcaveProfile(grid=(0.0, 0.5, 1.0), values=(1.0, 0.2, 0.1), n=2)  # convex kink


class TestFeasibility:
    def test_spec_examples(self):
        assert not is_feasible(MomentSpec(M=1.0, m=-1.0, n=1))
        assert is_feasible(MomentSpec(M=1 / 6, m=-1.0, n=2))  # boundary
        assert is_feasible(MomentSpec(M=1.0, m=0.0, n=3))

    def test_threshold_value(self):
        assert feasibility_threshold(1.0, 1) == pytest.approx(-1 / math.sqrt(2))
        assert feasibility_threshold(1 / 6, 2) == pytest.approx(-1.0)

    def test_frontier_flips(self):
        for n in (1, 2, 3, 4, 5):
            for M in (1 / 12, 1 / 6, 1.0, 5.0):
                thr = feasibility_threshold(M, n)
                assert is_feasible(MomentSpec(M=M, m=thr * (1 - 1e-6), n=n))
                assert not is_feasible(MomentSpec(M=M, m=thr * (1 + 1e-6), n=n))

    def test_bad_spec(self):
        with pytest.raises(BadSpec):
            MomentSpec(M=0.0, m=0.0, n=2)
        with pytest.raises(BadSpec):
            MomentSpec(M=-1.0, m=0.0, n=2)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            min_mu(MomentSpec(M=1.0, m=-1.0, n=1))
        with pytest.raises(Infeasible):
            max_mu(MomentSpec(M=1.0, m=-1.0, n=1))


class TestClosedForms:
    def test_min_mu_examples(self):
        r = min_mu(MomentSpec(M=1 / 6, m=0.0, n=2))
        assert r.b == pytest.approx(1.0, rel=1e-12)
        assert r.mu == pytest.approx(0.5, rel=1e-12)
        r = min_mu(MomentSpec(M=1.0, m=0.0, n=1))
        assert r.b == pytest.approx(math.sqrt(2), rel=1e-12)
        assert r.mu == pytest.approx(math.sqrt(2), rel=1e-12)
        r = min_mu(MomentSpec(M=1 / 12, m=0.0, n=3))
        assert r.b == pytest.approx(1.0, rel=1e-12)
        assert r.mu == pytest.approx(1 / 3, rel=1e-12)

    def test_max_mu_flat_cap(self):
        r = max_mu(MomentSpec(M=1 / 6, m=0.0, n=2))
        assert r.b == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        assert r.mu == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        assert r.mu > min_mu(MomentSpec(M=1 / 6, m=0.0, n=2)).mu

    def test_max_mu_boundary_coincides_with_min(self):
        r = max_mu(MomentSpec(M=1 / 6, m=-1.0, n=2))
        assert r.b == pytest.approx(1.0, rel=1e-12)
        assert r.mu == pytest.approx(0.5, rel=1e-12)

    def test_n1_degeneracy(self):
        for m in (-0.5, 0.0, 3.0):
            spec = MomentSpec(M=0.5, m=m, n=1)
            if not is_feasible(spec):
                continue
            assert max_mu(spec).mu == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("M", [1 / 12, 1 / 6, 1.0, 5.0])
    def test_profiles_meet_moment_target(self, n, M):
        thr = feasibility_threshold(M, n)
        for m in (thr, thr / 2, 0.0, 1.0):
            spec = MomentSpec(M=M, m=m, n=n)
            assert moment(min_mu(spec).profile) == pytest.approx(M, rel=1e-10)
            assert moment(max_mu(spec).profile) == pytest.approx(M, rel=1e-10)
            assert min_mu(spec).b == pytest.approx(
                math.sqrt(M * n * (n + 1)), rel=1e-10)
            assert min_mu(spec).mu == pytest.approx(min_mu(spec).b / n, rel=1e-10)

    def test_max_profile_respects_cap(self):
        spec = MomentSpec(M=2.0, m=-0.2, n=3)
        r = max_mu(spec)
        assert r.profile.initial_slope() <= spec.m + 1e-9
        assert r.b <= -1.0 / spec.m + 1e-12


class TestBruteForce:
    def test_spec_example_bracket(self):
        spec = MomentSpec(M=1 / 6, m=0.0, n=2)
        bf = brute_force_extremals(spec, grid_size=200, trials=10000, seed=0)
        assert 0.5 - 1e-9 <= bf.mu_lo <= 0.51
        assert 0.566 <= bf.mu_hi <= 1 / math.sqrt(3) + 1e-9

    def test_boundary_spec_collapses(self):
        thr = feasibility_threshold(1 / 6, 2)
        bf = brute_force_extremals(MomentSpec(M=1 / 6, m=thr, n=2),
                                   grid_size=100, trials=2000, seed=1)
        assert bf.mu_hi - bf.mu_lo <= 1e-6

    def test_n1_all_trials_equal(self):
        bf = brute_force_extremals(MomentSpec(M=0.5, m=1.0, n=1),
                                   grid_size=100, trials=1000, seed=2)
        assert bf.mu_lo == pytest.approx(1.0, rel=1e-9)
        assert bf.mu_hi == pytest.approx(1.0, rel=1e-9)

    def test_profiles_returned_are_valid(self):
        spec = MomentSpec(M=1.0, m=-0.25, n=3)
        bf = brute_force_extremals(spec, grid_size=80, trials=1500, seed=3)
        for prof in (bf.lo_profile, bf.hi_profile):
            assert moment(prof) == pytest.approx(spec.M, rel=1e-6)
            assert prof.initial_slope() <= spec.m + 1e-6 * max(1, abs(spec.m))

    def test_ordering_against_closed_forms(self):
        for n in (1, 2, 3):
            for M in (1 / 6, 1.0):
                thr = feasibility_threshold(M, n)
                for m in (thr, thr / 2, 0.0, 1.0):
                    spec = MomentSpec(M=M, m=m, n=n)
                    bf = brute_force_extremals(spec, grid_size=100, trials=1200,
                                               seed=5)
                    assert bf.mu_lo >= min_mu(spec).mu - 1e-9
                    assert bf.mu_hi <= max_mu(spec).mu + 1e-9


class TestSupportRatio:
    def test_n2_bound(self):
        b_lo, b_hi = support_ratio_extremes(1 / 6, 0.0, 2, trials=3000)
        assert b_hi / b_lo <= 2 + 1e-6
        assert b_hi == pytest.approx(1.0, rel=1e-9)           # affine-to-zero
        assert b_lo == pytest.approx(1 / math.sqrt(3), rel=1e-6)  # cap profile

    def test_boundary_unique_support(self):
        thr = feasibility_threshold(1 / 6, 2)
        b_lo, b_hi = support_ratio_extremes(1 / 6, thr, 2, trials=2000)
        assert b_lo == pytest.approx(math.sqrt(1 / 6 * 6), rel=1e-6)
        assert b_hi == pytest.approx(b_lo, rel=1e-6)

    def test_n1_equal(self):
        b_lo, b_hi = support_ratio_extremes(0.5, 1.0, 1, trials=1000)
        assert b_lo == pytest.approx(b_hi, rel=1e-9)

    def test_violation_raises(self, monkeypatch):
        real = profiles.brute_force_extremals

        def stretched(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, b_hi=3 * result.b_lo)

        monkeypatch.setattr(profiles, "brute_force_extremals", stretched)
        with pytest.raises(RuntimeError, match="support ratio bound violated"):
            profiles.support_ratio_extremes(1 / 6, 0.0, 2, trials=200)


class TestClaim4:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bound_and_affine(self, n):
        rep = claim4_certificate(n, grid_size=64, trials=3000, seed=9)
        assert rep.bound_ok
        assert rep.affine_ok
        assert rep.max_ratio <= rep.rho_n + 1e-9

    def test_symmetric_profile_ratio_one(self):
        grid = np.linspace(0.0, 1.0, 33)
        values = 1.0 - (2.0 * grid - 1.0) ** 2 * 0  # flat
        assert profile_cut_ratio(grid, 0.5 + 0 * grid + 0.5, 2) == pytest.approx(1.0)
        tent = np.minimum(grid, 1.0 - grid) + 0.25
        assert profile_cut_ratio(grid, tent, 3) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 65)
        slopes = -np.sort(-rng.uniform(-1.5, 1.0, 64))
        values = 1.0 + np.concatenate([[0.0], np.cumsum(slopes / 64)])
        values = np.maximum(values, 0.0)
        base = profile_cut_ratio(grid, values, 3)
        for alpha, beta in [(2.0, 1.0), (0.3, 4.0), (7.5, 0.25)]:
            scaled = profile_cut_ratio(beta * grid, alpha * values, 3)
            assert scaled == pytest.approx(base, rel=1e-12)
