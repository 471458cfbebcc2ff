from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

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
)
from centroidcut import profiles
from centroidcut.profiles import feasibility_threshold, profile_cut_ratio
from oracles import segment_quad_one_pass


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


def initial_slope(prof: ConcaveProfile) -> float:
    return (prof.values[1] - prof.values[0]) / (prof.grid[1] - prof.grid[0])


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

    @pytest.mark.parametrize("M, m, n", [
        (math.inf, 0.0, 2), (math.nan, 0.0, 2), (1.0, math.inf, 2), (1.0, -math.inf, 2),
        (1.0, math.nan, 2), (1.0, 0.0, 2.5), (1.0, 0.0, 2.0), (1.0, 0.0, True),
        (1.0, 0.0, np.int64(2)), (1.0, 0.0, 0)])
    def test_non_finite_or_non_integer_spec(self, M, m, n):
        with pytest.raises(BadSpec):
            MomentSpec(M=M, m=m, n=n)

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
        assert initial_slope(r.profile) <= spec.m + 1e-9
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
            assert initial_slope(prof) <= spec.m + 1e-6 * max(1, abs(spec.m))
            assert all(type(x) is float for x in prof.grid + prof.values)

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


def support_ratio_extremes(M: float, m: float, n: int, trials: int) -> tuple[float, float]:
    """Extreme support lengths over constrained profiles; their ratio is <= n.

    Calls the oracle through the module, so a test can patch it."""
    result = profiles.brute_force_extremals(MomentSpec(M=M, m=m, n=n), grid_size=200,
                                            trials=trials, seed=0)
    if result.b_hi / result.b_lo > n + 1e-6:
        raise RuntimeError(f"support ratio bound violated: {result.b_hi / result.b_lo} > {n}")
    return result.b_lo, result.b_hi


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
            support_ratio_extremes(1 / 6, 0.0, 2, trials=200)


class TestClaim4:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bound_and_affine(self, n):
        rep = claim4_certificate(n, grid_size=64, trials=3000, seed=9)
        assert rep.bound_ok
        assert rep.affine_ok
        assert rep.max_ratio <= rep.rho_n + 1e-9

    def test_report_pinned_bitwise(self):
        rep = claim4_certificate(3, grid_size=64, trials=2000, seed=1)
        assert rep.trials == 2746
        assert rep.max_ratio.hex() == "0x1.5d8092ca784bfp+0"
        assert rep.affine_ratio.hex() == "0x1.5ed097b425eddp+0"

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_rejects_bad_exponent(self, n):
        with pytest.raises(BadSpec, match="exponent n must be a positive integer"):
            claim4_certificate(n, grid_size=64, trials=100, seed=1)
        with pytest.raises(BadSpec, match="exponent n must be a positive integer"):
            profile_cut_ratio([0.0, 1.0], [0.0, 1.0], n)

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


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes numpy and Python allocated during it."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


class TestSegmentQuadBits:
    """The library's pass gives every float of the one-pass reference, for
    every batch shape its callers use and around the edges of its blocks."""

    def _check(self, t0, t1, h0, h1, n):
        got = profiles._segment_quad(t0, t1, h0, h1, n)
        want = segment_quad_one_pass(t0, t1, h0, h1, n)
        assert [_bits(q) for q in got] == [_bits(q) for q in want]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cols", [1, 64, 200])
    def test_row_counts_around_the_block(self, n, cols):
        rng = np.random.default_rng(100 * n + cols)
        block = max(1, profiles.QUAD_BLOCK // cols)
        grid = np.linspace(0.0, 1.0, cols + 1)
        for rows in sorted({1, max(block - 1, 1), block, block + 1, 3 * block + 7}):
            h = rng.uniform(-0.5, 2.0, size=(rows, cols + 1))
            # grid as one row (_evaluate_shapes) and as a 1-D array (_recentred_split)
            self._check(grid[:-1][None, :], grid[1:][None, :], h[:, :-1], h[:, 1:], n)
            self._check(grid[:-1], grid[1:], h[:, :-1], h[:, 1:], n)
            # every input a full batch
            t = np.sort(rng.uniform(-1.0, 3.0, size=(rows, cols + 1)), axis=1)
            self._check(t[:, :-1], t[:, 1:], h[:, :-1], h[:, 1:], n)

    def test_peak_memory_of_a_claim4_batch(self):
        """Row blocks keep the pass's peak at the two outputs plus small
        buffers; a pass over whole-batch temporaries peaks at about six."""
        rows, cols = 15000, 64
        grid = np.linspace(0.0, 1.0, cols + 1)
        h = np.random.default_rng(7).uniform(0.0, 2.0, size=(rows, cols + 1))
        _, peak = _traced_peak(profiles._segment_quad, grid[:-1], grid[1:], h[:, :-1],
                               h[:, 1:], 3)
        assert peak <= 2.5 * rows * cols * 8

    def test_peak_memory_of_a_shape_batch(self):
        """Each round of shapes is one array, filtered once; copying every
        family and round peaked at about 4.8 batch arrays."""
        batch, peak = _traced_peak(profiles._shape_batch, 64, 10000, 123)
        assert peak <= 3.25 * batch.nbytes

    def test_peak_memory_of_a_recentred_split(self):
        """The right-hand masses are summed in place over the segment masses;
        a reversed sum and its padded copy peaked at about 4.2 batch arrays."""
        batch = profiles._shape_batch(64, 10000, 123)
        _, peak = _traced_peak(profiles._recentred_split, np.linspace(0.0, 1.0, 65), batch, 3)
        assert peak <= 2.6 * batch.nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_dimensional_and_scalar(self, n):
        rng = np.random.default_rng(n)
        t = np.sort(rng.uniform(0.0, 2.0, size=301))
        h = rng.uniform(0.0, 2.0, size=301)
        self._check(t[:-1], t[1:], h[:-1], h[1:], n)
        self._check(0.0, 1.75, 1.0, 1.0 - 0.5 * 1.75, n)
        self._check(t[:-1], 2.5, h[:-1], 0.25, n)


# sha256 (first 16 hex digits) of the floats in hex of mu_lo, mu_hi, b_lo,
# b_hi, kept, and the grid and values of both returned profiles, per (n, M)
# and per slope cap m in (threshold, threshold/2, 0, 1)
BRUTE_FORCE_PINS = {
    (1, "1/6"): ("cbb19e88126153ad", "4c314f33f5ee9771", "e0db92f0e94204f4", "a5182fc44df832db"),
    (1, "1"): ("8d8ee8bd0b16a857", "98bc360743a54413", "0bb4e886c325f68a", "2c9057f91add0ab9"),
    (2, "1/6"): ("5d33010b32efe884", "345af82660e240d8", "47b8f62ec529e35f", "313596928aa3fc70"),
    (2, "1"): ("10b7a5a74a371750", "754850e93ba75928", "b78b1cb442099cec", "91c1baa9c4d433f3"),
    (3, "1/6"): ("b0d2543f009ba434", "db1d0d135e216df2", "84e935ceb347d09e", "bf63c2e2a1429c3c"),
    (3, "1"): ("d0292a06df5b9b5f", "bf6c45f9f1f810a8", "c064a796105c80b8", "aa4447d85265471e"),
    (4, "1/6"): ("7fe36f4ba9464076", "07dc61908cf97bcf", "56105064c16323da", "00e859ba88751b90"),
    (4, "1"): ("42536daa1993135a", "38e0feb9b5f691b2", "610773082a97ce12", "045b606c82d32c04"),
    (5, "1/6"): ("1c880f2672ca04cb", "f6e7a3e4116024a4", "0c7c3529ab67fb03", "0a09fb0e2cc8e35f"),
    (5, "1"): ("b183d5a16a604a93", "675eb013fb411565", "78af5f62f369ed7c", "56d7c439578772a2"),
}


@pytest.mark.parametrize("n, M", sorted(BRUTE_FORCE_PINS))
def test_brute_force_extremals_pinned_bitwise(n, M):
    """The Lemma-5 grid of the oracle, at 1000 trials on a 200-cell grid."""
    M_float = {"1/6": 1 / 6, "1": 1.0}[M]
    thr = feasibility_threshold(M_float, n)
    digests = []
    for m in (thr, thr / 2, 0.0, 1.0):
        bf = brute_force_extremals(MomentSpec(M=M_float, m=m, n=n), grid_size=200,
                                   trials=1000, seed=5)
        parts = [bf.mu_lo.hex(), bf.mu_hi.hex(), bf.b_lo.hex(), bf.b_hi.hex(), str(bf.kept)]
        for prof in (bf.lo_profile, bf.hi_profile):
            parts += [float(x).hex() for x in prof.grid + prof.values]
        digests.append(hashlib.sha256("|".join(parts).encode()).hexdigest()[:16])
    assert tuple(digests) == BRUTE_FORCE_PINS[n, M]
