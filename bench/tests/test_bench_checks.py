"""Each output check accepts the right answer and rejects a wrong one.

Run with `python3 -m pytest bench/tests`.
"""
from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
NUDGE = F(1, 10**6)


def test_witness_ratio_above_rho_n_fails():
    assert checks.witnesses_within_bound([F(5, 4), F(1)], 2)
    assert not checks.witnesses_within_bound([F(5, 4) + NUDGE], 2)


def test_split_ratio_against_qhull():
    # x = 1/4 splits the unit square 1/4 : 3/4
    assert checks.split_ratio_matches(SQUARE, (1, 0), (F(1, 4), F(1, 2)), F(3))
    assert not checks.split_ratio_matches(SQUARE, (1, 0), (F(1, 4), F(1, 2)), F(3) + NUDGE)


def test_support_ratio_window():
    assert checks.support_ratio_ok(F(1), F(2), 2)
    assert not checks.support_ratio_ok(F(1), F(3), 2)


def test_depths_must_decrease_with_delta():
    small = [((1, 0), F(3, 4), F(3, 4))]
    large = [((1, 0), F(1, 2), F(1, 2))]
    assert checks.depths_decrease(small, large)
    assert not checks.depths_decrease(large, small)
    assert not checks.depths_decrease(small, [((0, 1), F(1, 2), F(1, 2))])


def test_bracket_width_and_order():
    width_ok = ((1, 0), F(3, 4), F(3, 4) + F(1, 2**64))
    assert checks.bracket_narrow(width_ok, SQUARE)
    assert not checks.bracket_narrow(((1, 0), F(3, 4), F(3, 4) + F(1, 2**63)), SQUARE)
    assert not checks.bracket_narrow(((1, 0), F(3, 4), F(3, 4) - NUDGE), SQUARE)


def test_bracket_hi_below_true_depth_fails():
    # the cap {x >= 3/4} of the unit square holds exactly delta = 1/4
    assert checks.cap_volumes_bracket(SQUARE, ((1, 0), F(3, 4), F(3, 4)), F(1, 4))
    assert not checks.cap_volumes_bracket(SQUARE, ((1, 0), F(3, 4) - NUDGE, F(3, 4) - NUDGE),
                                          F(1, 4))
    assert not checks.cap_volumes_bracket(SQUARE, ((1, 0), F(3, 4) + NUDGE, F(3, 4) + NUDGE),
                                          F(1, 4))


def test_centroid_outside_one_cut_fails():
    centroid = (F(1, 2), F(1, 2))
    cuts = [((1, 0), F(1, 2), F(1, 2)), ((0, -1), F(-1, 4), F(-1, 4))]
    assert checks.centroid_in_cuts(cuts, centroid)
    assert not checks.centroid_in_cuts(cuts + [((1, 1), F(1) - NUDGE, F(1) - NUDGE)], centroid)


def test_phi_bracket_order():
    dn = checks.delta_n(2)  # 4/9
    assert checks.phi_bracket_ok(2, dn, F(1, 2), 0.4, 0.5)
    assert checks.phi_bracket_ok(2, F(1, 2), None, 0.4, 0.5)
    assert not checks.phi_bracket_ok(2, dn - NUDGE, F(1, 2), 0.4, 0.5)
    assert not checks.phi_bracket_ok(2, F(1, 2), F(1, 2), 0.4, 0.5)
    assert not checks.phi_bracket_ok(2, dn, F(1, 2), 0.5, 0.4)


def test_witness_outside_one_halfspace_fails():
    system = [((1, 0), F(1)), ((-1, 0), F(0)), ((0, 1), F(1)), ((0, -1), F(0))]
    assert checks.witness_feasible(system, (F(1), F(1, 2)))
    assert not checks.witness_feasible(system, (F(1) + NUDGE, F(1, 2)))


def test_empty_verdict_against_linprog():
    empty = [((1, 0), F(0)), ((-1, 0), F(-1)), ((0, 1), F(1)), ((0, -1), F(0))]
    square = [((1, 0), F(1)), ((-1, 0), F(0)), ((0, 1), F(1)), ((0, -1), F(0))]
    assert checks.empty_verdict_agrees(empty, 2)
    assert not checks.empty_verdict_agrees(square, 2)
    assert math.isclose(checks.max_slack(square, 2), 0.5)


def test_closed_forms():
    n, off = 5, (1, 0, -2, 0, 3)
    cube_centroid = [F(1, 2) + o for o in off]
    assert checks.closed_form_ok("cube", n, off, F(1), cube_centroid)
    assert not checks.closed_form_ok("cube", n, off, F(1) + NUDGE, cube_centroid)
    assert not checks.closed_form_ok("cube", n, off, F(1), [F(1, 2)] * n)
    assert checks.closed_form_ok("cross", 6, [0] * 6, F(64, 720), [F(0)] * 6)
    assert checks.closed_form_ok("simplex", 6, [0] * 6, F(1, 720), [F(1, 7)] * 6)
    assert not checks.closed_form_ok("simplex", 6, [0] * 6, F(1, 720) - NUDGE, [F(1, 7)] * 6)


def test_hull_against_qhull():
    points = SQUARE + [(F(1, 2), F(1, 2))]
    assert checks.hull_matches_qhull(points, SQUARE, F(1))
    assert not checks.hull_matches_qhull(points, SQUARE, F(1) + NUDGE)
    assert not checks.hull_matches_qhull(points, SQUARE[:3], F(1))
    assert not checks.hull_matches_qhull(points, points, F(1))


def test_pyramid_identities():
    assert checks.pyramid_identities_ok(3, F(37, 27), F(27, 64))
    assert not checks.pyramid_identities_ok(3, F(37, 27) + NUDGE, F(27, 64))
    assert not checks.pyramid_identities_ok(3, F(37, 27), F(27, 64) - NUDGE)


def test_min_mu_closed_form():
    b = math.sqrt(6.0)
    assert checks.min_mu_closed_form_ok(1.0, 2, b, b / 2)
    assert not checks.min_mu_closed_form_ok(1.0, 2, b * (1 + 1e-6), b / 2)
    assert not checks.min_mu_closed_form_ok(1.0, 2, b, b / 3)


def test_oracle_bracketing():
    assert checks.oracle_brackets_ok(1.0, 2.0, 1.01, 1.99)
    assert not checks.oracle_brackets_ok(1.0, 2.0, 0.99, 1.99)  # beats the minimum
    assert not checks.oracle_brackets_ok(1.0, 2.0, 1.03, 1.99)  # not within 2 %
    assert not checks.oracle_brackets_ok(1.0, 2.0, 1.01, 1.9)


def test_claim4_bound_and_affine():
    rn = float(checks.rho_n(3))
    assert checks.claim4_ok(3, rn - 0.1, rn)
    assert not checks.claim4_ok(3, rn + 1e-6, rn)
    assert not checks.claim4_ok(3, rn - 0.1, rn - 1e-6)


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.install("inner", [(mod, "inner")])
    tracer.install("outer", [(mod, "outer")])
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    calls, self_s, durations = tracer.span_stats()
    assert calls == {"inner": 2, "outer": 2}
    assert tracer.children_named("outer", "inner") == {0: 1, 2: 1}
    assert sum(durations["outer"]) >= self_s["outer"] >= 0.0
    tracer.uninstall()
    assert (mod.inner, mod.outer) == originals


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hulls", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "centroidcut sources not found" in proc.stderr
