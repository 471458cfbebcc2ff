"""The benchmark's view of the package.

``bench/tracer.py`` wraps centroidcut's public functions where their callers
look them up and reads ``Polytope.triangulation``.  Running its
``install_all`` here makes a rename that the benchmark would only meet at run
time fail in the test suite.  The file is read, never imported, so nothing is
written under ``bench/``.
"""
from __future__ import annotations

import types
from fractions import Fraction
from pathlib import Path

import centroidcut

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_install_all_traces_and_uninstall_restores():
    bt = load_tracer()
    tracer = bt.Tracer()
    try:
        bt.install_all(tracer, centroidcut)
        wrapped = list(tracer._undo)
        square = centroidcut.geometry.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        centroidcut.floating.floating_body_approx(square, Fraction(1, 4), directions="axes")
    finally:
        tracer.uninstall()
    assert tracer.notes["simplices"] == [2]
    assert tracer.notes["cut_snapped"] == [True] * 4
    assert wrapped and all(getattr(owner, attr) is original
                           for owner, attr, original in wrapped)
