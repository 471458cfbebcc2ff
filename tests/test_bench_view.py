"""The benchmark's view of the package.

``bench/tracer.py`` wraps centroidcut's public functions where their callers
look them up and reads ``Polytope.triangulation``; ``bench/workloads.py``
calls them with the arguments a benchmark run passes.  Running the tracer's
``install_all`` and one op of every workload here makes a rename or a
signature change that the benchmark would only meet at run time fail in the
test suite.  The files are read, never imported, so nothing is written under
``bench/``.
"""
from __future__ import annotations

import types
from fractions import Fraction
from pathlib import Path

import pytest

import centroidcut

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_install_all_traces_and_uninstall_restores():
    bt = load("tracer")
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


@pytest.mark.parametrize("name", ("certify", "phi", "hulls", "profiles"))
def test_first_op_of_every_workload_runs(name):
    wl = load("workloads")
    inputs = wl.build(centroidcut, name, wl.recipe(centroidcut, name, 1))
    ops, close = wl.round_ops(centroidcut, name, inputs, 1)
    try:
        out = ops[0]()
    finally:
        if close:
            close()
    assert isinstance(out, dict)
    if name == "certify":
        assert out["concave"] is True
