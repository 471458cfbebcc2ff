"""Byte-for-byte CLI goldens: refactors must leave stdout unchanged.

Each command runs in-process through ``cli.main``; its stdout is compared
with the file of the same name under ``tests/golden``.  To regenerate
goldens (only when an output change is intended), name them:

    PYTHONPATH=src python tests/test_golden.py floatbody_random_n3.json ...

With no name every golden is rewritten; an unknown name exits nonzero
before anything is written.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from centroidcut.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "rho_cube_n3.json": ["rho", "--body", "cube", "--n", "3"],
    "rho_min_simplex_n2.json": ["rho-min", "--body", "simplex", "--n", "2"],
    # a point off the centroid wins, so the closing reports score a new point
    "rho_min_random_n3.json": ["rho-min", "--body", "random", "--n", "3", "--seed", "0"],
    "phi_square.json": ["phi", "--body", "square"],
    "phi_simplex_n3.json": ["phi", "--body", "simplex", "--n", "3"],
    "phi_random_n3.json": ["phi", "--body", "random", "--n", "3", "--seed", "0"],
    "floatbody_square_axes.json": ["floatbody", "--body", "square", "--delta", "1/4",
                                   "--dirs", "axes"],
    "floatbody_square_axes.csv": ["floatbody", "--body", "square", "--delta", "1/4",
                                  "--dirs", "axes", "--format", "csv"],
    "floatbody_square_axes.svg": ["floatbody", "--body", "square", "--delta", "1/4",
                                  "--dirs", "axes", "--format", "svg"],
    "floatbody_random_n3.json": ["floatbody", "--body", "random", "--n", "3", "--m", "8",
                                 "--delta", "1/4", "--budget", "16"],
    # the one golden whose witness comes from the simplex, not the centroid
    "floatbody_random_n2_simplex.json": ["floatbody", "--body", "random", "--n", "2",
                                         "--seed", "0", "--delta", "8117/18000"],
    "lemma5_n2.json": ["lemma5", "--M", "1/6", "--m", "0", "--n", "2", "--trials", "200"],
    # max_mu's bisection below a negative slope cap (a negative --m needs "=")
    "lemma5_mneg_n3.json": ["lemma5", "--M", "1/6", "--m=-1/4", "--n", "3", "--trials", "200"],
    # max_mu's doubling, then bisection, above a positive slope cap
    "lemma5_mpos_n4.json": ["lemma5", "--M", "1", "--m", "1", "--n", "4", "--trials", "200"],
    # the first round keeps fewer shapes than asked for, so the batch takes two
    "lemma5_grid1_seed11.json": ["lemma5", "--M", "1", "--m", "0", "--n", "2", "--grid", "1",
                                 "--trials", "1000", "--seed", "11"],
    "lemma5_n2.csv": ["lemma5", "--M", "1/6", "--m", "0", "--n", "2", "--trials", "200",
                      "--format", "csv"],
    "lemma5_n2.svg": ["lemma5", "--M", "1/6", "--m", "0", "--n", "2", "--trials", "200",
                      "--format", "svg"],
    "gen_pyramid_n3.json": ["gen", "--kind", "pyramid", "--n", "3"],
    "verify_pyramids_claim4.txt": ["verify", "--suite", "pyramids,claim4",
                                   "--trials", "500"],
    "verify_bound.txt": ["verify", "--suite", "bound", "--bodies", "6",
                         "--support-dirs", "10"],
    "verify_lemma5.txt": ["verify", "--suite", "lemma5", "--trials", "200"],
    "verify_floatbody.txt": ["verify", "--suite", "floatbody", "--bodies", "6"],
}


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        sys.exit(f"unknown golden(s): {' '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        code, out = run(COMMANDS[name])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN_DIR / name).write_text(out)
