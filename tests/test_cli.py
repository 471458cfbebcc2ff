from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import centroidcut
from centroidcut.asymmetry import SearchConfig
from centroidcut.cli import build_parser, main
from centroidcut.geometry import MAX_DIM_ENV, Polytope

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRho:
    def test_simplex_n3(self, capsys):
        code, out = run_cli(capsys, "rho", "--body", "simplex", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["rho"] == pytest.approx(37 / 27, abs=1e-9)
        assert data["rho_n"] == "37/27"
        assert data["gap"] == pytest.approx(0.0, abs=1e-9)
        assert data["equality_exact"] is True

    def test_cube_n4(self, capsys):
        code, out = run_cli(capsys, "rho", "--body", "cube", "--n", "4")
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(1.0, abs=1e-6)

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("definitely not json")
        code, _ = run_cli(capsys, "rho", "--input", str(bad))
        assert code == 1

    def test_degenerate_exit_2(self, capsys, tmp_path):
        deg = tmp_path / "deg.json"
        deg.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}))
        code, _ = run_cli(capsys, "rho", "--input", str(deg))
        assert code == 2

    @pytest.mark.parametrize("command", ("rho", "rho-min"))
    def test_coordinates_near_float_max(self, capsys, tmp_path, command):
        """The float searches scale the body and every direction by powers of
        two, so a vertex at 1e308 overflows neither a projection, a norm nor
        the conversion of a direction with 1,025-bit components, and no
        floating-point warning reaches stderr."""
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dim": 2, "vertices": [[1e308, 0], [1, 0], [0, 1]]}))
        code = main([command, "--input", str(big)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        report = json.loads(out)
        report = report.get("report", report)
        assert report["rho"] == 1.25 and report["equality_exact"] is True

    def test_unknown_flag_exit_1(self, capsys):
        code, _ = run_cli(capsys, "rho", "--nonsense")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("rho", "--body", "cube", "--n", "2", "--format", "csv"),
        ("verify", "--tol", "1e-3"),
    ])
    def test_flag_not_read_by_command_exit_1(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out == ""

    def test_nonpositive_tolerance_exit_1(self, capsys):
        code, _ = run_cli(capsys, "rho", "--body", "simplex", "--n", "2",
                          "--tol", "0")
        assert code == 1

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "rho", "--body", "random", "--n", "3", "--seed", "9")
        _, out2 = run_cli(capsys, "rho", "--body", "random", "--n", "3", "--seed", "9")
        assert out1 == out2


class TestFloatbody:
    def test_square_axes(self, capsys):
        code, out = run_cli(capsys, "floatbody", "--body", "square",
                            "--delta", "1/4", "--dirs", "axes")
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == "1/4"
        depths = {tuple(h["theta"]): h["t_hi"] for h in data["halfspaces"]}
        assert depths[(1, 0)] == "3/4"
        assert depths[(0, -1)] == "-1/4"
        assert data["nonempty"] is True
        assert data["witness"] == ["1/2", "1/2"]

    def test_unknown_dirs_exit_1(self, capsys):
        code, out = run_cli(capsys, "floatbody", "--body", "square",
                            "--delta", "1/4", "--dirs", "bogus")
        assert code == 1
        assert out == ""

    def test_bad_delta_exit_1(self, capsys):
        code, _ = run_cli(capsys, "floatbody", "--body", "square", "--delta", "3/4")
        assert code == 1

    def test_svg_output(self, capsys):
        code, out = run_cli(capsys, "floatbody", "--body", "square",
                            "--delta", "1/4", "--dirs", "axes", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "floatbody", "--body", "square",
                            "--delta", "1/4", "--dirs", "axes", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "theta,t_lo,t_hi"


class TestLemma5:
    def test_closed_forms(self, capsys):
        code, out = run_cli(capsys, "lemma5", "--M", "1/6", "--m", "0", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True
        assert data["mu_min"] == pytest.approx(0.5, rel=1e-9)
        assert data["mu_max"] == pytest.approx(0.57735026918962576, rel=1e-9)

    def test_infeasible_spec(self, capsys):
        code, out = run_cli(capsys, "lemma5", "--M", "1", "--m", "-1", "--n", "1")
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_svg(self, capsys):
        code, out = run_cli(capsys, "lemma5", "--M", "1/6", "--m", "0", "--n", "2",
                            "--format", "svg")
        assert code == 0
        assert out.startswith("<svg ")


class TestGen:
    def test_pyramid_json(self, capsys, tmp_path):
        out_file = tmp_path / "pyr.json"
        code, _ = run_cli(capsys, "gen", "--kind", "pyramid", "--n", "3",
                          "--out", str(out_file))
        assert code == 0
        poly = Polytope.from_dict(json.loads(out_file.read_text()))
        assert poly.volume == F(1, 3)

    def test_roundtrip_through_rho(self, capsys, tmp_path):
        out_file = tmp_path / "body.json"
        run_cli(capsys, "gen", "--body", "random", "--n", "2", "--seed", "4",
                "--out", str(out_file))
        code, out = run_cli(capsys, "rho", "--input", str(out_file))
        assert code == 0
        assert json.loads(out)["rho"] >= 1.0

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "gen", "--body", "random", "--n", "3", "--seed", "11")
        _, out2 = run_cli(capsys, "gen", "--body", "random", "--n", "3", "--seed", "11")
        assert out1 == out2


class TestPhi:
    def test_square(self, capsys):
        code, out = run_cli(capsys, "phi", "--body", "square")
        assert code == 0
        data = json.loads(out)
        assert data["lo"] <= 0.5 <= data["hi"] + 1e-12


class TestOneBody:
    """Every search finishes on a 1-body, where R^1 has only two directions."""

    @pytest.mark.parametrize("argv", [
        ("rho",),
        ("rho-min",),
        ("phi",),
        ("floatbody", "--delta", "1/4", "--budget", "16"),
    ])
    def test_exit_0(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--body", "cube", "--n", "1")
        assert code == 0
        assert json.loads(out)


class TestVerify:
    def test_small_fleet_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "bound,pyramids",
                            "--bodies", "6", "--dims", "2,3",
                            "--support-dirs", "10")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("OK")

    def test_lemma5_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "lemma5", "--trials", "800")
        assert code == 0
        assert "OK" in out

    def test_unknown_suite_exit_1(self, capsys):
        code, _ = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 1


class TestInputErrors:
    """Bad input exits 1 with "error:" on stderr and nothing on stdout; a
    ValueError from inside a command is a fault and is not caught."""

    @pytest.mark.parametrize("argv", [
        ("floatbody", "--body", "square", "--delta", "abc"),
        ("floatbody", "--body", "square", "--delta", "1/0"),
        ("gen", "--kind", "pyramid", "--height", "abc"),
        ("gen", "--kind", "profile-body", "--n", "2", "--profile", '[["0","x"],["1","1"]]'),
        ("verify", "--dims", "2,x"),
        ("verify", "--suite", "floatbody", "--bodies", "1", "--dims", "2", "--budget", "2"),
        ("rho", "--body", "cube", "--n", "7"),
        ("gen", "--kind", "profile-body", "--n", "2", "--profile", "[[null,1],[1,1]]"),
        ("floatbody", "--body", "square", "--delta", "1/4", "--budget", "2"),
        ("floatbody", "--body", "square", "--delta", "1/4", "--dirs", "axes", "--budget", "8"),
        ("floatbody", "--body", "square", "--delta", "1/4", "--dirs", "facets", "--budget", "8"),
        # counts below 1, rejected where they are first used
        ("verify", "--suite", "bound", "--bodies", "1", "--dims", "2", "--support-dirs", "-1"),
        ("verify", "--suite", "bound", "--bodies", "-2"),
        ("verify", "--suite", "lemma5", "--trials", "-1"),
        ("verify", "--suite", "claim4", "--trials", "-1"),
        ("lemma5", "--M", "1", "--m", "0", "--n", "2", "--grid", "0", "--trials", "10"),
        ("lemma5", "--M", "1", "--m", "0", "--n", "2", "--grid", "-3", "--trials", "10"),
        # a Nelder-Mead tolerance must be finite and positive
        ("rho", "--body", "square", "--tol", "nan"),
        ("rho-min", "--body", "square", "--tol", "inf"),
        ("phi", "--body", "square", "--tol=-inf"),
        # non-finite JSON numbers in a profile
        ("gen", "--kind", "profile-body", "--n", "2", "--profile", "[[0,1],[1,Infinity]]"),
        ("gen", "--kind", "profile-body", "--n", "2", "--profile", "[[0,1],[1,NaN]]"),
        # a pyramids suite with no dimension >= 2 would check nothing
        ("verify", "--suite", "pyramids", "--dims", "1"),
        # a random-hull base of an n-pyramid needs n points
        ("gen", "--kind", "pyramid", "--n", "3", "--base", "random-hull", "--m", "2"),
        # a body spec's n, m and seed are JSON integers, not floats or bools
        # (a dict stands for a spec file holding it)
        ("gen", "--input", {"kind": "cube", "n": 2.7}),
        ("gen", "--input", {"kind": "cube", "n": True}),
        ("gen", "--input", {"kind": "random-hull", "n": 2, "m": 5.0}),
        ("rho", "--input", {"kind": "random-hull", "n": 2, "seed": False}),
        # a moment target or slope cap beyond float range, or nonzero below it
        ("lemma5", "--M", "1e400", "--m", "0", "--n", "2"),
        ("lemma5", "--M", "1", "--m", "1e400", "--n", "2"),
        ("lemma5", "--M", "1", "--m", "1e-400", "--n", "2"),
        ("lemma5", "--M", "1e-400", "--m", "0", "--n", "2"),
    ])
    def test_exit_1(self, capsys, tmp_path, argv):
        spec = tmp_path / "spec.json"
        for arg in argv:
            if isinstance(arg, dict):
                spec.write_text(json.dumps(arg))
        argv = [str(spec) if isinstance(arg, dict) else arg for arg in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("M, m", [("1e400", "0"), ("1", "-1e400"),
                                      ("1", "1e-400"), ("1", "-1e-400"), ("1e-400", "0")])
    def test_lemma5_float_range_message(self, capsys, M, m):
        assert main(["lemma5", f"--M={M}", f"--m={m}", "--n", "2"]) == 1
        assert "--M and --m must lie in float range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "bound", "--support-dirs", "0"),
        ("verify", "--suite", "floatbody", "--budget", "7"),
        ("verify", "--suite", "all", "--trials", "0"),
    ])
    def test_bad_count_fails_before_the_fleet_is_built(self, capsys, monkeypatch, argv):
        import centroidcut.verify as verify

        def no_fleet(*args, **kwargs):
            raise AssertionError("fleet built before the counts were checked")

        monkeypatch.setattr(verify, "fleet_bodies", no_fleet)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("data", [
        {"kind": "cube", "n": math.inf},
        {"kind": "cube", "n": 2, "seed": -math.inf},
    ])
    def test_non_finite_spec_exit_1(self, capsys, tmp_path, data):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(data))
        code = main(["gen", "--input", str(spec)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command, data", [
        ("rho", {"dim": 2, "vertices": [[0, 0], [1, 0], [0, math.inf]]}),
        ("rho", {"dim": 2, "vertices": [[0, 0], [1, 0], [0, math.nan]]}),
        ("gen", {"dim": math.inf, "vertices": [[0, 0], [1, 0], [0, 1]]}),
        ("gen", {"dim": 2, "vertices": [[True, 0], [2, 0], [0, 1]]}),
        ("rho", {"dim": 0, "vertices": [[]]}),
        ("gen", {"dim": 1.5, "vertices": [[0], [1]]}),
        ("gen", {"dim": True, "vertices": [[0], [1]]}),
    ])
    def test_non_finite_polytope_exit_2(self, capsys, tmp_path, command, data):
        poly = tmp_path / "f.json"
        poly.write_text(json.dumps(data))
        code = main([command, "--input", str(poly)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "malformed polytope data" in captured.err

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        import centroidcut.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "rho_centroid", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["rho", "--body", "square"])
        assert capsys.readouterr().out == ""


_COMMON = [("--seed", 0), ("--out", None)]
_BODY = [("--body", None), ("--n", 3), ("--m", 10), ("--height", "1"), ("--base", "cube"),
         ("--profile", None), ("--input", None)]
_SEARCH = _COMMON + _BODY + [("--tol", 1e-9)]


class TestOptionSurface:
    """Pins every flag and its default: adding or changing one updates these
    tables in the same change."""

    OPTIONS = {
        "rho": _SEARCH,
        "rho-min": _SEARCH,
        "phi": _SEARCH,
        "floatbody": _COMMON + _BODY + [("--format", "json"), ("--delta", None),
                                        ("--dirs", "auto"), ("--budget", None)],
        "lemma5": _COMMON + [("--format", "json"), ("--M", None), ("--m", None),
                             ("--n", None), ("--grid", 200), ("--trials", 0)],
        "verify": _COMMON + [("--suite", "all"), ("--bodies", 200), ("--dims", "2,3,4"),
                             ("--budget", 16), ("--trials", 2000), ("--support-dirs", 20)],
        "gen": _COMMON + _BODY + [("--kind", None)],
    }

    def test_subcommand_options_and_defaults(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: [(opt, a.default) for a in p._actions
                      if not isinstance(a, argparse._HelpAction) for opt in a.option_strings]
               for name, p in sub.choices.items()}
        assert got == self.OPTIONS

    def test_search_config_fields(self):
        fields = {f.name: f.default for f in dataclasses.fields(SearchConfig)}
        assert fields == {"seed": 0, "random_directions": 256, "multistart": 3,
                          "nm_maxiter": 160, "tol": 1e-9}

    def test_public_names(self):
        assert centroidcut.__all__ == [
            "AsymmetryReport", "BadDelta", "BadSpec", "BadValue", "BodySpec",
            "CentroidCutError", "ConcaveProfile", "CumulativeEvaluator", "DegenerateInput",
            "Facet", "FloatingBodyApprox", "Infeasible", "Location", "MomentSpec",
            "Polytope", "RefNotInterior", "SearchConfig", "SectionProfile", "affine_image",
            "as_fraction", "as_point", "brute_force_extremals", "claim4_certificate",
            "convex_hull", "cumulative_volume", "cut_depth", "delta_bound",
            "floating_body_approx", "is_feasible", "is_nonempty", "make", "max_dim",
            "max_mu", "min_mu", "moment", "mu", "phi_estimate", "profile", "random_hull",
            "ratio_at", "rho_at_point", "rho_bound", "rho_centroid", "rho_min",
            "section_moment", "section_value", "support_interval",
        ]
        assert all(hasattr(centroidcut, name) for name in centroidcut.__all__)

    def test_one_environment_variable(self):
        assert MAX_DIM_ENV == "CENTROIDCUT_MAXDIM"
        reads = [f.name for f in sorted(Path(centroidcut.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(f.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
        assert reads == ["geometry.py"]
