from __future__ import annotations

import json
from fractions import Fraction

import pytest

from centroidcut.cli import main
from centroidcut.geometry import Polytope

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
        poly = Polytope.from_json(out_file.read_text())
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
