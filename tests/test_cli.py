import json
import sys

import numpy as np
import pytest

from crnf.cli import main, parse_input
from crnf.parser import ParseError, parse_expression
from crnf.series import MixedSeries
from crnf.hypersurfaces import model_D


class TestParser:
    def test_sphere_term(self):
        f = parse_expression("z1*zb1", 8)
        assert (f - MixedSeries.monomial(1, 8, (1,), (1,), 0, 1.0)).norm() == 0.0

    def test_degenerate_model_expression(self):
        f = parse_expression("z1*zb1 + zb2*z2^2 + z2*zb2^2", 8)
        assert (f - model_D(2, 8, (0.0,)).phi).norm() < 1e-14

    def test_malformed_reports_column(self):
        with pytest.raises(ParseError) as e:
            parse_expression("z1*", 8)
        assert e.value.col == 4

    def test_complex_literals_and_parens(self):
        f = parse_expression("(2 + 3*i)*z1*zb1 - s^2", 8)
        assert f.coeff((1,), (1,), 0) == 2 + 3j
        assert f.coeff((0,), (0,), 2) == -1.0

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_expression("z1*zb3", 8, n=2)

    @pytest.mark.parametrize("text", ["1e400*z1*zb1", "1e200*1e200*z1*zb1"])
    def test_non_finite_number_rejected(self, text):
        with pytest.raises(ParseError, match="out of range"):
            parse_expression(text, 8)

    def test_large_power_by_squaring(self):
        f = parse_expression("(1+z1)^99999999*zb1", 8)
        assert f.coeff((1,), (1,), 0) == 99999999

    def test_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_expression("z1*zb1 +\n  @", 8)
        assert e.value.line == 2


class TestParseInput:
    def test_round_trip_json(self, tmp_path):
        M = model_D(2, 8, (1.0,))
        p = tmp_path / "m.json"
        p.write_text(json.dumps(M.phi.to_json_dict()))
        M2 = parse_input(str(p), 8)
        assert (M2.phi - M.phi).norm() == 0.0

    @pytest.mark.parametrize(
        "text", ['{"rho": 5}', '{"n": 1, "trunc": 4, "terms": [{"z": 1}]}']
    )
    def test_mistyped_json_rejected(self, text):
        from crnf.cli import InputError

        with pytest.raises(InputError):
            parse_input(text, 8)

    def test_non_real_rejected(self):
        from crnf.cli import InputError

        with pytest.raises(InputError):
            parse_input("z1*zb1 + i*z1^2*zb1^2", 8)


class TestCommands:
    def test_invariants_sphere(self, capsys):
        assert main(["invariants", "z1*zb1 + z2*zb2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k_nondeg"] == 1

    def test_invariants_psi_beyond_order_eight(self, capsys):
        argv = ["invariants", "z1*zb1*s", "--kmax", "9", "--trunc", "12", "--json"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["psi"]) == 9

    def test_partial_nf_case_and_lambda(self, capsys):
        code = main(["partial-nf", "z1*zb1 + zb2*z2^2 + z2*zb2^2", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "semidef_iii"
        assert out["lambda"] == [0.0]

    def test_normal_form_of_model_is_trivial(self, capsys):
        expr = "z1*zb1 + zb2*(z1^2 + z2^2) + z2*(zb1^2 + zb2^2)"
        assert main(["normal-form", expr, "--degree", "6", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["N"]["terms"] == []
        rows = out["diagnostics"]["per_degree"]
        assert [r["nu"] for r in rows] == [4, 5, 6]

    def test_equiv_mismatch(self, capsys):
        a = "z1*zb1 + z2*zb2"
        b = "z1*zb1 + zb2*(z1^2 + z2^2) + z2*(zb1^2 + zb2^2)"
        assert main(["equiv", a, b, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["invariants_match"] is False

    def test_takagi(self, capsys):
        assert main(["takagi", "[[0,1],[1,0]]", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["lambda"], [1.0, 1.0])
        assert out["residual"] < 1e-10

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ("[[0,1],[2,0]]", "not symmetric"),
            ("[[1,2,3],[2,1,0]]", "square"),
            ("[1,2]", "invalid matrix entries"),
            ("[[NaN,1],[1,0]]", "finite"),
            ("[[Infinity,1],[1,0]]", "finite"),
        ],
    )
    def test_takagi_bad_matrix_exit_code(self, capsys, matrix, message):
        assert main(["takagi", matrix]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert message in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["takagi", "[[1]]"], ["aut-bound", "2", "1"]])
    def test_trunc_is_not_a_flag_of_takagi_and_aut_bound(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trunc", "4"])
        assert exc.value.code == 2
        assert "--trunc" in capsys.readouterr().err

    def test_aut_bound(self, capsys):
        assert main(["aut-bound", "3", "1", "0.5", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["aut_dim_bound"] == 60

    def test_input_error_exit_code(self, capsys):
        assert main(["partial-nf", "z1*"]) == 2

    def test_non_finite_input_exit_code(self, capsys):
        assert main(["partial-nf", "1e400*z1*zb1"]) == 2
        assert main(["aut-bound", "2", "nan"]) == 2
        assert capsys.readouterr().out == ""

    def test_bad_normalization_file_exit_code(self, tmp_path, capsys):
        from crnf.full_nf import NormalizationP

        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps({"n": 2}))
        d = NormalizationP.identity(2).to_json_dict()
        d["d2"][0][0][0] = float("nan")
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps(d))
        expr = "z1*zb1 + zb2*z2^2 + z2*zb2^2"
        for path in (tmp_path / "missing.json", truncated, nan):
            assert main(["normal-form", expr, "--normalization", str(path)]) == 2
        assert "normalization" in capsys.readouterr().err

    def test_partial_nf_target_check_exit_code(self, monkeypatch, capsys):
        # the submodule, not the function of the same name on the package
        pnf = sys.modules["crnf.partial_nf"]
        cubic_coeffs = pnf.cubic_coeffs

        def perturbed(phi):
            k = cubic_coeffs(phi)
            k[:, :, -1] += 0.1
            return k

        monkeypatch.setattr(pnf, "cubic_coeffs", perturbed)
        assert main(["partial-nf", "z1*zb1 + zb2*z2^2 + z2*zb2^2"]) == 3
        assert "target form" in capsys.readouterr().err

    def test_overflowing_power_exit_code(self, capsys):
        assert main(["invariants", "2^99999999*z1*zb1"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--kmax", "-1"], "--kmax"),
            (["--tol", "nan"], "--tol"),
            (["--tol", "inf"], "--tol"),
            (["--tol", "0"], "--tol"),
            (["--tol=-1e-9"], "--tol"),
        ],
    )
    def test_bad_numeric_flag_exit_code(self, capsys, flags, name):
        assert main(["invariants", "z1*zb1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    def test_bad_tol_exit_code_on_every_command(self, capsys):
        assert main(["partial-nf", "z1*zb1", "--tol", "nan"]) == 2
        assert main(["aut-bound", "2", "1", "--tol", "inf"]) == 2
        assert capsys.readouterr().err.count("--tol") == 2

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["invariants", "z1*zb1", "--trunc", "1", "--json"], 2),
            (["partial-nf", "z1*zb1 + zb2*z2^2 + z2*zb2^2", "--trunc", "2"], 3),
            (["equiv", "z1*zb1", "z1*zb1", "--trunc", "3"], 4),
        ],
    )
    def test_truncation_below_minimum_exit_code(self, capsys, argv, low):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"truncation >= {low}" in captured.err

    def test_truncation_of_series_json_is_checked(self, capsys):
        series = json.dumps(model_D(2, 3, (1.0,)).phi.to_json_dict())
        assert main(["normal-form", series, "--degree", "4"]) == 2
        assert "truncation >= 4, got 3" in capsys.readouterr().err

    def test_bad_degree_exit_code(self, capsys):
        assert main(["normal-form", "z1*zb1", "--degree", "12"]) == 2

    def test_degree_is_checked_against_the_series_json(self, capsys):
        series = json.dumps(model_D(2, 10, (1.0,)).phi.to_json_dict())
        assert main(["normal-form", series, "--degree", "10", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["diagnostics"]["per_degree"]
        assert [r["nu"] for r in rows] == list(range(4, 11))
        assert main(["normal-form", series, "--degree", "11"]) == 2
        assert "[4, 10]" in capsys.readouterr().err

    def test_degree_defaults_to_the_truncation_of_the_input(self, capsys):
        series = json.dumps(model_D(2, 6, (1.0,)).phi.to_json_dict())
        assert main(["normal-form", series, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["diagnostics"]["per_degree"]
        assert [r["nu"] for r in rows] == [4, 5, 6]
        assert main(["equiv", series, series, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["normal_forms_match"] is True

    def test_deterministic_json(self, capsys):
        argv = ["partial-nf", "z1*zb1 + zb2*z2^2 + z2*zb2^2", "--json"]
        main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2
