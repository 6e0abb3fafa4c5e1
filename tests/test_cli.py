import json
import math

import numpy as np
import pytest

from circlequad.cli import build_parser, parse_angle, parse_unimodular, run
from circlequad.errors import InvalidParameterError


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestParsing:
    def test_parse_angle(self):
        assert parse_angle("1.5") == 1.5
        assert parse_angle("pi:3/4") == pytest.approx(0.75 * math.pi, abs=1e-15)
        assert parse_angle("pi:-1/2") == pytest.approx(-0.5 * math.pi, abs=1e-15)
        assert parse_angle("pi:0.9") == pytest.approx(0.9 * math.pi, abs=1e-15)

    def test_parse_unimodular(self):
        z = parse_unimodular("0.6,0.8")
        assert abs(z - complex(0.6, 0.8)) < 1e-12
        z = parse_unimodular("pi:1/2")
        assert abs(z - 1j) < 1e-15
        with pytest.raises(InvalidParameterError):
            parse_unimodular("0.6,0.7")

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["rule", "--measure", "lebesgue", "--n", "4", "--tau", "pi:0"]
        )
        assert args.command == "rule" and args.n == 4


class TestRuleCommand:
    def test_lebesgue_quarters(self, capsys):
        code, data = run_json(
            capsys,
            ["rule", "--measure", "lebesgue", "--n", "4", "--ell", "0",
             "--tau", "pi:0"],
        )
        assert code == 0
        assert np.allclose(data["weights"], 0.25)
        assert data["residuals"]["passes"]
        assert data["tau"] == [1.0, 0.0]

    def test_out_file_and_csv(self, capsys, tmp_path):
        out = tmp_path / "rule.json"
        code = run(
            ["rule", "--measure", "lebesgue", "--n", "4", "--tau", "pi:0",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["nodes"]) == 4
        csv_out = tmp_path / "rule.csv"
        code = run(
            ["rule", "--measure", "lebesgue", "--n", "4", "--tau", "pi:0",
             "--format", "csv", "--out", str(csv_out)]
        )
        assert code == 0
        assert csv_out.read_text().startswith("theta,weight")

    def test_prescribed_radau(self, capsys):
        code, data = run_json(
            capsys,
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "6",
             "--prescribe", "pi:1/3"],
        )
        assert code == 0
        target = (math.pi / 3) % (2 * math.pi)
        assert min(abs(n["theta"] - target) for n in data["nodes"]) < 1e-10

    def test_inadmissible_exit_2(self, capsys):
        code, data = run_json(
            capsys,
            ["rule", "--measure", "lebesgue", "--n", "4", "--ell", "1",
             "--prescribe", "0", "pi:1/2", "--tau", "0"],
        )
        assert code == 2
        assert data["condition"] == "inadmissible"
        assert "eta" in data["diagnostics"]

    def test_inadmissible_three_nodes_exit_2(self, capsys):
        # the alpha and f triples have opposite orientations: |eta| > 1
        code, data = run_json(
            capsys,
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "7", "--ell", "1",
             "--prescribe", "0.5381495885689892", "1.4879242956303682",
             "5.034555946803014"],
        )
        assert code == 2
        assert data["condition"] == "inadmissible"
        assert "eta" in data["diagnostics"]

    def test_bad_measure_exit_1(self, capsys):
        code, data = run_json(
            capsys, ["rule", "--measure", "gauss", "--n", "4", "--tau", "0"]
        )
        assert code == 1
        assert data["condition"] == "invalid-parameter"


class TestZerosCommand:
    def test_lebesgue_roots(self, capsys):
        code, data = run_json(
            capsys,
            ["zeros", "--measure", "lebesgue", "--n", "4", "--tau", "pi:0"],
        )
        assert code == 0
        thetas = sorted(z["theta"] for z in data["zeros"])
        expected = [(2 * k + 1) * math.pi / 4 for k in range(4)]
        assert np.allclose(thetas, expected, atol=1e-12)


class TestScanCommand:
    def test_all_green_lebesgue(self, capsys):
        code, data = run_json(
            capsys,
            ["scan-tau", "--measure", "lebesgue", "--n", "5", "--ell", "0",
             "--grid", "16"],
        )
        assert code == 0
        assert data["counts"] == {"positive": 16}
        assert len(data["green_arcs"]) == 1

    def test_classification_csv(self, capsys, tmp_path):
        path = tmp_path / "labels.csv"
        code = run(
            ["scan-tau", "--measure", "lebesgue", "--n", "5", "--ell", "0",
             "--grid", "16", "--classification-csv", str(path),
             "--out", str(tmp_path / "scan.json")]
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau_theta,classification"
        assert len(lines) == 17

    def test_arity_checked(self, capsys):
        code, data = run_json(
            capsys,
            ["scan-tau", "--measure", "lebesgue", "--n", "5", "--ell", "1",
             "--prescribe", "0.3"],
        )
        assert code == 1


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "rule.json"
        assert run(
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "6",
             "--tau", "pi:0", "--out", str(out)]
        ) == 0
        code, data = run_json(
            capsys,
            ["verify", "--rule", str(out), "--measure", "rogers-szego:q=0.5"],
        )
        assert code == 0
        assert data["report"]["passes"]

    def test_wrong_measure_fails(self, capsys, tmp_path):
        out = tmp_path / "rule.json"
        assert run(
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "6",
             "--tau", "pi:0", "--out", str(out)]
        ) == 0
        code, data = run_json(
            capsys,
            ["verify", "--rule", str(out), "--measure", "rogers-szego:q=0.3"],
        )
        assert code == 2
        assert not data["report"]["passes"]


class TestTauForOmegaCommand:
    def test_lebesgue_square_roots(self, capsys):
        code, data = run_json(
            capsys,
            ["tau-for-omega", "--measure", "lebesgue", "--n", "4", "--ell", "0",
             "--omega", "pi:1"],
        )
        assert code == 0
        assert len(data["solutions"]) == 2
        for sol in data["solutions"]:
            z = complex(sol["re"], sol["im"])
            assert abs(z**2 - (-1.0)) < 1e-9
