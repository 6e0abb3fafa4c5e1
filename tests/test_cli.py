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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_angle_refused(self, text):
        # float() reads these, and a NaN or infinite angle would wrap to 0
        with pytest.raises(InvalidParameterError):
            parse_angle(text)
        with pytest.raises(InvalidParameterError):
            parse_unimodular(text)

    @pytest.mark.parametrize("text", ["nan,0", "0,nan", "inf,0", "nan,nan"])
    def test_non_finite_pair_refused(self, text):
        # |z| - 1 is NaN for each: the gate refuses what it cannot measure
        with pytest.raises(InvalidParameterError):
            parse_unimodular(text)

    def test_prescribe_nan_exit_1(self, capsys):
        code, data = run_json(
            capsys,
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "8", "--ell", "1",
             "--prescribe", "nan", "pi:1/2", "--tau", "0"],
        )
        assert code == 1
        assert data["condition"] == "invalid-parameter"
        assert "not finite" in data["message"]

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

    def test_radau_refuses_tau(self, capsys):
        # one node at ell = 0 determines tau, as three do at ell = 1
        code, data = run_json(
            capsys,
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "8",
             "--prescribe", "pi:1/3", "--tau", "0"],
        )
        assert code == 1
        assert data["condition"] == "invalid-parameter"
        assert "do not pass --tau" in data["message"]

    def test_free_tau_diagnostics(self, capsys):
        # ell = 0 with no nodes is the empty prescription, P = 1
        code, data = run_json(
            capsys, ["rule", "--measure", "rogers-szego:q=0.5", "--n", "8", "--tau", "0.3"]
        )
        assert code == 0
        assert data["diagnostics"] == {"f_values": [], "condition": 1.0, "schur_params": []}

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

    def test_classification_csv_is_unchanged(self, capsys, tmp_path):
        # byte for byte the file the per-point scanner wrote: the grid
        # angles as repr, one label each, csv's \r\n line ends
        path = tmp_path / "labels.csv"
        code = run(
            ["scan-tau", "--measure", "rogers-szego:q=0.5", "--n", "16", "--ell", "3",
             "--prescribe", "pi:-3/4", "pi:-1/2", "0", "pi:1/4", "pi:1/2", "pi:3/4",
             "--grid", "16", "--classification-csv", str(path),
             "--out", str(tmp_path / "scan.json")]
        )
        assert code == 0
        expected = [
            "tau_theta,classification",
            "0.0,simple-nodes-nonpositive-weights",
            "0.39269908169872414,inadmissible-schur",
            "0.7853981633974483,boundary-degenerate",
            "1.1780972450961724,positive",
            "1.5707963267948966,simple-nodes-nonpositive-weights",
            "1.9634954084936207,inadmissible-schur",
            "2.356194490192345,simple-nodes-nonpositive-weights",
            "2.748893571891069,positive",
            "3.141592653589793,positive",
            "3.5342917352885173,positive",
            "3.9269908169872414,simple-nodes-nonpositive-weights",
            "4.319689898685965,inadmissible-schur",
            "4.71238898038469,simple-nodes-nonpositive-weights",
            "5.105088062083414,positive",
            "5.497787143782138,positive",
            "5.890486225480862,positive",
        ]
        assert path.read_bytes() == "".join(line + "\r\n" for line in expected).encode()

    def test_arcs_carry_their_certificates(self, capsys):
        code, data = run_json(
            capsys,
            ["scan-tau", "--measure", "rogers-szego:q=0.5", "--n", "16", "--ell", "3",
             "--prescribe", "pi:-3/4", "pi:-1/2", "0", "pi:1/4", "pi:1/2", "pi:3/4",
             "--grid", "64"],
        )
        assert code == 0
        assert len(data["green_arcs"]) == 3 and data["dropped_arcs"] == []
        for arc in data["green_arcs"]:
            cert = arc["certificate"]
            mid = arc["start"] + ((arc["end"] - arc["start"]) % (2 * math.pi)) / 2
            assert cert["tau_theta"] == pytest.approx(mid % (2 * math.pi), abs=1e-12)
            assert cert["passes"] and cert["condition"] is None
            assert 0.0 < cert["resid_ratio"] < 1.0

    def test_arity_checked(self, capsys):
        code, data = run_json(
            capsys,
            ["scan-tau", "--measure", "lebesgue", "--n", "5", "--ell", "1",
             "--prescribe", "0.3"],
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "5", "--ell", "2", "--prescribe", "0.3", "0.3", "0.3", "0.3"],
            ["--n", "5", "--ell", "3", "--prescribe", "0", "1", "2", "3", "4", "5"],
        ],
        ids=["coinciding", "ell-too-large"],
    )
    def test_malformed_nodes_refused(self, capsys, argv):
        code, data = run_json(capsys, ["scan-tau", "--measure", "lebesgue", *argv])
        assert code == 1
        assert data["condition"] == "invalid-parameter"


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

    # each damages the file of a good rule; NaN is the token json writes
    # for a float NaN, which json.load reads back, and 10**400 is an
    # integer no float holds
    MALFORMED = {
        "missing-nodes": lambda d: {k: v for k, v in d.items() if k != "nodes"},
        "top-level-array": lambda d: [d],
        "omega-not-a-pair": lambda d: {**d, "omega": 3},
        "negative-m": lambda d: {**d, "m": -5},
        "weights-nodes-mismatch": lambda d: {**d, "weights": d["weights"][:-1]},
        "nan-weight": lambda d: {**d, "weights": [math.nan, *d["weights"][1:]]},
        "huge-weight": lambda d: {**d, "weights": [10**400, *d["weights"][1:]]},
        "node-off-its-theta": lambda d: {**d, "nodes": [
            {**d["nodes"][0], "theta": d["nodes"][0]["theta"] + 0.1}, *d["nodes"][1:]
        ]},
        "not-json": lambda d: json.dumps(d)[:-1],
    }

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_rule_file_refused(self, capsys, tmp_path, damage):
        out = tmp_path / "rule.json"
        assert run(
            ["rule", "--measure", "rogers-szego:q=0.5", "--n", "6",
             "--tau", "pi:0", "--out", str(out)]
        ) == 0
        damaged = self.MALFORMED[damage](json.loads(out.read_text()))
        out.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        code, data = run_json(
            capsys,
            ["verify", "--rule", str(out), "--measure", "rogers-szego:q=0.5"],
        )
        assert code == 1
        assert data["condition"] == "file-format"


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
