import cmath
import json
import math

import numpy as np
import pytest

from circlequad import (
    MeasureSpec,
    MomentSequence,
    QpopucSpec,
    UnitPoint,
    assemble,
    build_rule,
    from_zeros,
    moments,
    radau,
    radau_arc_admissible,
    scan_tau,
    verify_exactness,
    weights,
)
from circlequad.errors import (
    InvalidParameterError,
    NodesNotQuadratureError,
    PositivityViolationError,
)
from circlequad.poly import ONE
from circlequad.quadrature import (
    GREEN,
    RED_SCHUR,
    RED_WEIGHTS,
    rule_from_dict,
    rule_to_dict,
    save_rule,
    save_rule_csv,
)
from circlequad.opuc import TWO_PI, wrap_theta

from circlequad_helpers import chain, random_tau, unit


def lebesgue_rule(n=4, tau=1.0 + 0j):
    return build_rule(MeasureSpec("lebesgue"), QpopucSpec(n, 0, ONE, tau))


class TestWeights:
    def test_equally_spaced_lebesgue(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        nodes = [unit(TWO_PI * k / 5) for k in range(5)]
        lam = weights(nodes, mu, 4)
        assert np.allclose(lam, 0.2)

    def test_arbitrary_nodes_rejected(self, rogers_half):
        mu = moments(rogers_half, 8)
        nodes = [unit(t) for t in (0.1, 0.7, 2.0, 3.3, 5.0)]
        with pytest.raises(NodesNotQuadratureError):
            weights(nodes, mu, 4)

    def test_underdetermined_rejected(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        with pytest.raises(InvalidParameterError):
            weights([unit(0.1)] * 5, mu, 1)


class TestBuildRule:
    def test_lebesgue_uniform(self):
        rule = lebesgue_rule()
        assert np.allclose(rule.weights, 0.25)
        assert rule.m == 3 and abs(rule.omega - 1.0) < 1e-14

    def test_sum_is_mu0_and_positive(self, rogers_half, rng):
        n, ell = 8, 1
        mu, deltas = chain(rogers_half, n, ell)
        built = 0
        for _ in range(12):
            spec = QpopucSpec(n, ell, from_zeros([0.3 * random_tau(rng)]), random_tau(rng))
            try:
                rule = build_rule(rogers_half, spec, mu=mu, deltas=deltas)
            except PositivityViolationError:
                continue
            assert np.min(rule.weights) > 0
            assert abs(np.sum(rule.weights) - 1.0) < 1e-10
            built += 1
        assert built > 0


class TestEigenNodes:
    """Node solves beyond the small orders of the acceptance tables."""

    @pytest.mark.parametrize("radau_theta", [None, 1.3])
    def test_rogers_szego_n256(self, rogers_half, radau_theta):
        n = 256
        mu, deltas = chain(rogers_half, n, 0)
        if radau_theta is None:
            spec = QpopucSpec(n, 0, ONE, cmath.exp(0.9j))
        else:
            spec = radau(deltas, n, unit(radau_theta)).spec
        rule = build_rule(rogers_half, spec, mu=mu, deltas=deltas)
        assert len(rule.nodes) == n and np.min(rule.weights) > 0
        assert verify_exactness(rule, mu)["passes"]
        if radau_theta is not None:
            z = cmath.exp(1j * radau_theta)
            assert min(abs(p.z - z) for p in rule.nodes) < 1e-12

    @pytest.mark.parametrize("radau_theta", [0.5, 1.45, 2.2])
    def test_arc_lebesgue_matches_companion_roots(self, radau_theta):
        # a Radau-admissible node keeps every node inside the arc; a node
        # outside the support carries a weight below the positivity floor
        measure = MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)
        n = 12
        mu, deltas = chain(measure, n, 0)
        spec = radau(deltas, n, unit(radau_theta)).spec
        assert radau_arc_admissible(deltas, n, spec.tau, measure.support_arc)
        rule = build_rule(measure, spec, mu=mu, deltas=deltas)
        assert verify_exactness(rule, mu)["passes"]
        roots = np.roots(assemble(spec, deltas).coeffs[::-1])
        expected = np.sort(wrap_theta(np.angle(roots)))
        thetas = np.array([p.theta for p in rule.nodes])
        assert np.max(np.abs(np.angle(np.exp(1j * (thetas - expected))))) < 1e-9


class TestVerifyExactness:
    def test_lebesgue_trivial(self):
        rule = lebesgue_rule()
        mu = moments(MeasureSpec("lebesgue"), 10)
        report = verify_exactness(rule, mu)
        assert report["passes"]
        assert max(report["residuals"].values()) < 1e-14
        # the nodes are the 4th roots of -1, so z**4 is constant -1 there
        # while mu_4 = 0: the bare next power fails by exactly 1 and only
        # the omega-paired element extends the exactness space
        assert report["sharp"]
        assert abs(report["bare_next_power"] - 1.0) < 1e-12
        assert report["residuals"]["omega_pair"] < 1e-14

    def test_rogers_szego_sharpness(self, rogers_half):
        mu, deltas = chain(rogers_half, 6, 0)
        rule = build_rule(rogers_half, QpopucSpec(6, 0, ONE, 1.0 + 0j))
        report = verify_exactness(rule, moments(rogers_half, 14))
        assert report["passes"]
        assert report["sharp"]
        assert report["first_failing_power"] == rule.m + 1

    def test_moment_shortage_rejected(self):
        rule = lebesgue_rule()
        with pytest.raises(InvalidParameterError):
            verify_exactness(rule, MomentSequence(np.array([1.0 + 0j])))


class TestApply:
    def test_constant(self):
        rule = lebesgue_rule()
        assert abs(rule.apply(lambda z: np.ones_like(z)) - 1.0) < 1e-14

    def test_monomials(self, rogers_half):
        rule = build_rule(rogers_half, QpopucSpec(6, 0, ONE, 1.0 + 0j))
        mu = moments(rogers_half, rule.m)
        for k in range(rule.m + 1):
            assert abs(rule.apply(lambda z, k=k: z**k) - mu.get(k)) < 1e-9

    def test_cos_squared_lebesgue(self):
        # Re(z)**2 = (z + 1/z)**2 / 4 lies in the exactness space
        rule = lebesgue_rule()
        val = rule.apply(lambda z: ((z + 1.0 / z) / 2.0) ** 2)
        assert abs(val - 0.5) < 1e-12


class TestScan:
    def test_lebesgue_ell0_all_green(self, lebesgue):
        scan = scan_tau(lebesgue, 5, 0, [], grid_size=16)
        assert all(lab == GREEN for lab in scan.labels)
        assert scan.arcs == [(0.0, TWO_PI)]

    def test_grid_validated(self, lebesgue):
        with pytest.raises(InvalidParameterError):
            scan_tau(lebesgue, 5, 0, [], grid_size=4)

    def test_rogers_szego_labels(self, rogers_half):
        angles = [-3 * math.pi / 4, -math.pi / 2, 0.0, math.pi / 4, math.pi / 2,
                  3 * math.pi / 4]
        alphas = [unit(a % TWO_PI) for a in angles]
        scan = scan_tau(rogers_half, 16, 3, alphas, grid_size=64)
        labels = set(scan.labels)
        assert GREEN in labels and RED_SCHUR in labels and RED_WEIGHTS in labels
        assert len(scan.arcs) == 3

    def test_deterministic(self, rogers_half):
        alphas = [unit(t) for t in (0.4, 2.6)]
        s1 = scan_tau(rogers_half, 8, 1, alphas, grid_size=32)
        s2 = scan_tau(rogers_half, 8, 1, alphas, grid_size=32)
        assert s1.labels == s2.labels and s1.arcs == s2.arcs


class TestSerialization:
    def test_dict_round_trip(self):
        rule = lebesgue_rule()
        data = rule_to_dict(rule, residuals={"passes": True})
        back = rule_from_dict(data, MeasureSpec("lebesgue"))
        assert np.allclose(back.weights, rule.weights)
        assert back.m == rule.m and abs(back.omega - rule.omega) < 1e-15
        assert [p.theta for p in back.nodes] == [p.theta for p in rule.nodes]

    def test_json_file_round_trip(self, tmp_path):
        rule = lebesgue_rule()
        path = tmp_path / "rule.json"
        save_rule(rule, path)
        back = rule_from_dict(json.loads(path.read_text()))
        mu = moments(MeasureSpec("lebesgue"), 2 * rule.m + 2)
        report = verify_exactness(back, mu)
        assert report["passes"]

    def test_csv_export(self, tmp_path):
        rule = lebesgue_rule()
        path = tmp_path / "rule.csv"
        save_rule_csv(rule, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,weight"
        assert len(lines) == 1 + len(rule.nodes)
        theta, w = lines[1].split(",")
        assert abs(float(w) - 0.25) < 1e-15
