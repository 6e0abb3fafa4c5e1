import cmath
import itertools
import json
import math
import sys

import numpy as np
import pytest

from circlequad import (
    MeasureSpec,
    MomentSequence,
    QpopucSpec,
    SchurSequence,
    assemble,
    build_rule,
    from_zeros,
    modified_schur,
    moments,
    prescribe_2l,
    prescribe_2lp1,
    radau,
    radau_arc_admissible,
    scan_tau,
    tau_for_omega,
    verify_exactness,
    zeros_on_circle,
)
import circlequad
from circlequad import qpopuc, quadrature
from circlequad.errors import (
    CircleQuadError,
    InvalidParameterError,
    NodesNotQuadratureError,
    PositivityViolationError,
)
from circlequad.poly import ONE
from circlequad.quadrature import (
    GREEN,
    RED_BOUNDARY,
    RED_SCHUR,
    RED_WEIGHTS,
    rule_from_dict,
    rule_to_dict,
    save_rule,
    save_rule_csv,
    weights,
)
from circlequad.opuc import TWO_PI, UnitPoints, wrap_theta

from circlequad_helpers import (
    assembled_zeros,
    chain,
    count_affine_builds,
    direct_christoffel,
    lstsq_weights,
    perfbench_workloads,
    random_tau,
    unit,
)


def lebesgue_rule(n=4, tau=1.0 + 0j):
    return build_rule(MeasureSpec("lebesgue"), QpopucSpec(n, 0, ONE, tau))


class TestWeights:
    """The weights ``build_rule`` reads from the node solve, and the
    least-squares oracle they are checked against."""

    def test_equally_spaced_lebesgue(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        nodes = [unit(TWO_PI * k / 5) for k in range(5)]
        assert np.allclose(lstsq_weights(nodes, mu, 4), 0.2)
        # the same nodes solve z**5 - 1 = 0, the rule of tau = -1
        rule = lebesgue_rule(n=5, tau=-1.0 + 0j)
        assert np.allclose([p.theta for p in rule.nodes], [p.theta for p in nodes])
        assert np.allclose(rule.weights, 0.2)

    def test_arbitrary_nodes_rejected(self, rogers_half):
        # the chain of another measure gives its own nodes and Christoffel
        # weights, which sum to mu_0 = 1 but miss mu's moments
        n = 8
        mu, _ = chain(rogers_half, n, 0)
        _, other = chain(MeasureSpec("rogers_szego", q=0.3), n, 0)
        with pytest.raises(NodesNotQuadratureError, match="moment-matching residual"):
            build_rule(rogers_half, QpopucSpec(n, 0, ONE, 1j), mu=mu, deltas=other)

    def test_underdetermined_rejected(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        with pytest.raises(InvalidParameterError):
            lstsq_weights([unit(0.1)] * 5, mu, 1)

    def test_build_rule_solves_no_least_squares(self, rogers_half, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        mu, deltas = chain(rogers_half, 12, 0)  # long enough for ell = 1 too
        spec = QpopucSpec(12, 1, from_zeros([0.3]), 1j)
        rule = build_rule(rogers_half, spec, mu=mu, deltas=deltas)
        build_rule(rogers_half, QpopucSpec(12, 0, ONE, 1j), mu=mu, deltas=deltas)
        assert calls == []
        lstsq_weights(rule.nodes, mu, rule.m)  # the guard sees the oracle's QR
        assert len(calls) == 1


def _oracle_gap(rule, mu) -> float:
    """max |lambda - lambda_oracle| over mu_0 for a built rule."""
    ref = lstsq_weights(rule.nodes, mu, rule.m)
    return float(np.max(np.abs(rule.weights - ref))) / mu.mu[0].real


def _mix_requests(seed: int, count: int):
    """Small ell >= 1 prescription requests drawn as the benchmark's
    prescribe-mix draws them: (kind, n, ell, measure, node angles, angle)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = ("2l", "2lp1", "omega")[int(rng.integers(3))]
        n = int(rng.integers(8, 41))
        ell = int(rng.integers(1, min(5, (n - 1) // 2) + 1))
        if rng.random() < 0.5:
            measure = MeasureSpec("rogers_szego", q=float(rng.uniform(0.3, 0.95)))
        else:
            a = float(rng.uniform(0.0, TWO_PI))
            measure = MeasureSpec("arc_lebesgue", theta_a=a, theta_b=a + float(rng.uniform(1.6, 4.7)))
        count = 2 * ell + (kind == "2lp1")
        while True:
            t = np.sort(rng.uniform(0.0, TWO_PI, size=count))
            if np.min(np.diff(np.append(t, t[0] + TWO_PI))) >= 0.05:
                break
        yield kind, n, ell, measure, [unit(x) for x in t], float(rng.uniform(0.0, TWO_PI))


def _admissible_specs(kind, n, ell, alphas, angle, deltas):
    target = cmath.exp(1j * angle)
    if kind == "2l":
        answers = [prescribe_2l(deltas, n, ell, alphas, target)]
    elif kind == "2lp1":
        answers = [prescribe_2lp1(deltas, n, ell, alphas)]
    else:
        taus, _ = tau_for_omega(deltas, n, ell, alphas, target)
        answers = [prescribe_2l(deltas, n, ell, alphas, tau) for tau in taus]
    return [a.spec for a in answers if a.admissible and a.spec is not None]


class TestChristoffelWeights:
    """The Christoffel weights of the node solve equal the least-squares
    weights that match the moments."""

    def test_large_rules_match_the_oracle(self):
        # n = 256 Rogers-Szego rules as the benchmark's rules-large draws
        # them, free tau and Radau in turn
        rng = np.random.default_rng(1515)
        n = 256
        for radau_node in (False, True, False, True):
            q, theta = float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.0, TWO_PI))
            measure = MeasureSpec("rogers_szego", q=q)
            mu, deltas = chain(measure, n, 0)
            if radau_node:
                spec = radau(deltas, n, unit(theta)).spec
            else:
                spec = QpopucSpec(n, 0, ONE, cmath.exp(1j * theta))
            rule = build_rule(measure, spec, mu=mu, deltas=deltas)
            assert _oracle_gap(rule, mu) <= 1e-13

    def test_mix_answers_match_the_oracle(self):
        # the weights are the Christoffel numbers of the modified chain to
        # rounding. The least-squares oracle fits mu's moments instead of
        # the float chain's, which differ by the chain's rounding: the
        # moment Levinson is only backward stable, and over 129 rules of
        # four such draws the two weights differ by up to 1.5e-12 on arc
        # measures and 2.9e-13 on Rogers-Szego (q up to 0.95), far inside
        # the 1e-9 moment gate
        built = 0
        for kind, n, ell, measure, alphas, angle in _mix_requests(1516, 300):
            try:
                mu, deltas = chain(measure, n, ell)
                specs = _admissible_specs(kind, n, ell, alphas, angle, deltas)
            except CircleQuadError:
                continue
            for spec in specs:
                try:
                    rule = build_rule(measure, spec, mu=mu, deltas=deltas)
                except PositivityViolationError:
                    continue
                mu0 = mu.mu[0].real
                params = modified_schur(spec, deltas).params(n - 1)
                lam = direct_christoffel(params, mu0, rule.nodes.z)
                assert np.max(np.abs(rule.weights - lam)) <= 1e-14 * mu0
                assert _oracle_gap(rule, mu) <= (1e-12 if measure.q else 1e-11)
                built += 1
        assert built >= 25

    def test_near_unit_synthetic_parameter(self):
        # 2*ell + 1 = 7 prescribed nodes whose modified chain ends in a
        # synthetic parameter with 1 - |kappa_1|^2 ~ 3.4e-5; a Christoffel
        # formula on rho and its derivative misses the oracle here by
        # 3.5e-10, and the moment residual gate with it
        measure = MeasureSpec("rogers_szego", q=0.3967440693304418)
        n, ell = 35, 3
        thetas = [0.6800647129092934, 0.7902147418265721, 0.964989525982755,
                  2.4616561528374947, 2.61793115831354, 3.251062100241852, 4.814419841364377]
        mu, deltas = chain(measure, n, ell)
        answer = prescribe_2lp1(deltas, n, ell, [unit(t) for t in thetas])
        assert answer.admissible
        rule = build_rule(measure, answer.spec, mu=mu, deltas=deltas)
        assert verify_exactness(rule, mu)["passes"]
        assert _oracle_gap(rule, mu) <= 1e-15


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


def _count_assembles(monkeypatch) -> list:
    """Count the calls of ``qpopuc.assemble`` through every binding of the
    name in the package, the modules that import it included."""
    original, calls = qpopuc.assemble, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "circlequad" and getattr(module, "assemble", None) is original:
            monkeypatch.setattr(module, "assemble", counted)
    return calls


class TestRulePathCertificates:
    """The rule path assembles no Q and builds no affine Q. Its nodes and
    weights still pass the certificates of the assembled Q that it made
    before (the 32-point spot check and the nodal residual,
    ``assembled_zeros``), bitwise."""

    def test_rules_assemble_q_once_per_radau(self, rogers_half, monkeypatch):
        n = 64
        mu, deltas = chain(rogers_half, n, 0)
        calls = _count_assembles(monkeypatch)
        built = count_affine_builds(monkeypatch)
        modified_schur(QpopucSpec(n, 0, ONE, cmath.exp(0.9j)), deltas)
        assert len(calls) == 1  # the counter sees qpopuc's own calls
        calls.clear()
        build_rule(rogers_half, QpopucSpec(n, 0, ONE, cmath.exp(0.9j)), mu=mu, deltas=deltas)
        assert calls == [] and built == []
        # radau's one Q is the affine Q of its prescribed-node residual,
        # and nothing is assembled
        spec = radau(deltas, n, unit(1.3)).spec
        build_rule(rogers_half, spec, mu=mu, deltas=deltas)
        assert calls == [] and len(built) == 1

    def check(self, rule, spec, deltas):
        nodes, ratio = assembled_zeros(spec, deltas)
        assert ratio <= 1.0
        assert np.array_equal(nodes.theta, rule.nodes.theta)
        assert np.array_equal(nodes.weights, rule.weights)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rules_inputs(self, seed):
        work = perfbench_workloads()
        for inp in itertools.islice(work.rules_inputs(seed), 8):
            rule, report, deltas = work.rules_run(circlequad, inp, n=64)
            assert report["passes"]
            self.check(rule, QpopucSpec(64, 0, ONE, rule.tau), deltas)

    def test_scan_certificates(self, monkeypatch):
        work = perfbench_workloads()
        built = []

        def recording(measure, spec, mu=None, deltas=None):
            rule = build_rule(measure, spec, mu=mu, deltas=deltas)
            built.append((rule, spec, deltas))
            return rule

        monkeypatch.setattr(quadrature, "build_rule", recording)
        for seed in range(10):
            scan = work.scan_run(circlequad, next(work.scan_inputs(seed)))
            assert len(scan.arcs) == 3
        assert len(built) == 30
        for rule, spec, deltas in built:
            self.check(rule, spec, deltas)


def _closed_form_rule(q: float, n: int):
    """The free-tau rule (ell = 0) on the closed-form Rogers-Szego chain
    delta_k = (-1)**k q**(k/2), and the measure's moments q**(k**2/2)."""
    measure = MeasureSpec("rogers_szego", q=q)
    k = np.arange(1, n + 1)
    deltas = SchurSequence.from_params((-1.0) ** k * q ** (k / 2.0))
    mu = moments(measure, n)
    return build_rule(measure, QpopucSpec(n, 0, ONE, cmath.exp(0.9j)), mu=mu, deltas=deltas), mu


class TestPositivityGate:
    """``weights`` takes every finite weight > 0: each is a product of
    positive factors, so it can fail only by underflowing to 0."""

    @pytest.mark.parametrize("n", [32, 64, 256, 512])
    @pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
    def test_closed_form_rogers_szego(self, q, n):
        # the smallest weights run from 9.1e-15 (q = 0.9, n = 32) down to
        # 5.0e-190 (q = 0.99, n = 512), and the moments hold the rule
        rule, mu = _closed_form_rule(q, n)
        assert 0.0 < np.min(rule.weights) <= 1e-14
        assert verify_exactness(rule, mu)["passes"]

    def test_underflowed_weight_is_refused(self, monkeypatch):
        # the smallest weight, 2.5e-30, set to 0 still matches the moments,
        # so the refusal is the positivity check's
        rule, mu = _closed_form_rule(0.95, 64)

        def underflowed(nodes):
            lam = nodes.weights.copy()
            lam[np.argmin(lam)] = 0.0
            return UnitPoints(nodes.theta, lam)

        with pytest.raises(PositivityViolationError) as refusal:
            weights(underflowed(rule.nodes), mu, rule.m, rule.omega)
        assert set(refusal.value.diagnostics) == {"weights", "nodes_theta"}
        # the moment residual is checked first: against another measure's
        # moments the same weights are refused as not a quadrature
        other = moments(MeasureSpec("rogers_szego", q=0.9), 64)
        with pytest.raises(NodesNotQuadratureError):
            weights(underflowed(rule.nodes), other, rule.m, rule.omega)
        # build_rule adds tau, so the CLI's payload keeps its three keys
        def solve(spec, deltas):
            return underflowed(zeros_on_circle(spec, deltas))

        monkeypatch.setattr(quadrature, "zeros_on_circle", solve)
        with pytest.raises(PositivityViolationError) as refusal:
            _closed_form_rule(0.95, 64)
        assert refusal.value.diagnostics["tau"] == rule.tau
        assert set(refusal.value.diagnostics) == {"weights", "nodes_theta", "tau"}


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

    @pytest.mark.parametrize(
        "n, ell, angles",
        [
            (10, 2, [0.1, 1.2, 2.3]),
            (10, 2, [0.3] * 4),
            (5, 3, [0.1, 1.1, 2.1, 3.1, 4.1, 5.1]),
            (5, 0, [0.3]),
        ],
        ids=["node-count", "coinciding", "ell-too-large", "ell-0-with-node"],
    )
    def test_malformed_input_raises(self, rogers_half, n, ell, angles):
        with pytest.raises(InvalidParameterError):
            scan_tau(rogers_half, n, ell, [unit(a) for a in angles], grid_size=16)

    def test_refused_configuration_is_boundary(self, lebesgue):
        # Lebesgue: F_3(z) = z**3, so nodes a third of a turn apart share
        # their Blaschke value, and prescribe_2l refuses every tau
        alphas = [unit(0.3), unit(0.3 + 2 * math.pi / 3)]
        scan = scan_tau(lebesgue, 4, 1, alphas, grid_size=16)
        assert set(scan.labels) == {RED_BOUNDARY}
        assert scan.arcs == []

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
