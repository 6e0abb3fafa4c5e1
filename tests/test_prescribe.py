import cmath
import functools
import itertools
import math

import numpy as np
import pytest

import circlequad
from circlequad import (
    ArcSpec,
    ComplexPoly,
    MeasureSpec,
    QpopucSpec,
    UnitPoint,
    assemble,
    blaschke_eval,
    build_rule,
    classical_arc,
    from_zeros,
    lobatto2,
    prescribe_2l,
    prescribe_2lp1,
    radau,
    radau_arc_admissible,
    schur_cohn,
    tau_for_omega,
    tau_pencil,
    three_nodes,
    verify_exactness,
    zeros_on_circle,
)
from circlequad.config import TOL
from circlequad.errors import (
    CircleQuadError,
    ConditionViolationError,
    InvalidParameterError,
    NoSolutionError,
)
from circlequad import prescribe
from circlequad.poly import ONE
from circlequad.qpopuc import orthogonality_params

from circlequad_helpers import (
    chain,
    count_affine_builds,
    elimination_pencil,
    extended_omega,
    extended_omega_pencil,
    extended_tau_for_omega,
    lstsq_weights,
    modified_chain_nodes,
    odd_system,
    perfbench_workloads,
    random_tau,
    residual_rows,
    same_orientation,
    unit,
)

SQ2 = math.sqrt(2.0)
ARC = MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)


def _admissible_random_spec(deltas, n, ell, rng):
    """A random spec with stable P, plus its circle zeros."""
    while True:
        zs = 0.6 * (rng.normal(size=ell) + 1j * rng.normal(size=ell))
        zs /= max(1.0, 1.4 * np.max(np.abs(zs))) if ell else 1.0
        spec = QpopucSpec(n, ell, from_zeros(zs), random_tau(rng))
        try:
            pts = zeros_on_circle(spec, deltas)
        except Exception:
            continue
        return spec, pts


class TestRadau:
    def test_lebesgue_node_one(self, lebesgue):
        mu, deltas = chain(lebesgue, 4, 0)
        res = radau(deltas, 4, unit(0.0))
        assert res.admissible
        assert abs(res.spec.tau - (-1.0)) < 1e-14

    def test_prescribed_node_is_zero(self, rogers_half, rng):
        mu, deltas = chain(rogers_half, 7, 0)
        alpha = unit(rng.uniform(0, 2 * math.pi))
        res = radau(deltas, 7, alpha)
        pts = zeros_on_circle(res.spec, deltas)
        assert min(abs(p.theta - alpha.theta) for p in pts) < 1e-10

    def test_one_node_rule(self, rogers_half):
        # n = 1: F_1(z) = z, so tau = -alpha and the rule is alpha alone
        mu, deltas = chain(rogers_half, 1, 0)
        alpha = unit(2.0)
        res = radau(deltas, 1, alpha)
        assert res.admissible and abs(res.spec.tau + alpha.z) < 1e-15
        rule = build_rule(rogers_half, res.spec, mu=mu, deltas=deltas)
        assert abs(rule.nodes[0].z - alpha.z) < 1e-12
        assert abs(rule.weights[0] - mu.get(0).real) < 1e-12


class TestRadauArcAdmissible:
    def test_consistency_with_zero_location(self, rng):
        ta, tb = 0.3, 2.4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        n = 6
        mu, deltas = chain(meas, n, 0)
        hits = 0
        for k in range(60):
            tau = cmath.exp(2j * math.pi * k / 60)
            if not radau_arc_admissible(deltas, n, tau, arc):
                continue
            hits += 1
            pts = zeros_on_circle(QpopucSpec(n, 0, ONE, tau), deltas)
            assert all(arc.contains(p.z, closed=False) for p in pts)
        assert hits > 0


class TestLobatto2:
    def test_closed_form_chain(self, lebesgue):
        # n = 3, nodes {1, i}, tau = e^{3 pi i / 4}:
        # eta = (1 + i)(1 - 1/sqrt(2)), third node e^{5 pi i / 4}
        mu, deltas = chain(lebesgue, 3, 1)
        tau = cmath.exp(0.75j * math.pi)
        res = lobatto2(deltas, 3, unit(0.0), unit(math.pi / 2), tau)
        assert res.admissible
        eta = res.diagnostics["eta"]
        assert abs(eta - (1 + 1j) * (1 - 1 / SQ2)) < 1e-12
        pts = zeros_on_circle(res.spec, deltas)
        thetas = sorted(p.theta for p in pts)
        assert np.allclose(thetas, [0.0, math.pi / 2, 1.25 * math.pi], atol=1e-12)

    def test_tau_arc_predicts_admissibility(self, rogers_half, rng):
        mu, deltas = chain(rogers_half, 6, 1)
        a1, a2 = unit(0.3), unit(1.9)
        base = lobatto2(deltas, 6, a1, a2, random_tau(rng))
        arc = base.diagnostics["tau_arc"]
        for _ in range(25):
            tau = random_tau(rng)
            res = lobatto2(deltas, 6, a1, a2, tau)
            if arc.contains(tau, closed=False, tol=1e-9):
                assert res.admissible, tau
            else:
                assert not res.admissible, tau

    def test_degenerate_configuration(self, lebesgue):
        # Lebesgue, n = 4, antipodal nodes: f1 a1 = f2 a2, single legal tau
        mu, deltas = chain(lebesgue, 4, 1)
        res = lobatto2(deltas, 4, unit(0.0), unit(math.pi), -1.0 + 0j)
        assert res.diagnostics["degenerate_case"]
        assert abs(res.diagnostics["eta"]) < 1e-14
        with pytest.raises(NoSolutionError):
            lobatto2(deltas, 4, unit(0.0), unit(math.pi), 1.0 + 0j)

    def test_rejects_duplicate_nodes(self, lebesgue):
        mu, deltas = chain(lebesgue, 4, 1)
        with pytest.raises(InvalidParameterError):
            lobatto2(deltas, 4, unit(0.1), unit(0.1), 1.0 + 0j)


class TestThreeNodes:
    def test_closed_form_chain(self, lebesgue):
        mu, deltas = chain(lebesgue, 3, 1)
        res = three_nodes(deltas, 3, [unit(0.0), unit(math.pi / 2), unit(1.25 * math.pi)])
        assert res.admissible
        assert abs(res.diagnostics["eta"] - (1 + 1j) * (1 - 1 / SQ2)) < 1e-12
        assert abs(res.spec.tau - cmath.exp(0.75j * math.pi)) < 1e-12

    @pytest.mark.parametrize(
        "measure, n_max",
        [(ARC, 12), (MeasureSpec("rogers_szego", q=0.3), 30), (MeasureSpec("rogers_szego", q=0.8), 30)],
        ids=["arc", "rs-0.3", "rs-0.8"],
    )
    def test_round_trip_from_zeros(self, measure, n_max, rng):
        # three zeros of a stable spec give it back; three circle zeros of
        # an unstable one (|eta| > 1, orientation mismatch) give its eta
        # back as an inadmissible result
        for _ in range(10):
            n = int(rng.integers(5, n_max + 1))
            mu, deltas = chain(measure, n, 1)
            spec, pts = _admissible_random_spec(deltas, n, 1, rng)
            picks = rng.choice(n, size=3, replace=False)
            res = three_nodes(deltas, n, [pts[i] for i in picks])
            assert res.admissible
            assert abs(res.spec.tau - spec.tau) < 1e-9
            assert np.allclose(res.spec.P.coeffs, spec.P.coeffs, atol=1e-9)

            eta = rng.uniform(1.2, 3.0) * random_tau(rng)
            q = assemble(QpopucSpec(n, 1, from_zeros([eta]), random_tau(rng)), deltas)
            on_circle = [z for z in q.roots() if abs(abs(z) - 1.0) < 1e-8]
            picks = rng.choice(len(on_circle), size=3, replace=False)
            res = three_nodes(deltas, n, [UnitPoint.from_complex(on_circle[i]) for i in picks])
            assert not res.admissible and res.spec is None
            assert abs(res.diagnostics["eta"] - eta) < 1e-8 * abs(eta)

    def test_orientation_theorem(self):
        # |eta| < 1 exactly when the alpha and f triples wind the same way:
        # seeded triples on three chains, and the ell = 1 2lp1 requests of
        # the benchmark's seed-7 draw, outside the Schur-Cohn band
        rng = np.random.default_rng(73)
        cases = []
        for measure in (MeasureSpec("rogers_szego", q=0.3), MeasureSpec("rogers_szego", q=0.8), ARC):
            for _ in range(40):
                n = int(rng.integers(3, 13))
                _, deltas = chain(measure, n, 1)
                cases.append((deltas, n, [unit(t) for t in rng.uniform(0, 2 * math.pi, 3)]))
        work = perfbench_workloads()
        for inp in itertools.islice(work.mix_inputs(7), work.MIX_DRAW):
            if inp["kind"] == "2lp1" and inp["ell"] == 1:
                try:
                    _, deltas = chain(work.mix_measure(circlequad, inp["measure"]), inp["n"], 1)
                except CircleQuadError:  # a Levinson breakdown, before any node
                    continue
                cases.append((deltas, inp["n"], [unit(t) for t in inp["nodes"]]))
        verdicts = []
        for deltas, n, alphas in cases:
            try:
                res = prescribe_2lp1(deltas, n, 1, alphas)
            except (NoSolutionError, ConditionViolationError):
                continue
            if "boundary_degenerate" in res.diagnostics:
                continue
            f = tuple(res.diagnostics["f_values"])
            assert res.admissible == same_orientation(tuple(a.z for a in alphas), f), alphas
            assert res.admissible == (abs(res.diagnostics["eta"]) < 1.0)
            verdicts.append(res.admissible)
        assert len(verdicts) >= 200 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize(
        "n, thetas, pair, p0, tau",
        [
            (4, [0.3, 0.3 + math.pi, 1.9], [0, 1],
             0.055790738238916227 + 0.017258097729778155j, -0.3623577544766743 - 0.9320390859672261j),
            (4, [1.9, 0.3, 0.3 + math.pi], [1, 2],
             0.055790738238916227 + 0.017258097729778155j, -0.3623577544766743 - 0.9320390859672261j),
            (6, [0.4, 0.4 + math.pi / 2, 3.0], [0, 1],
             0.16730586570846928 - 0.8309531511990046j, -0.675463180551151 - 0.7373937155412454j),
        ],
        ids=["n4-pair-first", "n4-pair-last", "n6"],
    )
    def test_degenerate_pair(self, lebesgue, n, thetas, pair, p0, tau):
        # one pair with f_i a_i = f_j a_j admits a single tau, so the pencil
        # is built on another pair; P and tau as the (2*ell + 1)-node system
        # gave them before the two solves were merged
        _, deltas = chain(lebesgue, n, 1)
        alphas = [unit(t) for t in thetas]
        assert tau_pencil(deltas, n, 1, [alphas[i] for i in pair]).degenerate
        res = prescribe_2lp1(deltas, n, 1, alphas)
        assert res.admissible
        assert abs(res.spec.P.coeffs[0] - p0) < 1e-12
        assert abs(res.spec.tau - tau) < 1e-12

    def test_every_pair_degenerate(self, lebesgue):
        # Lebesgue, n = 5, the cube roots of unity turned by 0.2: f_i a_i is
        # the same at all three nodes, so each pair admits only its own tau,
        # and no two of those agree
        _, deltas = chain(lebesgue, 5, 1)
        alphas = [unit(0.2 + 2 * math.pi * k / 3) for k in range(3)]
        with pytest.raises(NoSolutionError):
            prescribe_2lp1(deltas, 5, 1, alphas)

    def test_shared_blaschke_value(self, lebesgue):
        # Lebesgue, n = 4: f = conj(a**3) is the same at 0 and 2 pi / 3, so
        # P/P* cannot be a disk automorphism; the one P left, z - beta with
        # beta the third node, has its zero on the circle
        _, deltas = chain(lebesgue, 4, 1)
        res = prescribe_2lp1(deltas, 4, 1, [unit(0.0), unit(2 * math.pi / 3), unit(1.0)])
        assert not res.admissible and "boundary_degenerate" in res.diagnostics
        assert abs(res.diagnostics["eta"] - cmath.exp(1j)) < 1e-12

    def test_rejects_more_nodes_than_n(self, rogers_half):
        # 2*ell + 1 = 3 nodes need n >= 3
        mu, deltas = chain(rogers_half, 2, 1)
        with pytest.raises(InvalidParameterError):
            three_nodes(deltas, 2, [unit(0.0), unit(2.0), unit(4.0)])

    def test_orientation_mismatch_inadmissible(self, rogers_half, rng):
        # swapping two zeros of an admissible triple reverses orientation of
        # alpha but not of f, so some triples must come back inadmissible
        n = 7
        mu, deltas = chain(rogers_half, n, 1)
        seen_inadmissible = False
        for _ in range(20):
            alphas = [unit(t) for t in sorted(rng.uniform(0, 2 * math.pi, size=3))]
            try:
                res = three_nodes(deltas, n, alphas)
            except NoSolutionError:
                continue
            if not res.admissible:
                seen_inadmissible = True
                assert res.spec is None
        assert seen_inadmissible


class TestPrescribe2l:
    def test_two_nodes_match_the_elimination(self, rogers_half, rng):
        # lobatto2 and prescribe_2l at ell = 1 against the Schur-complement
        # elimination, which finds p without the coupled pencil
        mu, deltas = chain(rogers_half, 6, 1)
        a = [unit(0.3), unit(1.9)]
        a_el, b_el = elimination_pencil(deltas, 6, 1, a)
        verdicts = set()
        for _ in range(10):
            tau = random_tau(rng)
            eta = -(tau * a_el[0] + b_el[0])
            for res in (lobatto2(deltas, 6, a[0], a[1], tau), prescribe_2l(deltas, 6, 1, a, tau)):
                assert abs(res.diagnostics["eta"] - eta) < 1e-12
                assert res.spec.P.coeffs[1] == 1.0
                assert res.admissible == (abs(eta) < 1.0)
            verdicts.add(res.admissible)
        assert verdicts == {True, False}

    def test_round_trip_ell2(self, rogers_half, rng):
        n, ell = 9, 2
        mu, deltas = chain(rogers_half, n, ell)
        for _ in range(8):
            spec, pts = _admissible_random_spec(deltas, n, ell, rng)
            picks = rng.choice(n, size=2 * ell, replace=False)
            res = prescribe_2l(deltas, n, ell, [pts[i] for i in picks], spec.tau)
            assert res.admissible
            assert np.allclose(res.spec.P.coeffs, spec.P.coeffs, atol=1e-8)

    def test_prescribed_nodes_are_zeros(self, rogers_half, rng):
        n, ell = 10, 2
        mu, deltas = chain(rogers_half, n, ell)
        alphas = [unit(t) for t in (0.4, 1.1, 2.6, 4.0)]
        for _ in range(10):
            res = prescribe_2l(deltas, n, ell, alphas, random_tau(rng))
            if not res.admissible:
                continue
            pts = zeros_on_circle(res.spec, deltas)
            for a in alphas:
                assert min(abs(p.theta - a.theta) for p in pts) < 1e-9

    def test_rejects_bad_arity(self, rogers_half):
        mu, deltas = chain(rogers_half, 9, 2)
        with pytest.raises(InvalidParameterError):
            prescribe_2l(deltas, 9, 2, [unit(0.1)], 1.0 + 0j)


class TestPrescribe2lp1:
    def test_round_trip_ell2(self, rogers_half, rng):
        n, ell = 9, 2
        mu, deltas = chain(rogers_half, n, ell)
        done = 0
        for _ in range(12):
            spec, pts = _admissible_random_spec(deltas, n, ell, rng)
            picks = rng.choice(n, size=2 * ell + 1, replace=False)
            res = prescribe_2lp1(deltas, n, ell, [pts[i] for i in picks])
            assert res.admissible
            assert abs(res.spec.tau - spec.tau) < 1e-9
            assert np.allclose(res.spec.P.coeffs, spec.P.coeffs, atol=1e-8)
            done += 1
        assert done == 12

    def test_generic_points_solvable_but_rarely_admissible(self, rogers_half, rng):
        # 2*ell + 1 circle points impose 2*ell + 1 real conditions, matching
        # the free parameters (ell complex coefficients plus the tau phase),
        # so generic data is solvable -- but P is then usually unstable
        n, ell = 9, 2
        mu, deltas = chain(rogers_half, n, ell)
        admissible = 0
        for _ in range(10):
            alphas = [unit(t) for t in rng.uniform(0, 2 * math.pi, size=5)]
            res = prescribe_2lp1(deltas, n, ell, alphas)
            assert abs(abs(res.spec.tau) - 1.0) < 1e-12
            from circlequad import assemble

            q = assemble(res.spec, deltas)
            z = np.array([a.z for a in alphas])
            assert np.max(np.abs(q(z))) < 1e-10 * q.max_abs_coeff()
            admissible += res.admissible
        assert admissible <= 5

    def test_matches_the_odd_system(self):
        # against the (2*ell + 1)-node square system solved in extended
        # precision: seeded triples and septuples on three chains, and the
        # 2lp1 requests of the benchmark's seed-7 draw. The verdicts agree,
        # and so do an admissible P and tau, within 1e-12
        rng = np.random.default_rng(29)
        cases = []
        for measure in (MeasureSpec("rogers_szego", q=0.3), MeasureSpec("rogers_szego", q=0.8), ARC):
            for ell in (1, 3):
                for _ in range(15):
                    n = int(rng.integers(2 * ell + 1, 13))
                    _, deltas = chain(measure, n, ell)
                    nodes = rng.uniform(0, 2 * math.pi, 2 * ell + 1)
                    cases.append((deltas, n, ell, [unit(t) for t in nodes]))
        work = perfbench_workloads()
        for inp in itertools.islice(work.mix_inputs(7), work.MIX_DRAW):
            if inp["kind"] == "2lp1":
                try:
                    _, deltas = chain(work.mix_measure(circlequad, inp["measure"]), inp["n"], inp["ell"])
                except CircleQuadError:  # a Levinson breakdown, before any node
                    continue
                cases.append((deltas, inp["n"], inp["ell"], [unit(t) for t in inp["nodes"]]))
        verdicts = []
        for deltas, n, ell, alphas in cases:
            res = prescribe_2lp1(deltas, n, ell, alphas)
            p, tau = odd_system(deltas, n, ell, alphas)
            assert res.admissible == schur_cohn(ComplexPoly(p)).stable
            if res.admissible:
                assert np.max(np.abs(res.spec.P.coeffs - p)) < 1e-12
                assert abs(res.spec.tau - tau) < 1e-12
            verdicts.append(res.admissible)
        assert len(verdicts) >= 600 and 80 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_symmetric_nodes_closed_form(self, lebesgue, ell):
        # Lebesgue, n = 2*ell + 1 equally spaced nodes e^{i(0.1 + 2 pi k/n)}:
        # P = z**ell with zero low coefficients, and tau = -e^{0.1 i n}
        n = 2 * ell + 1
        mu, deltas = chain(lebesgue, n, ell)
        alphas = [unit(0.1 + 2 * math.pi * k / n) for k in range(n)]
        res = prescribe_2lp1(deltas, n, ell, alphas)
        assert res.admissible
        assert np.allclose(res.spec.P.coeffs, [0.0] * ell + [1.0], atol=1e-12)
        assert abs(res.spec.tau + cmath.exp(0.1j * n)) < 1e-12

    def test_rejects_bad_arity(self, rogers_half):
        mu, deltas = chain(rogers_half, 9, 2)
        with pytest.raises(InvalidParameterError):
            prescribe_2lp1(deltas, 9, 2, [unit(0.1), unit(0.2)])


class TestResidualOnAdmissibleOnly:
    """An unstable P is an inadmissible answer for every ell: its
    prescribed-node residual is not checked. Two requests of the
    benchmark's seed-7 draw, on exact Rogers-Szego chains, whose P has a
    zero far outside the disk and whose residual is far above its gate,
    which would make a check on every P report them as
    internal-consistency faults."""

    @staticmethod
    def _check(res, deltas, nodes):
        assert not res.admissible
        assert max(abs(k) for k in res.diagnostics["schur_params"]) > 1.0
        z = np.array([a.z for a in nodes])
        ok = residual_rows(assemble(res.spec, deltas).coeffs[None], z, TOL.node_residual)[0]
        assert not ok[0]

    def test_2l(self):
        n, ell = 21, 5
        _, deltas = chain(MeasureSpec("rogers_szego", q=0.8695376151421141), n, ell)
        nodes = [unit(t) for t in (
            0.8855398557495492, 1.250180689286649, 2.782653454820211, 2.885338242441115,
            2.9521558148113933, 3.4592731755122443, 3.6720279367890667, 3.8207751661692697,
            3.9184018801641467, 5.763733249421079,
        )]
        res = prescribe_2l(deltas, n, ell, nodes, cmath.exp(0.9341246324235648j))
        self._check(res, deltas, nodes)

    def test_2lp1(self):
        n, ell = 11, 5
        _, deltas = chain(MeasureSpec("rogers_szego", q=0.8675112932964542), n, ell)
        nodes = [unit(t) for t in (
            1.789801887057653, 2.3222925046652305, 2.496751718900696, 2.664482138763552,
            3.347919635986794, 3.7237444875971204, 3.8792539327733424, 5.290246263038328,
            5.519104200841117, 5.933915380402946, 6.127935262785729,
        )]
        res = prescribe_2lp1(deltas, n, ell, nodes)
        self._check(res, deltas, nodes)


class TestConditionLimit:
    """Both node counts refuse an ill-conditioned pencil by one condition."""

    # three nodes within 2e-6 rad of each other
    NODES = [0.3, 0.3 + 1e-6, 0.3 + 2e-6, 3.5, 5.0]

    def test_odd_solve(self, rogers_half):
        # 2*ell + 1 nodes: the pencil of the first four, condition 2.9e12
        _, deltas = chain(rogers_half, 9, 2)
        with pytest.raises(ConditionViolationError):
            prescribe_2lp1(deltas, 9, 2, [unit(t) for t in self.NODES])

    def test_pencil(self, rogers_half):
        # the coupled 4 x 4 system of the first 2*ell nodes: 2.9e12
        _, deltas = chain(rogers_half, 9, 2)
        with pytest.raises(ConditionViolationError):
            prescribe_2l(deltas, 9, 2, [unit(t) for t in self.NODES[:4]], 1.0 + 0j)


class TestEmptyPrescription:
    """ell = 0 on the general paths: no nodes give P = 1, one node Radau."""

    def test_prescribe_2l_gives_the_paraorthogonal_rule(self, rogers_half, rng):
        n = 12
        mu, deltas = chain(rogers_half, n, 0)
        tau = random_tau(rng)
        res = prescribe_2l(deltas, n, 0, [], tau)
        assert res.admissible
        assert res.spec.P.coeffs.tolist() == [1.0]
        got = build_rule(rogers_half, res.spec, mu=mu, deltas=deltas)
        want = build_rule(rogers_half, QpopucSpec(n, 0, ONE, tau), mu=mu, deltas=deltas)
        assert [p.theta for p in got.nodes] == [p.theta for p in want.nodes]
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_prescribe_2l_assembles_nothing(self, rogers_half, monkeypatch):
        # with no nodes there is no nodal residual to check, so the
        # pencil's AffineQ builds no U and V; one node (Radau) builds one
        built = count_affine_builds(monkeypatch)
        _, deltas = chain(rogers_half, 16, 0)
        assert prescribe_2l(deltas, 16, 0, [], 1j).admissible
        assert built == []
        assert prescribe_2lp1(deltas, 16, 0, [unit(1.3)]).admissible
        assert len(built) == 1

    def test_prescribe_2lp1_is_radau(self, rogers_half, rng):
        # one node: P = 1 and tau = -F_n(alpha), by the Blaschke recursion
        n = 12
        _, deltas = chain(rogers_half, n, 0)
        for _ in range(5):
            alpha = unit(rng.uniform(0, 2 * math.pi))
            want = -blaschke_eval(deltas, n, alpha.z)
            for res in (prescribe_2lp1(deltas, n, 0, [alpha]), radau(deltas, n, alpha)):
                assert res.admissible
                assert res.spec.P.coeffs.tolist() == [1.0]
                assert abs(res.spec.tau - want) < 1e-14

    def test_rejects_bad_arity(self, rogers_half):
        _, deltas = chain(rogers_half, 8, 0)
        calls = [
            lambda: prescribe_2l(deltas, 8, 0, [unit(0.1)], 1.0 + 0j),
            lambda: prescribe_2lp1(deltas, 8, 0, []),
            lambda: prescribe_2lp1(deltas, 8, 0, [unit(0.1), unit(0.2)]),
            lambda: tau_for_omega(deltas, 8, 0, [unit(0.1)], 1.0 + 0j),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError) as exc:
                call()
            assert exc.value.condition == "invalid-parameter"


# the arcs of the classical-arc sweep, 1.9 to 4.2 radians long, one across 2 pi
ARC_SWEEP = [(0.3, 2.4), (1.0, 4.5), (0.2, 3.8), (2.0, 6.2), (5.75, 7.66)]


def arc_request(ta, tb, mode, k):
    """The k-th of 20 requests per case: tau_hat spread around the circle
    ("lobatto") or alpha spread inside the arc ("peherstorfer")."""
    if mode == "lobatto":
        return {"tau_hat": cmath.exp(2j * math.pi * (k + 0.5) / 20)}
    return {"alpha": unit(ta + (tb - ta) * (k + 1) / 21)}


@functools.cache
def classical_arc_sweep() -> list:
    """The admissible answers of the sweep, n = 3..12, 20 requests per
    mode, as (measure, arc, n, mu, deltas, request, result)."""
    out = []
    for ta, tb in ARC_SWEEP:
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        for n in range(3, 13):
            mu, deltas = chain(meas, n, 1)
            for mode, k in itertools.product(("lobatto", "peherstorfer"), range(20)):
                req = arc_request(ta, tb, mode, k)
                res = classical_arc(deltas, arc, n, mode, **req)
                if res.admissible:
                    out.append((meas, arc, n, mu, deltas, req, res))
    return out


class TestClassicalArc:
    def test_lobatto_mode_endpoints_present(self):
        ta, tb = 0.3, 2.4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        n = 6
        _, deltas = chain(meas, n, 1)
        found = False
        for k in range(16):
            tau_hat = cmath.exp(2j * math.pi * k / 16)
            res = classical_arc(deltas, arc, n, "lobatto", tau_hat=tau_hat)
            if not res.admissible:
                continue
            found = True
            nodes = zeros_on_circle(res.spec, deltas)
            thetas = [p.theta for p in nodes]
            assert len(nodes) == n
            assert min(abs(t - ta) for t in thetas) < 1e-12
            assert min(abs(t - tb) for t in thetas) < 1e-12
            for p in nodes:
                assert arc.contains(p.z, closed=True, tol=1e-9)
            assert np.max(np.abs(assemble(res.spec, deltas)(nodes.z))) < 1e-9
        assert found

    def test_peherstorfer_mode_pins_interior_node(self):
        ta, tb = 0.3, 2.4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        n = 6
        _, deltas = chain(meas, n, 1)
        pinned = 0
        for t in np.linspace(ta + 0.2, tb - 0.2, 9):
            alpha = unit(float(t))
            res = classical_arc(deltas, arc, n, "peherstorfer", alpha=alpha)
            if not res.admissible:
                continue
            pinned += 1
            nodes = zeros_on_circle(res.spec, deltas)
            assert min(abs(p.theta - alpha.theta) for p in nodes) < 1e-10
        assert pinned > 0

    @pytest.mark.parametrize("mode, k", [("lobatto", 6), ("peherstorfer", 0)])
    def test_negative_weight_answer_is_inadmissible(self, mode, k):
        # arc (0.3, 2.4), n = 4: every node of the modified-chain
        # construction lies in the arc, but the weights that match the
        # moments are not all positive (-0.22 and -0.48), so P is unstable
        ta, tb, n = 0.3, 2.4, 4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        mu, deltas = chain(meas, n, 1)
        req = arc_request(ta, tb, mode, k)
        nodes = modified_chain_nodes(mu, arc, n, **req)
        assert all(arc.contains(p.z, closed=True, tol=1e-12) for p in nodes)
        assert np.min(lstsq_weights(nodes, mu, n - 2)) < -0.1
        assert not classical_arc(deltas, arc, n, mode, **req).admissible

    def test_sweep_answers_are_rules(self):
        # every admissible answer, n = 3 included, builds a rule that
        # holds both endpoints (within 2.3e-15 at worst) and is exact
        answers = classical_arc_sweep()
        assert {n for _, _, n, *_ in answers} == set(range(3, 13))
        for meas, arc, _, mu, deltas, _, res in answers:
            rule = build_rule(meas, res.spec, mu=mu, deltas=deltas)
            assert verify_exactness(rule, mu)["passes"]
            for end in (arc.a, arc.b):
                assert min(abs(p.z - end.z) for p in rule.nodes) < 1e-14

    def test_q_vanishes_at_modified_chain_nodes(self):
        # the endpoint-modified chain gives the same rule: at its nodes Q
        # is within 1.8e-12 ("lobatto") and 4.2e-12 ("peherstorfer") of
        # its largest coefficient at worst
        for _, arc, n, mu, deltas, req, res in classical_arc_sweep():
            q = assemble(res.spec, deltas)
            z = np.array([p.z for p in modified_chain_nodes(mu, arc, n, **req)])
            assert np.max(np.abs(q(z))) <= 1e-11 * np.max(np.abs(q.coeffs))

    def test_mode_validation(self):
        meas = MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)
        _, deltas = chain(meas, 6, 1)
        arc = ArcSpec(unit(0.3), unit(2.4))
        with pytest.raises(InvalidParameterError):
            classical_arc(deltas, arc, 6, "bogus")
        with pytest.raises(InvalidParameterError):
            classical_arc(deltas, arc, 6, "peherstorfer")
        with pytest.raises(InvalidParameterError):
            classical_arc(deltas, arc, 6, "lobatto")
        with pytest.raises(InvalidParameterError):
            classical_arc(deltas, arc, 6, "lobatto", tau_hat=1.5)
        with pytest.raises(InvalidParameterError):
            classical_arc(deltas, arc, 6, "lobatto", tau_hat=complex("nan"))


class TestTauForOmega:
    def test_lebesgue_ell0_closed_form(self, lebesgue):
        # omega = tau**2 for the trivial prescription, so the two square
        # roots of omega are exactly the solutions
        mu, deltas = chain(lebesgue, 4, 0)
        omega = cmath.exp(0.8j)
        sols, degenerate = tau_for_omega(deltas, 4, 0, [], omega)
        assert not degenerate
        assert len(sols) == 2
        assert sorted(abs(s**2 - omega) for s in sols)[-1] < 1e-12

    def test_round_trip(self, rogers_half, rng):
        n, ell = 8, 1
        mu, deltas = chain(rogers_half, n, ell)
        alphas = [unit(0.5), unit(2.2)]
        for _ in range(10):
            tau0 = random_tau(rng)
            pres = prescribe_2l(deltas, n, ell, alphas, tau0)
            params = orthogonality_params(pres.spec, deltas)
            if params.collapsed:
                continue
            sols, degenerate = tau_for_omega(deltas, n, ell, alphas, params.omega)
            assert len(sols) <= 2
            if not degenerate:
                assert any(abs(s - tau0) < 1e-7 for s in sols)

    def test_every_tau_passes_the_coupling_check(self):
        # a prescribe-mix request (seed 7, request 756) whose pencil has
        # condition number 6.2e6: one root of its quadratic misses the fixed
        # TOL.coupling gate, but the solve's error grows with cond, and that
        # root realises omega, with an inadmissible P
        measure = MeasureSpec("rogers_szego", q=0.8131229205294341)
        n, ell = 9, 4
        alphas = [unit(t) for t in [
            0.3847711801215336, 1.7415831939574744, 1.9219838327343757, 3.5940419856623236,
            4.0581432442250005, 4.121597818655432, 4.276273279303981, 4.816670220374784,
        ]]
        omega = cmath.exp(0.45142665261666515j)
        _, deltas = chain(measure, n, ell)
        sols, degenerate = tau_for_omega(deltas, n, ell, alphas, omega)
        assert not degenerate and len(sols) == 2
        pencil = tau_pencil(deltas, n, ell, alphas)
        assert all(pencil.rows([tau])[1][0] for tau in sols)
        once_dropped = 0.6932574933061628 + 0.7206899804873492j
        tau = min(sols, key=lambda t: abs(t - once_dropped))
        assert abs(tau - once_dropped) < 1e-9
        p = tau * pencil.a + pencil.b
        defect = np.max(np.abs(pencil.a_conj + np.conj(tau) * pencil.b_conj - np.conj(p)))
        assert defect > TOL.coupling * (1.0 + np.max(np.abs(p)))
        res = prescribe_2l(deltas, n, ell, alphas, tau)
        assert not res.admissible
        assert abs(orthogonality_params(res.spec, deltas).omega - omega) < 1e-12

    # the omega requests of the benchmark's draws (seed, request) that
    # return a tau past the fixed ``TOL.coupling`` gate, admitted by the gate
    # that grows with the condition number (cond 2.1e6 to 3.0e10)
    ILL_CONDITIONED = [
        (7, 46), (7, 756), (7, 1529), (7, 1550), (7, 1551), (201, 146), (201, 242),
        (201, 784), (201, 1038), (201, 1370), (202, 381), (202, 582), (202, 738),
        (202, 1589), (203, 491), (203, 519), (203, 892), (204, 610), (204, 1086),
        (204, 1410), (204, 1513), (204, 1720), (204, 1785), (205, 326), (205, 466),
        (205, 908), (205, 1377), (205, 1529), (205, 1571), (205, 1999), (206, 254),
        (206, 1134), (206, 1914), (207, 71), (207, 377), (207, 545), (208, 1012),
        (208, 1323), (209, 0), (209, 6), (209, 272), (209, 436), (209, 783),
        (209, 1226), (209, 1572), (209, 1605), (210, 4), (210, 699), (210, 701),
        (210, 913), (210, 999), (210, 1428), (210, 1462), (210, 1650),
    ]

    def test_extended_precision_oracle(self):
        # the pencil and the closed form redone in np.clongdouble: every tau
        # returned lies within cond * eps of the oracle's, and realises omega
        # on the oracle's pencil within cond * eps (0.24 and 0.46 of it at
        # most here); seed 205 request 908 (cond 3.0e10) misses by 2.4e-7
        work = perfbench_workloads()
        eps = np.finfo(float).eps
        worst = 0.0
        for seed in sorted({seed for seed, _ in self.ILL_CONDITIONED}):
            wanted = {i for s, i in self.ILL_CONDITIONED if s == seed}
            for i, inp in enumerate(itertools.islice(work.mix_inputs(seed), max(wanted) + 1)):
                if i not in wanted:
                    continue
                n, ell = inp["n"], inp["ell"]
                _, deltas = chain(work.mix_measure(circlequad, inp["measure"]), n, ell)
                alphas = [unit(t) for t in inp["nodes"]]
                omega = cmath.exp(1j * inp["angle"])
                sols, degenerate = tau_for_omega(deltas, n, ell, alphas, omega)
                pencil = tau_pencil(deltas, n, ell, alphas)
                ext = extended_omega_pencil(deltas, n, ell, alphas)
                ext_sols = extended_tau_for_omega(ext, omega)
                assert not degenerate and len(sols) == len(ext_sols) == 2, (seed, i)
                bound = pencil.cond * eps
                for tau in sols:
                    assert min(abs(complex(tau - t)) for t in ext_sols) <= bound
                    miss = abs(complex(extended_omega(ext, tau) - omega))
                    assert miss <= bound
                    worst = max(worst, miss)
                # each request has a tau past the fixed gate
                tau = np.array(sols)[:, None]
                p = tau * pencil.a + pencil.b
                defect = np.abs(pencil.a_conj + np.conj(tau) * pencil.b_conj - np.conj(p))
                assert np.any(np.max(defect, axis=1) > TOL.coupling * (1.0 + np.max(np.abs(p), axis=1)))
        assert 2e-7 < worst < 3e-7

    @staticmethod
    def _pencil(monkeypatch, a, b, delta, defect=0.0):
        """``tau_for_omega`` on the two-node pencil P(0) = tau a + b, whose
        conj(p) block misses conj(p) by ``defect``, and a chain (n = 3,
        ell = 1) whose delta_2 is delta."""
        pencil = prescribe.TauPencil(
            1, np.array([1.0, 1.0j]), np.ones(2, dtype=complex), np.array([a]), np.array([b]),
            np.conj([b]) + defect, np.conj([a]), 1.0,
        )
        monkeypatch.setattr(prescribe, "tau_pencil", lambda *_: pencil)
        deltas = circlequad.SchurSequence.from_params([0.0, delta])

        def solve(omega):
            sols, degenerate = tau_for_omega(deltas, 3, 1, [unit(0.0), unit(math.pi / 2)], omega)
            for tau in sols:  # each realises omega on the same rule
                spec = QpopucSpec(3, 1, ComplexPoly(pencil.rows([tau])[0][0]), tau)
                params = orthogonality_params(spec, deltas)
                assert not params.collapsed and abs(params.omega - omega) <= 1e-9
            return sols, degenerate

        return pencil, deltas, solve

    def test_tau_independent_omega(self, monkeypatch):
        # B = 0: N = c = conj(A) - delta at every tau, so omega = c / conj(c)
        _, _, solve = self._pencil(monkeypatch, 0.3 - 0.4j, 0.0, 0.2j)
        c = 0.3 + 0.4j - 0.2j
        assert solve(c / c.conjugate()) == ([], True)
        assert solve(c / c.conjugate() * cmath.exp(1e-6j)) == ([], False)
        assert solve(-c / c.conjugate()) == ([], False)

    def test_tau_independent_collapse(self, monkeypatch):
        # B = 0 and conj(A) = delta: sigma = 0 at every tau, no omega at all
        _, _, solve = self._pencil(monkeypatch, -0.2j, 0.0, 0.2j)
        assert solve(1.0 + 0j) == ([], False)
        assert solve(-1.0 + 0j) == ([], False)

    def test_tangency(self, monkeypatch):
        # a real pencil (A = 3, B = 1/2) on delta = -i/2: N runs on the
        # circle of radius 1/2 about c = 3 + i/2, which the line N real
        # (omega = 1) touches at N = 3, tau = -i
        _, _, solve = self._pencil(monkeypatch, 3.0, 0.5, -0.5j)
        assert solve(1.0 + 0j) == ([-1j], False)
        inside, outside = solve(cmath.exp(2e-3j)), solve(cmath.exp(-2e-3j))
        assert len(inside[0]) == 2 and not inside[1]
        assert outside == ([], False)
        assert max(abs(tau + 1j) for tau in inside[0]) < 0.2

    def test_coupling_miss_dropped(self, monkeypatch):
        # the two roots inside the tangency above, on a solve whose coupling
        # misses by 1e-6, far past the gate of a cond-1 pencil
        _, _, solve = self._pencil(monkeypatch, 3.0, 0.5, -0.5j, defect=1e-6)
        assert solve(cmath.exp(2e-3j)) == ([], False)

    @pytest.mark.parametrize("gap, count", [(0.0, 1), (1e-13, 1), (1e-6, 2)])
    def test_order_collapse_root_dropped(self, monkeypatch, gap, count):
        # c = 1, |B| = 1 + gap and omega = e^{0.6i}: the roots are
        # t = 2 cos(0.3), at tau = omega, and t = -gap / cos(0.3) to first
        # order, at tau near -1, where P(0) = gap; the second is the order
        # collapse sigma = 0 while |t| is within the ``TOL.sigma_collapse``
        # bound, the test ``orthogonality_params`` makes on sigma
        pencil, deltas, solve = self._pencil(monkeypatch, 1.0, 1.0 + gap, 0.0)
        sols, degenerate = solve(cmath.exp(0.6j))
        assert len(sols) == count and not degenerate
        assert min(abs(tau - cmath.exp(0.6j)) for tau in sols) <= gap + 1e-15
        spec = QpopucSpec(3, 1, ComplexPoly(pencil.rows([-1.0])[0][0]), -1.0)
        assert orthogonality_params(spec, deltas).collapsed == (count == 1)

    def test_omega_validated(self, lebesgue):
        mu, deltas = chain(lebesgue, 4, 0)
        with pytest.raises(InvalidParameterError):
            tau_for_omega(deltas, 4, 0, [], 0.5 + 0j)

    @pytest.mark.parametrize("omega", [complex("nan"), complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_non_finite_omega(self, rogers_half, omega):
        # past an open gate, a NaN omega would reach the closed form, whose
        # NaN taus only the coupling check would then drop
        _, deltas = chain(rogers_half, 8, 1)
        with pytest.raises(InvalidParameterError):
            tau_for_omega(deltas, 8, 1, [unit(0.5), unit(2.2)], omega)

    @pytest.mark.parametrize("ell", [0, 1])
    def test_short_chain_is_invalid_parameter(self, rogers_half, ell):
        # the chain holds delta_1..delta_4, and n - ell = 6 needs delta_6
        _, deltas = chain(rogers_half, 5, 1)
        alphas = [unit(0.5), unit(2.2)][: 2 * ell]
        with pytest.raises(InvalidParameterError):
            tau_for_omega(deltas, 6 + ell, ell, alphas, cmath.exp(0.8j))
