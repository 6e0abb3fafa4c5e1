import cmath
import math

import numpy as np
import pytest

from circlequad import (
    ArcSpec,
    MeasureSpec,
    QpopucSpec,
    UnitPoint,
    assemble,
    classical_arc,
    from_zeros,
    lobatto2,
    moments,
    prescribe_2l,
    prescribe_2lp1,
    radau,
    radau_arc_admissible,
    tau_for_omega,
    three_nodes,
    zeros_on_circle,
)
from circlequad.errors import (
    InvalidParameterError,
    NoSolutionError,
)
from circlequad.poly import ONE
from circlequad.qpopuc import orthogonality_params

from circlequad_helpers import chain, random_tau, unit

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
        res = lobatto2(deltas, 4, unit(0.0), unit(math.pi), -1.0 + 0j, t=0.5)
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
    def test_delegates_to_lobatto2(self, rogers_half, rng):
        mu, deltas = chain(rogers_half, 6, 1)
        tau = random_tau(rng)
        a = [unit(0.3), unit(1.9)]
        r1 = lobatto2(deltas, 6, a[0], a[1], tau)
        r2 = prescribe_2l(deltas, 6, 1, a, tau)
        assert np.allclose(r1.spec.P.coeffs, r2.spec.P.coeffs, atol=1e-10)
        assert r1.admissible == r2.admissible

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


class TestClassicalArc:
    def test_lobatto_mode_endpoints_present(self):
        ta, tb = 0.3, 2.4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        n = 6
        mu = moments(meas, 2 * n)
        found = False
        for k in range(16):
            tau_hat = cmath.exp(2j * math.pi * k / 16)
            res = classical_arc(mu, arc, n, "lobatto", tau_hat=tau_hat)
            if not res.admissible:
                continue
            found = True
            thetas = [p.theta for p in res.nodes]
            assert len(res.nodes) == n
            assert min(abs(t - ta) for t in thetas) < 1e-12
            assert min(abs(t - tb) for t in thetas) < 1e-12
            for p in res.nodes:
                assert arc.contains(p.z, closed=True, tol=1e-9)
            z = np.array([p.z for p in res.nodes])
            assert np.max(np.abs(res.nodal_poly(z))) < 1e-9
        assert found

    def test_peherstorfer_mode_pins_interior_node(self):
        ta, tb = 0.3, 2.4
        meas = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
        arc = ArcSpec(unit(ta), unit(tb))
        n = 6
        mu = moments(meas, 2 * n)
        pinned = 0
        for t in np.linspace(ta + 0.2, tb - 0.2, 9):
            alpha = unit(float(t))
            res = classical_arc(mu, arc, n, "peherstorfer", alpha=alpha)
            if not res.admissible:
                continue
            pinned += 1
            assert min(abs(p.theta - alpha.theta) for p in res.nodes) < 1e-10
        assert pinned > 0

    def test_mode_validation(self):
        meas = MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)
        mu = moments(meas, 12)
        arc = ArcSpec(unit(0.3), unit(2.4))
        with pytest.raises(InvalidParameterError):
            classical_arc(mu, arc, 6, "bogus")
        with pytest.raises(InvalidParameterError):
            classical_arc(mu, arc, 6, "peherstorfer")
        with pytest.raises(InvalidParameterError):
            classical_arc(mu, arc, 6, "lobatto")


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

    def test_omega_validated(self, lebesgue):
        mu, deltas = chain(lebesgue, 4, 0)
        with pytest.raises(InvalidParameterError):
            tau_for_omega(deltas, 4, 0, [], 0.5 + 0j)
