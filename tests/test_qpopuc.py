import cmath
import math

import numpy as np
import pytest

from circlequad import (
    ComplexPoly,
    MeasureSpec,
    QpopucSpec,
    SchurSequence,
    assemble,
    blaschke_solve,
    from_zeros,
    invariance_parameter,
    modified_schur,
    orthogonality_params,
    zeros_on_circle,
)
from circlequad.errors import (
    InvalidParameterError,
    InvarianceError,
    NotRepresentableError,
)
from circlequad.opuc import TWO_PI, wrap_theta
from circlequad.poly import ONE

from circlequad_helpers import chain, inner_product, random_tau


class TestSpecValidation:
    def test_arity(self):
        with pytest.raises(InvalidParameterError):
            QpopucSpec(4, 2, from_zeros([0.1, 0.2]), 1.0 + 0j)
        QpopucSpec(5, 2, from_zeros([0.1, 0.2]), 1.0 + 0j)  # 2*ell + 1 == n is fine

    def test_monic_degree(self):
        with pytest.raises(InvalidParameterError):
            QpopucSpec(5, 1, ComplexPoly([0.5]), 1.0 + 0j)
        with pytest.raises(InvalidParameterError):
            QpopucSpec(5, 1, ComplexPoly([0.1, 2.0]), 1.0 + 0j)

    def test_unimodular_tau(self):
        with pytest.raises(InvalidParameterError):
            QpopucSpec(5, 0, ONE, 0.5 + 0j)

    @pytest.mark.parametrize("tau", [complex("nan"), complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_non_finite_tau(self, tau):
        with pytest.raises(InvalidParameterError):
            QpopucSpec(5, 0, ONE, tau)


class TestAssemble:
    def test_lebesgue_closed_form(self, lebesgue):
        # rho_k = z**k, so Q = z**(n-ell) P + tau P*
        mu, deltas = chain(lebesgue, 5, 1)
        eta = 0.3 + 0.2j
        tau = cmath.exp(0.4j)
        spec = QpopucSpec(5, 1, from_zeros([eta]), tau)
        q = assemble(spec, deltas)
        expected = spec.P.shift(4) + tau * spec.P.reciprocal(1)
        assert np.allclose(q.coeffs, expected.coeffs)

    def test_invariance(self, rogers_half, rng):
        mu, deltas = chain(rogers_half, 9, 2)
        spec = QpopucSpec(9, 2, from_zeros([0.3 - 0.1j, -0.2j]), random_tau(rng))
        q = assemble(spec, deltas)
        tau = invariance_parameter(q)
        assert abs(tau - spec.tau) < 1e-12

    def test_orthogonality_to_inner_monomials(self, rogers_half, rng):
        n, ell = 9, 2
        mu, deltas = chain(rogers_half, n, ell)
        spec = QpopucSpec(n, ell, from_zeros([0.3 - 0.1j, -0.2j]), random_tau(rng))
        q = assemble(spec, deltas)
        for j in range(ell + 1, n - ell):
            mono = ComplexPoly([0] * j + [1.0])
            assert abs(inner_product(q, mono, mu)) < 1e-10


class TestInvarianceParameter:
    def test_rejects_non_invariant(self):
        with pytest.raises(InvarianceError):
            invariance_parameter(ComplexPoly([0.5, 0.0, 1.0]))

    def test_rejects_non_monic(self):
        with pytest.raises(InvalidParameterError):
            invariance_parameter(ComplexPoly([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("coeffs", [[math.nan, 0.0, 1.0], [1.0, math.nan, 1.0]])
    def test_rejects_nan(self, coeffs):
        # a NaN Q(0), or a NaN coefficient elsewhere, fails each gate
        with pytest.raises(InvarianceError):
            invariance_parameter(ComplexPoly(coeffs))


class TestOrthogonalityParams:
    def test_lebesgue_ell0(self, lebesgue):
        mu, deltas = chain(lebesgue, 4, 0)
        tau = cmath.exp(0.3j)
        params = orthogonality_params(QpopucSpec(4, 0, ONE, tau), deltas)
        # sigma = conj(P(0)) = 1, so tau_tilde = tau and omega = tau**2
        assert not params.collapsed
        assert abs(params.sigma - 1.0) < 1e-14
        assert abs(params.tau_tilde - tau) < 1e-14
        assert abs(params.omega - tau**2) < 1e-14

    def test_collapse_flag(self, lebesgue):
        # Lebesgue delta = 0, so sigma = conj(P(0)); eta = 0 collapses it
        mu, deltas = chain(lebesgue, 5, 1)
        params = orthogonality_params(
            QpopucSpec(5, 1, from_zeros([0.0]), 1.0 + 0j), deltas
        )
        assert params.collapsed and params.omega is None

    def test_q_poly_relation(self, rogers_half, rng):
        # sigma * q = P* - conj(tau) delta P, with q monic-free normalization
        n, ell = 8, 2
        mu, deltas = chain(rogers_half, n, ell)
        spec = QpopucSpec(n, ell, from_zeros([0.4, -0.3j]), random_tau(rng))
        params = orthogonality_params(spec, deltas)
        delta = complex(deltas.delta[n - ell])
        lhs = params.sigma * params.q_poly
        rhs = spec.P.reciprocal(ell) + (-np.conj(spec.tau) * delta) * spec.P
        assert np.allclose(lhs.coeffs, rhs.coeffs)

    def test_omega_unimodular(self, rogers_half, rng):
        mu, deltas = chain(rogers_half, 8, 2)
        for _ in range(5):
            spec = QpopucSpec(8, 2, from_zeros([0.4, -0.3j]), random_tau(rng))
            params = orthogonality_params(spec, deltas)
            assert abs(abs(params.omega) - 1.0) < 1e-12


class TestModifiedSchur:
    def test_matches_direct_assembly(self, rogers_half, rng):
        from circlequad._kernels import szego_eval

        n, ell = 10, 3
        mu, deltas = chain(rogers_half, n, ell)
        zs = 0.5 * (rng.normal(size=ell) + 1j * rng.normal(size=ell))
        zs /= max(1.0, 1.5 * np.max(np.abs(zs)))
        spec = QpopucSpec(n, ell, from_zeros(zs), random_tau(rng))
        modified = modified_schur(spec, deltas)
        assert modified.order == n - 1
        z = np.exp(1j * rng.uniform(0, TWO_PI, size=64))
        rho, rho_star = szego_eval(modified.params(), z)
        direct = assemble(spec, deltas)(z)
        dev = np.max(np.abs(direct - (z * rho + spec.tau * rho_star)))
        assert dev < 1e-10 * assemble(spec, deltas).max_abs_coeff()

    def test_unstable_p_rejected(self, rogers_half):
        mu, deltas = chain(rogers_half, 6, 1)
        spec = QpopucSpec(6, 1, from_zeros([1.4]), 1.0 + 0j)
        with pytest.raises(NotRepresentableError):
            modified_schur(spec, deltas)


class TestZerosOnCircle:
    def test_lebesgue_paraorthogonal(self, lebesgue):
        # Q = z**n + tau with zeros the n-th roots of -tau
        n = 6
        mu, deltas = chain(lebesgue, n, 0)
        tau = cmath.exp(0.5j)
        pts = zeros_on_circle(QpopucSpec(n, 0, ONE, tau), deltas)
        expected = sorted(
            ((math.pi + 0.5) + TWO_PI * k) / n % TWO_PI for k in range(n)
        )
        assert np.allclose(sorted(p.theta for p in pts), expected, atol=1e-12)

    def test_count_and_residual(self, rogers_half, rng):
        n, ell = 9, 2
        mu, deltas = chain(rogers_half, n, ell)
        spec = QpopucSpec(n, ell, from_zeros([0.2 + 0.4j, -0.5]), random_tau(rng))
        pts = zeros_on_circle(spec, deltas)
        assert len(pts) == n
        q = assemble(spec, deltas)
        z = np.array([p.z for p in pts])
        assert np.max(np.abs(q(z))) < 1e-9 * q.max_abs_coeff()

    @pytest.mark.parametrize("measure", ["lebesgue", "rogers_szego"])
    def test_steep_modified_chains_match_companion_roots(self, measure, rng):
        # synthetic parameters tau conj(kappa_j) with |kappa_j| >= 0.999, a
        # P near the edge of stability: bracketed at ceil(n/2) like any
        # chain, the nodes are the zeros of z rho~ + tau rho~* from its
        # companion matrix
        spec = MeasureSpec(measure, q=0.5) if measure == "rogers_szego" else MeasureSpec(measure)
        for n, ell in ((5, 1), (5, 2), (9, 2), (16, 1), (16, 3), (40, 3)):
            mu, deltas = chain(spec, n, ell)
            for _ in range(10):
                tau = random_tau(rng)
                kappas = rng.uniform(0.999, 0.99999, size=ell) * np.exp(
                    1j * rng.uniform(0.0, TWO_PI, size=ell)
                )
                params = np.append(deltas.params(n - ell - 1), tau * np.conj(kappas))
                thetas = blaschke_solve(SchurSequence.from_params(params), n, -tau).theta
                # a close pair of companion roots of Q in double precision is
                # off by up to ~3e-12: Q is built from the parameters, and its
                # companion roots polished, in extended precision
                rho = np.ones(1, dtype=np.clongdouble)
                for d in params.astype(np.clongdouble):
                    rho = np.append(0, rho) + d * np.append(np.conj(rho[::-1]), 0)
                q = (np.append(0, rho) + tau * np.append(np.conj(rho[::-1]), 0))[::-1]
                z = np.roots(q.astype(complex)).astype(np.clongdouble)
                for _ in range(3):
                    z -= np.polyval(q, z) / np.polyval(np.polyder(q), z)
                expected = np.sort(wrap_theta(np.angle(z.astype(complex))))
                assert np.max(np.abs(np.angle(np.exp(1j * (thetas - expected))))) < 1e-12
