import cmath
import dataclasses
import math

import numpy as np
import pytest

from circlequad import (
    ComplexPoly,
    MeasureSpec,
    MomentSequence,
    QpopucSpec,
    SchurSequence,
    assemble,
    blaschke_solve,
    build_rule,
    from_zeros,
    invariance_parameter,
    modified_schur,
    orthogonality_params,
    verify_exactness,
    zeros_on_circle,
)
from circlequad import quadrature
from circlequad.errors import (
    InternalConsistencyError,
    InvalidParameterError,
    InvarianceError,
    NodesNotQuadratureError,
    NotRepresentableError,
)
from circlequad.opuc import TWO_PI, wrap_theta
from circlequad.poly import ONE
from circlequad.quadrature import weights

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


def _tail(change):
    """A mutation of the modified chain's synthetic tail alone."""

    def mutate(params, m, tau):
        params[m:] = change(params[m:], tau)
        return params

    return mutate


def _head(j):
    """A mutation that moves the head parameter delta_{j+1} by 1e-6."""

    def mutate(params, m, tau):
        params[j % m] += 1e-6
        return params

    return mutate


class TestRuleCertificates:
    """``build_rule`` certifies each link once: the chain's tail against
    P (the round trip of ``_modified_chain``), its head against the
    moments and the omega pair against the rule (``quadrature.weights``).
    A wrong chain or a wrong omega, injected by monkeypatch, is refused."""

    ZEROS = [0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.6j]  # complex, so conj(kappa) != kappa
    TAU = cmath.exp(1.2j)

    def spec_and_chain(self, measure, ell, n=12):
        spec = QpopucSpec(n, ell, from_zeros(self.ZEROS[:ell]), self.TAU)
        return spec, *chain(measure, n, ell)

    def mutate_chain(self, monkeypatch, spec, mutate):
        """Every chain of n - 1 parameters, the modified chain, is built
        with ``mutate`` applied: the tail it holds is the mutated one."""
        from_params = SchurSequence.from_params
        m = spec.n - spec.ell - 1

        def mutated(params, e0=1.0):
            params = np.array(params, dtype=complex)
            if len(params) == spec.n - 1:
                params = mutate(params, m, spec.tau)
            return from_params(params, e0)

        monkeypatch.setattr(SchurSequence, "from_params", staticmethod(mutated))

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_unmutated_rule_builds(self, rogers_half, ell):
        spec, mu, deltas = self.spec_and_chain(rogers_half, ell)
        rule = build_rule(rogers_half, spec, mu=mu, deltas=deltas)
        assert rule.omega is not None and verify_exactness(rule, mu)["passes"]

    @pytest.mark.parametrize(
        "ell, mutate",
        # a permutation of one kappa is the identity, so it starts at ell = 2
        [(ell, _tail(lambda t, tau: np.roll(t, 1))) for ell in (2, 3)]
        # tau kappa for tau conj(kappa): the conjugate dropped
        + [(ell, _tail(lambda t, tau: tau**2 * np.conj(t))) for ell in (1, 2, 3)]
        # conj(kappa): the tail built without tau
        + [(ell, _tail(lambda t, tau: t / tau)) for ell in (1, 2, 3)],
        ids=["permuted-2", "permuted-3", "conj-1", "conj-2", "conj-3",
             "no-tau-1", "no-tau-2", "no-tau-3"],
    )
    def test_wrong_tail_refused(self, rogers_half, monkeypatch, ell, mutate):
        spec, mu, deltas = self.spec_and_chain(rogers_half, ell)
        self.mutate_chain(monkeypatch, spec, mutate)
        with pytest.raises(InternalConsistencyError, match="tail misses P"):
            build_rule(rogers_half, spec, mu=mu, deltas=deltas)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("j", [0, -1])  # delta_1 and delta_m
    def test_moved_head_refused(self, rogers_half, monkeypatch, ell, j):
        spec, mu, deltas = self.spec_and_chain(rogers_half, ell)
        self.mutate_chain(monkeypatch, spec, _head(j))
        with pytest.raises(NodesNotQuadratureError, match="moment-matching"):
            build_rule(rogers_half, spec, mu=mu, deltas=deltas)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_rotated_omega_refused(self, rogers_half, monkeypatch, ell):
        # the rule misses z**(m+1) by |e| = 0.04 to 0.14 here, and a rotation
        # of omega by 1e-3 misses the pair by about |e| 1e-3, far above the
        # 1e-9 gate
        spec, mu, deltas = self.spec_and_chain(rogers_half, ell)
        params = orthogonality_params(spec, deltas)

        def rotated(spec, deltas):
            return dataclasses.replace(params, omega=params.omega * cmath.exp(1e-3j))

        monkeypatch.setattr(quadrature, "orthogonality_params", rotated)
        with pytest.raises(NodesNotQuadratureError, match="omega-pair"):
            build_rule(rogers_half, spec, mu=mu, deltas=deltas)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_collapsed_order_skips_the_pair(self, lebesgue, ell):
        # Lebesgue has delta = 0, so sigma = conj(P(0)), and a zero of P at
        # 0 collapses the order: there is no omega, and no row m + 1 is read
        n = 7
        spec = QpopucSpec(n, ell, from_zeros([0.0, 0.4 - 0.3j][:ell]), self.TAU)
        mu, deltas = chain(lebesgue, n, ell)
        rule = build_rule(lebesgue, spec, mu=mu, deltas=deltas)
        assert rule.omega is None and verify_exactness(rule, mu)["passes"]
        m = rule.m
        short = MomentSequence(mu.mu[: m + 1])
        assert np.array_equal(weights(rule.nodes, short, m, None), rule.weights)
        with pytest.raises(InvalidParameterError, match=f"order {m + 1}"):
            weights(rule.nodes, short, m, 1.0 + 0j)
