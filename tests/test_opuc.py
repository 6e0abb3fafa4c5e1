import cmath
import math

import numpy as np
import pytest

from circlequad import (
    ComplexPoly,
    MomentSequence,
    SchurSequence,
    UnitPoint,
    blaschke_eval,
    blaschke_solve,
    inner_product,
    schur_cohn,
    schur_from_moments,
    szego_from_schur,
)
from circlequad import opuc
from circlequad.errors import (
    BoundaryDegenerateError,
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    MomentRangeError,
    NotPositiveDefiniteError,
)
from circlequad.measures import MeasureSpec, moments
from circlequad.opuc import TWO_PI, random_unit_points, wrap_theta

from conftest import chain


def discrete_measure_moments(rng, nodes=12, order=6):
    z = np.exp(1j * rng.uniform(0, TWO_PI, size=nodes))
    w = rng.uniform(0.1, 1.0, size=nodes)
    mu = np.array([np.sum(w * z**k) for k in range(order + 1)])
    return MomentSequence(mu)


class TestUnitPoint:
    def test_from_theta_round_trip(self):
        p = UnitPoint.from_theta(1.25)
        assert abs(p.z - cmath.exp(1.25j)) < 1e-15

    def test_off_circle_rejected(self):
        with pytest.raises(DomainError):
            UnitPoint.from_complex(1.1 + 0.0j, tol=1e-9)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(Exception):
            UnitPoint(0.0, 1.0j)

    def test_tiny_negative_angle_wraps_to_zero(self):
        # -1e-17 % (2 pi) rounds up to exactly 2 pi
        assert UnitPoint.from_theta(-1e-17).theta == 0.0
        assert UnitPoint.from_complex(complex(1.0, -1e-17)).theta == 0.0
        assert wrap_theta(np.array([-1e-17, TWO_PI, -0.5])).tolist() == [
            0.0, 0.0, TWO_PI - 0.5
        ]


class TestMomentSequence:
    def test_conjugate_symmetry(self):
        mu = MomentSequence(np.array([2.0, 0.5 + 0.25j]))
        assert mu.get(-1) == np.conj(mu.get(1))
        assert mu.order == 1

    def test_range_error(self):
        mu = MomentSequence(np.array([1.0]))
        with pytest.raises(MomentRangeError):
            mu.get(1)

    def test_mu0_must_be_real_positive(self):
        with pytest.raises(NotPositiveDefiniteError):
            MomentSequence(np.array([-1.0 + 0j]))
        with pytest.raises(NotPositiveDefiniteError):
            MomentSequence(np.array([1.0 + 1.0j]))


class TestSchurSequence:
    def test_from_params_norms(self):
        s = SchurSequence.from_params([0.5, -0.5j], e0=2.0)
        assert np.allclose(s.norms, [2.0, 1.5, 1.125])

    def test_disk_constraint(self):
        with pytest.raises(InvalidParameterError):
            SchurSequence.from_params([1.0])

    def test_rho_coeffs_match_recursion(self):
        rng = np.random.default_rng(11)
        d = 0.7 * (rng.normal(size=5) + 1j * rng.normal(size=5))
        d /= np.max(np.abs(d)) * 1.3
        s = SchurSequence.from_params(d)
        # independent recursion through polynomial arithmetic
        rho = ComplexPoly([1.0])
        for k in range(1, 6):
            rho_star = rho.reciprocal(k - 1)
            rho = rho.shift(1) + complex(d[k - 1]) * rho_star
            assert np.allclose(s.rho_coeffs(k), rho.coeffs)
        # degrees asked out of order recurse from the nearest cached one
        fresh = SchurSequence.from_params(d)
        polys = szego_from_schur(s, 5)
        for k in (4, 2, 5, 3):
            assert np.allclose(fresh.rho_coeffs(k), polys[k].coeffs)


class TestSchurFromMoments:
    def test_lebesgue_all_zero(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        s = schur_from_moments(mu, 6)
        assert np.max(np.abs(s.params())) == 0.0
        assert np.allclose(s.norms, 1.0)

    def test_rogers_szego_closed_form(self):
        # delta_k = (-1)**k * q**(k/2)
        q = 0.5
        mu = moments(MeasureSpec("rogers_szego", q=q), 8)
        s = schur_from_moments(mu, 8)
        expected = [(-1.0) ** k * q ** (k / 2.0) for k in range(1, 9)]
        assert np.allclose(s.params(), expected, atol=1e-13)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            schur_from_moments(MomentSequence(np.array([1.0, 1.2])), 1)

    def test_orthogonality_against_discrete_oracle(self, rng):
        mu = discrete_measure_moments(rng)
        s = schur_from_moments(mu, 6)
        polys = szego_from_schur(s, 6)
        for k in range(1, 7):
            for j in range(k):
                ip = inner_product(polys[k], ComplexPoly([0] * j + [1.0]), mu)
                assert abs(ip) < 1e-9 * s.norms[0]
            norm = inner_product(polys[k], polys[k], mu)
            assert abs(norm - s.norms[k]) < 1e-9 * s.norms[0]


class TestBlaschke:
    def test_lebesgue_is_plain_power(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        s = schur_from_moments(mu, 5)
        z = cmath.exp(0.3j)
        assert abs(blaschke_eval(s, 5, z) - z**5) < 1e-14

    def test_solve_lebesgue_exact_roots(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        s = schur_from_moments(mu, 5)
        target = cmath.exp(0.4j)
        pts = blaschke_solve(s, 5, target)
        expected = sorted((0.4 + TWO_PI * k) / 5 for k in range(5))
        assert len(pts) == 5
        assert np.allclose([p.theta for p in pts], expected, atol=1e-12)

    def test_solve_random_chain_property(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            d = 0.9 * rng.uniform(0.1, 1.0, size=n - 1) * np.exp(
                1j * rng.uniform(0, TWO_PI, size=n - 1)
            )
            s = SchurSequence.from_params(d)
            target = cmath.exp(1j * rng.uniform(0, TWO_PI))
            pts = blaschke_solve(s, n, target)
            assert len(pts) == n
            thetas = [p.theta for p in pts]
            assert thetas == sorted(thetas)
            for p in pts:
                assert abs(blaschke_eval(s, n, p.z) - target) < 1e-8

    @pytest.mark.parametrize("angle", [0.0, 0.4, -2.0])
    def test_solve_lebesgue_closed_form_large_n(self, angle):
        # F_n(z) = z**n, so the roots are the n-th roots of the target;
        # angle 0 puts a root at theta = 0, which must not come back as 2 pi
        n = 256
        s = SchurSequence.from_params(np.zeros(n - 1))
        pts = blaschke_solve(s, n, cmath.exp(1j * angle))
        thetas = np.array([p.theta for p in pts])
        expected = np.sort(wrap_theta((angle + TWO_PI * np.arange(n)) / n))
        assert np.all((thetas >= 0.0) & (thetas < TWO_PI))
        assert np.max(np.abs(thetas - expected)) < 1e-12

    def test_solve_matches_companion_roots(self, rng):
        # oracle: zeros of the paraorthogonal z rho_{n-1} - t rho*_{n-1}
        for _ in range(40):
            n = int(rng.integers(1, 25))
            d = 0.95 * rng.uniform(0.0, 1.0, size=n - 1) * np.exp(
                1j * rng.uniform(0, TWO_PI, size=n - 1)
            )
            s = SchurSequence.from_params(d)
            target = cmath.exp(1j * rng.uniform(0, TWO_PI))
            rho = ComplexPoly(s.rho_coeffs(n - 1))
            q = rho.shift(1) - target * rho.reciprocal(n - 1)
            roots = np.roots(q.coeffs[::-1])
            expected = np.sort(wrap_theta(np.angle(roots)))
            thetas = np.array([p.theta for p in blaschke_solve(s, n, target)])
            # wrap-aware distance, for a root within rounding of theta = 0
            diff = np.angle(np.exp(1j * (thetas - expected)))
            assert np.max(np.abs(diff)) < 1e-10

    def test_certificate_catches_bad_eigenvalue(self, monkeypatch):
        s = SchurSequence.from_params(0.5 * np.exp(1j * np.arange(1, 12)))
        blaschke_solve(s, 12, 1j)  # the unperturbed solve is accepted
        true_eigvals = opuc._cmv_eigvals

        def perturbed(alpha):
            ev = true_eigvals(alpha)
            ev[0] = ev[1]  # one root lost, its neighbor found twice
            return ev

        monkeypatch.setattr(opuc, "_cmv_eigvals", perturbed)
        with pytest.raises(InternalConsistencyError):
            blaschke_solve(s, 12, 1j)

    def test_solve_rejects_off_circle_target(self):
        s = SchurSequence.from_params([0.2])
        with pytest.raises(DomainError):
            blaschke_solve(s, 2, 1.5 + 0.0j)


class TestSchurCohn:
    def test_matches_companion_roots(self, rng):
        agree = 0
        for _ in range(100):
            deg = int(rng.integers(1, 7))
            zs = rng.uniform(0.1, 1.6, size=deg) * np.exp(
                1j * rng.uniform(0, TWO_PI, size=deg)
            )
            p = ComplexPoly(np.concatenate([np.poly(zs)[::-1][:-1], [1.0]]))
            try:
                res = schur_cohn(p)
            except BoundaryDegenerateError:
                continue
            assert res.stable == bool(np.max(np.abs(zs)) < 1.0)
            agree += 1
        assert agree > 80

    def test_boundary_band_refused(self):
        with pytest.raises(BoundaryDegenerateError):
            schur_cohn(ComplexPoly([1.0, 1.0]))

    def test_requires_monic(self):
        with pytest.raises(InvalidParameterError):
            schur_cohn(ComplexPoly([1.0, 2.0 + 0.5j, 3.0]))


def test_random_unit_points(rng):
    pts = random_unit_points(rng, 5)
    assert len(pts) == 5
    for p in pts:
        assert abs(abs(p.z) - 1.0) < 1e-12


def test_chain_helper_sizes(rogers_half):
    mu, deltas = chain(rogers_half, 10, 2)
    assert mu.order >= 16 and deltas.order == 8
