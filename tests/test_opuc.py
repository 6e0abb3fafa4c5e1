import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlequad import (
    ComplexPoly,
    MomentSequence,
    SchurSequence,
    UnitPoint,
    UnitPoints,
    blaschke_eval,
    blaschke_solve,
    schur_cohn,
    schur_from_moments,
)
from circlequad import opuc
from circlequad._kernels import szego_eval
from circlequad.errors import (
    BoundaryDegenerateError,
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    MomentRangeError,
    NotPositiveDefiniteError,
)
from circlequad.measures import MeasureSpec, moments
from circlequad.config import TOL
from circlequad.opuc import TWO_PI, schur_cohn_rows, wrap_theta
from circlequad.poly import from_zeros

from circlequad_helpers import (
    chain,
    direct_christoffel,
    inner_product,
    levinson_loop,
    rho_coeffs_loop,
    schur_cohn_rows_loop,
    szego_eval_loop,
    szego_from_schur,
)


def cmv_eigenvalues(alpha):
    """Eigenvalues of the n x n truncated CMV matrix L M of the
    Verblunsky coefficients alpha_0..alpha_{n-1}, |alpha_{n-1}| = 1.

    L stacks the 2x2 blocks [[conj a_k, r_k], [r_k, -a_k]],
    r_k = sqrt(1 - |a_k|^2), for even k and M those for odd k after a
    leading 1; with r_{n-1} = 0 the last block decouples, so both
    factors are built one size larger and cut back to n x n.
    """
    n = len(alpha)
    r = np.append(np.sqrt(1.0 - np.abs(alpha[:-1]) ** 2), 0.0)
    factors = []
    for first in (0, 1):
        b = np.zeros((n + 1, n + 1), dtype=complex)
        b[0, 0] = 1.0
        k = np.arange(first, n, 2)
        b[k, k], b[k, k + 1] = np.conj(alpha[k]), r[k]
        b[k + 1, k], b[k + 1, k + 1] = r[k], -alpha[k]
        factors.append(b[:n, :n])
    return np.linalg.eigvals(factors[0] @ factors[1])


def forward_phase(d, theta):
    """Unwrapped arg F_n(e^{i theta}) by the forward recursion alone:
    each step adds theta + 2 Arg(1 + delta_j conj F_j)."""
    z = np.exp(1j * theta)
    f, psi = z, theta.copy()
    for dj in d:
        psi += theta + 2.0 * np.angle(1.0 + dj * np.conj(f))
        f = z * (f + dj) / (1.0 + np.conj(dj) * f)
    return psi


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

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, theta):
        # wrap_theta maps each of these to 0, so the point 1 would stand in
        with pytest.raises(InvalidParameterError, match="not finite"):
            UnitPoint.from_theta(theta)
        with pytest.raises(InvalidParameterError, match="not finite"):
            UnitPoint.from_theta(np.float64(theta))
        with pytest.raises(InvalidParameterError, match="not finite"):
            UnitPoint(theta, 1.0 + 0.0j)

    def test_nan_point_refused(self):
        # |z| - 1 is NaN: each unit-modulus gate refuses it
        nan = complex("nan")
        with pytest.raises(DomainError):
            UnitPoint.from_complex(nan)
        with pytest.raises(DomainError):
            UnitPoint.from_complex(complex(math.nan, 0.0), tol=1.0)
        with pytest.raises(DomainError):
            UnitPoint(0.0, nan)
        with pytest.raises(InvalidParameterError):
            UnitPoint(math.nan, nan)
        deltas = SchurSequence.from_params([0.3, -0.2j])
        with pytest.raises(DomainError):
            blaschke_eval(deltas, 3, nan)
        with pytest.raises(DomainError):
            blaschke_solve(deltas, 3, nan)

    def test_tiny_negative_angle_wraps_to_zero(self):
        # -1e-17 % (2 pi) rounds up to exactly 2 pi
        assert UnitPoint.from_theta(-1e-17).theta == 0.0
        assert UnitPoint.from_complex(complex(1.0, -1e-17)).theta == 0.0
        assert wrap_theta(np.array([-1e-17, TWO_PI, -0.5])).tolist() == [
            0.0, 0.0, TWO_PI - 0.5
        ]


    def test_wrap_theta_matches_numpy_to_the_bit(self):
        # a float is reduced by Python's %, an array by np.mod: both give
        # np.mod then np.where to the bit, the sign of zero included
        tiny = np.nextafter(0.0, -1.0)
        pinned = [0.0, -0.0, tiny, -tiny, -1e-300, -1e-17, -1e-16, -0.5, 1.25,
                  TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0),
                  np.nan, 1e300, -1e300]
        pinned += [k * TWO_PI for k in range(-40, 41)]
        pinned += [np.nextafter(k * TWO_PI, s) for k in range(-40, 41) for s in (-1e3, 1e3)]
        rng = np.random.default_rng(31)
        drawn = np.concatenate([
            rng.uniform(-50.0, 50.0, size=4000),
            -(10.0 ** rng.uniform(-320.0, 0.0, size=4000)),
            TWO_PI * rng.integers(-1000, 1000, size=2000),
        ])
        x = np.concatenate([pinned, drawn])
        reduced = np.mod(x, TWO_PI)
        want = np.where(reduced < TWO_PI, reduced, 0.0)
        assert np.array_equal(wrap_theta(x).view(np.int64), want.view(np.int64))
        got = np.array([wrap_theta(float(v)) for v in x])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert wrap_theta(np.nan) == 0.0 and math.copysign(1.0, wrap_theta(-0.0)) == 1.0
        assert type(wrap_theta(-1e-17)) is float

    def test_unit_points_sequence(self):
        # the solver's compact node sequence reads like a list of UnitPoint
        theta = np.array([0.0, 1.25, 4.5])
        pts = UnitPoints(theta)
        assert len(pts) == 3 and [p.theta for p in pts] == theta.tolist()
        assert isinstance(pts[-1], UnitPoint) and pts[-1].theta == 4.5
        assert abs(pts[1].z - cmath.exp(1.25j)) < 1e-15
        assert np.array_equal(pts.z, [p.z for p in pts])
        assert [p.theta for p in pts[1:]] == [1.25, 4.5]


class TestMomentSequence:
    def test_conjugate_symmetry(self):
        mu = MomentSequence(np.array([2.0, 0.5 + 0.25j]))
        assert mu.get(-1) == np.conj(mu.get(1))
        assert mu.order == 1

    def test_range_error(self):
        mu = MomentSequence(np.array([1.0]))
        with pytest.raises(MomentRangeError):
            mu.get(1)

    def test_array_matches_get_loop(self):
        rng = np.random.default_rng(8)
        mu = MomentSequence(np.concatenate([[1.5], rng.normal(size=12) + 1j * rng.normal(size=12)]))
        for _ in range(300):
            lo, hi = (int(k) for k in np.sort(rng.integers(-14, 15, size=2)))
            try:
                want = np.array([mu.get(k) for k in range(lo, hi + 1)])
            except MomentRangeError as exc:
                with pytest.raises(MomentRangeError, match=f"^{re.escape(str(exc))}$"):
                    mu.array(lo, hi)
                continue
            assert np.array_equal(mu.array(lo, hi), want)

    def test_mu0_must_be_real_positive(self):
        with pytest.raises(NotPositiveDefiniteError):
            MomentSequence(np.array([-1.0 + 0j]))
        with pytest.raises(NotPositiveDefiniteError):
            MomentSequence(np.array([1.0 + 1.0j]))

    @pytest.mark.parametrize("mu0", [math.nan, complex(1.0, math.nan), complex(math.nan, 0.0)])
    def test_nan_mu0_refused(self, mu0):
        # "real <= 0" and "|imag| > tol" are both False on NaN
        with pytest.raises(NotPositiveDefiniteError):
            MomentSequence(np.array([mu0]))


class TestSchurSequence:
    def test_from_params_norms(self):
        s = SchurSequence.from_params([0.5, -0.5j], e0=2.0)
        assert np.allclose(s.norms, [2.0, 1.5, 1.125])

    def test_disk_constraint(self):
        with pytest.raises(InvalidParameterError):
            SchurSequence.from_params([1.0])

    @pytest.mark.parametrize("params", [[math.nan], [0.5, complex(0.0, math.nan)]])
    def test_nan_params_refused(self, params):
        # "|delta| >= 1" is False on NaN
        with pytest.raises(InvalidParameterError):
            SchurSequence.from_params(params)
        with pytest.raises(InvalidParameterError):
            SchurSequence(np.concatenate([[1.0], params]), np.ones(len(params) + 1))

    def test_nan_norms_refused(self):
        # "E <= 0" is False on NaN
        with pytest.raises(InvalidParameterError):
            SchurSequence(np.array([1.0, 0.5]), np.array([1.0, math.nan]))

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
        # degrees asked out of order, on a fresh chain
        fresh = SchurSequence.from_params(d)
        polys = szego_from_schur(s, 5)
        for k in (4, 2, 5, 3):
            assert np.allclose(fresh.rho_coeffs(k), polys[k].coeffs)


class TestNegativeOrders:
    # a negative order would slice the chain from its end
    def test_levinson(self):
        mu = moments(MeasureSpec("rogers_szego", q=0.5), 6)
        with pytest.raises(InvalidParameterError, match="order -3 is negative"):
            schur_from_moments(mu, -3)

    def test_rho_coeffs_and_params(self):
        s = SchurSequence.from_params([0.5, -0.25j, 0.1, 0.2, 0.3])
        assert s.order == 5
        for k in (-1, -2, -5, -6):
            with pytest.raises(InvalidParameterError, match=f"order {k} is negative"):
                s.rho_coeffs(k)
            with pytest.raises(InvalidParameterError, match=f"order {k} is negative"):
                s.params(k)
        assert s.rho_coeffs(0).tolist() == [1.0] and len(s.params(0)) == 0


def _seeded_measures(rng, count):
    """count Rogers-Szego measures, q in [0.3, 0.95], and count
    arc-Lebesgue measures on arcs 1 to 5.5 wide."""
    out = [MeasureSpec("rogers_szego", q=float(q)) for q in rng.uniform(0.3, 0.95, size=count)]
    for a, span in zip(rng.uniform(0.0, TWO_PI, size=count), rng.uniform(1.0, 5.5, size=count)):
        out.append(MeasureSpec("arc_lebesgue", theta_a=float(a), theta_b=float(a + span)))
    return out


def _assert_recursions_match(s, rng):
    """rho_coeffs(k) for every k, and (rho, rho*) at 1, 11 and 32 circle
    points, equal to the bit to the allocate-per-step loops."""
    for k in range(s.order + 1):
        assert np.array_equal(s.rho_coeffs(k), rho_coeffs_loop(s, k))
    for size in (1, 11, 32):
        z = np.exp(1j * rng.uniform(0.0, TWO_PI, size=size))
        got, want = szego_eval(s.params(), z), szego_eval_loop(s.params(), z)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestInPlaceRecursions:
    """The buffered recursions against the loops that allocate per step
    (``circlequad_helpers``): the same operations on the same operands in
    the same order, so the same bits, chain and refusal alike."""

    @pytest.mark.parametrize("n", [1, 2, 16, 40, 256])
    def test_levinson_chains(self, n):
        rng = np.random.default_rng(400 + n)
        refused = 0
        for measure in _seeded_measures(rng, 3):
            mu = moments(measure, n)
            try:
                want = levinson_loop(mu, n)
            except NotPositiveDefiniteError as exc:
                refused += 1
                with pytest.raises(NotPositiveDefiniteError, match=f"^{re.escape(str(exc))}$"):
                    schur_from_moments(mu, n)
                continue
            got = schur_from_moments(mu, n)
            assert np.array_equal(got.delta, want.delta)
            assert np.array_equal(got.norms, want.norms)
            _assert_recursions_match(got, rng)
        assert refused < 6  # some chains of every size are compared

    @pytest.mark.parametrize("n", [1, 2, 16, 40, 256])
    def test_chains_near_the_circle(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(3):
            moduli = 0.99999 * rng.uniform(0.0, 1.0, size=n) ** 0.1
            s = SchurSequence.from_params(moduli * np.exp(1j * rng.uniform(0.0, TWO_PI, size=n)))
            _assert_recursions_match(s, rng)

    @pytest.mark.parametrize(
        "measure, order",
        [
            (MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4), 16),
            (MeasureSpec("rogers_szego", q=0.95), 28),
        ],
        ids=["arc", "rogers-szego"],
    )
    def test_breakdown_order_and_message(self, measure, order):
        # past the breakdown of moment Levinson (ROADMAP item 2), the same
        # order and |delta| as the loop
        for n in (order, order + 1, 40):
            mu = moments(measure, n)
            with pytest.raises(NotPositiveDefiniteError) as want:
                levinson_loop(mu, n)
            assert f"at order {order} " in str(want.value)
            with pytest.raises(NotPositiveDefiniteError, match=f"^{re.escape(str(want.value))}$"):
                schur_from_moments(mu, n)
        assert np.array_equal(
            schur_from_moments(moments(measure, order - 1), order - 1).delta,
            levinson_loop(moments(measure, order - 1), order - 1).delta,
        )


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_nan_moment_refused(self, k):
        # a NaN moment makes delta_k NaN, which "|delta| >= 1 or E <= 0"
        # let through as a NaN chain
        mu = np.array([1.0, 0.1, 0.1], dtype=complex)
        mu[k] = math.nan
        with pytest.raises(NotPositiveDefiniteError, match=f"at order {k}"):
            schur_from_moments(MomentSequence(mu), 2)

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
        # oracle: zeros of the paraorthogonal z rho_{n-1} - t rho*_{n-1};
        # a last parameter near the circle is the tau scan's steep case
        for last in (None, 0.999, 0.99999):
            for _ in range(40):
                n = int(rng.integers(1 if last is None else 2, 25))
                d = 0.95 * rng.uniform(0.0, 1.0, size=n - 1) * np.exp(
                    1j * rng.uniform(0, TWO_PI, size=n - 1)
                )
                if last is not None:
                    d[-1] = last * np.exp(1j * rng.uniform(0, TWO_PI))
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

    @pytest.mark.parametrize(
        "params",
        [
            # Rogers-Szego q = 0.5: delta_k = (-1)**k q**(k/2)
            (-1.0) ** np.arange(1, 256) * 0.5 ** (np.arange(1, 256) / 2),
            # constant modulus at the Geronimus limit sin(gap/4) of the
            # arc (0.3, 2.4)
            np.full(255, 0.8645),
        ],
        ids=["rogers-szego", "geronimus"],
    )
    def test_solve_matches_cmv_eigenvalues(self, params):
        # oracle: the eigenvalues of the unitary truncated CMV matrix of
        # alpha_k = -conj(delta_{k+1}), alpha_{n-1} = conj(target)
        n, target = len(params) + 1, cmath.exp(0.3j)
        thetas = np.array([p.theta for p in blaschke_solve(SchurSequence.from_params(params), n, target)])
        expected = np.sort(wrap_theta(np.angle(cmv_eigenvalues(
            np.concatenate([-np.conj(params), [np.conj(target)]])
        ))))
        assert np.max(np.abs(np.angle(np.exp(1j * (thetas - expected))))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 24),
        moduli=st.lists(st.floats(0.0, 0.8), min_size=23, max_size=23),
        phases=st.lists(st.floats(0.0, TWO_PI), min_size=23, max_size=23),
        last=st.sampled_from([None, 0.999, 0.99999]),
        angle=st.one_of(st.none(), st.floats(0.0, TWO_PI)),
    )
    def test_solve_one_root_per_phase_level(self, n, moduli, phases, last, angle):
        # the unwrapped phase psi_n of F_n rises by 2 pi n around the
        # circle, so each of the n levels arg(target) + 2 pi j is met once;
        # angle None puts a root at theta = 0, which must come back once,
        # near 0 or near 2 pi
        moduli = np.array(moduli[: n - 1])
        if last is not None and n > 1:
            moduli[-1] = last
        d = moduli * np.exp(1j * np.array(phases[: n - 1]))
        s = SchurSequence.from_params(d)
        target = blaschke_eval(s, n, 1.0) if angle is None else cmath.exp(1j * angle)
        thetas = np.array([p.theta for p in blaschke_solve(s, n, target)])
        assert len(thetas) == n
        assert np.all(np.diff(thetas) > 0.0) and 0.0 <= thetas[0] and thetas[-1] < TWO_PI
        if angle is None:
            assert np.sum(np.minimum(thetas, TWO_PI - thetas) < 1e-12) == 1
        levels = (forward_phase(d, thetas) - cmath.phase(target)) / TWO_PI
        assert np.max(np.abs(levels - np.round(levels))) < 0.1
        assert np.array_equal(np.diff(np.round(levels)), np.ones(n - 1))

    @pytest.mark.parametrize("n", [256, 512])
    def test_weights_in_the_gap_of_an_arc_chain(self, n):
        # the Geronimus chain |delta| = 0.8645 has a gap where phi_{n-1}
        # grows like 4^n; the Pruefer pass keeps log |phi|^2, so the
        # weights there underflow towards 0 with no overflow or warning
        s = SchurSequence.from_params(np.full(n - 1, 0.8645))
        lam = blaschke_solve(s, n, cmath.exp(0.3j)).weights
        assert len(lam) == n and np.min(lam) >= 0.0
        assert abs(np.sum(lam) - s.norms[0]) <= TOL.weight_sum * s.norms[0]

    def test_weights_are_the_christoffel_numbers(self, rng):
        # against their definition mu_0 / sum_{k<n} |phi_k|^2, on chains
        # with a last parameter near the circle too, where the two round
        # 1 - |delta|^2 differently: 5e-12 relative to a weight of 2e-7
        for last in (None, 0.999, 0.99999):
            for _ in range(10):
                n = int(rng.integers(2, 25))
                d = 0.9 * rng.uniform(0.0, 1.0, size=n - 1) * np.exp(
                    1j * rng.uniform(0, TWO_PI, size=n - 1)
                )
                if last is not None:
                    d[-1] = last * np.exp(1j * rng.uniform(0, TWO_PI))
                s = SchurSequence.from_params(d, e0=2.5)
                pts = blaschke_solve(s, n, cmath.exp(1j * rng.uniform(0, TWO_PI)))
                want = direct_christoffel(d, 2.5, pts.z)
                assert np.max(np.abs(pts.weights - want)) <= 1e-14 * 2.5

    def test_certificate_catches_duplicate_root(self, monkeypatch):
        s = SchurSequence.from_params(0.5 * np.exp(1j * np.arange(1, 12)))
        blaschke_solve(s, 12, 1j)  # the unperturbed solve is accepted
        true_solve = opuc._solve_angles

        def perturbed(params, target):
            theta = true_solve(params, target)
            theta[0] = theta[1]  # one root lost, its neighbor found twice
            return theta

        monkeypatch.setattr(opuc, "_solve_angles", perturbed)
        with pytest.raises(InternalConsistencyError, match="near-duplicate"):
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


def rows_from_zeros(zeros) -> np.ndarray:
    """Monic rows (batch, ell + 1), low-to-high, with the zeros (batch,
    ell): ``from_zeros`` taken over the whole batch at once."""
    p = np.ones((len(zeros), 1), dtype=complex)
    for a in np.asarray(zeros).T:
        p = np.pad(p, ((0, 0), (1, 0))) - a[:, None] * np.pad(p, ((0, 0), (0, 1)))
    return p


class TestSchurCohnLayout:
    """The degree-major kernel against the row-major recursion it
    replaced (``schur_cohn_rows_loop``), to the bit: kappas, NaN and inf
    included, stable and band."""

    @staticmethod
    def assert_same(coeffs):
        got, want = schur_cohn_rows(coeffs), schur_cohn_rows_loop(coeffs)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
        return got

    @pytest.mark.parametrize("batch", [1, 2, 7, 4000])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 5, 15, 31, 63])
    def test_zeros_inside_outside_and_on_the_circle(self, ell, batch):
        # four kinds of row, drawn in turn: every zero inside, one zero
        # exactly on the circle, one outside, and half the zeros on it
        rng = np.random.default_rng(1000 * ell + batch)
        radius = rng.uniform(0.1, 0.97, size=(batch, ell))
        kind = np.arange(batch) % 4
        radius[kind == 1, :1] = 1.0
        radius[kind == 2, :1] = 1.5
        radius[kind == 3, : ell // 2 + 1] = 1.0
        zeros = radius * np.exp(1j * rng.uniform(0.0, TWO_PI, size=(batch, ell)))
        coeffs = rows_from_zeros(zeros)
        assert np.allclose(coeffs[-1], from_zeros(zeros[-1]).coeffs)
        kappas, stable, band = self.assert_same(coeffs)
        assert kappas.shape == (batch, ell)
        if batch == 4000 and ell:
            assert stable[kind == 0].all() and not band[kind == 0].any()
            assert not stable[kind == 2].any()
            assert band[kind == 1].any() and band[kind == 3].any()

    @pytest.mark.parametrize("ell", [2, 3, 5, 15, 31, 63])
    def test_later_kappas_overflow(self, ell):
        # with every zero on the circle, a step divides by 1 - |kappa|**2
        # at the rounding level, and the later kappas overflow to inf and
        # NaN: the NaN and inf come out where the row-major recursion puts
        # them
        rng = np.random.default_rng(ell)
        coeffs = rows_from_zeros(np.exp(1j * rng.uniform(0.0, TWO_PI, size=(4000, ell))))
        kappas, stable, band = self.assert_same(coeffs)
        assert np.isnan(kappas).any() and np.isinf(kappas).any()
        assert band.all()

    def test_input_left_unchanged(self):
        # the kernel works on its own copy, a single row included
        for coeffs in (rows_from_zeros([[0.3, -0.5j]]), rows_from_zeros([[0.3, 2.0], [0.1j, 0.5]])):
            before = coeffs.copy()
            schur_cohn_rows(coeffs)
            assert np.array_equal(coeffs, before)


def test_chain_helper_sizes(rogers_half):
    mu, deltas = chain(rogers_half, 10, 2)
    assert mu.order >= 16 and deltas.order == 8
