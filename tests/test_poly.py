import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlequad import ComplexPoly, from_zeros
from circlequad.errors import DegreeError
from circlequad.poly import ONE, horner

coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(coeff, min_size=1, max_size=8)


def test_trimming_and_degree():
    p = ComplexPoly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert np.array_equal(p.coeffs, np.array([1.0 + 0j, 2.0 + 0j]))
    z = ComplexPoly([0.0, 0.0])
    assert z.is_zero and z.degree == 0


def test_horner_matches_numpy_polyval():
    rng = np.random.default_rng(3)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = ComplexPoly(c)
    z = rng.normal(size=11) + 1j * rng.normal(size=11)
    expected = np.polyval(p.coeffs[::-1], z)
    assert np.allclose(p(z), expected, rtol=1e-12, atol=1e-12)
    assert np.isscalar(p(z[0])) or p(z[0]).ndim == 0


def test_horner_rounds_as_the_loop_and_polyval():
    # ComplexPoly and tau_arcs evaluate by ``horner``; on array points it
    # rounds as the per-coefficient loop and np.polyval that they ran
    # before, to the bit, and a constant's values are a writable array
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(0, 9))
        c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=7))
        loop = np.full(z.shape, c[-1])
        for x in c[-2::-1]:
            loop = loop * z + x
        values = ComplexPoly(c)(z)
        assert values.tobytes() == loop.tobytes() and values.flags.writeable
        assert horner(c[None], z)[0].tobytes() == np.polyval(c[::-1], z).tobytes()


def test_mul_add_match_numpy():
    rng = np.random.default_rng(4)
    a = ComplexPoly(rng.normal(size=4) + 1j * rng.normal(size=4))
    b = ComplexPoly(rng.normal(size=3) + 1j * rng.normal(size=3))
    prod = (a * b).coeffs[::-1]
    assert np.allclose(prod, np.polymul(a.coeffs[::-1], b.coeffs[::-1]))
    s = (a + b).coeffs[::-1]
    assert np.allclose(s, np.polyadd(a.coeffs[::-1], b.coeffs[::-1]))


def test_shift_multiplies_by_power():
    p = ComplexPoly([1.0, 2.0])
    assert np.array_equal(p.shift(2).coeffs, np.array([0, 0, 1.0, 2.0], dtype=complex))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.integers(min_value=0, max_value=4))
def test_reciprocal_involution(coeffs, extra):
    p = ComplexPoly(coeffs)
    n = p.degree + extra
    assert p.reciprocal(n).reciprocal(n) == ComplexPoly(p.coeffs)


def test_reciprocal_values_on_circle():
    rng = np.random.default_rng(5)
    p = ComplexPoly(rng.normal(size=5) + 1j * rng.normal(size=5))
    n = p.degree
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=7))
    lhs = p.reciprocal(n)(z)
    rhs = z**n * np.conj(p(1.0 / np.conj(z)))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_reciprocal_degree_error():
    with pytest.raises(DegreeError):
        ComplexPoly([1.0, 2.0, 3.0]).reciprocal(1)


def test_from_zeros_roots():
    zs = [0.3 + 0.1j, -0.5j, 0.9]
    p = from_zeros(zs)
    assert p.is_monic()
    assert np.max(np.abs(p(np.array(zs)))) < 1e-12
    assert np.allclose(sorted(p.roots(), key=abs), sorted(zs, key=abs))


def test_one_constant():
    assert ONE.degree == 0 and ONE(2.0 + 1.0j) == 1.0
