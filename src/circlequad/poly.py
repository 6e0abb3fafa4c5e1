"""Complex polynomials in one variable.

Coefficients are stored low-to-high: ``coeffs[k]`` multiplies ``z**k``.
The representation is always trimmed (no trailing zeros) except for the
zero polynomial, which is ``[0]``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeError


class ComplexPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        nz = np.nonzero(c)[0]
        if len(nz) == 0:
            c = np.zeros(1, dtype=complex)
        else:
            c = c[: nz[-1] + 1]
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Degree of the trimmed representation; the zero polynomial has degree 0."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def is_monic(self, tol: float = 0.0) -> bool:
        return abs(self.coeffs[-1] - 1.0) <= tol

    def __call__(self, z):
        """Values at ``z``, a scalar or an ndarray, by ``horner``."""
        z = np.asarray(z, dtype=complex)
        out = horner(self.coeffs[None], z).reshape(z.shape)
        return out[()] if out.ndim == 0 else out

    def reciprocal(self, n: int) -> "ComplexPoly":
        """P*(z) = z**n * conj(P(1/conj(z))) with P viewed as an element of P_n."""
        if self.degree > n:
            raise DegreeError(
                f"declared degree {n} below actual degree {self.degree}"
            )
        padded = np.zeros(n + 1, dtype=complex)
        padded[: len(self.coeffs)] = self.coeffs
        return ComplexPoly(np.conj(padded[::-1]))

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            return ComplexPoly(np.convolve(self.coeffs, other.coeffs))
        return ComplexPoly(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return ComplexPoly(c)

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return self + (-1.0) * other

    def shift(self, k: int = 1) -> "ComplexPoly":
        """Multiply by z**k."""
        return ComplexPoly(np.concatenate([np.zeros(k, dtype=complex), self.coeffs]))

    def roots(self) -> np.ndarray:
        """Zeros via the companion matrix (diagnostic use only)."""
        return np.roots(self.coeffs[::-1])

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __eq__(self, other):
        return isinstance(other, ComplexPoly) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __repr__(self):
        return f"ComplexPoly({self.coeffs.tolist()})"


ONE = ComplexPoly([1.0])


def horner(coeffs, z):
    """Values of a batch of polynomials: ``coeffs`` is (batch, d + 1),
    low-to-high, and ``z`` is (batch, points) or (points,) shared by
    every row; returns (batch, points)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    # a fresh array, so that a constant's values are writable too
    out = np.empty(np.broadcast(coeffs[:, -1:], z).shape, dtype=complex)
    out[...] = coeffs[:, -1:]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        out = out * z + coeffs[:, j : j + 1]
    return out


def from_zeros(zeros) -> ComplexPoly:
    """Monic polynomial with the given zeros."""
    p = np.array([1.0 + 0.0j])
    for a in zeros:
        p = np.convolve(p, np.array([-a, 1.0]))
    return ComplexPoly(p)
