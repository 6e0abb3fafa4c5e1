"""Quasi-paraorthogonal polynomials: assembly, orthogonality constants,
the equivalent modified reflection-coefficient representation, and zero
location on the unit circle.

A spec (n, ell, P, tau) with monic deg-ell P and |tau| = 1 defines the
monic degree-n polynomial

    Q(z) = z P(z) rho_{n-ell-1}(z) + tau P*(z) rho*_{n-ell-1}(z),

which is tau-invariant (Q = tau Q*) and orthogonal to
span{z^{ell+1}, ..., z^{n-ell-1}}. The second term is the conjugate
reversal, at degree n, of the first: with R = z P rho_{n-ell-1},
Q = R + tau R*.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import szego_eval
from .config import TOL
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    InvarianceError,
    NotRepresentableError,
)
from .opuc import SchurSequence, UnitPoints, blaschke_solve, schur_cohn
from .poly import ComplexPoly


@dataclass(frozen=True)
class QpopucSpec:
    n: int
    ell: int
    P: ComplexPoly
    tau: complex

    def __post_init__(self):
        if not (0 <= self.ell and 2 * self.ell + 1 <= self.n):
            raise InvalidParameterError(
                f"need 0 <= ell and 2*ell + 1 <= n, got ell={self.ell}, n={self.n}"
            )
        if self.P.degree != self.ell or not self.P.is_monic(tol=TOL.monic):
            raise InvalidParameterError(
                f"P must be monic of degree {self.ell}, got degree {self.P.degree}"
            )
        if not abs(abs(self.tau) - 1.0) <= TOL.unit_point:
            raise InvalidParameterError(f"|tau| = {abs(self.tau)} must equal 1")


@dataclass(frozen=True)
class OrthogonalityParams:
    """Constants tying Q to its extra orthogonality relation.

    sigma = conj(P(0)) - conj(tau) delta_{n-ell}. When sigma vanishes
    the order collapses (Q is orthogonal to a wider monomial span) and
    ``collapsed`` is set with the remaining fields None.
    """

    sigma: complex
    collapsed: bool
    tau_tilde: complex | None = None
    omega: complex | None = None
    q_poly: ComplexPoly | None = None


@functools.cache
def _spot_points() -> np.ndarray:
    """32 fixed circle points for the modified-chain spot check (made on
    first use, so importing the package does not import numpy.random)."""
    z = np.exp(1j * np.random.default_rng(1729).uniform(0.0, 2.0 * np.pi, size=32))
    z.flags.writeable = False
    return z


def assemble(spec: QpopucSpec, deltas: SchurSequence) -> ComplexPoly:
    """Coefficients of Q = z P rho_{n-ell-1} + tau P* rho*_{n-ell-1}, as
    Q = R + tau R* from the one product R = z P rho_{n-ell-1}."""
    r = np.convolve(np.append(0.0, spec.P.coeffs), deltas.rho_coeffs(spec.n - spec.ell - 1))
    q = ComplexPoly(r + spec.tau * np.conj(r[::-1]))
    if q.degree != spec.n:
        raise InternalConsistencyError("assembled polynomial has wrong degree")
    return q


def invariance_parameter(q: ComplexPoly) -> complex:
    """Q(0) for a monic invariant Q; rejects non-invariant input."""
    if not q.is_monic(tol=TOL.monic):
        raise InvalidParameterError("invariance parameter requires a monic polynomial")
    tau = complex(q.coeffs[0])
    # both checks looser than TOL.unit_point: an assembled Q carries the
    # rounding of the Szego recursion in every coefficient
    if not abs(abs(tau) - 1.0) <= 1e-11:
        raise InvarianceError(f"|Q(0)| = {abs(tau)} is not 1; Q is not invariant")
    diff = q.coeffs - tau * np.conj(q.coeffs[::-1])
    # relative to Q's largest coefficient, for the same reason
    if not np.max(np.abs(diff)) <= 1e-11 * q.max_abs_coeff():
        raise InvarianceError("coefficients violate Q = tau * Q*")
    return tau


def order_collapsed(sigma_abs: float, delta: complex) -> bool:
    """Is |sigma| rounding, so that the order collapses? The one such test."""
    return sigma_abs <= TOL.sigma_collapse * (1.0 + abs(delta))


def orthogonality_params(
    spec: QpopucSpec, deltas: SchurSequence
) -> OrthogonalityParams:
    """sigma, tau_tilde, omega, and the monic companion q_ell.

    tau_tilde = tau * sigma / conj(sigma) makes Q orthogonal to
    z**(n-ell) - tau_tilde z**ell; omega = tau * tau_tilde extends the
    exactness space of the induced quadrature rule. On a pencil
    P(0) = tau A + B, sigma = conj(tau) N, so |sigma| = |N| and
    omega = N / conj(N) (``tau_for_omega``).
    """
    delta = complex(deltas.delta[spec.n - spec.ell])
    p0 = complex(spec.P.coeffs[0])
    sigma = np.conj(p0) - np.conj(spec.tau) * delta
    if order_collapsed(abs(sigma), delta):
        return OrthogonalityParams(sigma=complex(sigma), collapsed=True)
    tau_tilde = spec.tau * sigma / np.conj(sigma)
    omega = spec.tau * tau_tilde
    p_star = spec.P.reciprocal(spec.ell)
    q_poly = (1.0 / sigma) * (p_star - (np.conj(spec.tau) * delta) * spec.P)
    return OrthogonalityParams(
        sigma=complex(sigma),
        collapsed=False,
        tau_tilde=complex(tau_tilde),
        omega=complex(omega),
        q_poly=q_poly,
    )


def modified_schur(spec: QpopucSpec, deltas: SchurSequence) -> SchurSequence:
    """Reflection coefficients of an equivalent plain Szego chain.

    Returns delta_1..delta_{n-ell-1} followed by ell synthetic
    parameters tau * conj(kappa_j) (kappa_j from the Schur-Cohn
    intermediates of P, in order j = ell..1), so that
    Q = z rho~_{n-1} + tau rho~*_{n-1} for the modified chain rho~.
    Besides the round trip of ``_modified_chain``, the identity is
    spot-checked at 32 circle points against the assembled Q.
    """
    modified = _modified_chain(spec, deltas)
    q = assemble(spec, deltas)
    z = _spot_points()
    rho, rho_star = szego_eval(modified.params(), z)
    dev = np.max(np.abs(q(z) - (z * rho + spec.tau * rho_star)))
    if not dev <= TOL.representation * q.max_abs_coeff():
        raise InternalConsistencyError(f"modified-chain representation deviates by {dev:.3e}")
    return modified


def _modified_chain(spec: QpopucSpec, deltas: SchurSequence) -> SchurSequence:
    """The chain of ``modified_schur``, its tail certified against P.

    P_k = z P_{k-1} + kappa_k P*_{k-1} inverts the Schur-Cohn step, so
    P is the degree-ell polynomial of the chain kappa_1..kappa_ell. That
    chain is read back from the tail the modified chain holds, as
    kappa_j = conj(tail_j / tau) in ascending order, and its polynomial,
    by the one coefficient step (``rho_coeffs``), must match P
    coefficient by coefficient within TOL.representation times P's
    largest coefficient. At ell = 0 both are the constant 1.
    """
    sc = schur_cohn(spec.P)
    if not sc.stable:
        raise NotRepresentableError(
            "prescription polynomial has zeros outside the unit disk "
            f"(worst Schur-Cohn parameter {sc.worst:.6f}); no equivalent "
            "reflection-coefficient chain exists"
        )
    m = spec.n - spec.ell - 1
    combined = np.append(deltas.params(m), spec.tau * np.conj(sc.params))
    modified = SchurSequence.from_params(combined, e0=float(deltas.norms[0]))
    kappa = np.conj(modified.delta[: m : -1] / spec.tau)
    dev = np.max(np.abs(SchurSequence.from_params(kappa).rho_coeffs(spec.ell) - spec.P.coeffs))
    if not dev <= TOL.representation * spec.P.max_abs_coeff():
        raise InternalConsistencyError(f"modified-chain tail misses P by {dev:.3e}")
    return modified


def zeros_on_circle(spec: QpopucSpec, deltas: SchurSequence) -> UnitPoints:
    """All n zeros of Q on the unit circle via the modified chain, with
    the weights of their rule.

    With Q = z rho~_{n-1} + tau rho~*_{n-1}, Q is paraorthogonal for the
    modified chain, and its zeros are the solutions of the Blaschke
    equation F~_n(z) = -tau: ``blaschke_solve`` brackets each one on the
    phase of F~_n split at ceil(n/2), as for any chain, solves it by
    Newton steps and certifies it. Its node set carries the Christoffel
    numbers of the modified chain as ``weights``, which are passed on.
    Q itself is never assembled: the chain's tail is certified against P
    (``_modified_chain``), and its head against the moments by
    ``quadrature.weights``.
    """
    return blaschke_solve(_modified_chain(spec, deltas), spec.n, -spec.tau)
