"""Quasi-paraorthogonal polynomials: assembly, orthogonality constants,
the equivalent modified reflection-coefficient representation, and zero
location on the unit circle.

A spec (n, ell, P, tau) with monic deg-ell P and |tau| = 1 defines the
monic degree-n polynomial

    Q(z) = z P(z) rho_{n-ell-1}(z) + tau P*(z) rho*_{n-ell-1}(z),

which is tau-invariant (Q = tau Q*) and orthogonal to
span{z^{ell+1}, ..., z^{n-ell-1}}.
"""

from __future__ import annotations

import cmath
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
from .opuc import SchurSequence, UnitPoint, blaschke_solve, schur_cohn, szego_from_schur
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
        if self.P.degree != self.ell or not self.P.is_monic(tol=1e-12):
            raise InvalidParameterError(
                f"P must be monic of degree {self.ell}, got degree {self.P.degree}"
            )
        if abs(abs(self.tau) - 1.0) > 1e-14 * 10:
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
    nu: complex | None = None
    tau_tilde: complex | None = None
    omega: complex | None = None
    q_poly: ComplexPoly | None = None


def assemble(spec: QpopucSpec, deltas: SchurSequence) -> ComplexPoly:
    """Coefficients of Q = z P rho_{n-ell-1} + tau P* rho*_{n-ell-1}."""
    k = spec.n - spec.ell - 1
    rho = ComplexPoly(deltas.rho_coeffs(k))
    rho_star = rho.reciprocal(k)
    p_star = spec.P.reciprocal(spec.ell)
    q = (spec.P * rho).shift(1) + spec.tau * (p_star * rho_star)
    if q.degree != spec.n:
        raise InternalConsistencyError("assembled polynomial has wrong degree")
    return q


def invariance_parameter(q: ComplexPoly) -> complex:
    """Q(0) for a monic invariant Q; rejects non-invariant input."""
    if not q.is_monic(tol=1e-12):
        raise InvalidParameterError("invariance parameter requires a monic polynomial")
    tau = complex(q.coeffs[0])
    if abs(abs(tau) - 1.0) > 1e-11:
        raise InvarianceError(f"|Q(0)| = {abs(tau)} is not 1; Q is not invariant")
    n = q.degree
    diff = q.coeffs - tau * np.conj(q.coeffs[::-1])
    if np.max(np.abs(diff)) > 1e-11 * q.max_abs_coeff():
        raise InvarianceError("coefficients violate Q = tau * Q*")
    return tau


def orthogonality_params(
    spec: QpopucSpec, deltas: SchurSequence
) -> OrthogonalityParams:
    """sigma, nu, tau_tilde, omega, and the monic companion q_ell.

    tau_tilde = tau * sigma / conj(sigma) makes Q orthogonal to
    z**(n-ell) - tau_tilde z**ell; omega = tau * tau_tilde extends the
    exactness space of the induced quadrature rule.
    """
    delta = complex(deltas.delta[spec.n - spec.ell])
    p0 = complex(spec.P.coeffs[0])
    sigma = np.conj(p0) - np.conj(spec.tau) * delta
    if abs(sigma) <= TOL.sigma_collapse * (1.0 + abs(delta)):
        return OrthogonalityParams(sigma=complex(sigma), collapsed=True)
    nu = (1.0 - abs(delta) ** 2) / np.conj(sigma)
    tau_tilde = spec.tau * sigma / np.conj(sigma)
    omega = spec.tau * tau_tilde
    p_star = spec.P.reciprocal(spec.ell)
    q_poly = (1.0 / sigma) * (p_star - (np.conj(spec.tau) * delta) * spec.P)
    return OrthogonalityParams(
        sigma=complex(sigma),
        collapsed=False,
        nu=complex(nu),
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
    The identity is spot-checked at 32 circle points.
    """
    n, ell, tau = spec.n, spec.ell, spec.tau
    if ell > 0:
        sc = schur_cohn(spec.P)
        if not sc.stable:
            raise NotRepresentableError(
                "prescription polynomial has zeros outside the unit disk "
                f"(worst Schur-Cohn parameter {sc.worst:.6f}); no equivalent "
                "reflection-coefficient chain exists"
            )
        synthetic = [tau * np.conj(sc.kappas[j]) for j in range(ell, 0, -1)]
    else:
        synthetic = []
    combined = np.concatenate(
        [deltas.params(n - ell - 1), np.array(synthetic, dtype=complex)]
    )
    modified = SchurSequence.from_params(combined, e0=float(deltas.norms[0]))

    rng = np.random.default_rng(1729)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=32))
    rho, rho_star = szego_eval(combined, z)
    direct = assemble(spec, deltas)
    dev = np.max(np.abs(direct(z) - (z * rho + tau * rho_star)))
    if dev > TOL.representation * direct.max_abs_coeff():
        raise InternalConsistencyError(
            f"modified-chain representation deviates by {dev:.3e}"
        )
    return modified


def zeros_on_circle(spec: QpopucSpec, deltas: SchurSequence) -> list[UnitPoint]:
    """All n zeros of Q on the unit circle via the modified chain.

    With Q = z rho~_{n-1} + tau rho~*_{n-1}, Q is paraorthogonal for the
    modified chain, and its zeros are the solutions of the Blaschke
    equation F~_n(z) = -tau: ``blaschke_solve`` takes them as CMV
    eigenvalues and certifies each one. The nodal residual |Q(z)| is
    then checked against the directly assembled Q.
    """
    modified = modified_schur(spec, deltas)
    pts = blaschke_solve(modified, spec.n, -spec.tau)
    q = assemble(spec, deltas)
    z = np.array([p.z for p in pts])
    resid = np.max(np.abs(q(z)))
    if resid > TOL.node_residual * q.max_abs_coeff():
        raise InternalConsistencyError(
            f"zero residual {resid:.3e} exceeds tolerance"
        )
    return pts
