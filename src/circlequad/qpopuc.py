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
from .poly import ComplexPoly, horner


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
        if abs(abs(self.tau) - 1.0) > TOL.unit_point:
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


def assemble_rows(p, tau, rho) -> np.ndarray:
    """Batch kernel of ``assemble``: monic P coefficients (batch, ell + 1),
    one tau per row and the shared rho_k coefficients give the rows'
    Q = z P rho_k + tau P* rho*_k, (batch, ell + k + 2) low-to-high."""
    p = np.asarray(p, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    ell, k = p.shape[1] - 1, len(rho) - 1
    p_star, rho_star = np.conj(p[:, ::-1]), np.conj(rho[::-1])
    q = np.zeros((len(p), ell + k + 2), dtype=complex)
    star = np.zeros((len(p), ell + k + 1), dtype=complex)
    for j in range(ell + 1):
        q[:, j + 1 : j + k + 2] += p[:, j : j + 1] * rho
        star[:, j : j + k + 1] += p_star[:, j : j + 1] * rho_star
    q[:, :-1] += np.asarray(tau)[:, None] * star
    return q


def residual_rows(q, z, tol_rel):
    """Per row of Q coefficients: (ok, max |Q(z)|, limit), with ok when the
    residual stays within tol_rel times the largest coefficient."""
    resid = np.max(np.abs(horner(q, z)), axis=1, initial=0.0)
    limit = tol_rel * np.max(np.abs(q), axis=1)
    return resid <= limit, resid, limit


@functools.cache
def _spot_points() -> np.ndarray:
    """32 fixed circle points for the modified-chain spot check (made on
    first use, so importing the package does not import numpy.random)."""
    z = np.exp(1j * np.random.default_rng(1729).uniform(0.0, 2.0 * np.pi, size=32))
    z.flags.writeable = False
    return z


def modified_params(deltas: SchurSequence, n: int, kappas, tau) -> np.ndarray:
    """delta_1..delta_{n-ell-1} followed by tau * conj(kappa_j), j = ell..1,
    per row: kappas (batch, ell) from ``schur_cohn_rows``, tau (batch,)."""
    kappas = np.asarray(kappas, dtype=complex)
    base = deltas.params(n - kappas.shape[1] - 1)
    synthetic = np.asarray(tau)[:, None] * np.conj(kappas)
    return np.concatenate([np.broadcast_to(base, (len(kappas), len(base))), synthetic], axis=1)


def assemble(spec: QpopucSpec, deltas: SchurSequence) -> ComplexPoly:
    """Coefficients of Q = z P rho_{n-ell-1} + tau P* rho*_{n-ell-1}."""
    rho = deltas.rho_coeffs(spec.n - spec.ell - 1)
    q = ComplexPoly(assemble_rows(spec.P.coeffs[None], [spec.tau], rho)[0])
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
    if abs(abs(tau) - 1.0) > 1e-11:
        raise InvarianceError(f"|Q(0)| = {abs(tau)} is not 1; Q is not invariant")
    diff = q.coeffs - tau * np.conj(q.coeffs[::-1])
    # relative to Q's largest coefficient, for the same reason
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
    return _modified_chain(spec, deltas, assemble(spec, deltas))


def _modified_chain(spec: QpopucSpec, deltas: SchurSequence, q: ComplexPoly) -> SchurSequence:
    """``modified_schur`` with Q = ``assemble(spec, deltas)`` given."""
    kappas = np.zeros((1, 0), dtype=complex)
    if spec.ell > 0:
        sc = schur_cohn(spec.P)
        if not sc.stable:
            raise NotRepresentableError(
                "prescription polynomial has zeros outside the unit disk "
                f"(worst Schur-Cohn parameter {sc.worst:.6f}); no equivalent "
                "reflection-coefficient chain exists"
            )
        kappas = np.array([sc.params])
    combined = modified_params(deltas, spec.n, kappas, [spec.tau])[0]
    modified = SchurSequence.from_params(combined, e0=float(deltas.norms[0]))
    z = _spot_points()
    rho, rho_star = szego_eval(combined, z)
    dev = np.max(np.abs(q(z) - (z * rho + spec.tau * rho_star)))
    if not dev <= TOL.representation * q.max_abs_coeff():
        raise InternalConsistencyError(f"modified-chain representation deviates by {dev:.3e}")
    return modified


def zeros_on_circle(spec: QpopucSpec, deltas: SchurSequence) -> UnitPoints:
    """All n zeros of Q on the unit circle via the modified chain.

    With Q = z rho~_{n-1} + tau rho~*_{n-1}, Q is paraorthogonal for the
    modified chain, and its zeros are the solutions of the Blaschke
    equation F~_n(z) = -tau: ``blaschke_solve`` brackets each one on the
    phase of F~_n split at ceil(n/2), as for any chain, solves it by
    Newton steps and certifies it. The nodal residual |Q(z)| is then
    checked against the directly assembled Q.
    """
    q = assemble(spec, deltas)
    pts = blaschke_solve(_modified_chain(spec, deltas, q), spec.n, -spec.tau)
    ok, resid, _ = residual_rows(q.coeffs[None], pts.z, TOL.node_residual)
    if not ok[0]:
        raise InternalConsistencyError(
            f"zero residual {resid[0]:.3e} exceeds tolerance"
        )
    return pts
