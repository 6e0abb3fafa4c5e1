"""Helpers shared by the test modules: chains, points and the per-point
oracles of the batched code paths.

A module of its own, not ``conftest``: the name ``conftest`` also belongs
to ``perfbench/tests``, and whichever directory is collected first would
take it.
"""

import cmath
import math

import numpy as np

from circlequad import (
    QpopucSpec,
    UnitPoint,
    assemble,
    build_rule,
    moment_chain,
    prescribe_2l,
)
from circlequad.errors import CircleQuadError, PositivityViolationError
from circlequad.poly import ONE
from circlequad.prescribe import _f_values, _vandermonde
from circlequad.quadrature import GREEN, RED_BOUNDARY, RED_WEIGHTS, _LABELS, _root_codes


def unit(theta):
    return UnitPoint.from_theta(theta)


def random_tau(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


# (moments, reflection coefficients) sized for an (n, ell) rule
chain = moment_chain


def direct_coefficients(deltas, n, ell, alphas, tau):
    """P's low coefficients from the coupled system in (p, conj(p)) at tau."""
    az = np.array([a.z for a in alphas])
    f = _f_values(deltas, n, ell, alphas)
    v = _vandermonde(az, ell)
    d = az**ell
    m_full = np.hstack([v, tau * (f * d)[:, None] * np.conj(v)])
    return np.linalg.solve(m_full, -tau * f - d)[:ell]


def direct_q_rows(p, tau, rho) -> np.ndarray:
    """Q = z P rho_k + tau P* rho*_k per row, (batch, ell + k + 2)
    low-to-high, from monic P coefficients (batch, ell + 1), one tau per
    row and the shared rho_k coefficients: the two products accumulated
    term by term, without the identity Q = R + tau R*."""
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


def elimination_pencil(deltas, n, ell, alphas):
    """(a, b) with P's low coefficients p(tau) = tau a + b, found without
    the coupled (p, conj(p)) solve of ``tau_pencil``.

    The interpolation conditions read V p + tau f d conj(V p) = -(d + tau f)
    (V the Vandermonde rows, d = a**ell). Conjugated, each half of the
    2*ell rows gives conj(p) through an ell x ell Vandermonde solve;
    equating the two halves (a Schur complement) leaves ell equations in
    p alone. For two nodes this is ``lobatto2``'s closed form.
    """
    az = np.array([a.z for a in alphas])
    f = _f_values(deltas, n, ell, alphas)
    v = _vandermonde(az, ell)
    d = az**ell
    halves = [
        np.linalg.solve(
            np.conj(v[h]),
            np.column_stack([np.conj(d[h] * f[h])[:, None] * v[h], np.conj(d[h]), np.conj(f[h])]),
        )
        for h in (slice(0, ell), slice(ell, 2 * ell))
    ]
    w = halves[0] - halves[1]
    ab = -np.linalg.solve(w[:, :ell], w[:, ell:])
    return ab[:, 0], ab[:, 1]


def _classify(measure, n, ell, alphas, tau, mu, deltas) -> str:
    """One scanner grid point -> classification label.

    The per-point oracle for ``scan_tau``'s batched labels: it runs the
    public prescription and rule chain and maps its errors to labels.
    """
    try:
        if ell == 0:
            res_spec = QpopucSpec(n, 0, ONE, tau)
            admissible = True
        else:
            pres = prescribe_2l(deltas, n, ell, alphas, tau)
            if "boundary_degenerate" in pres.diagnostics:
                return RED_BOUNDARY
            res_spec = pres.spec
            admissible = pres.admissible
    except CircleQuadError:
        return RED_BOUNDARY
    if admissible:
        try:
            build_rule(measure, res_spec, mu=mu, deltas=deltas)
            return GREEN
        except PositivityViolationError:
            return RED_WEIGHTS
        except CircleQuadError:
            return RED_BOUNDARY
    try:
        q = assemble(res_spec, deltas)
    except CircleQuadError:
        return RED_BOUNDARY
    return _LABELS[_root_codes(q.coeffs[None])[0]]
