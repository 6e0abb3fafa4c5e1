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
