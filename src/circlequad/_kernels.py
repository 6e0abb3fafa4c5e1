"""Hot numeric kernels: pointwise Szego recursion on arrays of circle points.

Two implementations are provided: a numba ``@njit`` version and a pure
numpy fallback. Selection is made once at import time from the
``CIRCLEQUAD_NUMBA`` environment variable: set it to ``0`` to force the
numpy path; any other value (or unset) uses numba when it is importable.
"""

import os

import numpy as np


def szego_eval_numpy(deltas, z):
    """Evaluate (rho_k, rho_k*) at points ``z`` for k = deltas.shape[-1].

    ``deltas`` holds delta_1..delta_k, optionally behind leading batch
    axes; ``z`` broadcasts against them as (..., points). The recursion
    starts from rho_0 = rho_0* = 1 and applies
    rho_j = z rho_{j-1} + delta_j rho*_{j-1},
    rho*_j = conj(delta_j) z rho_{j-1} + rho*_{j-1}.
    """
    z = np.asarray(z, dtype=np.complex128)
    deltas = np.asarray(deltas, dtype=np.complex128)
    shape = np.broadcast_shapes(deltas.shape[:-1] + (1,), z.shape)
    rho = np.ones(shape, dtype=np.complex128)
    rho_star = np.ones(shape, dtype=np.complex128)
    for d in _steps(deltas):
        zr = z * rho
        rho = zr + d * rho_star
        rho_star = np.conj(d) * zr + rho_star
    return rho, rho_star


def _steps(deltas):
    """delta_j for j = 1..k, shaped to broadcast against (..., points):
    scalars for one chain, (..., 1) columns for a batch."""
    return deltas if deltas.ndim == 1 else np.moveaxis(deltas, -1, 0)[..., None]


_use_numba = os.environ.get("CIRCLEQUAD_NUMBA", "1") != "0"

if _use_numba:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        _use_numba = False

if _use_numba:

    @njit(cache=True)
    def _szego_eval_numba(deltas, z):
        m = z.shape[0]
        rho = np.ones(m, dtype=np.complex128)
        rho_star = np.ones(m, dtype=np.complex128)
        for d in deltas:
            dc = np.conj(d)
            for i in range(m):
                zr = z[i] * rho[i]
                new_rho = zr + d * rho_star[i]
                rho_star[i] = dc * zr + rho_star[i]
                rho[i] = new_rho
        return rho, rho_star

    def szego_eval(deltas, z):
        deltas = np.ascontiguousarray(np.asarray(deltas, dtype=np.complex128))
        if deltas.ndim > 1:  # the jit kernel takes one chain
            return szego_eval_numpy(deltas, z)
        z = np.ascontiguousarray(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
        return _szego_eval_numba(deltas, z)

else:

    def szego_eval(deltas, z):
        z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        deltas = np.asarray(deltas, dtype=np.complex128)
        return szego_eval_numpy(deltas, z)


def using_numba() -> bool:
    return _use_numba


def blaschke_values(deltas, z):
    """F_n at array points: z * rho_{n-1}(z) / rho*_{n-1}(z), with
    n - 1 = deltas.shape[-1]; batch axes broadcast as in ``szego_eval``."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rho, rho_star = szego_eval(deltas, z)
    return z * rho / rho_star


def blaschke_phase_slope(deltas, z):
    """F_n and d/dtheta arg F_n(e^{i theta}) at circle points ``z``.

    The Szego recursion is carried together with its z-derivative, so
    the slope psi' = Re(1 + z rho'/rho - z rho*'/rho*) needs neither the
    zeros of rho_{n-1} nor its coefficients. Batch axes broadcast as in
    ``szego_eval``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deltas = np.asarray(deltas, dtype=np.complex128)
    shape = np.broadcast_shapes(deltas.shape[:-1] + (1,), z.shape)
    rho = np.ones(shape, dtype=np.complex128)
    rho_star = np.ones(shape, dtype=np.complex128)
    drho = np.zeros(shape, dtype=np.complex128)
    drho_star = np.zeros(shape, dtype=np.complex128)
    for d in _steps(deltas):
        dc = np.conj(d)
        zr = z * rho
        dzr = rho + z * drho
        rho, rho_star = zr + d * rho_star, dc * zr + rho_star
        drho, drho_star = dzr + d * drho_star, dc * dzr + drho_star
    f = z * rho / rho_star
    slope = (1.0 + z * (drho / rho - drho_star / rho_star)).real
    return f, slope
