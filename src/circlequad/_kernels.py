"""Hot numeric kernels on arrays of circle points: the pointwise Szego
recursion and the split Blaschke phase of the node solve (numpy only).

The Szego recursion has two implementations: a numba ``@njit`` version
and a pure numpy fallback. Selection is made once at import time from the
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


def split_phase(deltas, theta, target):
    """Split Pruefer phase of F_n(e^{i theta}) = target, n - 1 = deltas.shape[-1].

    F_{j+1} = z (F_j + delta_j) / (1 + conj(delta_j) F_j) runs forward
    from F_1 = z over delta_1..delta_{k-1}, and its inverse runs backward
    from G_n = target over delta_{n-1}..delta_k, k = ceil(n/2); the
    solutions are the angles where F_k = G_k. Each forward step adds
    theta + 2 Arg(1 + delta_j conj F_j) to the phase of F, each backward
    step -theta + 2 Arg(1 - delta_j conj(G_{j+1} conj z)) to that of G,
    and both Args lie in (-pi/2, pi/2), so the phases unwrap exactly.

    Returns (r, wrapped, slope): the unwrapped residual r = arg F_k -
    arg G_k, which increases by 2 pi n around the circle; arg(F_k conj
    G_k), the same residual reduced to (-pi, pi] but accurate to
    rounding; and dr/dtheta >= 1. ``theta`` broadcasts against the
    batch axes of ``deltas`` as (..., points), ``target`` as (..., 1).
    """
    deltas = np.asarray(deltas, dtype=np.complex128)
    theta = np.asarray(theta, dtype=float)
    target = np.asarray(target, dtype=np.complex128)
    n = deltas.shape[-1] + 1
    pairs = (n - 1) // 2
    steps = np.moveaxis(deltas, -1, 0)[..., None]
    z = np.exp(1j * theta)
    zc = np.conj(z)
    # The two halves run side by side, row 0 forward on x = conj(F_j) and
    # row 1 backward on x = conj(G_{j+1}) z, pairing delta_j with
    # delta_{n-j}. Both rows step as x <- x s conj(y) / y, y = 1 + e x,
    # and their phase slopes as t <- (t + kappa) (1 - |e|^2) / |y|^2 +
    # 1 - kappa: kappa = 0 gives psi'_{j+1} = 1 + psi'_j (1 - |delta_j|^2)
    # / |y|^2 forward, kappa = 1 gives -chi'_j = (1 - chi'_{j+1})
    # (1 - |delta_j|^2) / |y|^2 backward.
    e = np.stack([steps[:pairs], -steps[::-1][:pairs]], axis=1)
    shrink = 1.0 - (e.real**2 + e.imag**2)
    shape = np.broadcast_shapes(deltas.shape[:-1] + (1,), theta.shape)
    s = np.stack([np.broadcast_to(zc, shape), np.broadcast_to(z, shape)])
    x = np.stack([np.broadcast_to(zc, shape), np.broadcast_to(np.conj(target) * z, shape)])
    kappa = np.array([0.0, 1.0]).reshape((2,) + (1,) * (x.ndim - 1))
    slope, arg = 1.0 - kappa, np.zeros((2,) + (1,) * (x.ndim - 1))
    for ej, cj in zip(e, shrink):
        y = ej * x
        y += 1.0
        yr, yi = y.real, y.imag
        x = x * s * np.conj(y) / y
        arg = arg + np.arctan2(yi, yr)
        slope = (slope + kappa) * cj / (yr * yr + yi * yi) + (1.0 - kappa)
    (fc, h), (dpsi, dchi), arg = x, slope, arg[0] - arg[1]
    if n % 2 == 0:  # delta_k is left to one more backward step
        d = steps[pairs]
        y = 1.0 - d * h
        yr, yi = y.real, y.imag
        h = h * z * np.conj(y) / y
        arg = arg - np.arctan2(yi, yr)
        dchi = (dchi + 1.0) * (1.0 - (d.real**2 + d.imag**2)) / (yr * yr + yi * yi)
    r = n * theta - np.angle(target) + 2.0 * arg
    return np.broadcast_arrays(r, np.angle(np.conj(fc) * h * zc), dpsi + dchi)
