"""Hot numeric kernels on arrays of circle points: the pointwise Szego
recursion and the split Blaschke phase of the node solve (numpy only).
"""

import numpy as np


def szego_eval(deltas, z, start=None):
    """Evaluate (rho_k, rho_k*) at points ``z`` for k = deltas.shape[-1].

    ``deltas`` holds delta_1..delta_k, optionally behind leading batch
    axes; ``z`` broadcasts against them as (..., points). The recursion
    starts from rho_0 = rho_0* = 1 and applies
    rho_j = z rho_{j-1} + delta_j rho*_{j-1},
    rho*_j = conj(delta_j) z rho_{j-1} + rho*_{j-1}.
    With ``start`` = (rho_m, rho_m*) at ``z`` it continues from there
    instead, over delta_{m+1}..delta_{m+k}: a batch sharing its first m
    parameters steps them once.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deltas = np.asarray(deltas, dtype=np.complex128)
    if start is None:
        shape = np.broadcast_shapes(deltas.shape[:-1] + (1,), z.shape)
        start = np.ones(shape, dtype=np.complex128), np.ones(shape, dtype=np.complex128)
    rho, rho_star = start
    for d in _steps(deltas):
        zr = z * rho
        rho = zr + d * rho_star
        rho_star = np.conj(d) * zr + rho_star
    return rho, rho_star


def _steps(deltas):
    """delta_j for j = 1..k, shaped to broadcast against (..., points):
    scalars for one chain, (..., 1) columns for a batch."""
    return deltas if deltas.ndim == 1 else np.moveaxis(deltas, -1, 0)[..., None]


def using_numba() -> bool:
    """Always False: the kernels are numpy only. Kept because the
    benchmark's environment report reads it."""
    return False


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
    """Split Pruefer phase of F_n(e^{i theta}) = target, n - 1 = deltas.shape[-1],
    split at k = ceil(n/2), as the Newton steps of the node solve take it.

    F_{j+1} = z (F_j + delta_j) / (1 + conj(delta_j) F_j) runs forward
    from F_1 = z over delta_1..delta_{k-1}, and its inverse runs backward
    from G_n = target over delta_{n-1}..delta_k; the solutions are the
    angles where F_k = G_k. Each forward step adds theta + 2 Arg(1 +
    delta_j conj F_j) to the phase of F, each backward step -theta +
    2 Arg(1 - delta_j conj(G_{j+1} conj z)) to that of G, and both Args
    lie in (-pi/2, pi/2), so the phases unwrap exactly. The residual at
    any other split k rises and crosses the same levels at the same
    roots (``forward_half``, ``backward_half``).

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
    # delta_{n-j}.
    e = np.stack([steps[:pairs], -steps[::-1][:pairs]], axis=1)
    shape = np.broadcast_shapes(deltas.shape[:-1] + (1,), theta.shape)
    s = np.stack([np.broadcast_to(zc, shape), np.broadcast_to(z, shape)])
    x = np.stack([np.broadcast_to(zc, shape), np.broadcast_to(np.conj(target) * z, shape)])
    kappa = np.array([0.0, 1.0]).reshape((2,) + (1,) * (x.ndim - 1))
    arg, slope = np.zeros(x.shape), np.empty(x.shape)
    slope[...] = 1.0 - kappa
    _phase_steps(e, x, s, kappa, arg, slope)
    if n % 2 == 0:  # delta_k is left to one more backward step
        _phase_steps(-steps[pairs : pairs + 1], x[1], s[1], kappa[1], arg[1], slope[1])
    (fc, h), (dpsi, dchi) = x, slope
    r = n * theta - np.angle(target) + 2.0 * (arg[0] - arg[1])
    return np.broadcast_arrays(r, np.angle(np.conj(fc) * h * zc), dpsi + dchi)


def forward_half(head, theta):
    """The forward half of a split phase for one chain head
    delta_1..delta_{k-1} at the angles ``theta``: (arg F_k - k theta,
    d arg F_k / d theta). A batch whose chains share the head steps it
    once for all of its rows (``backward_half``)."""
    head = np.asarray(head, dtype=np.complex128)
    zc = np.exp(-1j * np.asarray(theta, dtype=float))
    arg, slope = np.zeros(zc.shape), np.ones(zc.shape)
    _phase_steps(head, zc.copy(), zc, 0.0, arg, slope)
    return 2.0 * arg, slope


def backward_half(tail, theta, target):
    """The backward half of a split phase for chain tails
    delta_k..delta_{n-1}, (rows, n - k), with one target per row, (rows, 1),
    at the angles ``theta``: (arg G_k - arg target + (n - k) theta,
    -d arg G_k / d theta), each (rows, points).

    The split residual at k is n theta - arg target plus the forward
    part of ``forward_half`` less the backward part, and its slope the
    sum of both slopes; at a root F_k = G_k, so it crosses the levels
    of ``split_phase`` at the same angles."""
    tail = np.asarray(tail, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    z = np.exp(1j * np.asarray(theta, dtype=float))
    x = np.conj(target) * z
    arg, slope = np.zeros(x.shape), np.zeros(x.shape)
    _phase_steps(-tail.T[::-1, :, None], x, z, 1.0, arg, slope)
    return 2.0 * arg, slope


def _phase_steps(e, x, s, kappa, arg, slope):
    """The step loop of every split phase, in place on (x, arg, slope):
    for each e_j in turn, x <- x s conj(y) / y with y = 1 + e_j x,
    arg <- arg + Arg y and slope <- (slope + kappa) (1 - |e_j|^2) / |y|^2
    + 1 - kappa. A forward step (x = conj(F_j), s = conj z, e_j =
    delta_j, kappa = 0) gives psi'_{j+1} = 1 + psi'_j (1 - |delta_j|^2)
    / |y|^2; a backward one (x = conj(G_{j+1}) z, s = z, e_j = -delta_j,
    kappa = 1) gives -chi'_j = (1 - chi'_{j+1}) (1 - |delta_j|^2) / |y|^2.

    Each step runs in preallocated buffers in the operation order of
    these expressions, so it allocates nothing and rounds as they do;
    Arg y and |y|^2 read y's parts from contiguous copies, on which
    arctan2 runs faster than on the strided views.
    """
    rest = 1.0 - kappa
    shrink = 1.0 - (e.real**2 + e.imag**2)
    y, w = np.empty_like(x), np.empty_like(x)
    yr, yi = np.empty(x.shape), np.empty(x.shape)
    term, abs2 = np.empty(x.shape), np.empty(x.shape)
    for ej, cj in zip(e, shrink):
        np.multiply(ej, x, out=y)
        y += 1.0
        x *= s
        x *= np.conjugate(y, out=w)
        x /= y
        np.copyto(yr, y.real)
        np.copyto(yi, y.imag)
        arg += np.arctan2(yi, yr, out=term)
        np.multiply(yr, yr, out=abs2)
        abs2 += np.multiply(yi, yi, out=term)
        slope += kappa
        slope *= cj
        slope /= abs2
        slope += rest
