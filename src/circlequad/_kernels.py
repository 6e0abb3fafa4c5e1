"""Hot numeric kernels on arrays of circle points: the pointwise Szego
recursion and the split Blaschke phase of the node solve (numpy only).
"""

import numpy as np


def szego_eval(deltas, z):
    """Evaluate (rho_k, rho_k*) at points ``z`` for the chain ``deltas`` =
    delta_1..delta_k. The recursion starts from rho_0 = rho_0* = 1 and
    applies
    rho_j = z rho_{j-1} + delta_j rho*_{j-1},
    rho*_j = conj(delta_j) z rho_{j-1} + rho*_{j-1}.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rho = np.ones(z.shape, dtype=np.complex128)
    rho_star = np.ones(z.shape, dtype=np.complex128)
    for d in np.asarray(deltas, dtype=np.complex128):
        zr = z * rho
        rho = zr + d * rho_star
        rho_star = np.conj(d) * zr + rho_star
    return rho, rho_star


def using_numba() -> bool:
    """Always False: the kernels are numpy only. Kept because the
    benchmark's environment report reads it."""
    return False


def blaschke_values(deltas, z):
    """F_n at array points: z * rho_{n-1}(z) / rho*_{n-1}(z), with
    n - 1 = len(deltas)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rho, rho_star = szego_eval(deltas, z)
    return z * rho / rho_star


def blaschke_phase_slope(deltas, z):
    """F_n and d/dtheta arg F_n(e^{i theta}) at circle points ``z``.

    The Szego recursion is carried together with its z-derivative, so
    the slope psi' = Re(1 + z rho'/rho - z rho*'/rho*) needs neither the
    zeros of rho_{n-1} nor its coefficients.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rho = np.ones(z.shape, dtype=np.complex128)
    rho_star = np.ones(z.shape, dtype=np.complex128)
    drho = np.zeros(z.shape, dtype=np.complex128)
    drho_star = np.zeros(z.shape, dtype=np.complex128)
    for d in np.asarray(deltas, dtype=np.complex128):
        dc = np.conj(d)
        zr = z * rho
        dzr = rho + z * drho
        rho, rho_star = zr + d * rho_star, dc * zr + rho_star
        drho, drho_star = dzr + d * drho_star, dc * dzr + drho_star
    f = z * rho / rho_star
    slope = (1.0 + z * (drho / rho - drho_star / rho_star)).real
    return f, slope


def split_phase(deltas, theta, target):
    """Split Pruefer phase of F_n(e^{i theta}) = target for one chain
    delta_1..delta_{n-1}, split at k = ceil(n/2).

    F_{j+1} = z (F_j + delta_j) / (1 + conj(delta_j) F_j) runs forward
    from F_1 = z over delta_1..delta_{k-1}, and its inverse runs backward
    from G_n = target over delta_{n-1}..delta_k; the solutions are the
    angles where F_k = G_k. Each forward step adds theta + 2 Arg(1 +
    delta_j conj F_j) to the phase of F, each backward step -theta +
    2 Arg(1 - delta_j conj(G_{j+1} conj z)) to that of G, and both Args
    lie in (-pi/2, pi/2), so the phases unwrap exactly. The residual at
    any other split k rises and crosses the same levels at the same
    roots; the balanced split takes the fewest steps per half.

    Returns (r, wrapped, slope), each shaped as ``theta``: the unwrapped
    residual r = arg F_k - arg G_k, which increases by 2 pi n around the
    circle; arg(F_k conj G_k), the same residual reduced to (-pi, pi] but
    accurate to rounding; and dr/dtheta >= 1.
    """
    deltas = np.asarray(deltas, dtype=np.complex128)
    theta = np.asarray(theta, dtype=float)
    target = np.asarray(target, dtype=np.complex128)
    n = len(deltas) + 1
    pairs = (n - 1) // 2
    steps = deltas[:, None]
    z = np.exp(1j * theta)
    zc = np.conj(z)
    # The two halves run side by side, row 0 forward on x = conj(F_j) and
    # row 1 backward on x = conj(G_{j+1}) z, pairing delta_j with
    # delta_{n-j}.
    e = np.stack([steps[:pairs], -steps[::-1][:pairs]], axis=1)
    s = np.stack([zc, z])
    x = np.stack([zc, np.conj(target) * z])
    kappa = np.array([[0.0], [1.0]])
    arg, slope = np.zeros(x.shape), np.empty(x.shape)
    slope[...] = 1.0 - kappa
    _phase_steps(e, x, s, kappa, arg, slope)
    if n % 2 == 0:  # delta_k is left to one more backward step
        _phase_steps(-steps[pairs : pairs + 1], x[1], s[1], kappa[1], arg[1], slope[1])
    (fc, h), (dpsi, dchi) = x, slope
    r = n * theta - np.angle(target) + 2.0 * (arg[0] - arg[1])
    return r, np.angle(np.conj(fc) * h * zc), dpsi + dchi


def _phase_steps(e, x, s, kappa, arg, slope):
    """The step loop of ``split_phase``, in place on (x, arg, slope):
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
