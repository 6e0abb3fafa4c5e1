"""Hot numeric kernels on arrays of circle points: the pointwise Szego
recursion, the split Blaschke phase of the node solve, and the Pruefer
pass that certifies the solved nodes and gives their weights (numpy
only).

Every kernel steps through its chain in buffers allocated once per call,
with each step's operations and operands in the order of its formula.
numpy's complex multiply may fuse a multiply and an add (FMA), so a
swapped operand (``x *= d`` for ``d * x``), a one-point product written
over its own input, or a Python-complex scalar in place of numpy's can
change the last bit; ``szego_eval`` keeps to all three, and matches its
allocate-per-step form to the bit.
"""

import numpy as np


def szego_eval(deltas, z):
    """Evaluate (rho_k, rho_k*) at points ``z`` for the chain ``deltas`` =
    delta_1..delta_k. The recursion starts from rho_0 = rho_0* = 1 and
    applies
    rho_j = z rho_{j-1} + delta_j rho*_{j-1},
    rho*_j = conj(delta_j) z rho_{j-1} + rho*_{j-1}.
    Each step runs in preallocated buffers, as in ``_phase_steps``, with
    the operands of these expressions in their order.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deltas = np.asarray(deltas, dtype=np.complex128)
    rho = np.ones(z.shape, dtype=np.complex128)
    rho_star = np.ones(z.shape, dtype=np.complex128)
    zr, term = np.empty_like(rho), np.empty_like(rho)
    for d, dc in zip(deltas, np.conj(deltas)):
        np.multiply(z, rho, out=zr)
        np.multiply(dc, zr, out=term)
        np.multiply(d, rho_star, out=rho)
        rho += zr
        rho_star += term
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
    """F_n, its phase slope psi' = d/dtheta arg F_n(e^{i theta}) and the
    Christoffel numbers of the chain's unit-mass measure, at circle
    points ``z``.

    The Pruefer form of the Szego recursion runs forward from F_1 = z and
    psi'_1 = 1, as the forward steps of ``_phase_steps`` do: with
    y = 1 + conj(delta_j) F_j,
    F_{j+1} = z (F_j + delta_j) / y,
    psi'_{j+1} = 1 + psi'_j (1 - |delta_j|^2) / |y|^2.
    On the circle rho*_j = y rho*_{j-1}, so the orthonormal
    phi_{n-1} = rho_{n-1} / prod_j (1 - |delta_j|^2)^(1/2) has
    log |phi_{n-1}|^2 = sum log |y|^2 - sum log(1 - |delta_j|^2), and by
    Christoffel-Darboux sum_{k<n} |phi_k|^2 = psi'_n |phi_{n-1}|^2. The
    Christoffel number 1 / sum_{k<n} |phi_k(z)|^2 is then
    exp(-log |phi_{n-1}|^2) / psi'_n: positive, and neither rho nor its
    derivative is formed, so nothing overflows. Each step runs in
    preallocated buffers, as in ``_phase_steps``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deltas = np.asarray(deltas, dtype=np.complex128)
    shrink = 1.0 - (deltas.real**2 + deltas.imag**2)
    f, y = z.copy(), np.empty_like(z)
    slope, log_abs2 = np.ones(z.shape), np.zeros(z.shape)
    term, abs2 = np.empty(z.shape), np.empty(z.shape)
    for d, dc, cj in zip(deltas, np.conj(deltas), shrink):
        np.multiply(dc, f, out=y)
        y += 1.0
        f += d
        f *= z
        f /= y
        np.multiply(y.real, y.real, out=abs2)
        abs2 += np.multiply(y.imag, y.imag, out=term)
        slope *= cj
        slope /= abs2
        slope += 1.0
        log_abs2 += np.log(abs2, out=abs2)
    christoffel = np.exp(np.sum(np.log(shrink)) - log_abs2) / slope
    return f, slope, christoffel


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
