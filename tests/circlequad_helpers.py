"""Helpers shared by the test modules: chains, points, the per-point
oracles of the batched code paths, the closed-form two-node tau arc, the
least-squares oracle of a rule's weights, the (2*ell + 1)-node system in
extended precision, the moment inner product, the Szego recursion in
polynomial arithmetic, the allocate-per-step loops of Levinson and the
Szego recursions, the row-major Schur-Cohn recursion, the orientation
of circle triples, the endpoint-modified moment chain of the classical
arc rules, the rule path's node solve with its assembled-Q certificates,
the Horner oracle of the prescribed-node residual and a counter of the
affine Q builds, and the benchmark's seeded request draws as test data.

A module of its own, not ``conftest``: the name ``conftest`` also belongs
to ``perfbench/tests``, and whichever directory is collected first would
take it.
"""

import cmath
import functools
import importlib.util
import math
import pathlib
import sys

import numpy as np

from circlequad import (
    ComplexPoly,
    MomentSequence,
    SchurSequence,
    UnitPoint,
    assemble,
    blaschke_eval,
    blaschke_solve,
    build_rule,
    modified_schur,
    moment_chain,
    prescribe_2l,
    schur_from_moments,
)
from circlequad import prescribe
from circlequad.config import TOL
from circlequad.errors import (
    CircleQuadError,
    InvalidParameterError,
    NodesNotQuadratureError,
    NotPositiveDefiniteError,
    PositivityViolationError,
)
from circlequad.measures import in_open_arc
from circlequad.opuc import points_z
from circlequad.poly import horner
from circlequad.prescribe import _f_values, _vandermonde
from circlequad.quadrature import (
    GREEN,
    RED_BOUNDARY,
    RED_SCHUR,
    RED_WEIGHTS,
    _power_table,
)


def unit(theta):
    return UnitPoint.from_theta(theta)


def random_tau(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


# (moments, reflection coefficients) sized for an (n, ell) rule
chain = moment_chain


def inner_product(p, q, mu) -> complex:
    """<P, Q> = sum_j sum_k p_j conj(q_k) mu_{j-k}, from the moments;
    ``mu.get`` refuses a moment beyond its order."""
    acc = 0.0 + 0.0j
    for j, pj in enumerate(p.coeffs):
        for k, qk in enumerate(q.coeffs):
            acc += pj * np.conj(qk) * mu.get(j - k)
    return acc


def szego_from_schur(deltas, n: int) -> list:
    """Monic rho_0..rho_n by rho_k = z rho_{k-1} + delta_k rho*_{k-1} in
    ComplexPoly arithmetic: the oracle of ``SchurSequence.rho_coeffs``,
    which runs the library's own Szego step."""
    polys = [ComplexPoly([1.0])]
    for k, d in enumerate(deltas.params(n), start=1):
        polys.append(polys[-1].shift(1) + complex(d) * polys[-1].reciprocal(k - 1))
    return polys


# The allocate-per-step loops that ``schur_from_moments``,
# ``SchurSequence.rho_coeffs`` and ``_kernels.szego_eval`` ran before they
# kept their coefficients in preallocated buffers: the oracles that the
# buffered loops match to the bit.


def szego_step_loop(rho: np.ndarray, d: complex) -> np.ndarray:
    """Coefficients of z rho + d rho* for a monic rho, as a new array."""
    zr = np.concatenate([[0.0], rho])
    rs = np.concatenate([np.conj(rho[::-1]), [0.0]])
    return zr + d * rs


def rho_coeffs_loop(deltas, k: int) -> np.ndarray:
    """``SchurSequence.rho_coeffs`` by ``szego_step_loop``."""
    rho = np.array([1.0 + 0.0j])
    for d in deltas.delta[1 : k + 1]:
        rho = szego_step_loop(rho, d)
    return rho


def levinson_loop(mu, n: int) -> SchurSequence:
    """``schur_from_moments`` with a new rho, and a new rho*, per step."""
    mu_arr = mu.array(0, n)
    rho = np.array([1.0 + 0.0j])
    params = []
    e0 = float(mu_arr[0].real)
    e = e0
    for k in range(1, n + 1):
        num = np.dot(rho, mu_arr[1 : len(rho) + 1])
        den = np.dot(np.conj(rho[::-1]), mu_arr[: len(rho)])
        d = -num / den
        e_next = e * (1.0 - abs(d) ** 2)
        if abs(d) >= 1.0 or e_next <= 0:
            raise NotPositiveDefiniteError(
                f"moment sequence not positive definite at order {k} (|delta| = {abs(d)})"
            )
        rho = szego_step_loop(rho, d)
        params.append(d)
        e = e_next
    return SchurSequence.from_params(np.array(params), e0=e0)


def szego_eval_loop(deltas, z):
    """``_kernels.szego_eval`` with new arrays per step."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rho = np.ones(z.shape, dtype=np.complex128)
    rho_star = np.ones(z.shape, dtype=np.complex128)
    for d in np.asarray(deltas, dtype=np.complex128):
        zr = z * rho
        rho = zr + d * rho_star
        rho_star = np.conj(d) * zr + rho_star
    return rho, rho_star


def schur_cohn_rows_loop(coeffs):
    """``opuc.schur_cohn_rows`` as it ran before its recursion went
    degree-major: on the (batch, ell + 1) rows themselves, with a new
    array per step. The oracle that the degree-major kernel matches to
    the bit, kappas included."""
    coeffs = np.asarray(coeffs, dtype=complex)
    ell = coeffs.shape[1] - 1
    kappas = np.empty((len(coeffs), ell), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(ell):
            kappa = coeffs[:, :1]  # P_k(0); P_k*(0) = conj(leading) ~ 1
            kappas[:, i] = kappa[:, 0]
            star = np.conj(coeffs[:, ::-1])
            coeffs = (coeffs - kappa * star)[:, 1:] / (1.0 - np.abs(kappa) ** 2)
        mod = np.abs(kappas)
        band = np.any(np.abs(mod - 1.0) <= TOL.disk_boundary_band, axis=1)
        stable = np.all(mod < 1.0, axis=1)
    return kappas, stable, band


def same_orientation(triple_a, triple_b) -> bool:
    """Do two ordered triples of circle points wind the same way? A triple
    (x, y, z) is counterclockwise when y lies on the counterclockwise arc
    from x to z."""

    def ccw(x, y, z):
        base = cmath.phase(x)
        return (cmath.phase(y) - base) % (2 * math.pi) < (cmath.phase(z) - base) % (2 * math.pi)

    return ccw(*triple_a) == ccw(*triple_b)


def modified_hat_moments(mu, a, b, order: int) -> MomentSequence:
    """Moments of the endpoint-vanishing modified measure
    sqrt(conj(ab)) (z - a)(z - b) conj(z) d(mu), which vanishes at the two
    arc endpoints a and b.

    mu_hat_k = s [mu_{k+1} - (a + b) mu_k + a b mu_{k-1}], where s is
    the square root of conj(a b) whose branch makes mu_hat_0 real and
    positive.
    """
    if mu.order < order + 1:
        raise InvalidParameterError(
            f"need base moments to order {order + 1}, have {mu.order}"
        )
    az, bz = a.z, b.z
    base = mu.array(-1, order + 1)
    raw = base[2:] - (az + bz) * base[1:-1] + az * bz * base[:-2]
    s = cmath.sqrt(np.conj(az * bz))
    for branch in (s, -s):
        h0 = branch * raw[0]
        # the wrong branch gives a negative mu_hat_0; the right one is real
        # up to the cancellation in the three-term combination
        if h0.real > 0 and abs(h0.imag) <= 1e-10 * abs(h0.real):
            return MomentSequence(branch * raw)
    raise NotPositiveDefiniteError(
        "no square-root branch makes the modified moment mu_hat_0 real positive; "
        "the endpoints do not match the support of the measure"
    )


def modified_chain_nodes(mu, arc, n: int, tau_hat=None, alpha=None) -> list:
    """The nodes of a rule with both arc endpoints prescribed, built on
    the endpoint-modified chain: a, b and the n - 2 zeros of
    z rho^_{n-3} + tau_hat rho^*_{n-3}, with tau_hat = -F^_{n-2}(alpha)
    when alpha is given. The oracle of ``classical_arc``; nothing here
    says whether the nodes carry a positive rule."""
    hat = schur_from_moments(modified_hat_moments(mu, arc.a, arc.b, mu.order - 1), n - 2)
    if alpha is not None:
        tau_hat = -blaschke_eval(hat, n - 2, alpha.z)
    return [arc.a, arc.b, *blaschke_solve(hat, n - 2, -tau_hat)]


def residual_rows(q, z, tol_rel):
    """Per row of Q coefficients: (ok, max |Q(z)|, limit), with ok when the
    residual stays within tol_rel times the largest coefficient: Horner on
    the formed Q, the oracle of ``AffineQ.residual``."""
    resid = np.max(np.abs(horner(q, z)), axis=1, initial=0.0)
    limit = tol_rel * np.max(np.abs(q), axis=1)
    return resid <= limit, resid, limit


def count_affine_builds(monkeypatch) -> list:
    """Record every ``AffineQ`` that builds its U and V (``AffineQ.uv``,
    the one place where a prescription or a scan forms Q)."""
    build, built = prescribe.AffineQ.uv.func, []

    def counted(q):
        built.append(q)
        return build(q)

    prop = functools.cached_property(counted)
    prop.__set_name__(prescribe.AffineQ, "uv")
    monkeypatch.setattr(prescribe.AffineQ, "uv", prop)
    return built


def assembled_zeros(spec, deltas):
    """The node solve as ``zeros_on_circle`` made it while it assembled Q:
    the modified chain, spot-checked against the assembled Q at 32 points
    (``modified_schur``), solved, and then the nodal residual of that Q at
    every solved node, within TOL.node_residual times its largest
    coefficient. The oracle of the rule path, which assembles no Q.
    Returns the nodes and their residual over its limit; a spot check out
    of its gate raises InternalConsistencyError."""
    q = assemble(spec, deltas)
    pts = blaschke_solve(modified_schur(spec, deltas), spec.n, -spec.tau)
    _, resid, limit = residual_rows(q.coeffs[None], pts.z, TOL.node_residual)
    return pts, float(resid[0] / limit[0])


def lstsq_weights_rows(z, mu_arr, mu0: float):
    """Nodes z (batch, n) and the moments mu_{-m}..mu_m give the weights
    (batch, n) by stacked least squares on the real/imaginary moment
    system, the residual max_k |sum lam z**k - mu_k| per row, and per row
    whether it stays within TOL.weight_residual * mu_0.

    For unimodular nodes and real weights the equations for z**-k are
    the conjugates of those for z**k, so the system keeps the real rows
    of k = 0..m and the imaginary rows of k = 1..m, those of k >= 1
    scaled by sqrt(2): the same least-squares problem at half the size.
    The triangular factor of [A | b] holds R and Q^T b of A = QR, so Q
    is never formed.
    """
    z = np.asarray(z, dtype=complex)
    rows, n = z.shape
    m = (len(mu_arr) - 1) // 2
    scale = np.full(m + 1, math.sqrt(2.0))
    scale[0] = 1.0
    pos = _power_table(z, m)
    pos *= scale[:, None]
    mu_pos = mu_arr[m:] * scale
    aug = np.empty((rows, 2 * m + 1, n + 1))
    aug[:, : m + 1, :n], aug[:, m + 1 :, :n] = pos.real, pos.imag[:, 1:]
    aug[:, : m + 1, n], aug[:, m + 1 :, n] = mu_pos.real, mu_pos.imag[1:]
    # "raw" returns the factored copy of [A | b] transposed, R in its
    # upper triangle
    r = np.linalg.qr(aug, mode="raw")[0].swapaxes(1, 2)
    # back substitution; a zero pivot leaves NaN weights, which fail the
    # residual check below
    lam = np.zeros((rows, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            lam[:, i] = (r[:, i, n] - np.sum(r[:, i, i + 1 : n] * lam[:, i + 1 :], axis=1)) / r[:, i, i]
    fit = np.matmul(aug[:, :, :n], lam[:, :, None])[:, :, 0] - aug[:, :, n]
    # |sum lam z**k - mu_k| for k = 0..m; the k = 0 imaginary part is -Im mu_0
    fit_im = np.concatenate([np.full((rows, 1), -mu_pos.imag[0]), fit[:, m + 1 :]], axis=1)
    resid = np.max(np.abs(fit[:, : m + 1] + 1j * fit_im) / scale, axis=1)
    return lam, resid <= TOL.weight_residual * mu0, resid


def lstsq_weights(nodes, mu, m: int) -> np.ndarray:
    """The weights at ``nodes`` that match all moments mu_k, |k| <= m, in
    least squares: the oracle of the Christoffel weights of a built rule.
    Too few moment rows raise InvalidParameterError, and a residual above
    TOL.weight_residual * mu_0 raises NodesNotQuadratureError."""
    n = len(nodes)
    if 2 * m + 1 < n:
        raise InvalidParameterError(f"2m + 1 = {2 * m + 1} rows cannot pin {n} weights")
    mu0 = float(mu.get(0).real)
    lam, ok, resid = lstsq_weights_rows(points_z(nodes)[None], mu.array(-m, m), mu0)
    if not ok[0]:
        raise NodesNotQuadratureError(f"moment-matching residual {resid[0]:.3e}")
    return lam[0]


def direct_christoffel(params, mu0: float, z) -> np.ndarray:
    """mu_0 / sum_{k<n} |phi_k(z)|^2 for the chain params = delta_1..delta_{n-1}
    at points z: the Christoffel numbers by their definition, from the
    plain Szego recursion and the running norms, without
    Christoffel-Darboux. It overflows where rho does, so it serves
    small n and chains away from the circle."""
    z = np.asarray(z, dtype=complex)
    rho, star = np.ones_like(z), np.ones_like(z)
    norm, total = 1.0, np.ones(z.shape)
    for d in params:
        rho, star = z * rho + d * star, np.conj(d) * z * rho + star
        norm *= 1.0 - abs(d) ** 2
        total += np.abs(rho) ** 2 / norm
    return mu0 / total


def direct_coefficients(deltas, n, ell, alphas, tau):
    """P's low coefficients from the coupled system in (p, conj(p)) at tau."""
    az = np.array([a.z for a in alphas])
    f = _f_values(deltas, n, ell, az)
    v = _vandermonde(az, ell)
    d = az**ell
    m_full = np.hstack([v, tau * (f * d)[:, None] * np.conj(v)])
    return np.linalg.solve(m_full, -tau * f - d)[:ell]


def solve_extended(m, rhs) -> np.ndarray:
    """m x = rhs for a square m and one right-hand side, by Gaussian
    elimination with partial pivoting in np.clongdouble, which
    np.linalg.solve does not take."""
    a = np.array(m, dtype=np.clongdouble)
    x = np.array(rhs, dtype=np.clongdouble)
    k = len(x)
    for j in range(k):
        piv = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, piv]], x[[j, piv]] = a[[piv, j]], x[[piv, j]]
        ratio = a[j + 1 :, j] / a[j, j]
        a[j + 1 :] -= ratio[:, None] * a[j]
        x[j + 1 :] -= ratio * x[j]
    for j in range(k - 1, -1, -1):
        x[j] = (x[j] - a[j, j + 1 :] @ x[j + 1 :]) / a[j, j]
    return x


def odd_system(deltas, n, ell, alphas) -> tuple:
    """(P, tau) of 2*ell + 1 prescribed nodes from their own square system,
    in np.clongdouble: the oracle of ``prescribe_2lp1``.

    The interpolation conditions P(a_i) + tau f_i P*(a_i) = 0 are linear in
    the low coefficients p_0..p_{ell-1} of the monic P and in
    q = tau * conj-reverse of (p, 1), taken as ell + 1 unknowns of their
    own: 2*ell + 1 equations in 2*ell + 1 unknowns, with the p_ell = 1
    column on the right-hand side. tau is q_0 over its modulus. The
    f_i = conj(z rho / rho*) come from the plain Szego recursion in the
    same precision. Returns P's coefficients low-to-high and tau, rounded
    to complex.
    """
    z = np.array([a.z for a in alphas], dtype=np.clongdouble)
    f = extended_f_values(deltas, n - ell - 1, z)
    v = z[:, None] ** np.arange(ell + 1)
    x = solve_extended(np.hstack([v[:, :ell], f[:, None] * v]), -(z**ell))
    return np.append(x[:ell], 1).astype(complex), complex(x[ell] / abs(x[ell]))


def extended_f_values(deltas, k: int, z) -> np.ndarray:
    """f = conj(z rho_k / rho*_k) at the np.clongdouble points z, from the
    plain Szego recursion in that precision."""
    rho, star = np.ones_like(z), np.ones_like(z)
    for d in deltas.params(k):
        rho, star = z * rho + d * star, np.conj(d) * z * rho + star
    return np.conj(z * rho / star)


def extended_omega_pencil(deltas, n, ell, alphas) -> tuple:
    """(A, B, delta) in np.clongdouble, with P(0) = tau A + B on the
    2*ell-node pencil and delta = delta_{n-ell}: the coupled system of
    ``tau_pencil`` solved by ``solve_extended`` on f-values from
    ``extended_f_values``. The empty pencil of ell = 0 is P = 1."""
    z = np.array([a.z for a in alphas], dtype=np.clongdouble)
    a, b = np.clongdouble(0), np.clongdouble(1)
    if ell:
        f = extended_f_values(deltas, n - ell - 1, z)
        v = z[:, None] ** np.arange(ell)
        d = z**ell
        m = np.hstack([v, (f * d)[:, None] * np.conj(v)])
        a, b = solve_extended(m, -f)[0], solve_extended(m, -d)[0]
    return a, b, np.clongdouble(deltas.params(n - ell)[-1])


def extended_omega(pencil, tau) -> complex:
    """omega = tau tau_tilde = tau**2 sigma / conj(sigma), with
    sigma = conj(P(0)) - conj(tau) delta, on an ``extended_omega_pencil``
    at tau, in np.clongdouble: the definition of ``orthogonality_params``,
    not the N / conj(N) form of ``tau_for_omega``."""
    a, b, delta = pencil
    tau = np.clongdouble(tau)
    sigma = np.conj(tau * a + b) - np.conj(tau) * delta
    return tau * tau * sigma / np.conj(sigma)


def extended_tau_for_omega(pencil, omega) -> list:
    """Every unimodular tau with omega(tau) = omega on an
    ``extended_omega_pencil``, by the closed form of ``tau_for_omega`` in
    np.clongdouble, with no collapse or coupling check: N = c + conj(B) tau,
    c = conj(A) - delta, on the line through 0 at half of arg(omega)."""
    a, b, delta = pencil
    c = np.conj(a) - delta
    rot = np.sqrt(np.clongdouble(omega) / abs(omega))
    u = c * np.conj(rot)
    disc = (abs(b) - abs(u.imag)) * (abs(b) + abs(u.imag))
    if disc < 0:
        return []
    r = np.sqrt(disc)
    taus = [(root - 1j * u.imag) * rot / np.conj(b) for root in ((r, -r) if r else (r,))]
    return [t / abs(t) for t in taus]


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
    p alone. For two nodes this is the closed form P = z - c12 - tau a12
    with conj(c12) = (f1 - f2) / (f1 a1 - f2 a2) and
    conj(a12) = (a1 - a2) / (f1 a1 - f2 a2).
    """
    az = np.array([a.z for a in alphas])
    f = _f_values(deltas, n, ell, az)
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


def two_node_tau_arc(alphas, f) -> tuple:
    """The arc of tau, (start, end) counterclockwise as unit complex
    numbers, on which the two-node P = z - c12 - tau a12 is Schur-stable,
    in closed form: |c12 + tau a12| = 1 exactly at tau = a1 conj(f2) and
    tau = a2 conj(f1), and the arc between them holds the direction
    -conj(f1 - f2) (a1 - a2) / |f1 - f2||a1 - a2|."""
    (a1, a2), (f1, f2) = [a.z for a in alphas], f
    x, y = a1 * np.conj(f2), a2 * np.conj(f1)
    c = -((np.conj(f1) - np.conj(f2)) / abs(f1 - f2)) * ((a1 - a2) / abs(a1 - a2))
    return (x, y) if in_open_arc(c, x, y) else (y, x)


def perfbench_workloads():
    """The benchmark's workload module, loaded from its file, so that its
    seeded request draws serve as test data whatever the import path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _classify(measure, n, ell, alphas, tau, mu, deltas) -> str:
    """One scanner grid point -> classification label.

    The per-point oracle for ``scan_tau``'s batched labels: it runs the
    public prescription and rule chain and maps its errors to labels.
    """
    try:
        pres = prescribe_2l(deltas, n, ell, alphas, tau)
    except CircleQuadError:
        return RED_BOUNDARY
    if "boundary_degenerate" in pres.diagnostics:
        return RED_BOUNDARY
    if pres.admissible:
        try:
            build_rule(measure, pres.spec, mu=mu, deltas=deltas)
            return GREEN
        except PositivityViolationError:
            return RED_WEIGHTS
        except CircleQuadError:
            return RED_BOUNDARY
    try:
        q = assemble(pres.spec, deltas)
    except CircleQuadError:
        return RED_BOUNDARY
    # Cohn's test on Q'/n, by the row-major recursion, not the library's
    # kernel (``quadrature._root_codes``)
    _, stable, band = schur_cohn_rows_loop(q.coeffs[None, 1:] * (np.arange(1, n + 1) / n))
    if band[0]:
        return RED_BOUNDARY
    return RED_WEIGHTS if stable[0] else RED_SCHUR
