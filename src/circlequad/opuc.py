"""Core primitives for orthogonal polynomials on the unit circle.

Conventions: moments are mu_k = integral of z**k d(mu), with
mu_{-k} = conj(mu_k), and <z**j, z**k> = mu_{j-k}. Monic Szego
polynomials follow rho_k = z rho_{k-1} + delta_k rho*_{k-1} with
reflection coefficients delta_k = rho_k(0) in the open unit disk.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import blaschke_phase_slope, blaschke_values, split_phase
from .config import TOL
from .errors import (
    BoundaryDegenerateError,
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    MomentRangeError,
    NotPositiveDefiniteError,
)
from .poly import ComplexPoly

TWO_PI = 2.0 * math.pi


def wrap_theta(theta):
    """theta, a float or an array, reduced to [0, 2 pi).

    ``x % TWO_PI`` rounds up to exactly 2 pi for tiny negative x; that
    case is the angle 0, and so is NaN. A float takes Python's ``%``,
    which runs numpy's ``np.mod`` algorithm (fmod, then a sign fix) with
    the same result to the bit, -0.0 included, and so makes no numpy
    call; an array takes ``np.remainder`` (``np.mod``) and ``np.where``.
    """
    theta = theta % TWO_PI
    if isinstance(theta, np.ndarray):
        return np.where(theta < TWO_PI, theta, 0.0)
    return theta if theta < TWO_PI else 0.0


def _require_finite(theta) -> None:
    """Refuse a NaN or infinite angle, which has no point on the circle."""
    if not math.isfinite(theta):
        raise InvalidParameterError(f"angle {theta} is not finite")


@dataclass(frozen=True, slots=True)
class UnitPoint:
    """A point e^{i theta} on the unit circle, kept in both forms.

    A non-finite theta is refused with ``InvalidParameterError``, before
    ``wrap_theta`` would map it to 0, and a z off the circle, NaN
    included, with ``DomainError``: every gate is written
    ``not (deviation <= tol)``, which a NaN deviation fails.
    """

    theta: float
    z: complex

    def __post_init__(self):
        _require_finite(self.theta)
        if not abs(abs(self.z) - 1.0) <= TOL.unit_point:
            raise DomainError(f"|z| = {abs(self.z)} is not on the unit circle")
        if not abs(self.z - cmath.exp(1j * self.theta)) <= TOL.unit_point:
            raise InternalConsistencyError("theta and z disagree")

    @staticmethod
    def from_theta(theta: float) -> "UnitPoint":
        _require_finite(theta)
        theta = float(wrap_theta(theta))
        return UnitPoint(theta, cmath.exp(1j * theta))

    # looser than TOL.on_circle by default: z is normalised onto the
    # circle here, so only a point clearly off it is refused
    @staticmethod
    def from_complex(z: complex, tol: float = 1e-9) -> "UnitPoint":
        if not abs(abs(z) - 1.0) <= tol:
            raise DomainError(f"|z| = {abs(z)} is off the unit circle")
        z = z / abs(z)
        return UnitPoint(float(wrap_theta(cmath.phase(z))), z)


def points_z(points) -> np.ndarray:
    """The z values of a sequence of ``UnitPoint`` as an array; a
    ``UnitPoints`` gives its own, without making an item per point."""
    if isinstance(points, UnitPoints):
        return points.z
    return np.array([p.z for p in points], dtype=complex)


class UnitPoints(Sequence):
    """A read-only sequence of circle points kept as one array of angles;
    each item is made as a ``UnitPoint`` when it is read, so n points
    cost 8 bytes each instead of three Python objects. The node set of a
    ``blaschke_solve`` also keeps the weights of its Szego rule; other
    point sets, slices included, have ``weights`` None."""

    __slots__ = ("theta", "weights")

    def __init__(self, theta, weights=None):
        self.theta = theta
        self.weights = weights

    @property
    def z(self) -> np.ndarray:
        return np.exp(1j * self.theta)

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return UnitPoints(self.theta[i])
        theta = self.theta[i]
        return UnitPoint(float(theta), complex(np.exp(1j * theta)))


@dataclass(frozen=True)
class MomentSequence:
    """Trigonometric moments mu_0..mu_N; negative indices by conjugation."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=complex)
        object.__setattr__(self, "mu", mu)
        if len(mu) == 0:
            raise InvalidParameterError("empty moment sequence")
        # relative: mu_0 of a positive measure is real, up to the rounding
        # of a computed or file-read value
        if not (abs(mu[0].imag) <= 1e-12 * max(1.0, abs(mu[0])) and mu[0].real > 0):
            raise NotPositiveDefiniteError(f"mu_0 = {mu[0]} must be real positive")

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    def get(self, k: int) -> complex:
        i = abs(k)
        if i > self.order:
            raise MomentRangeError(f"moment {k} beyond available order {self.order}")
        return complex(self.mu[i]) if k >= 0 else complex(np.conj(self.mu[i]))

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Moments mu_lo..mu_hi as a dense array: the conjugated, reversed
        mu_{|k|} for k < 0, then mu_k for k >= 0. Raises, as ``get`` does,
        for the first k from lo upward beyond the available order."""
        if hi < lo:
            return np.empty(0, dtype=complex)
        if max(-lo, hi) > self.order:
            k = lo if abs(lo) > self.order else self.order + 1
            raise MomentRangeError(f"moment {k} beyond available order {self.order}")
        neg = np.conj(self.mu[max(1, -hi) : max(1, 1 - lo)][::-1])
        return np.concatenate([neg, self.mu[max(0, lo) : max(0, hi + 1)]])


@dataclass(frozen=True)
class SchurSequence:
    """Verblunsky/Schur parameters delta_0..delta_n (delta_0 = 1) and norms E_k."""

    delta: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=complex)
        e = np.asarray(self.norms, dtype=float)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "norms", e)
        if d[0] != 1.0:
            raise InvalidParameterError("delta_0 must equal 1")
        if not np.all(np.abs(d[1:]) < 1.0):
            raise InvalidParameterError("all delta_k (k >= 1) must lie in the open unit disk")
        if len(e) != len(d) or not np.all(e > 0):
            raise InvalidParameterError("norms must be positive and match delta in length")

    @property
    def order(self) -> int:
        return len(self.delta) - 1

    def params(self, n: int | None = None) -> np.ndarray:
        """delta_1..delta_n as a plain array."""
        n = self.order if n is None else n
        _check_order(n, self.order)
        return self.delta[1 : n + 1]

    def rho_coeffs(self, k: int) -> np.ndarray:
        """Coefficients of the monic recursion polynomial of degree k,
        low-to-high, recursed from rho_0 on each call (nothing is kept on
        the chain) in the two buffers of length k + 1 of ``_szego_step``."""
        _check_order(k, self.order)
        buf, star = _szego_buffers(k)
        for s, d in zip(range(k, 0, -1), self.delta[1 : k + 1]):
            _szego_step(buf, s, d, star)
        return buf

    @staticmethod
    def from_params(params, e0: float = 1.0) -> "SchurSequence":
        params = np.asarray(params, dtype=complex)
        if not np.all(np.abs(params) < 1.0):
            raise InvalidParameterError("Schur parameters must lie in the open unit disk")
        norms = e0 * np.concatenate([[1.0], np.cumprod(1.0 - np.abs(params) ** 2)])
        return SchurSequence(np.concatenate([[1.0], params]), norms)


def _check_order(k: int, order: int) -> None:
    """Refuse an order k outside 0..order: a negative k would slice the
    chain from its end."""
    if k < 0:
        raise InvalidParameterError(f"order {k} is negative")
    if k > order:
        raise InvalidParameterError(f"order {k} beyond available {order}")


def _szego_buffers(n: int) -> tuple:
    """The two buffers of the Szego recursion up to degree n, each of
    length n + 1, at rho_0: the zero-filled coefficients with rho_0 = 1 in
    the last slot, and its reversal rho*_0 = 1 in the same slot."""
    buf = np.zeros(n + 1, dtype=complex)
    buf[n] = 1.0
    star = np.empty(n + 1, dtype=complex)
    star[n] = 1.0
    return buf, star


def _szego_step(buf: np.ndarray, s: int, d, star: np.ndarray) -> None:
    """One step rho_{k+1} = z rho_k + d rho*_k, in place.

    The buffers grow downward: rho_k is ``buf[s:]`` (low-to-high, monic,
    k = len(buf) - 1 - s) with zeros below it, so z rho_k is ``buf[s-1:]``
    with no copy, and its conjugate reversal rho*_k is ``star[s:]``. The
    step adds d rho*_k, made over rho*_k, to every coefficient of z rho_k
    but the leading 1, which leaves rho_{k+1} in ``buf[s-1:]``, and then
    writes rho*_{k+1} to ``star[s-1:]``. The operands keep the order of
    z rho + d rho*, so the step rounds as that expression does, to the
    bit.
    """
    term = np.multiply(d, star[s:], out=star[s:])
    buf[s - 1 : -1] += term
    np.conjugate(buf[s - 1 :][::-1], out=star[s - 1 :])


def schur_from_moments(mu: MomentSequence, n: int) -> SchurSequence:
    """Levinson-type recursion: reflection coefficients from moments.

    delta_k = -<z rho_{k-1}, 1> / <rho*_{k-1}, 1>, with the norm update
    E_k = E_{k-1} (1 - |delta_k|^2) acting as the positive-definiteness
    certificate. rho_{k-1} and rho*_{k-1} live in the two downward-growing
    buffers of ``_szego_step``, which makes rho_k and rho*_k from them in
    place, so no step allocates an array.
    """
    if n < 0:
        raise InvalidParameterError(f"order {n} is negative")
    if n > mu.order:
        raise MomentRangeError(f"need moments to order {n}, have {mu.order}")
    mu_arr = mu.array(0, n)
    buf, star = _szego_buffers(n)
    params = np.empty(n, dtype=complex)
    e0 = float(mu_arr[0].real)
    e = e0
    for k in range(1, n + 1):
        s = n + 1 - k  # rho_{k-1} = buf[s:], of length k
        num = np.dot(buf[s:], mu_arr[1 : k + 1])
        den = np.dot(star[s:], mu_arr[:k])
        d = -num / den
        e_next = e * (1.0 - abs(d) ** 2)
        if not (abs(d) < 1.0 and e_next > 0):
            raise NotPositiveDefiniteError(
                f"moment sequence not positive definite at order {k} (|delta| = {abs(d)})"
            )
        _szego_step(buf, s, d, star)
        params[k - 1] = d
        e = e_next
    return SchurSequence.from_params(params, e0=e0)


def blaschke_eval(deltas: SchurSequence, n: int, z: complex) -> complex:
    """F_n(z) = z rho_{n-1}(z) / rho*_{n-1}(z) for z on the unit circle."""
    if not abs(abs(z) - 1.0) <= TOL.on_circle * 10:
        raise DomainError(f"|z| = {abs(z)} off the unit circle")
    return complex(blaschke_values(deltas.params(n - 1), np.array([z]))[0])


# Newton steps per root. Bisection alone takes a bracketing grid cell (at
# most pi/2 wide) down to TOL.bisect_theta in 48 steps; the cap leaves room
# for the Newton steps that ``_solve_angles`` takes between bisections
_ROOT_STEPS = 100


def _solve_angles(params: np.ndarray, target: complex) -> np.ndarray:
    """The n solutions of F_n(e^{i theta}) = target for the chain
    ``params`` = delta_1..delta_{n-1}, unsorted.

    The split phase residual of ``split_phase`` increases strictly by
    2 pi n around the circle, and the solutions are its crossings of the
    n levels 2 pi j in [r(0), r(0) + 2 pi n). One evaluation on a grid of
    4n cells brackets each level in its own cell (``_bracket``). Each
    root starts from the inverse cubic Hermite interpolant of r and its
    slope at the two ends of its cell, and then takes Newton steps on the
    wrapped residual, with the branch taken from r. It bisects its
    bracket instead when a step would leave the closed bracket, or would
    go back by more than half the last step (Newton cycling between the
    ends of a bracket, on a strongly curved phase). Each root stops on
    its own once its step is below TOL.bisect_theta or lands on a
    bracket end, and a step evaluates only the roots still running.
    """
    theta, lo, hi, level, last = _bracket(params, target)

    active = np.arange(len(theta))
    for _ in range(_ROOT_STEPS):
        th = theta[active]
        r, wrapped, slope = split_phase(params, th, target)
        res = wrapped + TWO_PI * np.round((r - level[active] - wrapped) / TWO_PI)
        a = lo[active] = np.where(res < 0.0, th, lo[active])
        b = hi[active] = np.where(res > 0.0, th, hi[active])
        step = -res / slope
        # a step back by more than half the last one is Newton cycling
        cycling = (step * last[active] < 0.0) & (np.abs(step) > 0.5 * np.abs(last[active]))
        newton = (th + step >= a) & (th + step <= b) & ~cycling
        new = np.where(newton, th + step, 0.5 * (a + b))
        theta[active], last[active] = new, new - th
        # a step back onto a bracket end repeats an evaluation: the
        # bracket holds no float closer to the root
        done = (np.abs(new - th) < TOL.bisect_theta) | (new == a) | (new == b)
        active = active[~done]
        if not len(active):
            break
    return theta


def _bracket(params, target):
    """The start of ``_solve_angles``: each root's first angle, its
    bracket (lo, hi), its level and its last step, five arrays of n."""
    n = len(params) + 1
    cells = 4 * n
    grid = np.arange(cells + 1) * (TWO_PI / cells)
    r, _, slope = split_phase(params, grid[:-1], target)
    # r(theta + 2 pi) = r(theta) + 2 pi n exactly, which keeps every level
    # inside the grid
    r = np.append(r, r[0] + TWO_PI * n)
    slope = np.append(slope, slope[0])
    level = TWO_PI * (np.ceil(r[0] / TWO_PI) + np.arange(n))
    # r rises, so the grid points at or below a level count its cell
    cell = np.clip(np.searchsorted(r, level, side="right") - 1, 0, cells - 1)
    lo, hi = grid[cell], grid[cell + 1]
    res_lo, res_hi = r[cell] - level, r[cell + 1] - level
    # theta as a cubic in r through both cell ends, with slopes 1 / r'
    # there, taken at r = level: t = 0 at lo, t = 1 at hi
    rise = res_hi - res_lo
    t = -res_lo / rise
    theta = (
        lo
        + (hi - lo) * (t * t * (3.0 - 2.0 * t))
        + rise * t * (1.0 - t) * ((1.0 - t) / slope[cell] - t / slope[cell + 1])
    )
    theta = np.where((theta >= lo) & (theta <= hi), theta, 0.5 * (lo + hi))
    near_lo = np.abs(res_lo) <= np.abs(res_hi)
    return theta, lo, hi, level, theta - np.where(near_lo, lo, hi)


def blaschke_solve(deltas: SchurSequence, n: int, target: complex) -> UnitPoints:
    """All n solutions of F_n(z) = target on the unit circle, with the
    weights of their Szego rule.

    The solutions are the zeros of the paraorthogonal polynomial
    z rho_{n-1} - target rho*_{n-1}. The argument of F_n rises strictly,
    by 2 pi n, around the circle, so each solution is bracketed on its
    own and solved by Newton steps on the split phase of ``split_phase``
    (a Pruefer-type phase), O(n) work per root (``_solve_angles``).
    One forward Pruefer pass over the roots (``blaschke_phase_slope``),
    independent of that solve, certifies them: each root by a residual
    check on F_n scaled by the phase slope, the set by a minimum gap. The
    same pass gives the node set's ``weights``, the chain's Christoffel
    numbers times mu_0 = ``deltas.norms[0]``: its Szego rule, positive by
    construction.
    """
    if not abs(abs(target) - 1.0) <= TOL.on_circle * 10:
        raise DomainError(f"|target| = {abs(target)} off the unit circle")
    params = deltas.params(n - 1)
    theta = np.sort(wrap_theta(_solve_angles(params, target)))
    f, slope, christoffel = blaschke_phase_slope(params, np.exp(1j * theta))
    # |F - target| scales with the local phase slope, which peaks when
    # chain zeros sit very close to the circle; the per-root tolerance
    # reflects a theta accuracy of a few Newton stops
    resid = np.abs(f - target)
    limit = np.maximum(TOL.root_residual, 50.0 * TOL.bisect_theta * slope)
    if not np.all(resid < limit):
        raise InternalConsistencyError(
            f"Blaschke root residual at {np.max(resid / limit):.3e} times its limit"
        )
    if not np.min(np.diff(theta, append=theta[0] + TWO_PI)) > TOL.root_gap:
        raise InternalConsistencyError("near-duplicate Blaschke roots detected")
    return UnitPoints(theta, deltas.norms[0] * christoffel)


@dataclass
class SchurCohnResult:
    stable: bool
    params: list  # s_k(0) = kappa_k for k = ell..1 (downward order)

    @property
    def worst(self) -> float:
        return max((abs(s) for s in self.params), default=0.0)


def schur_cohn_rows(coeffs):
    """Batch kernel of ``schur_cohn`` on monic polynomials, (batch, ell + 1)
    low-to-high.

    Returns (kappas, stable, band): kappas (batch, ell) holds s_k(0) for
    k = ell..1; a row is stable when every |s_k(0)| < 1, and in the band
    when some |s_k(0)| lies within TOL.disk_boundary_band of 1 (its later
    kappas are then meaningless).

    The recursion runs degree-major. The rows are copied once into a
    (ell + 1, batch) buffer c, whose row j holds the degree-j coefficient
    of every polynomial, so each step reads and writes whole contiguous
    rows of the batch, not a strided column of each polynomial. P_k sits
    in c[ell - k:], low-to-high, and its kappa in the first of those rows,
    which no later step writes, so c[:ell] ends as the kappas. A step
    writes the coefficients of degree 1..k of P_k*, the conjugate of the
    rows of P_k but its leading one in reverse, into a second buffer,
    multiplies them by kappa, subtracts them from the rows of P_k but its
    first, and divides by 1 - |kappa|**2 into those rows, which then hold
    P_{k-1}. The operands keep the order of
    (P_k - kappa P_k*) / z / (1 - |kappa|**2), so each kappa rounds as
    that expression does, to the bit.
    """
    c = np.asarray(coeffs, dtype=complex).T.copy()
    ell = len(c) - 1
    rev = c[::-1]
    t = np.empty((ell, c.shape[1]), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(ell):
            kappa = c[i]  # P_k(0); P_k*(0) = conj(leading) ~ 1
            star = np.conjugate(rev[1 : ell + 1 - i], t[i:])
            np.multiply(kappa, star, star)
            np.subtract(c[i + 1 :], star, star)
            np.divide(star, 1.0 - np.abs(kappa) ** 2, c[i + 1 :])
        mod = np.abs(c[:ell])
        band = (np.abs(mod - 1.0) <= TOL.disk_boundary_band).any(axis=0)
        stable = (mod < 1.0).all(axis=0)
    return c[:ell].T, stable, band


def schur_cohn(p: ComplexPoly) -> SchurCohnResult:
    """Classical Schur-Cohn test for a monic polynomial.

    Runs the downward recursion s_{k-1}(z) = (1/z)(s_k - s_k(0)) /
    (1 - conj(s_k(0)) s_k) on the polynomial pair (P_k, P_k*); stable
    iff every s_k(0) lies strictly inside the unit disk. Values within
    the boundary band are refused rather than classified.
    """
    if not p.is_monic(tol=TOL.monic):
        raise InvalidParameterError("Schur-Cohn input must be monic")
    kappas, stable, band = schur_cohn_rows(p.coeffs[None])
    kappas = kappas[0]
    if band[0]:
        i = int(np.nanargmin(np.abs(np.abs(kappas) - 1.0)))
        raise BoundaryDegenerateError(
            f"|s_{p.degree - i}(0)| = {abs(kappas[i])} within "
            f"{TOL.disk_boundary_band} of the unit circle"
        )
    return SchurCohnResult(stable=bool(stable[0]), params=[complex(k) for k in kappas])

