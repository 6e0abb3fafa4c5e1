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
    """theta reduced to [0, 2 pi).

    ``x % TWO_PI`` rounds up to exactly 2 pi for tiny negative x; that
    case is the angle 0.
    """
    theta = np.mod(theta, TWO_PI)
    return np.where(theta < TWO_PI, theta, 0.0)


@dataclass(frozen=True, slots=True)
class UnitPoint:
    """A point e^{i theta} on the unit circle, kept in both forms."""

    theta: float
    z: complex

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > TOL.unit_point:
            raise DomainError(f"|z| = {abs(self.z)} is not on the unit circle")
        if abs(self.z - cmath.exp(1j * self.theta)) > TOL.unit_point:
            raise InternalConsistencyError("theta and z disagree")

    @staticmethod
    def from_theta(theta: float) -> "UnitPoint":
        theta = float(wrap_theta(theta))
        return UnitPoint(theta, cmath.exp(1j * theta))

    # looser than TOL.on_circle by default: z is normalised onto the
    # circle here, so only a point clearly off it is refused
    @staticmethod
    def from_complex(z: complex, tol: float = 1e-9) -> "UnitPoint":
        if abs(abs(z) - 1.0) > tol:
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
    cost 8 bytes each instead of three Python objects."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        self.theta = theta

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
        if abs(mu[0].imag) > 1e-12 * max(1.0, abs(mu[0])) or mu[0].real <= 0:
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
        if np.any(np.abs(d[1:]) >= 1.0):
            raise InvalidParameterError("all delta_k (k >= 1) must lie in the open unit disk")
        if len(e) != len(d) or np.any(e <= 0):
            raise InvalidParameterError("norms must be positive and match delta in length")

    @property
    def order(self) -> int:
        return len(self.delta) - 1

    def params(self, n: int | None = None) -> np.ndarray:
        """delta_1..delta_n as a plain array."""
        n = self.order if n is None else n
        if n > self.order:
            raise InvalidParameterError(f"order {n} beyond available {self.order}")
        return self.delta[1 : n + 1]

    def rho_coeffs(self, k: int) -> np.ndarray:
        """Coefficients of the monic recursion polynomial of degree k,
        recursed from rho_0 on each call (nothing is kept on the chain)."""
        if k > self.order:
            raise InvalidParameterError(f"order {k} beyond available {self.order}")
        rho = np.array([1.0 + 0.0j])
        for d in self.delta[1 : k + 1]:
            rho = _szego_step(rho, d)
        return rho

    @staticmethod
    def from_params(params, e0: float = 1.0) -> "SchurSequence":
        params = np.asarray(params, dtype=complex)
        if np.any(np.abs(params) >= 1.0):
            raise InvalidParameterError("Schur parameters must lie in the open unit disk")
        norms = e0 * np.concatenate([[1.0], np.cumprod(1.0 - np.abs(params) ** 2)])
        return SchurSequence(np.concatenate([[1.0], params]), norms)


def _szego_step(rho: np.ndarray, d: complex) -> np.ndarray:
    """Coefficients of z rho + d rho* for a monic rho."""
    zr = np.concatenate([[0.0], rho])
    rs = np.concatenate([np.conj(rho[::-1]), [0.0]])
    return zr + d * rs


def szego_from_schur(deltas: SchurSequence, n: int) -> list[ComplexPoly]:
    """Monic rho_0..rho_n from the Szego recursion."""
    rho = np.array([1.0 + 0.0j])
    polys = [ComplexPoly(rho)]
    for d in deltas.params(n):
        rho = _szego_step(rho, d)
        polys.append(ComplexPoly(rho))
    return polys


def inner_product(p: ComplexPoly, q: ComplexPoly, mu: MomentSequence) -> complex:
    """<P, Q> = sum_j sum_k p_j conj(q_k) mu_{j-k}."""
    dp, dq = p.degree, q.degree
    if max(dp, dq) > mu.order:
        raise MomentRangeError(
            f"moments up to order {max(dp, dq)} needed, only {mu.order} available"
        )
    acc = 0.0 + 0.0j
    for j, pj in enumerate(p.coeffs):
        if pj == 0:
            continue
        for k, qk in enumerate(q.coeffs):
            if qk == 0:
                continue
            acc += pj * np.conj(qk) * mu.get(j - k)
    return acc


def schur_from_moments(mu: MomentSequence, n: int) -> SchurSequence:
    """Levinson-type recursion: reflection coefficients from moments.

    delta_k = -<z rho_{k-1}, 1> / <rho*_{k-1}, 1>, with the norm update
    E_k = E_{k-1} (1 - |delta_k|^2) acting as the positive-definiteness
    certificate. rho_k comes from ``_szego_step``, and rho*_{k-1} is read
    off rho_{k-1} as its conjugate reversal.
    """
    if n > mu.order:
        raise MomentRangeError(f"need moments to order {n}, have {mu.order}")
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
        rho = _szego_step(rho, d)
        params.append(d)
        e = e_next
    return SchurSequence.from_params(np.array(params), e0=e0)


def blaschke_eval(deltas: SchurSequence, n: int, z: complex) -> complex:
    """F_n(z) = z rho_{n-1}(z) / rho*_{n-1}(z) for z on the unit circle."""
    if abs(abs(z) - 1.0) > TOL.on_circle * 10:
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
    """All n solutions of F_n(z) = target on the unit circle.

    The solutions are the zeros of the paraorthogonal polynomial
    z rho_{n-1} - target rho*_{n-1}. The argument of F_n rises strictly,
    by 2 pi n, around the circle, so each solution is bracketed on its
    own and solved by Newton steps on the split phase of ``split_phase``
    (a Pruefer-type phase), O(n) work per root (``_solve_angles``).
    Every root is then accepted only after a residual check scaled by
    the phase slope, taken from the Szego recursion independently of
    that solve, and the set only when no two roots nearly coincide.
    """
    if abs(abs(target) - 1.0) > TOL.on_circle * 10:
        raise DomainError(f"|target| = {abs(target)} off the unit circle")
    params = deltas.params(n - 1)
    theta = np.sort(wrap_theta(_solve_angles(params, target)))
    f, slope = blaschke_phase_slope(params, np.exp(1j * theta))
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
    return UnitPoints(theta)


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
    """
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

