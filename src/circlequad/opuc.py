"""Core primitives for orthogonal polynomials on the unit circle.

Conventions: moments are mu_k = integral of z**k d(mu), with
mu_{-k} = conj(mu_k), and <z**j, z**k> = mu_{j-k}. Monic Szego
polynomials follow rho_k = z rho_{k-1} + delta_k rho*_{k-1} with
reflection coefficients delta_k = rho_k(0) in the open unit disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import blaschke_phase_slope, blaschke_values
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


@dataclass(frozen=True)
class UnitPoint:
    """A point e^{i theta} on the unit circle, kept in both forms."""

    theta: float
    z: complex

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > 1e-14 * 10:
            raise DomainError(f"|z| = {abs(self.z)} is not on the unit circle")
        if abs(self.z - cmath.exp(1j * self.theta)) > 1e-13:
            raise InternalConsistencyError("theta and z disagree")

    @staticmethod
    def from_theta(theta: float) -> "UnitPoint":
        theta = float(wrap_theta(theta))
        return UnitPoint(theta, cmath.exp(1j * theta))

    @staticmethod
    def from_complex(z: complex, tol: float = 1e-9) -> "UnitPoint":
        if abs(abs(z) - 1.0) > tol:
            raise DomainError(f"|z| = {abs(z)} is off the unit circle")
        z = z / abs(z)
        return UnitPoint(float(wrap_theta(cmath.phase(z))), z)


@dataclass(frozen=True)
class MomentSequence:
    """Trigonometric moments mu_0..mu_N; negative indices by conjugation."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=complex)
        object.__setattr__(self, "mu", mu)
        if len(mu) == 0:
            raise InvalidParameterError("empty moment sequence")
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
        """Moments mu_lo..mu_hi as a dense array."""
        return np.array([self.get(k) for k in range(lo, hi + 1)])


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
        object.__setattr__(self, "_rho_cache", {0: np.array([1.0 + 0.0j])})

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
        """Coefficients of the monic recursion polynomial of degree k.

        Only the degrees asked for are cached, not every rho_0..rho_k; a
        new degree is recursed from the highest cached one below it.
        """
        if k > self.order:
            raise InvalidParameterError(f"order {k} beyond available {self.order}")
        cache = self._rho_cache
        if k not in cache:
            j = max(i for i in cache if i < k)
            rho = cache[j]
            for d in self.delta[j + 1 : k + 1]:
                rho = _szego_step(rho, d)
            cache[k] = rho
        return cache[k]

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
    certificate.
    """
    if n > mu.order:
        raise MomentRangeError(f"need moments to order {n}, have {mu.order}")
    mu_arr = mu.array(0, n)
    rho = np.array([1.0 + 0.0j])
    rho_star = np.array([1.0 + 0.0j])
    params = []
    e0 = float(mu_arr[0].real)
    e = e0
    for k in range(1, n + 1):
        num = np.dot(rho, mu_arr[1 : len(rho) + 1])
        den = np.dot(rho_star, mu_arr[: len(rho_star)])
        d = -num / den
        e_next = e * (1.0 - abs(d) ** 2)
        if abs(d) >= 1.0 or e_next <= 0:
            raise NotPositiveDefiniteError(
                f"moment sequence not positive definite at order {k} (|delta| = {abs(d)})"
            )
        zr = np.concatenate([[0.0], rho])
        rs = np.zeros(len(zr), dtype=complex)
        rs[: len(rho_star)] = rho_star
        rho, rho_star = zr + d * rs, np.conj(d) * zr + rs
        params.append(d)
        e = e_next
    return SchurSequence.from_params(np.array(params), e0=e0)


def blaschke_eval(deltas: SchurSequence, n: int, z: complex) -> complex:
    """F_n(z) = z rho_{n-1}(z) / rho*_{n-1}(z) for z on the unit circle."""
    if abs(abs(z) - 1.0) > TOL.on_circle * 10:
        raise DomainError(f"|z| = {abs(z)} off the unit circle")
    return complex(blaschke_values(deltas.params(n - 1), np.array([z]))[0])


def _cmv_eigvals(alpha: np.ndarray) -> np.ndarray:
    """Eigenvalues of the n x n truncated CMV matrix L M of the
    Verblunsky coefficients alpha_0..alpha_{n-1}, |alpha_{n-1}| = 1,
    along the last axis of ``alpha`` (leading axes are a batch).

    L stacks the 2x2 blocks Theta_k = [[conj a_k, r_k], [r_k, -a_k]],
    r_k = sqrt(1 - |a_k|^2), for even k and M those for odd k after a
    leading 1. With r_{n-1} = 0 the last block decouples, so both
    factors are built one size larger and cut back to n x n.
    """
    batch, n = alpha.shape[:-1], alpha.shape[-1]
    r = np.concatenate(
        [np.sqrt(1.0 - np.abs(alpha[..., :-1]) ** 2), np.zeros(batch + (1,))], axis=-1
    )
    factors = []
    for first in (0, 1):
        b = np.zeros(batch + (n + 1, n + 1), dtype=complex)
        b[..., 0, 0] = 1.0
        k = np.arange(first, n, 2)
        b[..., k, k] = np.conj(alpha[..., k])
        b[..., k, k + 1] = r[..., k]
        b[..., k + 1, k] = r[..., k]
        b[..., k + 1, k + 1] = -alpha[..., k]
        factors.append(b[..., :n, :n])
    return np.linalg.eigvals(factors[0] @ factors[1])


class CircleRoots(NamedTuple):
    """The n solutions of F_n(z) = target per chain, with their certificates."""

    theta: np.ndarray  # (..., n), ascending in [0, 2 pi)
    resid_ratio: np.ndarray  # (...) worst |F_n - target| over its per-root limit
    resid_ok: np.ndarray  # (...) every root within its residual limit
    gap_ok: np.ndarray  # (...) no two roots closer than TOL.root_gap


def circle_roots(params, target) -> CircleRoots:
    """Batch kernel of ``blaschke_solve``: ``params`` is delta_1..delta_{n-1}
    along the last axis and ``target`` one unimodular value per chain.

    The nodes are the CMV eigenvalues, polished by Newton steps on
    arg(F_n conj(target)); a chain stops stepping once all its steps are
    below TOL.bisect_theta, so each row gets the steps it would get alone.
    """
    params = np.asarray(params, dtype=complex)
    target = np.asarray(target, dtype=complex)
    alpha = np.concatenate(
        [-np.conj(params), (np.conj(target) / np.abs(target))[..., None]], axis=-1
    )
    theta = np.sort(wrap_theta(np.angle(_cmv_eigvals(alpha))), axis=-1)
    batch, n = theta.shape[:-1], theta.shape[-1]
    rows = int(np.prod(batch))
    theta = theta.reshape(rows, n)
    params = params.reshape(rows, n - 1)
    target = target.reshape(rows, 1)

    active = np.arange(rows)
    for _ in range(8):
        th = theta[active]
        f, slope = blaschke_phase_slope(params[active], np.exp(1j * th))
        step = np.angle(f * np.conj(target[active])) / slope
        gaps = np.diff(np.concatenate([th, th[:, :1] + TWO_PI], axis=1), axis=1)
        step = np.clip(step, -0.5 * gaps, 0.5 * np.roll(gaps, 1, axis=1))
        theta[active] = th - step
        active = active[~(np.max(np.abs(step), axis=1) < TOL.bisect_theta)]
        if not len(active):
            break

    theta = np.sort(wrap_theta(theta), axis=1)
    f, slope = blaschke_phase_slope(params, np.exp(1j * theta))
    resid = np.abs(f - target)
    # |F - target| scales with the local phase slope, which peaks when
    # chain zeros sit very close to the circle; the per-root tolerance
    # reflects a theta accuracy of a few Newton stops
    limit = np.maximum(TOL.root_residual, 50.0 * TOL.bisect_theta * slope)
    gaps = np.diff(np.concatenate([theta, theta[:, :1] + TWO_PI], axis=1), axis=1)
    return CircleRoots(
        theta.reshape(batch + (n,)),
        np.max(resid / limit, axis=1).reshape(batch),
        np.all(resid < limit, axis=1).reshape(batch),
        (np.min(gaps, axis=1) > TOL.root_gap).reshape(batch),
    )


def blaschke_solve(deltas: SchurSequence, n: int, target: complex) -> list[UnitPoint]:
    """All n solutions of F_n(z) = target on the unit circle.

    The solutions are the zeros of the paraorthogonal polynomial
    z rho_{n-1} - target rho*_{n-1}, hence the eigenvalues of the
    unitary truncated CMV matrix with alpha_k = -conj(delta_{k+1}) and
    alpha_{n-1} = conj(target) (Cantero-Moral-Velazquez). Newton steps
    on arg(F_n conj(target)) then polish each angle, each step clamped
    to half the gap to the neighboring root. Every root is accepted
    only after a residual check scaled by the phase slope, and the set
    only when no two roots nearly coincide (``circle_roots``).
    """
    if abs(abs(target) - 1.0) > TOL.on_circle * 10:
        raise DomainError(f"|target| = {abs(target)} off the unit circle")
    roots = circle_roots(deltas.params(n - 1), target)
    if not roots.resid_ok:
        raise InternalConsistencyError(
            f"Blaschke root residual at {roots.resid_ratio:.3e} times its limit"
        )
    if not roots.gap_ok:
        raise InternalConsistencyError("near-duplicate Blaschke roots detected")
    z = np.exp(1j * roots.theta)
    return [UnitPoint(float(t), complex(w)) for t, w in zip(roots.theta, z)]


@dataclass
class SchurCohnResult:
    stable: bool
    params: list  # s_k(0) = kappa_k for k = ell..1 (downward order)
    kappas: dict = field(default_factory=dict)  # k -> P_k(0)

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
    if not p.is_monic(tol=0.0):
        # allow tiny drift from arithmetic, refuse anything larger
        if abs(p.coeffs[-1] - 1.0) > 1e-12:
            raise InvalidParameterError("Schur-Cohn input must be monic")
    kappas, stable, band = schur_cohn_rows(p.coeffs[None])
    kappas = kappas[0]
    if band[0]:
        i = int(np.nanargmin(np.abs(np.abs(kappas) - 1.0)))
        raise BoundaryDegenerateError(
            f"|s_{p.degree - i}(0)| = {abs(kappas[i])} within "
            f"{TOL.disk_boundary_band} of the unit circle"
        )
    params = [complex(k) for k in kappas]
    return SchurCohnResult(
        stable=bool(stable[0]),
        params=params,
        kappas={p.degree - i: k for i, k in enumerate(params)},
    )


def random_unit_points(rng, count: int) -> list[UnitPoint]:
    """Distinct random points on the circle (test/scan helper)."""
    thetas = rng.uniform(0.0, TWO_PI, size=count)
    return [UnitPoint.from_theta(float(t)) for t in thetas]
