"""Solving for the free parameters (P, tau) from prescribed nodes.

Given reflection coefficients of the measure and up to 2*ell + 1 points
on the unit circle, these routines produce a spec (n, ell, P, tau) whose
polynomial Q vanishes at the prescribed points. There is one solve for
every node count and every ell >= 0: the coupled ``tau_pencil`` of
2*ell nodes, which leaves P(tau) = tau A + B affine in tau.
``prescribe_2l`` (2*ell nodes) reads it at the given tau, and
``prescribe_2lp1`` (2*ell + 1 nodes) builds it on 2*ell of them and
reads it at the tau the remaining node fixes. Both answer the same way:
the coupling check, the Schur-Cohn verdict on P, then the
prescribed-node residual on an admissible P, read off the pencil's
nodal polynomial Q = tau U + V (``AffineQ``), as the tau scan reads
it. One node (Radau), two nodes (Lobatto) and three nodes are their
ell = 0 and ell = 1 members, read by ``radau``, ``lobatto2`` and
``three_nodes``, and a rule with both support-arc endpoints prescribed
is the ell = 1 member too, read by ``classical_arc``. Besides these:
recovering tau from a target exactness parameter omega.

Throughout, f_i = conj(F_{n-ell}(alpha_i)) where F_k is the Blaschke
quotient z rho_{k-1} / rho*_{k-1}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import (
    BoundaryDegenerateError,
    ConditionViolationError,
    InternalConsistencyError,
    InvalidParameterError,
    NoSolutionError,
)
from ._kernels import blaschke_values
from .measures import ArcSpec, in_open_arc
from .opuc import (
    TWO_PI,
    SchurSequence,
    UnitPoint,
    blaschke_eval,
    schur_cohn,
    schur_cohn_rows,
    wrap_theta,
)
from .poly import ComplexPoly, horner
from .qpopuc import QpopucSpec, order_collapsed


@dataclass
class PrescriptionResult:
    """The answer of every prescription: the spec (n, ell, P, tau), None
    only for an inadmissible ``three_nodes`` triple; whether P passes the
    Schur-Cohn test; and the diagnostics. The rule's nodes are the zeros
    of the spec's Q (``zeros_on_circle``)."""

    spec: QpopucSpec | None
    admissible: bool
    diagnostics: dict = field(default_factory=dict)


def _f_values(deltas: SchurSequence, n: int, ell: int, az: np.ndarray) -> np.ndarray:
    return np.conj(blaschke_values(deltas.params(n - ell - 1), az))


def _schur_admissible(poly: ComplexPoly, diagnostics: dict) -> bool:
    """Schur-Cohn verdict on P; a boundary-band hit is inadmissible and
    recorded under ``boundary_degenerate``."""
    try:
        sc = schur_cohn(poly)
    except BoundaryDegenerateError as exc:
        diagnostics["boundary_degenerate"] = str(exc)
        return False
    diagnostics["schur_params"] = sc.params
    return sc.stable


def radau(deltas: SchurSequence, n: int, alpha: UnitPoint) -> PrescriptionResult:
    """One prescribed node: ``prescribe_2lp1`` at ell = 0, where the
    pencil is empty (P = 1) and the node fixes tau = -F_n(alpha)."""
    return prescribe_2lp1(deltas, n, 0, [alpha])


def radau_arc_admissible(deltas: SchurSequence, n: int, tau: complex, arc: ArcSpec) -> bool:
    """Does -tau lie on the (counterclockwise) arc (F_n(a), F_n(b))?

    True guarantees all n zeros of the corresponding one-node rule fall
    in the open support arc (a, b).
    """
    tau_a = blaschke_eval(deltas, n, arc.a.z)
    tau_b = blaschke_eval(deltas, n, arc.b.z)
    return in_open_arc(-tau, tau_a, tau_b)


def lobatto2(
    deltas: SchurSequence,
    n: int,
    alpha1: UnitPoint,
    alpha2: UnitPoint,
    tau: complex,
) -> PrescriptionResult:
    """Two prescribed nodes, free tau: ``prescribe_2l`` at ell = 1.

    P(z) = z - eta, with eta affine in tau, so the admissible tau form
    one arc of ``tau_arcs``, recorded as ``tau_arc``. In the degenerate
    case f1 a1 = f2 a2 (``degenerate_case``) only one tau works, and eta,
    free along the chord between the nodes, is taken at its midpoint
    (``TauPencil.affine``); there is no arc.
    """
    alphas = [alpha1, alpha2]
    pencil = tau_pencil(deltas, n, 1, alphas)
    res = _pencil_answer(AffineQ(pencil, deltas, n, pencil.nodes), tau)
    res.diagnostics["degenerate_case"] = pencil.degenerate
    for start, end in tau_arcs(pencil).green:  # one arc, none when degenerate
        res.diagnostics["tau_arc"] = ArcSpec(
            UnitPoint.from_theta(start), UnitPoint.from_theta(end)
        )
    return res


def three_nodes(
    deltas: SchurSequence, n: int, alphas: list[UnitPoint]
) -> PrescriptionResult:
    """Three prescribed nodes: ``prescribe_2lp1`` at ell = 1, where both
    eta and tau are determined.

    P(z) = z - eta, and the interpolation conditions say the map
    conj(tau) (z - eta)/(1 - conj(eta) z) sends alpha_i to -f_i. It is a
    disk automorphism (|eta| < 1) exactly when the alpha and f triples
    have the same orientation on the circle. The pencil is the pair
    farthest from degenerate; when all three pairs are degenerate, each
    admits only its own tau, and the triple is refused as no-solution.
    An inadmissible triple has ``spec`` None, with eta in the
    diagnostics.
    """
    res = prescribe_2lp1(deltas, n, 1, alphas)
    return res if res.admissible else PrescriptionResult(None, False, res.diagnostics)


def _prescribed_nodes(alphas, n: int, ell: int, count: int) -> np.ndarray:
    """The checks every prescription makes: ell >= 0, ``count`` nodes
    (none at all for the free-tau ell = 0), 2*ell + 1 <= n and no two
    nodes coinciding. Returns the points."""
    if len(alphas) != count or ell < 0:
        raise InvalidParameterError(f"expected {count} nodes with ell >= 0")
    if 2 * ell + 1 > n:
        raise InvalidParameterError("need 2*ell + 1 <= n")
    az = np.array([p.z for p in alphas], dtype=complex)
    if _min_gap(az) < TOL.node_distinct:
        raise InvalidParameterError("prescribed nodes must be distinct")
    return az


def _min_gap(z: np.ndarray) -> float:
    """Smallest distance between two of a few unit complex numbers, capped
    at 1 by the filler of the diagonal; inf for no numbers."""
    return float(np.min(np.abs(z[:, None] - z[None, :]) + np.eye(len(z)), initial=np.inf))


def _vandermonde(points, cols):
    pts = np.asarray(points, dtype=complex)
    return pts[:, None] ** np.arange(cols)[None, :]


def _solve(m, rhs):
    """np.linalg.solve, with NaN for an exactly singular matrix; the
    condition number or the coupling check then refuses the result."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.full(np.shape(rhs), np.nan + 0j)


# the coupled solve is backward stable, so its conj(p) block misses conj(p)
# by about cond * eps (Higham 2002, section 7): at most 1.2e-15 * cond on
# 9,334 seeded pencils with cond > 100, and at most 2.1e-16 * cond where
# this slope lifts the gate above TOL.coupling (cond > 1e4); about 45 eps
_COUPLING_SLOPE = 1e-14


@dataclass(frozen=True)
class TauPencil:
    """The 2*ell-node prescription as an affine function of tau.

    The interpolation conditions P(a_i) + tau f_i P*(a_i) = 0 are linear
    in (p, conj(p)), and tau only scales the conj(p) columns: the coupled
    matrix is M(tau) = M diag(I, tau I). One solve with M therefore gives
    the low coefficients of the monic P as p(tau) = tau a + b, and the
    conj(p) block as a_conj + conj(tau) b_conj; that block must come out
    as conj(p), which is the check on the solve. Two nodes with
    f1 a1 = f2 a2 make M singular (``degenerate``): only one tau works.
    At ell = 0 there are no nodes and no conditions: the empty pencil
    gives the paraorthogonal P = 1 at every tau.
    """

    ell: int
    nodes: np.ndarray  # prescribed points a_i
    f: np.ndarray  # f_i = conj(F_{n-ell}(a_i))
    a: np.ndarray  # p(tau) = tau a + b
    b: np.ndarray
    a_conj: np.ndarray  # conj(p) block of the coupled solve
    b_conj: np.ndarray
    cond: float  # 1-norm condition number of M, the same for every tau

    @property
    def affine(self) -> tuple:
        """(A, B), low-to-high, of the monic P(tau) = tau A + B: a and b
        with the leading 0 and 1. A degenerate pencil has A = 0 and B the
        P whose zero is the midpoint of the chord between the nodes."""
        if self.degenerate:
            a1, a2 = self.nodes
            return np.zeros(2), np.array([-(a1 + 0.5 * (a2 - a1)), 1.0])
        return np.append(self.a, 0.0), np.append(self.b, 1.0)

    @property
    def degenerate(self) -> bool:
        """ell = 1 with f1 a1 = f2 a2: the coupled matrix is singular."""
        if self.ell != 1:
            return False
        (a1, a2), (f1, f2) = self.nodes, self.f
        return abs(f1 * a1 - f2 * a2) < TOL.lobatto_degenerate * (abs(f1) + abs(f2))

    @property
    def tau_required(self) -> complex:
        """The one tau a degenerate two-node configuration admits."""
        return complex(self.nodes[0] * np.conj(self.f[1]))

    def require_solvable(self) -> None:
        """The tau-free refusals of ``prescribe_2l``: coinciding Blaschke
        values for two nodes, an ill-conditioned system for more."""
        if self.ell == 1:
            if abs(self.f[0] - self.f[1]) < TOL.blaschke_distinct:
                raise NoSolutionError(
                    "Blaschke values at the two nodes coincide; eta would be "
                    "forced onto the unit circle"
                )
        elif not self.cond <= TOL.condition_limit:
            raise ConditionViolationError(
                f"prescription system condition number {self.cond:.3e} exceeds "
                "limit; the node/Blaschke configuration is (near-)singular"
            )

    def rows(self, tau):
        """Per tau: the monic P coefficients (batch, ell + 1), low-to-high,
        and whether the row is valid. A row of the solve is valid when its
        conj(p) block equals conj(p), relative to 1 + max |p|, within
        ``TOL.coupling`` or, for an ill-conditioned solve, within
        ``_COUPLING_SLOPE`` times its condition number. A degenerate pencil
        admits only ``tau_required``, where P is the B of ``affine``."""
        tau = np.asarray(tau)
        if self.degenerate:
            p = np.tile(self.affine[1], (len(tau), 1))
            return p, np.abs(tau - self.tau_required) <= TOL.lobatto_tau
        p = tau[:, None] * self.a + self.b
        conj_p = self.a_conj + np.conj(tau[:, None]) * self.b_conj
        coupling = np.max(np.abs(conj_p - np.conj(p)), axis=1, initial=0.0)
        gate = max(TOL.coupling, _COUPLING_SLOPE * self.cond)
        ok = coupling <= gate * (1.0 + np.max(np.abs(p), axis=1, initial=0.0))
        return np.concatenate([p, np.ones((len(p), 1))], axis=1), ok

    def fixed_tau(self, beta: complex, f_beta: complex) -> complex:
        """The tau at which P = tau A + B also vanishes at one more node
        beta, with f-value f_beta.

        On the circle P*(beta) = conj(tau) A#(beta) + B#(beta), where
        X#(beta) = beta**ell conj(X(beta)), so P(beta) + tau f_beta P*(beta)
        = 0 reads tau (A(beta) + f_beta B#(beta)) = -(B(beta) + f_beta
        A#(beta)). The two brackets have equal modulus, so tau is
        unimodular by construction; when both vanish, beta fixes no tau.
        """
        a, b = (complex(x) for x in horner(np.stack(self.affine), [beta])[:, 0])
        w = complex(beta**self.ell * f_beta)
        num, den = -(b + w * a.conjugate()), a + w * b.conjugate()
        if den == 0:
            raise NoSolutionError("the remaining prescribed node fixes no tau")
        tau = num / den
        return tau / abs(tau)


def tau_pencil(deltas: SchurSequence, n: int, ell: int, alphas) -> TauPencil:
    """Factor the 2*ell-node prescription once: the f-values in one
    Blaschke evaluation, then the coupled solve and its condition number
    (``_factor``). Every ell >= 0 takes this path; at ell = 0 the system
    is 0 x 0, with condition number 1, and the pencil gives P = 1.

    Raises ``InvalidParameterError`` for a wrong node count, 2*ell + 1 > n
    or coinciding nodes; every other refusal is left to the caller.
    """
    az = _prescribed_nodes(alphas, n, ell, 2 * ell)
    return _factor(az, _f_values(deltas, n, ell, az))


def _factor(az: np.ndarray, f: np.ndarray) -> TauPencil:
    """The coupled solve of the 2*ell nodes az with f-values f."""
    ell = len(az) // 2
    v = _vandermonde(az, ell)
    d = az**ell
    coupled_m = np.hstack([v, (f * d)[:, None] * np.conj(v)])
    # numpy defines no condition number for the 0 x 0 system of ell = 0
    cond = float(abs(np.linalg.cond(coupled_m, 1))) if ell else 1.0
    # columns: the parts of the solution scaling with tau and free of it
    x = _solve(coupled_m, -np.column_stack([f, d]))
    return TauPencil(ell, az, f, x[:ell, 0], x[:ell, 1], x[ell:, 0], x[ell:, 1], cond)


@dataclass(frozen=True, eq=False)
class AffineQ:
    """A pencil's nodal polynomial Q, affine in tau, and the one
    prescribed-node residual. With P = tau A + B and R_X = z X rho_{n-ell-1},
    Q = R + tau R* is tau U + V, where U = R_A + R_B* and V = R_B + R_A*,
    so Q(alpha_i) = tau U(alpha_i) + V(alpha_i). U and V, and their values
    at the nodes, are built on first use: by a prescription only for an
    admissible P with nodes, by a scan once for its grid and arcs."""

    pencil: TauPencil
    deltas: SchurSequence
    n: int
    nodes: np.ndarray  # every prescribed point, 2*ell or 2*ell + 1 of them

    @functools.cached_property
    def uv(self) -> np.ndarray:
        """U and V, stacked (2, n + 1), low-to-high."""
        rho = self.deltas.rho_coeffs(self.n - self.pencil.ell - 1)
        r_a, r_b = (np.convolve(np.append(0.0, x), rho) for x in self.pencil.affine)
        return np.stack([r_a + np.conj(r_b[::-1]), r_b + np.conj(r_a[::-1])])

    @functools.cached_property
    def uv_at(self) -> np.ndarray:
        return horner(self.uv, self.nodes)

    def coeffs(self, tau) -> np.ndarray:
        """Q's coefficients, one row per tau, low-to-high."""
        return np.asarray(tau)[:, None] * self.uv[0] + self.uv[1]

    def residual(self, tau):
        """Per tau: (ok, max_i |Q(alpha_i)|, limit), ok when the residual
        is within TOL.node_residual times Q's largest coefficient."""
        u_at, v_at = self.uv_at
        resid = np.abs(np.asarray(tau)[:, None] * u_at + v_at).max(axis=1, initial=0.0)
        limit = TOL.node_residual * np.abs(self.coeffs(tau)).max(axis=1)
        return resid <= limit, resid, limit


class TauArcs(NamedTuple):
    """The circle of tau cut where the Schur-Cohn verdict on P changes:
    the boundary angles, ascending in [0, 2 pi); the arcs, each from one
    boundary counterclockwise to the next (the whole circle, (0, 2 pi),
    when there is none); and each arc's verdict."""

    boundary: np.ndarray
    arcs: list  # of (theta_start, theta_end)
    stable: list  # of bool, one per arc

    @property
    def green(self) -> list:
        return [arc for arc, ok in zip(self.arcs, self.stable) if ok]


# a root of H this far off the circle is still taken: np.roots moves a
# double unit root off it by ~sqrt(eps), and a root that is no boundary
# only cuts an arc whose two parts get the same verdict and merge again
_UNIT_ROOT = 1e-6


def tau_arcs(pencil: TauPencil) -> TauArcs:
    """The arcs of tau on which P(z; tau) = tau A(z) + B(z) is Schur-stable.

    P has a zero on the circle exactly when tau = -B(z) / A(z) for a z on
    the circle with |A(z)| = |B(z)|, a unit root of
    H = B B# - A A# = z**ell (|B|**2 - |A|**2), X# the conjugate reversal
    of degree ell. H has degree 2 ell and the autocorrelations of B and A
    as coefficients, so at most 2 ell values of tau bound the arcs, and
    one Schur-Cohn test at an arc's midpoint decides the arc. Each root
    from np.roots takes Newton steps in theta on the real
    h(theta) = e**(-i ell theta) H(e**(i theta)). Neighbours with the same
    verdict merge, as at a double root of H, where P's zero touches the
    circle and turns back; an arc whose midpoint is in the Schur-Cohn
    band (between the halves of a split double root) joins the arc
    before it. A degenerate two-node pencil admits one tau: no arc. The
    empty pencil of ell = 0 (P = 1, H = 1) has one arc, the whole circle.
    """
    if pencil.degenerate:
        return TauArcs(np.empty(0), [], [])
    a, b = pencil.affine
    h = np.convolve(b, np.conj(b[::-1])) - np.convolve(a, np.conj(a[::-1]))
    roots = np.roots(h[::-1])
    theta = np.angle(roots[np.abs(np.abs(roots) - 1.0) <= _UNIT_ROOT])
    k = np.arange(len(h)) - pencil.ell
    for _ in range(4):  # two reach the rounding of a simple root
        e = np.exp(1j * np.outer(theta, k))
        g, slope = (e @ h).real, (e @ (1j * k * h)).real
        theta = theta - np.divide(g, slope, out=np.zeros_like(g), where=slope != 0.0)
    b_z, a_z = horner(np.stack([b, a]), np.exp(1j * theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = -b_z / a_z
    cuts = np.unique(wrap_theta(np.angle(tau[np.isfinite(tau)])))
    ends = np.append(cuts, cuts[0] + TWO_PI) if len(cuts) else np.array([0.0, TWO_PI])
    _, stable, band = schur_cohn_rows(pencil.rows(np.exp(0.5j * (ends[:-1] + ends[1:])))[0])
    starts, stable = ends[:-1][~band], stable[~band]
    change = stable != np.roll(stable, 1)
    if not change.any():
        return TauArcs(np.empty(0), [(0.0, TWO_PI)] if len(stable) else [], stable[:1].tolist())
    starts = starts[change]
    arcs = list(zip(starts.tolist(), np.roll(starts, -1).tolist()))
    return TauArcs(starts, arcs, stable[change].tolist())


def _pencil_row(pencil: TauPencil, tau: complex) -> np.ndarray:
    """P's coefficients at one tau, or the refusal of an invalid row."""
    p, ok = pencil.rows([tau])
    if ok[0]:
        return p[0]
    if pencil.degenerate:
        raise NoSolutionError(
            f"degenerate configuration requires tau = {pencil.tau_required}, got {tau}"
        )
    raise InternalConsistencyError(f"conjugate coupling of the solve violated at tau = {tau}")


def prescribe_2l(
    deltas: SchurSequence, n: int, ell: int, alphas: list[UnitPoint], tau: complex
) -> PrescriptionResult:
    """2*ell prescribed nodes with given tau, for every ell >= 0.

    Evaluates the ``tau_pencil`` of the interpolation conditions
    P(a_i) + tau f_i P*(a_i) = 0, the coupled solve in (p, conj(p)), at
    tau, with its conjugate coupling checked. Admissible iff P passes the
    Schur-Cohn test; only an admissible P has its prescribed-node
    residual checked. No nodes (ell = 0) give the paraorthogonal P = 1,
    admissible at every tau, with nothing to check. ``lobatto2`` reads
    the two-node case.
    """
    pencil = tau_pencil(deltas, n, ell, alphas)
    return _pencil_answer(AffineQ(pencil, deltas, n, pencil.nodes), tau)


def _pencil_answer(q: AffineQ, tau) -> PrescriptionResult:
    """The answer of a factored pencil at tau, the same for every node
    count and every ell: the pencil's refusals and the coupling check,
    the Schur-Cohn verdict on P, then, on an admissible P with nodes to
    check, the prescribed-node residual at every alpha (``AffineQ``). An
    unstable P is an inadmissible answer; its Q need not vanish at the
    nodes to working precision, since the solve behind it may be
    ill-conditioned. A P of degree ell >= 1 is recorded by eta = -P(0),
    its zero at ell = 1, and a checked residual under ``residual``."""
    pencil = q.pencil
    pencil.require_solvable()
    spec = QpopucSpec(q.n, pencil.ell, ComplexPoly(_pencil_row(pencil, tau)), tau)
    diagnostics = {"f_values": list(pencil.f), "condition": pencil.cond}
    if spec.ell:  # P = 1 has no zero
        diagnostics["eta"] = complex(-spec.P.coeffs[0])
    admissible = _schur_admissible(spec.P, diagnostics)
    if admissible and len(q.nodes):
        ok, resid, limit = q.residual([tau])
        if not ok[0]:
            raise InternalConsistencyError(
                f"prescribed-node residual {resid[0]:.3e} exceeds {limit[0]:.3e}"
            )
        diagnostics["residual"] = float(resid[0])
    return PrescriptionResult(spec, admissible, diagnostics)


def prescribe_2lp1(
    deltas: SchurSequence, n: int, ell: int, alphas: list[UnitPoint]
) -> PrescriptionResult:
    """2*ell + 1 prescribed nodes, for every ell >= 0: tau is no longer free.

    2*ell of the nodes leave P(tau) = tau A + B affine in tau (their
    ``TauPencil``), and the remaining node beta fixes tau
    (``TauPencil.fixed_tau``). beta is the last node, except at ell = 1,
    where it is the node opposite the pair farthest from degenerate
    (f_i a_i = f_j a_j), so that a degenerate pair is never the pencil.
    The answer is ``prescribe_2l``'s at that tau, with the residual of an
    admissible P checked at all 2*ell + 1 nodes. ``radau`` (one node,
    P = 1 and tau = -F_n(alpha)) and ``three_nodes`` read the cases
    ell = 0 and ell = 1.
    """
    az = _prescribed_nodes(alphas, n, ell, 2 * ell + 1)
    f = _f_values(deltas, n, ell, az)
    beta = 2 * ell
    if ell == 1:
        fa = f * az
        beta = int(np.argmax(np.abs(np.roll(fa, -1) - np.roll(fa, -2))))
    rest = np.arange(2 * ell + 1) != beta
    pencil = _factor(az[rest], f[rest])
    res = _pencil_answer(AffineQ(pencil, deltas, n, az), pencil.fixed_tau(az[beta], f[beta]))
    res.diagnostics.update(f_values=list(f), tau=res.spec.tau)
    return res


def classical_arc(
    deltas: SchurSequence,
    arc: ArcSpec,
    n: int,
    mode: str,
    tau_hat: complex | None = None,
    alpha: UnitPoint | None = None,
) -> PrescriptionResult:
    """Rules with both endpoints a and b of the support arc prescribed:
    the ell = 1 pencil on the two endpoints, as ``lobatto2`` or
    ``prescribe_2lp1`` answer it, with their Schur-Cohn verdict.

    ``mode`` is "lobatto" (the caller supplies a unimodular tau_hat, and
    the answer is ``lobatto2`` at tau = a b tau_hat) or "peherstorfer"
    (the interior node alpha is prescribed as well, and the answer is
    ``prescribe_2lp1`` on [a, b, alpha]). ``deltas`` is the measure's own
    chain, as ``moment_chain(measure, n, 1)`` builds it, and the pencil
    needs n >= 3. Either way the diagnostics hold ``tau`` and
    ``tau_hat`` = conj(a b) tau.
    """
    ab = arc.a.z * arc.b.z
    if mode == "lobatto":
        if tau_hat is None:
            raise InvalidParameterError("lobatto mode requires tau_hat")
        if not abs(abs(tau_hat) - 1.0) <= TOL.on_circle:
            raise InvalidParameterError("|tau_hat| must equal 1")
        res = lobatto2(deltas, n, arc.a, arc.b, ab * tau_hat)
    elif mode == "peherstorfer":
        if alpha is None:
            raise InvalidParameterError("peherstorfer mode requires alpha")
        res = prescribe_2lp1(deltas, n, 1, [arc.a, arc.b, alpha])
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    tau = complex(res.spec.tau)
    res.diagnostics.update(tau=tau, tau_hat=tau * np.conj(ab))
    return res


def tau_for_omega(
    deltas: SchurSequence,
    n: int,
    ell: int,
    alphas: list[UnitPoint],
    omega: complex,
):
    """Invariance parameters tau realizing a target omega, in closed form.

    The 2*ell-node ``tau_pencil`` makes P(0) = A tau + B affine in tau (at
    ell = 0, A = 0 and B = 1), so with delta = delta_{n-ell},
    sigma = conj(P(0)) - conj(tau) delta = conj(tau) N for N = c + conj(B) tau,
    c = conj(A) - delta, and omega = N / conj(N). That is the target when
    N = t e^{i psi}, t real, psi = arg(omega)/2. N runs on the circle of
    radius |B| about c, so with u = c e^{-i psi}, t = Re(u) + r for
    r = +-sqrt(|B|**2 - Im(u)**2), and tau = (r - i Im(u)) e^{i psi} / conj(B),
    unimodular by construction: two solutions, one at tangency (r = 0), or
    none. A root with t = 0 is the order collapse sigma = 0, decided by
    ``order_collapsed`` as in ``orthogonality_params``, and is dropped, as
    is one whose row of ``TauPencil.rows`` is invalid, so ``prescribe_2l``
    takes every tau returned. Returns (solutions, degenerate): degenerate
    means B = 0, where omega = c / conj(c) at every tau, with that omega
    within ``TOL.on_circle`` of the target, the tolerance of the input.
    """
    if not abs(abs(omega) - 1) <= TOL.on_circle:
        raise InvalidParameterError("|omega| must equal 1")
    pencil = tau_pencil(deltas, n, ell, alphas)
    if not pencil.cond <= TOL.condition_limit:
        raise ConditionViolationError(
            f"tau-parametrized system condition {pencil.cond:.3e} exceeds limit"
        )
    delta = complex(deltas.params(n - ell)[-1])
    a, b = (complex(x[0]) for x in pencil.affine)
    c = a.conjugate() - delta
    if b == 0:  # N = c at every tau
        collapsed = order_collapsed(abs(c), delta)
        return [], not collapsed and abs(c / c.conjugate() - omega) <= TOL.on_circle
    rot = cmath.sqrt(omega / abs(omega))  # e^{i psi}, up to a sign t absorbs
    u = c * rot.conjugate()
    disc = (abs(b) - abs(u.imag)) * (abs(b) + abs(u.imag))
    if not disc >= 0:
        return [], False
    r = math.sqrt(disc)
    taus = []
    for root in (r, -r) if r else (r,):
        if order_collapsed(abs(u.real + root), delta):
            continue
        tau = complex(root, -u.imag) * rot / b.conjugate()
        tau /= abs(tau)
        if pencil.rows([tau])[1][0]:  # one row at a time, as ``prescribe_2l`` checks it
            taus.append(tau)
    return taus, False
