"""Solving for the free parameters (P, tau) from prescribed nodes.

Given reflection coefficients of the measure and up to 2*ell + 1 points
on the unit circle, these routines produce a spec (n, ell, P, tau) whose
polynomial Q vanishes at the prescribed points. Variants: one node
(Radau), two nodes with free tau (Lobatto), three nodes (tau determined),
the general 2*ell and 2*ell + 1 node systems, arc-endpoint rules built on
the endpoint-modified measure, and recovering tau from a target
exactness parameter omega.

Throughout, f_i = conj(F_{n-ell}(alpha_i)) where F_k is the Blaschke
quotient z rho_{k-1} / rho*_{k-1}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import (
    BoundaryDegenerateError,
    ConditionViolationError,
    InternalConsistencyError,
    InvalidParameterError,
    NoSolutionError,
    RankDeficiencyError,
)
from ._kernels import blaschke_values
from .measures import ArcSpec, in_open_arc, modified_hat_moments, same_orientation
from .opuc import (
    MomentSequence,
    SchurSequence,
    UnitPoint,
    blaschke_eval,
    blaschke_solve,
    schur_cohn,
    schur_from_moments,
)
from .poly import ONE, ComplexPoly, from_zeros
from .qpopuc import QpopucSpec, assemble, residual_rows


@dataclass
class PrescriptionResult:
    spec: QpopucSpec | None
    admissible: bool
    diagnostics: dict = field(default_factory=dict)
    # populated only by classical_arc, whose nodal polynomial lives on a
    # modified moment chain rather than the base one
    nodes: list | None = None
    nodal_poly: ComplexPoly | None = None


def _f_values(deltas: SchurSequence, n: int, ell: int, alphas) -> np.ndarray:
    z = np.array([a.z for a in alphas], dtype=complex)
    return np.conj(blaschke_values(deltas.params(n - ell - 1), z))


def _check_residual(spec: QpopucSpec, deltas: SchurSequence, alphas, tol_rel):
    q = assemble(spec, deltas)
    z = np.array([a.z for a in alphas], dtype=complex)
    ok, resid, limit = residual_rows(q.coeffs[None], z, tol_rel)
    if not ok[0]:
        raise InternalConsistencyError(
            f"prescribed-node residual {resid[0]:.3e} exceeds {limit[0]:.3e}"
        )
    return float(resid[0])


def radau(deltas: SchurSequence, n: int, alpha: UnitPoint) -> PrescriptionResult:
    """One prescribed node (ell = 0): tau = -F_n(alpha)."""
    if n < 2:
        raise InvalidParameterError("radau requires n >= 2")
    tau = -blaschke_eval(deltas, n, alpha.z)
    spec = QpopucSpec(n, 0, ONE, tau)
    # tighter than TOL.node_residual: tau = -F_n(alpha) makes Q(alpha)
    # vanish up to one Blaschke evaluation's rounding
    resid = _check_residual(spec, deltas, [alpha], 1e-11)
    return PrescriptionResult(
        spec,
        admissible=True,
        diagnostics={"f_values": [np.conj(-tau)], "residual": resid},
    )


def radau_arc_admissible(
    deltas: SchurSequence, n: int, tau: complex, arc: ArcSpec, closed: bool = False
) -> bool:
    """Does -tau lie on the (counterclockwise) arc (F_n(a), F_n(b))?

    True guarantees all n zeros of the corresponding one-node rule fall
    in the open support arc (a, b).
    """
    tau_a = blaschke_eval(deltas, n, arc.a.z)
    tau_b = blaschke_eval(deltas, n, arc.b.z)
    if closed:
        # an endpoint hit: -tau equals F_n(a) or F_n(b) up to rounding
        if abs(-tau - tau_a) < 1e-12 or abs(-tau - tau_b) < 1e-12:
            return True
    return in_open_arc(-tau, tau_a, tau_b)


def lobatto2(
    deltas: SchurSequence,
    n: int,
    alpha1: UnitPoint,
    alpha2: UnitPoint,
    tau: complex,
    t: float = 0.5,
) -> PrescriptionResult:
    """Two prescribed nodes, free tau (ell = 1).

    Generic case: the single zero of P is eta = c12 + tau * a12 with
    conj(c12) = (f1 - f2) / (f1 a1 - f2 a2) and
    conj(a12) = (a1 - a2) / (f1 a1 - f2 a2), the ell = 1 case of the
    ``tau_pencil`` elimination. Admissible iff |eta| < 1, outside the
    Schur-Cohn boundary band. In the degenerate case f1 a1 = f2 a2 only
    one tau works and eta is free along the chord between the nodes
    (parameter ``t``).
    """
    pencil = tau_pencil(deltas, n, 1, [alpha1, alpha2])
    pencil.require_solvable()
    a1, a2 = pencil.nodes
    f1, f2 = pencil.f
    diagnostics = {"f_values": [f1, f2], "degenerate_case": pencil.degenerate}
    p, admitted = pencil.lobatto_rows([tau], t)
    if not admitted[0]:
        raise NoSolutionError(
            f"degenerate configuration requires tau = {pencil.tau_required}, got {tau}"
        )
    if pencil.degenerate and not (0.0 < t < 1.0):
        raise InvalidParameterError("chord parameter t must lie in (0, 1)")
    if not pencil.degenerate:
        diagnostics.update(c12=complex(-pencil.b[0]), a12=complex(-pencil.a[0]))
        # admissible-tau arc: from a1*conj(f2) over the midpoint direction
        # to a2*conj(f1)
        x = a1 * np.conj(f2)
        y = a2 * np.conj(f1)
        c = -((np.conj(f1) - np.conj(f2)) / abs(f1 - f2)) * ((a1 - a2) / abs(a1 - a2))
        if in_open_arc(c, x, y):
            diagnostics["tau_arc"] = ArcSpec(
                UnitPoint.from_complex(x), UnitPoint.from_complex(y)
            )
        else:
            diagnostics["tau_arc"] = ArcSpec(
                UnitPoint.from_complex(y), UnitPoint.from_complex(x)
            )
    diagnostics["eta"] = complex(-p[0, 0])
    spec = QpopucSpec(n, 1, ComplexPoly(p[0]), tau)
    admissible = _schur_admissible(spec.P, diagnostics)
    if admissible:
        _check_residual(spec, deltas, [alpha1, alpha2], TOL.node_residual)
    return PrescriptionResult(spec, admissible, diagnostics)


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


def three_nodes(
    deltas: SchurSequence, n: int, alphas: list[UnitPoint]
) -> PrescriptionResult:
    """Three prescribed nodes (ell = 1): both eta and tau are determined.

    The ell = 1 case of ``_odd_solve``, read as P(z) = z - eta. The
    interpolation conditions say the map conj(tau) (z - eta)/(1 - conj(eta) z)
    sends alpha_i to -f_i. It is a disk automorphism (|eta| < 1) exactly
    when the alpha and f triples have the same orientation on the circle;
    both criteria are evaluated and must agree. An inadmissible triple has
    ``spec`` None, with eta in the diagnostics.
    """
    poly, tau, f, cond = _odd_solve(deltas, n, 1, alphas)
    eta = complex(-poly.coeffs[0])
    diagnostics = {"f_values": list(f), "eta": eta, "tau": tau, "condition": cond}
    inside = abs(eta) < 1.0
    # wider than TOL.disk_boundary_band: eta is read off a linear solve,
    # not a Schur-Cohn parameter
    if abs(abs(eta) - 1.0) <= 1e-9:
        raise BoundaryDegenerateError(
            f"|eta| = {abs(eta)} is within 1e-9 of the unit circle"
        )
    if same_orientation(tuple(a.z for a in alphas), tuple(f)) != inside:
        raise InternalConsistencyError("orientation test and |eta| < 1 disagree")
    if not inside:
        return PrescriptionResult(None, False, diagnostics)
    spec = QpopucSpec(n, 1, poly, tau)
    # a tenth of TOL.node_residual, the three-node gate: the 3x3 solve
    # lands far below it (under 4e-13 relative on seeded draws)
    _check_residual(spec, deltas, alphas, 1e-10)
    return PrescriptionResult(spec, True, diagnostics)


def _prescribed_nodes(alphas, n: int, ell: int, count: int) -> np.ndarray:
    """The checks every multi-node prescription makes: ell >= 1, ``count``
    nodes, 2*ell + 1 <= n and no two nodes coinciding. Returns the points."""
    if len(alphas) != count or ell < 1:
        raise InvalidParameterError(f"expected {count} nodes with ell >= 1")
    if 2 * ell + 1 > n:
        raise InvalidParameterError("need 2*ell + 1 <= n")
    az = np.array([p.z for p in alphas], dtype=complex)
    if _min_gap(az) < TOL.node_distinct:
        raise InvalidParameterError("prescribed nodes must be distinct")
    return az


def _min_gap(z: np.ndarray) -> float:
    """Smallest distance between two of a few unit complex numbers."""
    return float(np.min(np.abs(z[:, None] - z[None, :]) + np.eye(len(z))))


def _vandermonde(points, cols):
    pts = np.asarray(points, dtype=complex)
    return pts[:, None] ** np.arange(cols)[None, :]


def _solve(m, rhs):
    """np.linalg.solve, with NaN for an exactly singular matrix; the
    condition numbers and agreement checks then refuse the result."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.full(np.shape(rhs), np.nan + 0j)


@dataclass(frozen=True)
class TauPencil:
    """The 2*ell-node prescription as an affine function of tau.

    The interpolation conditions P(a_i) + tau f_i P*(a_i) = 0 are linear
    in (p, conj(p)), and tau only scales the conj(p) columns: the coupled
    matrix is M(tau) = M diag(I, tau I). One solve with M therefore gives
    the low coefficients of the monic P as p(tau) = tau a + b, and the
    conj(p) block as a_conj + conj(tau) b_conj. The Schur-complement
    elimination gives the same pencil (a_elim, b_elim) a second way; it
    is the check on the coupled solve, and for two nodes, where it is the
    closed form of ``lobatto2``, it is the pencil itself.
    """

    ell: int
    nodes: np.ndarray  # prescribed points a_i
    f: np.ndarray  # f_i = conj(F_{n-ell}(a_i))
    a: np.ndarray  # p(tau) = tau a + b
    b: np.ndarray
    a_conj: np.ndarray  # conj(p) block of the coupled solve
    b_conj: np.ndarray
    a_elim: np.ndarray  # p(tau) from the elimination
    b_elim: np.ndarray
    cond: float  # 1-norm condition number of M, the same for every tau
    cond_elim: float  # 1-norm condition number of the eliminated ell x ell system

    @property
    def degenerate(self) -> bool:
        """ell = 1 with f1 a1 = f2 a2: the elimination is singular."""
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

    def coefficients(self, tau) -> np.ndarray:
        """Monic P coefficients (batch, ell + 1), low-to-high, per tau."""
        p = np.asarray(tau)[:, None] * self.a + self.b
        return np.concatenate([p, np.ones((len(p), 1))], axis=1)

    def defects(self, tau):
        """Per tau, the coupled solve checked: (coupling_ok, agree_ok,
        coupling). Its conj(p) block must equal conj(p), and p must equal
        the elimination's, each relative to 1 + max |p|."""
        tau = np.asarray(tau)[:, None]
        p = tau * self.a + self.b
        scale = 1.0 + np.max(np.abs(p), axis=1)
        coupling = np.max(np.abs(self.a_conj + np.conj(tau) * self.b_conj - np.conj(p)), axis=1)
        agree = np.max(np.abs(tau * self.a_elim + self.b_elim - p), axis=1)
        return (
            coupling <= TOL.coupling * scale,
            agree <= TOL.solve_agreement * scale,
            coupling,
        )

    def lobatto_rows(self, tau, t: float = 0.5):
        """ell = 1: P coefficients per tau, and which taus the nodes admit.
        A degenerate configuration admits only ``tau_required`` and puts
        eta = a1 + t (a2 - a1) on the chord; any other admits every tau."""
        tau = np.asarray(tau)
        if not self.degenerate:
            return self.coefficients(tau), np.ones(len(tau), dtype=bool)
        a1, a2 = self.nodes
        p = np.tile([-(a1 + t * (a2 - a1)), 1.0], (len(tau), 1))
        return p, np.abs(tau - self.tau_required) <= TOL.lobatto_tau


def tau_pencil(deltas: SchurSequence, n: int, ell: int, alphas) -> TauPencil:
    """Factor the 2*ell-node prescription once: the f-values in one
    Blaschke evaluation, the coupled solve, the Vandermonde/elimination
    solves and both condition numbers.

    Raises ``InvalidParameterError`` for a wrong node count or
    coinciding nodes; every other refusal is left to the caller.
    """
    az = _prescribed_nodes(alphas, n, ell, 2 * ell)
    f = _f_values(deltas, n, ell, alphas)
    v = _vandermonde(az, ell)
    d = az**ell

    coupled_m = np.hstack([v, (f * d)[:, None] * np.conj(v)])
    cond = float(abs(np.linalg.cond(coupled_m, 1)))
    # columns: the parts of the solution scaling with tau and free of it
    coupled = _solve(coupled_m, -np.column_stack([f, d]))

    # Schur-complement elimination: conj(p) from each half of the rows
    halves = [
        _solve(
            np.conj(v[h]),
            np.column_stack([np.conj(d[h] * f[h])[:, None] * v[h], np.conj(d[h]), np.conj(f[h])]),
        )
        for h in (slice(0, ell), slice(ell, 2 * ell))
    ]
    w = halves[0] - halves[1]
    m_elim = w[:, :ell]
    cond_elim = float(abs(np.linalg.cond(m_elim, 1)))
    elim = -_solve(m_elim, w[:, ell:])
    pencil = elim if ell == 1 else coupled[:ell]
    return TauPencil(
        ell, az, f, pencil[:, 0], pencil[:, 1], coupled[ell:, 0], coupled[ell:, 1],
        elim[:, 0], elim[:, 1], cond, cond_elim,
    )


def prescribe_2l(
    deltas: SchurSequence, n: int, ell: int, alphas: list[UnitPoint], tau: complex
) -> PrescriptionResult:
    """2*ell prescribed nodes with given tau.

    Evaluates the ``tau_pencil`` of the interpolation conditions
    P(a_i) + tau f_i P*(a_i) = 0, the coupled solve in (p, conj(p)), and
    checks its conjugate coupling and its agreement with the
    Schur-complement elimination. Admissible iff P passes the Schur-Cohn
    test.
    """
    if len(alphas) != 2 * ell or ell < 1:
        raise InvalidParameterError(f"expected 2*ell = {2 * ell} nodes")
    if ell == 1:
        return lobatto2(deltas, n, alphas[0], alphas[1], tau)
    pencil = tau_pencil(deltas, n, ell, alphas)
    pencil.require_solvable()
    coupling_ok, agree_ok, coupling = pencil.defects([tau])
    if not coupling_ok[0]:
        raise InternalConsistencyError(
            f"conjugate coupling violated by {coupling[0]:.3e}"
        )
    if not agree_ok[0]:
        raise InternalConsistencyError("elimination and direct solves disagree")

    poly = ComplexPoly(pencil.coefficients([tau])[0])
    diagnostics = {"f_values": list(pencil.f), "condition": pencil.cond}
    admissible = _schur_admissible(poly, diagnostics)
    spec = QpopucSpec(n, ell, poly, tau)
    _check_residual(spec, deltas, alphas, TOL.node_residual)
    return PrescriptionResult(spec, admissible, diagnostics)


def prescribe_2lp1(
    deltas: SchurSequence, n: int, ell: int, alphas: list[UnitPoint]
) -> PrescriptionResult:
    """2*ell + 1 prescribed nodes: tau is no longer free.

    Runs ``_odd_solve``; admissible iff P passes the Schur-Cohn test.
    Three nodes (ell = 1) go through ``three_nodes``, which reads the
    verdict from eta and the orientation theorem instead, and whose
    inadmissible result has ``spec`` None and eta in the diagnostics.
    """
    if ell == 1:
        return three_nodes(deltas, n, alphas)
    poly, tau, f, cond = _odd_solve(deltas, n, ell, alphas)
    diagnostics = {"f_values": list(f), "condition": cond, "tau": tau}
    admissible = _schur_admissible(poly, diagnostics)
    spec = QpopucSpec(n, ell, poly, tau)
    _check_residual(spec, deltas, alphas, TOL.node_residual)
    return PrescriptionResult(spec, admissible, diagnostics)


def _odd_solve(deltas: SchurSequence, n: int, ell: int, alphas):
    """The 2*ell + 1 node system, solved once: (P, tau, f, condition).

    Scaling the interpolation conditions P(a_i) + tau f_i P*(a_i) = 0 by
    lambda = sqrt(conj(tau)) makes them a homogeneous system in
    (lambda p, conj-reversed); fixing the leading coefficient of P to 1
    turns it into a square solve whose second block must come out as tau
    times the conjugate-reversed first block. That surplus structure
    determines tau and doubles as the validation, with the homogeneous
    residual as the last check.
    """
    az = _prescribed_nodes(alphas, n, ell, 2 * ell + 1)
    f = _f_values(deltas, n, ell, alphas)
    # for ell = 1, P/P* is a Moebius map, one-to-one on the circle: no
    # two nodes can share a Blaschke value
    if ell == 1 and _min_gap(f) < TOL.blaschke_distinct:
        raise NoSolutionError("Blaschke values at the nodes are not distinct")

    # rows: p_0..p_{ell-1} columns, then f_i * (q_0..q_ell) columns,
    # with the p_ell (monic) column moved to the right-hand side
    v_full = _vandermonde(az, ell + 1)
    a_mat = np.hstack([v_full[:, :ell], f[:, None] * v_full])
    rhs = -az**ell
    cond = float(abs(np.linalg.cond(a_mat, 1)))
    if not np.isfinite(cond) or cond > TOL.condition_limit:
        raise RankDeficiencyError(
            f"prescription system condition number {cond:.3e} exceeds limit"
        )
    x = np.linalg.solve(a_mat, rhs)
    p, q = x[:ell], x[ell:]
    # true solution: q = tau * conj-reverse of (p_0..p_{ell-1}, 1)
    full = np.concatenate([p, [1.0]])
    tau = complex(q[0])
    scale = 1.0 + float(np.max(np.abs(full)))
    # this solve's own gates (1e-8, 1e-8, 1e-9), looser than TOL.coupling:
    # tau is read off q_0, so its error enters every later check
    if abs(abs(tau) - 1.0) > 1e-8:
        raise NoSolutionError(
            f"recovered invariance parameter has modulus {abs(tau)}; the "
            "prescribed nodes admit no invariant solution"
        )
    tau /= abs(tau)
    scatter = float(np.max(np.abs(q - tau * np.conj(full[::-1]))))
    if scatter > 1e-8 * scale:
        raise InternalConsistencyError(
            f"conjugate-reversal structure violated by {scatter:.3e}"
        )
    # residuals of the homogeneous relations lambda P + f conj(lambda) P* = 0
    lam = cmath.sqrt(np.conj(tau))
    poly = ComplexPoly(full)
    p_star = poly.reciprocal(ell)
    hom = np.abs(lam * poly(az) + f * np.conj(lam) * p_star(az))
    if np.max(hom) > 1e-9 * scale:
        raise InternalConsistencyError(
            f"homogeneous residual {np.max(hom):.3e} after tau recovery"
        )
    return poly, tau, f, cond


def classical_arc(
    mu: MomentSequence,
    arc: ArcSpec,
    n: int,
    mode: str,
    tau_hat: complex | None = None,
    alpha: UnitPoint | None = None,
) -> PrescriptionResult:
    """Rules with both endpoints of the support arc prescribed.

    Works on the endpoint-modified moment chain: nodes are {a, b} plus
    the n - 2 zeros of the degree-(n-2) invariant polynomial
    z rho^_{n-3} + tau^ rho^*_{n-3} of the modified measure.
    ``mode`` is "lobatto" (caller supplies tau_hat) or "peherstorfer"
    (tau_hat = -F^_{n-2}(alpha) pins one interior node).
    """
    if n < 4:
        raise InvalidParameterError("classical_arc requires n >= 4")
    hat = modified_hat_moments(mu, arc.a, arc.b, mu.order - 1)
    hat_deltas = schur_from_moments(hat, n - 2)
    m = n - 2
    if mode == "peherstorfer":
        if alpha is None:
            raise InvalidParameterError("peherstorfer mode requires alpha")
        tau_hat = -blaschke_eval(hat_deltas, m, alpha.z)
    elif mode == "lobatto":
        if tau_hat is None:
            raise InvalidParameterError("lobatto mode requires tau_hat")
        if abs(abs(tau_hat) - 1.0) > TOL.on_circle:
            raise InvalidParameterError("|tau_hat| must equal 1")
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    tau_a = blaschke_eval(hat_deltas, m, arc.a.z)
    tau_b = blaschke_eval(hat_deltas, m, arc.b.z)
    diagnostics = {
        "tau_hat": complex(tau_hat),
        "tau_arc": (complex(tau_a), complex(tau_b)),
        "tau": complex(arc.a.z * arc.b.z * tau_hat),
    }
    if not in_open_arc(-tau_hat, tau_a, tau_b):
        return PrescriptionResult(None, False, diagnostics)
    interior = blaschke_solve(hat_deltas, m, -tau_hat)
    rho = ComplexPoly(hat_deltas.rho_coeffs(m - 1))
    p_inner = rho.shift(1) + tau_hat * rho.reciprocal(m - 1)
    nodal = from_zeros([arc.a.z, arc.b.z]) * p_inner
    nodes = [arc.a, arc.b, *interior]
    for pt in interior:
        # radians: an interior node this close outside an endpoint is
        # that endpoint, moved by the node solve's rounding
        if not arc.contains(pt.z, closed=True, tol=1e-10):
            return PrescriptionResult(
                None, False, dict(diagnostics, escaped_node=pt.theta)
            )
    return PrescriptionResult(
        None, True, diagnostics, nodes=nodes, nodal_poly=nodal
    )


def tau_for_omega(
    deltas: SchurSequence,
    n: int,
    ell: int,
    alphas: list[UnitPoint],
    omega: complex,
):
    """Invariance parameters tau realizing a target omega.

    The 2*ell-node system makes P(0) affine in tau, P(0) = A tau + B;
    substituting into the closed form for omega yields one quadratic in
    tau, so there are at most two solutions on the circle. Returns
    (solutions, degenerate) where degenerate means omega does not depend
    on tau at all (B = 0 with the target attained).
    """
    if abs(abs(omega) - 1.0) > TOL.on_circle:
        raise InvalidParameterError("|omega| must equal 1")
    if len(alphas) != 2 * ell:
        raise InvalidParameterError(f"expected 2*ell = {2 * ell} nodes")
    delta = complex(deltas.delta[n - ell])
    if ell == 0:
        a_coef, b_coef = 0.0 + 0.0j, 1.0 + 0.0j
    else:
        pencil = tau_pencil(deltas, n, ell, alphas)
        if not pencil.cond_elim <= TOL.condition_limit:
            raise ConditionViolationError(
                f"tau-parametrized system condition {pencil.cond_elim:.3e} exceeds limit"
            )
        a_coef, b_coef = complex(pencil.a_elim[0]), complex(pencil.b_elim[0])

    d_big = np.conj(delta)
    scale = max(abs(a_coef), abs(b_coef), 1.0)
    # this closed form's own gates, each just above its step's rounding: B = 0
    # (1e-12), a root on the circle (1e-10), omega attained, roots merged (1e-9)
    if abs(b_coef) <= 1e-12 * scale:
        # P(0) = A tau: omega is the same for every tau
        realized = _omega_from_p0(a_coef, b_coef, 1.0 + 0.0j, delta)
        attained = realized is not None and abs(realized - omega) <= 1e-9
        return [], attained

    coeffs = np.array(
        [
            np.conj(b_coef),
            (np.conj(a_coef) - np.conj(d_big)) - omega * (a_coef - d_big),
            -omega * b_coef,
        ]
    )
    roots = np.roots(coeffs[np.argmax(np.abs(coeffs) > 0) :]) if np.any(coeffs != 0) else []
    out = []
    for r in np.atleast_1d(roots):
        if abs(abs(r) - 1.0) > 1e-10:
            continue
        tau = complex(r / abs(r))
        realized = _omega_from_p0(a_coef, b_coef, tau, delta)
        if realized is not None and abs(realized - omega) <= 1e-9:
            out.append(tau)
    # merge near-duplicates (double roots)
    unique = []
    for tau in out:
        if all(abs(tau - u) > 1e-9 for u in unique):
            unique.append(tau)
    return unique[:2], False


def _omega_from_p0(a_coef, b_coef, tau, delta):
    p0 = a_coef * tau + b_coef
    den = np.conj(tau) * p0 - np.conj(delta)
    # omega is undefined (order collapse) where the denominator is rounding
    if abs(den) < 1e-13:
        return None
    return complex((tau * np.conj(p0) - delta) / den)
