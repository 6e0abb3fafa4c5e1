"""Quadrature rules on the unit circle: rule assembly, exactness
verification, and the tau-grid scanner.

A rule {(z_s, lambda_s)} built from an (n, ell) spec integrates all
Laurent monomials z**k, |k| <= m = n - ell - 1, exactly, plus the single
extra element z**(m+1) - omega * z**-(m+1). The weights come with the
nodes from the node solve, as the Christoffel numbers of the modified
chain. Each claim of a rule is certified once, and the nodal polynomial Q
is never assembled: the chain's synthetic tail against P (its round trip
in ``qpopuc._modified_chain``), the nodes against the chain
(``blaschke_solve``), and the rule against the moments over |k| <= m and
its omega pair (``weights``); that the prescribed nodes are zeros of Q is
the prescription's own check, on the pencil's ``AffineQ``, which the tau
scan's labels and arc certificates read too.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import (
    CircleQuadError,
    ConditionViolationError,
    DomainError,
    FileFormatError,
    InternalConsistencyError,
    InvalidParameterError,
    NodesNotQuadratureError,
    NoSolutionError,
    PositivityViolationError,
)
from .measures import MeasureSpec, json_numbers, moment_chain
from .opuc import (
    TWO_PI,
    MomentSequence,
    SchurSequence,
    UnitPoint,
    UnitPoints,
    points_z,
    schur_cohn_rows,
    wrap_theta,
)
from .prescribe import AffineQ, _pencil_answer, tau_arcs, tau_pencil
from .qpopuc import QpopucSpec, orthogonality_params, zeros_on_circle

GREEN = "positive"
RED_SCHUR = "inadmissible-schur"
RED_WEIGHTS = "simple-nodes-nonpositive-weights"
RED_BOUNDARY = "boundary-degenerate"
# a scan keeps one uint8 code per grid point, an index into this array,
# so that every label it returns is one of the four strings above
_LABELS = np.array([GREEN, RED_SCHUR, RED_WEIGHTS, RED_BOUNDARY], dtype=object)
_GREEN, _SCHUR, _WEIGHTS, _BOUNDARY = range(4)
_CODES = {label: code for code, label in enumerate(_LABELS)}


@dataclass(frozen=True)
class QuadRule:
    nodes: Sequence  # of UnitPoint: UnitPoints when solved, a list when loaded
    weights: np.ndarray  # real, positive for admissible rules
    m: int  # exact on z**k for |k| <= m
    omega: complex | None  # extra exact element z**(m+1) - omega z**-(m+1)
    measure: MeasureSpec | None = None
    n: int | None = None
    ell: int | None = None
    tau: complex | None = None

    def apply(self, f) -> complex:
        z = points_z(self.nodes)
        return complex(np.sum(self.weights * f(z)))


class ScanLabels(Sequence):
    """Read-only scan labels kept as one uint8 code per grid point and
    read as the label strings: 4000 points hold 4000 bytes, not a list of
    4000 references."""

    __slots__ = ("codes",)

    def __init__(self, codes):
        self.codes = np.asarray(codes, dtype=np.uint8)
        self.codes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        return ScanLabels(self.codes[i]) if isinstance(i, slice) else _LABELS[self.codes[i]]

    def __iter__(self):
        return iter(_LABELS[self.codes].tolist())

    def __eq__(self, other):
        if isinstance(other, (ScanLabels, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ScanLabels({list(self)!r})"


class ArcCertificate(NamedTuple):
    """One rule built and verified at the midpoint of a green tau arc."""

    start: float  # the arc, counterclockwise
    end: float
    theta: float  # angle of the midpoint tau
    passes: bool  # the rule was built and ``verify_exactness`` passes
    resid_ratio: float  # worst exactness residual over its gate; NaN with no rule
    condition: str | None  # the error condition that refused the rule


@dataclass
class TauScan:
    """A ``scan_tau`` result. A green label means P passes Schur-Cohn at
    that tau and its arc's certificate passed: the theorem of ``tau_arcs``
    and one rule per arc stand behind it, not a rule of its own."""

    thetas: np.ndarray  # the grid, read-only and shared (``scan_grid``)
    labels: Sequence  # ScanLabels; a list of label strings is converted
    arcs: list  # of (theta_start, theta_end): green arcs whose certificate passes
    certificates: list = field(default_factory=list)  # of ArcCertificate, per green arc

    def __post_init__(self):
        if not isinstance(self.labels, ScanLabels):
            self.labels = ScanLabels([_CODES[label] for label in self.labels])


@functools.lru_cache(maxsize=8)  # a few grid sizes at a time, each shared
def scan_grid(grid_size: int) -> np.ndarray:
    """The read-only grid of tau angles k * 2 pi / grid_size."""
    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    thetas.flags.writeable = False
    return thetas


def _power_table(z, order: int) -> np.ndarray:
    """z**k for k = 0..order along a new second-to-last axis, by a running
    product of the unimodular nodes z (..., n)."""
    table = np.empty(z.shape[:-1] + (order + 1, z.shape[-1]), dtype=complex)
    table[..., 0, :] = 1.0
    np.cumprod(
        np.broadcast_to(z[..., None, :], table[..., 1:, :].shape), axis=-2, out=table[..., 1:, :]
    )
    return table


def _exactness(z, lam, mu: MomentSequence, order: int, m: int, omega):
    """A rule's residuals against the moments: |sum_s lam_s z_s**k - mu_k|
    for k = 0..order, and that of the omega pair z**(m+1) -
    omega z**-(m+1), None when ``omega`` is None. For real weights the
    sums over z**-k are the conjugates, so these cover every |k| <= order."""
    sums = _power_table(z, order) @ lam
    resid = np.abs(sums - mu.mu[: order + 1])
    if omega is None:
        return resid, None
    s = sums[m + 1]
    return resid, abs(s - omega * np.conj(s) - (mu.get(m + 1) - omega * mu.get(-(m + 1))))


def weights(nodes: UnitPoints, mu: MomentSequence, m: int, omega: complex | None) -> np.ndarray:
    """The weights step of ``build_rule``, and the one gate on a rule's
    weights: the Christoffel numbers that ``blaschke_solve`` left on
    ``nodes``, accepted when they match every moment mu_k, |k| <= m,
    within TOL.weight_residual * mu_0, integrate the omega pair
    z**(m+1) - omega z**-(m+1) within the same gate (skipped when
    ``omega`` is None, a collapsed order), are finite and > 0, and sum to
    mu_0 within TOL.weight_sum * mu_0, checked in that order.

    They make the modified chain's Szego rule, exact for mu on |k| <= m
    when the chain starts with mu's first m reflection coefficients; a
    larger residual means the nodes are not those of a
    quasi-paraorthogonal polynomial for this measure. Each weight is
    mu_0 exp(sum log(1 - |delta|**2) - sum log|y|**2) / psi', with
    psi' >= 1 and |y| = |1 + conj(delta) F| >= 1 - |delta| > 0 on the
    circle, so a computed weight can fail positivity only by underflowing
    to 0 or by not being finite; there is no floor above 0.
    """
    top = m if omega is None else m + 1
    if mu.order < top:
        raise InvalidParameterError(f"need moments to order {top}, have {mu.order}")
    lam = nodes.weights
    mu0 = float(mu.get(0).real)
    tol = TOL.weight_residual * mu0
    resid, pair = _exactness(nodes.z, lam, mu, top, m, omega)
    worst = np.max(resid[: m + 1])
    if not worst <= tol:
        raise NodesNotQuadratureError(
            f"moment-matching residual {worst:.3e} exceeds "
            f"{tol:.1e}; the nodes are not the zeros of a "
            "quasi-paraorthogonal polynomial for this measure"
        )
    if pair is not None and not pair <= tol:
        raise NodesNotQuadratureError(
            f"omega-pair residual {pair:.3e} exceeds {tol:.1e}; the rule "
            f"is not exact on z**{top} - omega z**-{top}"
        )
    if not (np.all(lam > 0.0) and np.all(np.isfinite(lam))):
        raise PositivityViolationError(
            f"minimum weight {np.min(lam):.3e} is not positive and finite",
            diagnostics={"weights": lam.tolist(), "nodes_theta": nodes.theta.tolist()},
        )
    if not abs(np.sum(lam) - mu0) <= TOL.weight_sum * mu0:
        raise NodesNotQuadratureError(f"weights sum to {np.sum(lam)}, expected mu_0 = {mu0}")
    return lam


def build_rule(
    measure: MeasureSpec,
    spec: QpopucSpec,
    mu: MomentSequence | None = None,
    deltas: SchurSequence | None = None,
) -> QuadRule:
    """Full positive rule for an admissible spec.

    Nodes and weights come from one node solve (``zeros_on_circle``), and
    ``weights`` gates the weights, omega pair included, so that each claim
    is certified once and no Q is assembled; a positivity refusal gains
    the spec's tau in its diagnostics. The moments and reflection
    coefficients of ``moment_chain`` may be passed, together, to avoid
    recomputing them for every rule.
    """
    m = spec.n - spec.ell - 1
    if mu is None or deltas is None:
        mu, deltas = moment_chain(measure, spec.n, spec.ell)
    nodes = zeros_on_circle(spec, deltas)
    params = orthogonality_params(spec, deltas)
    omega = None if params.collapsed else params.omega
    try:
        lam = weights(nodes, mu, m, omega)
    except PositivityViolationError as exc:
        exc.diagnostics["tau"] = spec.tau
        raise
    return QuadRule(
        nodes=nodes,
        weights=lam,
        m=m,
        omega=omega,
        measure=measure,
        n=spec.n,
        ell=spec.ell,
        tau=spec.tau,
    )


def verify_exactness(rule: QuadRule, mu: MomentSequence) -> dict:
    """Residual report over the claimed exactness space.

    Checks z**k for k = 0..m (negative powers follow by conjugation for
    real weights), the omega-paired element at order m + 1, the bare
    monomial z**(m+1) (sharpness: it should fail for generic measures),
    and the first failing plain power beyond, if any is observable.
    """
    m = rule.m
    if mu.order < m + 1:
        raise InvalidParameterError(f"need moments to order {m + 1}, have {mu.order}")
    tol = TOL.weight_residual * float(mu.get(0).real)
    resid, pair = _exactness(points_z(rule.nodes), rule.weights, mu, mu.order, m, rule.omega)
    residuals = {k: float(r) for k, r in enumerate(resid[: m + 1])}
    ok = bool(np.all(resid[: m + 1] <= tol))
    report = {"residuals": residuals, "tolerance": tol}
    if pair is not None:
        residuals["omega_pair"] = float(pair)
        ok = ok and pair <= tol
    bare = float(resid[m + 1])
    report["bare_next_power"] = bare
    report["sharp"] = bare > tol
    failing = np.nonzero(resid[m + 1 :] > tol)[0]
    first_fail = int(failing[0]) + m + 1 if len(failing) else None
    report["first_failing_power"] = first_fail
    report["passes"] = bool(ok)
    return report


def _root_codes(q) -> np.ndarray:
    """Label codes for rows of Q (batch, n + 1) whose P failed Schur-Cohn:
    Cohn's test on rho~ = Q'/n.

    Every tau-invariant monic Q is z rho~ + tau rho~*, since
    tau (Q')* = n Q - z Q'. By Cohn's theorem (1922) Q's zeros are simple
    and on the circle iff rho~ is Schur-stable: stable gives
    simple-nodes-nonpositive-weights, unstable inadmissible-schur, and a
    band hit (a zero of rho~, so a double zero of Q, on the circle)
    boundary-degenerate, as it does on P.

    Such nodes carry no positive rule. Positive weights exact for
    |k| <= m would make a discrete measure whose first m Verblunsky
    parameters are mu's; Q is its paraorthogonal polynomial, so its chain
    extends rho_m inside the disk and gives a stable P' with
    Q = z P' rho_m + tau P'* rho*_m. And Q fixes P: D = P - P' has
    z D rho_m = -tau D* rho*_m, so z rho_m (zeros inside the disk, where
    rho*_m has none) divides D*, of degree at most ell < m + 1. So D = 0,
    and P would be stable.
    """
    n = q.shape[1] - 1
    _, stable, band = schur_cohn_rows(q[:, 1:] * (np.arange(1, n + 1) / n))
    return np.select([band, stable], [_BOUNDARY, _WEIGHTS], _SCHUR)


class _Scan:
    """The tau-free part of one scan: moments, chain, pencil, and the
    pencil's nodal polynomial Q = tau U + V (``AffineQ``), which the grid
    labels and every arc certificate read. Every ell >= 0 builds its
    ``tau_pencil``; at ell = 0 it is the empty pencil, P = 1 at every tau.

    Malformed input (node count, n, coinciding nodes) raises; only the
    tau-free refusals of ``TauPencil.require_solvable`` make every point
    boundary-degenerate.
    """

    def __init__(self, measure, n: int, ell: int, alphas):
        self.measure = measure
        self.mu, self.deltas = moment_chain(measure, n, ell)
        self.pencil = tau_pencil(self.deltas, n, ell, alphas)
        self.q = AffineQ(self.pencil, self.deltas, n, self.pencil.nodes)
        self.refused = False  # a tau-free refusal: every point is boundary
        try:
            self.pencil.require_solvable()
        except (NoSolutionError, ConditionViolationError):
            self.refused = True

    def codes(self, thetas) -> np.ndarray:
        """A uint8 label code per tau angle, with no node solve and no
        weights: the checks of ``prescribe_2l`` as masks, the same for
        every ell (the coupling, the Schur-Cohn band, and the
        prescribed-node residual on a stable P), then green for a stable
        P, and the zeros of Q alone (``_root_codes``) for the rest.

        The node residual is ``AffineQ.residual``, the one that
        ``prescribe_2l`` checks, here for every row with a stable P at
        once. Q = tau U + V is formed only for the rows that a check
        reads: for that gate on a stable P, and for ``_root_codes`` on
        the rest."""
        tau = np.exp(1j * np.asarray(thetas, dtype=float))
        codes = np.full(len(tau), _BOUNDARY, dtype=np.uint8)
        if self.refused:
            return codes
        p, ok = self.pencil.rows(tau)
        _, stable, band = schur_cohn_rows(p)
        ok &= ~band
        if len(self.q.nodes):  # the prescribed-node residual, on a stable P
            rows = np.flatnonzero(ok & stable)
            ok[rows] = self.q.residual(tau[rows])[0]
        codes[ok & stable] = _GREEN
        rows = np.flatnonzero(ok & ~stable)
        if len(rows):
            codes[rows] = _root_codes(self.q.coeffs(tau[rows]))
        return codes

    def certificate(self, start: float, end: float) -> ArcCertificate:
        """``prescribe_2l``'s answer, ``build_rule`` and
        ``verify_exactness`` at the midpoint of a green arc. The answer
        is read off the scan's own pencil and ``AffineQ``, which
        ``prescribe_2l`` would factor and build again."""
        theta = float(wrap_theta(start + 0.5 * ((end - start) % TWO_PI or TWO_PI)))
        tau = complex(np.exp(1j * theta))
        try:
            spec = _pencil_answer(self.q, tau).spec
            rule = build_rule(self.measure, spec, mu=self.mu, deltas=self.deltas)
        except CircleQuadError as exc:
            return ArcCertificate(start, end, theta, False, math.nan, exc.condition)
        report = verify_exactness(rule, self.mu)
        ratio = max(report["residuals"].values()) / report["tolerance"]
        return ArcCertificate(start, end, theta, report["passes"], ratio, None)


def _on_arc(thetas, start: float, end: float) -> np.ndarray:
    """Which angles lie on the counterclockwise arc from start to end."""
    return (thetas - start) % TWO_PI < ((end - start) % TWO_PI or TWO_PI)


def scan_tau(
    measure: MeasureSpec,
    n: int,
    ell: int,
    alphas,
    grid_size: int = 4000,
) -> TauScan:
    """Classify the invariance parameter over a uniform circle grid.

    The prescription is factored once as a tau-affine pencil,
    P(tau) = tau A + B. Its green arcs, where P is Schur-stable, come in
    closed form from ``tau_arcs`` (at ell = 0, the empty pencil gives
    P = 1 and one arc, the whole circle),
    and each is certified by one rule built and verified at its midpoint
    (``TauScan.certificates``). The grid is labelled at once by
    ``_Scan.codes``. An arc whose certificate fails is dropped, and its
    green points take the label the per-point chain gives the failure:
    simple-nodes-nonpositive-weights for a positivity violation (a weight
    of ``weights`` that underflowed to 0 or is not finite; there is no
    floor above 0), boundary-degenerate for any other refusal or a failed
    ``verify_exactness``.

    Malformed input raises ``InvalidParameterError``: a node count other
    than 2*ell, 2*ell + 1 > n or coinciding nodes. A configuration the
    prescription refuses for every tau labels every point
    boundary-degenerate and has no arc.
    """
    if grid_size < 8:
        raise InvalidParameterError("grid_size must be at least 8")
    scan = _Scan(measure, n, ell, alphas)
    thetas = scan_grid(grid_size)
    codes = scan.codes(thetas)
    green = [] if scan.refused else tau_arcs(scan.pencil).green
    certificates = [scan.certificate(*arc) for arc in green]
    for cert in certificates:
        if not cert.passes:
            failed = _WEIGHTS if cert.condition == PositivityViolationError.condition else _BOUNDARY
            codes[_on_arc(thetas, cert.start, cert.end) & (codes == _GREEN)] = failed
    arcs = [(c.start, c.end) for c in certificates if c.passes]
    return TauScan(thetas, ScanLabels(codes), arcs, certificates)


def rule_to_dict(rule: QuadRule, residuals: dict | None = None) -> dict:
    def c_pair(z):
        return None if z is None else [z.real, z.imag]

    return {
        "n": rule.n,
        "ell": rule.ell,
        "tau": c_pair(rule.tau),
        "omega": c_pair(rule.omega),
        "m": rule.m,
        "measure": rule.measure.label() if rule.measure else None,
        "nodes": [
            {"theta": p.theta, "re": p.z.real, "im": p.z.imag} for p in rule.nodes
        ],
        "weights": [float(w) for w in rule.weights],
        "residuals": residuals or {},
    }


def rule_from_dict(data, measure: MeasureSpec | None = None) -> QuadRule:
    """The rule of a ``rule_to_dict`` mapping, as a rule file holds it.
    ``FileFormatError`` refuses any other shape: nodes of finite theta, re
    and im that make a ``UnitPoint``, one finite weight per node, an
    integer m with 0 <= m < the node count, and tau and omega each null or
    [re, im]."""

    def node(i, d):
        theta, re, im = json_numbers([d["theta"], d["re"], d["im"]], 3, f"node {i}")
        return UnitPoint(theta, complex(re, im))

    def pair(key):
        p = data.get(key)
        return None if p is None else complex(*json_numbers(p, 2, key))

    try:
        nodes = [node(i, d) for i, d in enumerate(data["nodes"])]
        lam = np.array(json_numbers(data["weights"], len(nodes), "weights"))
        m, omega, tau = data["m"], pair("omega"), pair("tau")
    except (KeyError, TypeError, DomainError, InternalConsistencyError) as exc:
        raise FileFormatError(f"not the shape of a rule file: {exc!r}") from exc
    if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m < len(nodes):
        raise FileFormatError(f"m = {m!r} is not an integer in [0, {len(nodes)})")
    return QuadRule(
        nodes=nodes,
        weights=lam,
        m=m,
        omega=omega,
        measure=measure,
        n=data.get("n"),
        ell=data.get("ell"),
        tau=tau,
    )


def save_rule(rule: QuadRule, path, residuals=None) -> None:
    with open(path, "w") as fh:
        json.dump(rule_to_dict(rule, residuals), fh, indent=2)


def save_rule_csv(rule: QuadRule, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "weight"])
        for p, w in zip(rule.nodes, rule.weights):
            writer.writerow([repr(p.theta), repr(float(w))])
