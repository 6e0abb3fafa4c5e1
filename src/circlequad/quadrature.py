"""Quadrature rules on the unit circle: weight solving, exactness
verification, rule assembly, and the tau-grid scanner.

A rule {(z_s, lambda_s)} built from an (n, ell) spec integrates all
Laurent monomials z**k, |k| <= m = n - ell - 1, exactly, plus the single
extra element z**(m+1) - omega * z**-(m+1). Weights are recovered from
the full moment-matching system; its residual doubles as the
certificate that the nodal polynomial really was quasi-paraorthogonal
for the measure.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import (
    ConditionViolationError,
    InvalidParameterError,
    NodesNotQuadratureError,
    NoSolutionError,
    NotRepresentableError,
    PositivityViolationError,
)
from .measures import MeasureSpec, moment_chain
from .opuc import (
    TWO_PI,
    MomentSequence,
    SchurSequence,
    UnitPoint,
    points_z,
    schur_cohn_rows,
)
from .poly import ONE
from .prescribe import tau_pencil
from .qpopuc import (
    QpopucSpec,
    assemble_rows,
    modified_params,
    orthogonality_params,
    residual_rows,
    zeros_on_circle,
    zeros_rows,
)

GREEN = "positive"
RED_SCHUR = "inadmissible-schur"
RED_WEIGHTS = "simple-nodes-nonpositive-weights"
RED_BOUNDARY = "boundary-degenerate"
# the batched scan labels with codes into this array, so that every label
# it returns is one of the four strings above, not a copy
_LABELS = np.array([GREEN, RED_SCHUR, RED_WEIGHTS, RED_BOUNDARY], dtype=object)
_GREEN, _SCHUR, _WEIGHTS, _BOUNDARY = range(4)


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


@dataclass
class TauScan:
    thetas: np.ndarray
    labels: list
    arcs: list  # of (theta_start, theta_end) green arcs, refined


def _power_table(z, order: int) -> np.ndarray:
    """z**k for k = 0..order along a new second-to-last axis, by a running
    product of the unimodular nodes z (..., n)."""
    table = np.empty(z.shape[:-1] + (order + 1, z.shape[-1]), dtype=complex)
    table[..., 0, :] = 1.0
    np.cumprod(
        np.broadcast_to(z[..., None, :], table[..., 1:, :].shape), axis=-2, out=table[..., 1:, :]
    )
    return table


def weights_rows(z, mu_arr, mu0: float):
    """Batch kernel of ``weights``: nodes z (batch, n) and the moments
    mu_{-m}..mu_m give the weights (batch, n) by stacked least squares
    on the real/imaginary system, and per row whether the moment
    residual stays within TOL.weight_residual * mu_0.

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
    del pos  # [A | b] also gives the residual; keep one copy of A
    # "raw" returns the factored copy of [A | b] transposed, R in its
    # upper triangle, with no triu copy of R
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


def weight_checks(lam, mu0: float):
    """Per row of weights: (positive, sum_ok). Every weight must exceed
    TOL.weight_positive, and the weights must sum to mu_0 within
    TOL.weight_sum * mu_0."""
    positive = np.min(lam, axis=1) > TOL.weight_positive
    sum_ok = np.abs(np.sum(lam, axis=1) - mu0) <= TOL.weight_sum * mu0
    return positive, sum_ok


def weights(nodes, mu: MomentSequence, m: int) -> np.ndarray:
    """Weights matching all moments mu_k, |k| <= m, in least squares.

    The stacked real/imaginary system is consistent exactly when the
    nodes are the zeros of a quasi-paraorthogonal polynomial of the
    measure; an inconsistent system is reported as such instead of
    returning a best-fit rule.
    """
    n = len(nodes)
    if 2 * m + 1 < n:
        raise InvalidParameterError(f"2m + 1 = {2 * m + 1} rows cannot pin {n} weights")
    if mu.order < m:
        raise InvalidParameterError(f"need moments to order {m}, have {mu.order}")
    z = points_z(nodes)[None]
    mu0 = float(mu.get(0).real)
    lam, ok, resid = weights_rows(z, mu.array(-m, m), mu0)
    if not ok[0]:
        raise NodesNotQuadratureError(
            f"moment-matching residual {resid[0]:.3e} exceeds "
            f"{TOL.weight_residual * mu0:.1e}; the nodes are not the zeros of a "
            "quasi-paraorthogonal polynomial for this measure"
        )
    return lam[0]


def build_rule(
    measure: MeasureSpec,
    spec: QpopucSpec,
    mu: MomentSequence | None = None,
    deltas: SchurSequence | None = None,
) -> QuadRule:
    """Full positive rule for an admissible spec.

    The moments and reflection coefficients of ``moment_chain`` may be
    passed, together, to avoid recomputing them for every rule.
    """
    m = spec.n - spec.ell - 1
    if mu is None or deltas is None:
        mu, deltas = moment_chain(measure, spec.n, spec.ell)
    nodes = zeros_on_circle(spec, deltas)
    lam = weights(nodes, mu, m)
    params = orthogonality_params(spec, deltas)
    omega = None if params.collapsed else params.omega
    mu0 = float(mu.get(0).real)
    positive, sum_ok = weight_checks(lam[None], mu0)
    if not positive[0]:
        raise PositivityViolationError(
            f"minimum weight {np.min(lam):.3e} is not positive",
            diagnostics={
                "weights": lam.tolist(),
                "nodes_theta": [p.theta for p in nodes],
                "tau": spec.tau,
            },
        )
    if not sum_ok[0]:
        raise NodesNotQuadratureError(
            f"weights sum to {np.sum(lam)}, expected mu_0 = {mu0}"
        )
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
    z = points_z(rule.nodes)
    lam = rule.weights
    mu0 = float(mu.get(0).real)
    tol = TOL.weight_residual * mu0
    # sums[k] = sum of lam * z**k for k = 0..mu.order; for real weights
    # the sum over z**-k is its conjugate
    sums = _power_table(z, mu.order) @ lam
    resid = np.abs(sums - mu.mu)
    residuals = {k: float(r) for k, r in enumerate(resid[: m + 1])}
    ok = bool(np.all(resid[: m + 1] <= tol))
    report = {"residuals": residuals, "tolerance": tol}
    if rule.omega is not None:
        pair = sums[m + 1] - rule.omega * np.conj(sums[m + 1])
        target = mu.get(m + 1) - rule.omega * mu.get(-(m + 1))
        r_omega = float(abs(pair - target))
        residuals["omega_pair"] = r_omega
        ok = ok and r_omega <= tol
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


# node-solve roots per block: ``_Scan.labels`` takes _ROOT_BUDGET // n tau
# values at a time, so a block's working set, which grows with rows * n,
# is about the same for every n. perfbench `scan` (n = 16, 10 s runs,
# 2-core host) read op_p50_ms ~239, ~189 and ~175 and peak_rss_mb ~43.3,
# ~44.9 and ~48.1 at budgets of 2048, 4096 and 8192 roots, against ~302
# and ~42.3 for the old fixed blocks of 64 tau. The run keeps every scan,
# so its memory also grows with speed: 8192 would near the benchmark's
# 15% memory bound in 30 s runs. A tracemalloc peak of one 256-tau block
# (``_Scan._block``) is ~2.4 MB
_ROOT_BUDGET = 4096


class _Scan:
    """The tau-free part of one scan: chain, moments, pencil and nodes.

    ``labels`` gives every tau the label that ``prescribe_2l`` and
    ``build_rule`` give it point by point, computed through the batch
    kernels in blocks of _ROOT_BUDGET // n tau values, so that a block's
    node solve holds at most _ROOT_BUDGET roots whatever n is; each check
    of that per-point chain is a per-row mask here. Rows whose P fails
    Schur-Cohn skip the node solve and the weights (``_root_codes``).
    Malformed input (node count, n, coinciding nodes) raises; only the
    tau-free refusals of ``TauPencil.require_solvable`` make every point
    boundary-degenerate.
    """

    def __init__(self, measure, n: int, ell: int, alphas):
        m = n - ell - 1
        self.n, self.ell = n, ell
        mu, self.deltas = moment_chain(measure, n, ell)
        self.mu_arr = mu.array(-m, m)
        self.mu0 = float(mu.get(0).real)
        self.rho = self.deltas.rho_coeffs(m)
        self.nodes = np.array([a.z for a in alphas], dtype=complex)
        self.pencil = None
        self.refused = False  # a tau-free refusal: every point is boundary
        if ell == 0:
            if len(alphas):
                raise InvalidParameterError("ell = 0 takes no prescribed nodes")
            QpopucSpec(n, 0, ONE, 1.0 + 0.0j)  # raises for an n that has no rule
        else:
            self.pencil = tau_pencil(self.deltas, n, ell, alphas)
            try:
                self.pencil.require_solvable()
            except (NoSolutionError, ConditionViolationError):
                self.refused = True

    def labels(self, thetas) -> np.ndarray:
        tau = np.exp(1j * np.asarray(thetas, dtype=float))
        block = max(1, _ROOT_BUDGET // self.n)
        return _LABELS[
            np.concatenate([self._block(tau[i : i + block]) for i in range(0, len(tau), block)])
        ]

    def _block(self, tau) -> np.ndarray:
        codes = np.full(len(tau), _BOUNDARY)
        if self.refused or not len(tau):
            return codes
        ell = self.ell
        if ell == 0:
            p = np.ones((len(tau), 1), dtype=complex)
            kappas = np.zeros((len(tau), 0), dtype=complex)
            ok = np.ones(len(tau), dtype=bool)
            admissible = np.ones(len(tau), dtype=bool)
        else:
            p, ok = self.pencil.rows(tau)
            kappas, stable, band = schur_cohn_rows(p)
            ok &= ~band
            admissible = stable & ~band
        q = assemble_rows(p, tau, self.rho)
        if ell:
            # two nodes are checked only on an admissible P, more always
            checked = admissible if ell == 1 else ok
            ok &= ~checked | residual_rows(q, self.nodes, TOL.node_residual)[0]
        rows = np.nonzero(ok & admissible)[0]
        if len(rows):
            codes[rows] = self._rule_codes(q[rows], kappas[rows], tau[rows])
        rows = np.nonzero(ok & ~admissible)[0]
        if len(rows):
            codes[rows] = _root_codes(q[rows])
        return codes

    def _rule_codes(self, q, kappas, tau) -> np.ndarray:
        """``build_rule`` on rows with a stable P."""
        combined = modified_params(self.deltas, self.n, kappas, tau)
        theta, nodes_ok = zeros_rows(q, combined, tau)
        lam, resid_ok, _ = weights_rows(np.exp(1j * theta), self.mu_arr, self.mu0)
        positive, sum_ok = weight_checks(lam, self.mu0)
        return np.select(
            [~(nodes_ok & resid_ok), ~positive, ~sum_ok],
            [_BOUNDARY, _WEIGHTS, _BOUNDARY],
            _GREEN,
        )


def scan_tau(
    measure: MeasureSpec,
    n: int,
    ell: int,
    alphas,
    grid_size: int = 4000,
) -> TauScan:
    """Classify the invariance parameter over a uniform circle grid.

    The prescription is factored once as a tau-affine pencil; the grid
    is then labelled through the batch kernels in blocks sized by a
    budget of node-solve roots (_ROOT_BUDGET // n tau values, 256 at
    n = 16), each block giving the labels that the per-point
    prescription and ``build_rule`` give; a tau whose P fails Schur-Cohn
    is labelled by the zeros of Q alone (``_root_codes``), with no
    weights solved. Adjacent grid points
    with the positive classification are merged into maximal arcs (with
    wraparound), and every arc end is refined by bisection, all ends in
    lockstep, to the configured angular resolution.

    Malformed input raises ``InvalidParameterError``: a node count other
    than 2*ell, 2*ell + 1 > n or coinciding nodes. A configuration the
    prescription refuses for every tau labels every point
    boundary-degenerate.
    """
    if grid_size < 8:
        raise InvalidParameterError("grid_size must be at least 8")
    scan = _Scan(measure, n, ell, alphas)
    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    labels = scan.labels(thetas)

    green = labels == GREEN
    arcs = []
    if green.all():
        arcs.append((0.0, TWO_PI))
    elif green.any():
        # runs of green points with wraparound: each starts after a
        # non-green point and ends before one
        starts = np.nonzero(green & ~np.roll(green, 1))[0]
        ends = np.nonzero(green & ~np.roll(green, -1))[0]
        step = TWO_PI / grid_size
        bounds = _refine_boundaries(
            scan, np.concatenate([thetas[starts], thetas[ends]]),
            np.repeat([-step, step], len(starts)),
        )
        lo, hi = np.split(bounds % TWO_PI, 2)
        # the run starting at starts[i] ends at the first end at or after it
        j = np.searchsorted(ends, starts) % len(ends)
        arcs = sorted(zip(lo.tolist(), hi[j].tolist()))
    return TauScan(thetas=thetas, labels=labels.tolist(), arcs=arcs)


def _refine_boundaries(scan: _Scan, theta_green, step) -> np.ndarray:
    """Bisect between each green angle and its non-green neighbor at
    ``theta_green + step``, all in lockstep."""
    lo, hi = theta_green.astype(float), theta_green + step
    active = np.nonzero(np.abs(hi - lo) > TOL.scan_refine)[0]
    while len(active):
        mid = 0.5 * (lo[active] + hi[active])
        green = scan.labels(mid) == GREEN
        lo[active[green]] = mid[green]
        hi[active[~green]] = mid[~green]
        active = active[np.abs(hi[active] - lo[active]) > TOL.scan_refine]
    return 0.5 * (lo + hi)


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


def rule_from_dict(data: dict, measure: MeasureSpec | None = None) -> QuadRule:
    nodes = [UnitPoint(d["theta"], complex(d["re"], d["im"])) for d in data["nodes"]]

    def from_pair(p):
        return None if p is None else complex(p[0], p[1])

    return QuadRule(
        nodes=nodes,
        weights=np.array(data["weights"], dtype=float),
        m=int(data["m"]),
        omega=from_pair(data.get("omega")),
        measure=measure,
        n=data.get("n"),
        ell=data.get("ell"),
        tau=from_pair(data.get("tau")),
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
