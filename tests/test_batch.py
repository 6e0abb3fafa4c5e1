"""The tau pencil and the batched scan against their per-point references."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from circlequad import (
    ComplexPoly,
    MeasureSpec,
    QpopucSpec,
    SchurSequence,
    TauPencil,
    TauScan,
    assemble,
    build_rule,
    from_zeros,
    lobatto2,
    prescribe_2l,
    scan_tau,
    tau_pencil,
    verify_exactness,
    zeros_on_circle,
)
from circlequad import prescribe, quadrature
from circlequad.config import TOL
from circlequad.errors import CircleQuadError, PositivityViolationError
from circlequad.prescribe import tau_arcs
from circlequad.opuc import TWO_PI, schur_cohn_rows
from circlequad.quadrature import (
    _BOUNDARY,
    _GREEN,
    _LABELS,
    _SCHUR,
    _WEIGHTS,
    GREEN,
    RED_BOUNDARY,
    RED_SCHUR,
    RED_WEIGHTS,
    ScanLabels,
    _root_codes,
    _on_arc,
    _Scan,
    scan_grid,
)

from circlequad_helpers import (
    _classify,
    chain,
    direct_coefficients,
    direct_q_rows,
    elimination_pencil,
    lstsq_weights_rows,
    residual_rows,
    schur_cohn_rows_loop,
    two_node_tau_arc,
    unit,
)

# the bisection width of the per-point arc oracle, and how far its ends
# may lie from the scan's closed-form ends: the width the scan's own
# bisection of arc ends had before the ends came in closed form
_BISECT = 1e-4

RS_HALF = MeasureSpec("rogers_szego", q=0.5)
ARC = MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)

# criterion 3 of the paper: n = 16, ell = 3, six prescribed nodes
PAPER = [-0.75 * math.pi, -0.5 * math.pi, 0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi]


def paper_alphas(angles=PAPER):
    return [unit(a % TWO_PI) for a in angles]


def oracle_labels(measure, n, ell, alphas, thetas):
    mu, deltas = chain(measure, n, ell)
    return [
        _classify(measure, n, ell, alphas, complex(t), mu, deltas)
        for t in np.exp(1j * np.asarray(thetas))
    ]


def oracle_arcs(measure, n, ell, alphas, thetas, labels):
    """Green arcs of a per-point scan: each run of green grid points, with
    each of its ends bisected on its own against ``_classify``."""
    mu, deltas = chain(measure, n, ell)
    grid = len(thetas)

    def end(theta, step):
        lo, hi = theta, theta + step
        while abs(hi - lo) > _BISECT:
            mid = 0.5 * (lo + hi)
            if _classify(measure, n, ell, alphas, complex(np.exp(1j * mid)), mu, deltas) == GREEN:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi) % TWO_PI

    arcs = []
    for s in range(grid):
        if labels[s] == GREEN and labels[s - 1] != GREEN:
            e = s
            while labels[(e + 1) % grid] == GREEN:
                e = (e + 1) % grid
            arcs.append((end(thetas[s], -TWO_PI / grid), end(thetas[e], TWO_PI / grid)))
    return sorted(arcs)


def spread_nodes(rng, count):
    """count circle points at least 0.3 rad apart."""
    while count:
        t = np.sort(rng.uniform(0.0, TWO_PI, size=count))
        if np.min(np.diff(np.concatenate([t, [t[0] + TWO_PI]]))) > 0.3:
            return [unit(float(x)) for x in t]
    return []


class TestTauPencil:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_matches_direct_coupled_solve(self, ell):
        rng = np.random.default_rng(300 + ell)
        n = 2 * ell + 5
        _, deltas = chain(RS_HALF, n, ell)
        alphas = spread_nodes(rng, 2 * ell)
        pencil = tau_pencil(deltas, n, ell, alphas)
        taus = np.exp(1j * rng.uniform(0.0, TWO_PI, size=16))
        coeffs, ok = pencil.rows(taus)
        a, b = elimination_pencil(deltas, n, ell, alphas)
        for tau, row in zip(taus, coeffs):
            want = direct_coefficients(deltas, n, ell, alphas, tau)
            assert np.max(np.abs(row[:ell] - want)) < 1e-10
            # the independent oracle: conj(p) eliminated, not solved for
            assert np.max(np.abs(row[:ell] - (tau * a + b))) < 1e-10
            assert row[ell] == 1.0
        assert ok.all()

    def test_elimination_is_the_two_node_closed_form(self):
        # conj(c12) = (f1 - f2) / (f1 a1 - f2 a2) and
        # conj(a12) = (a1 - a2) / (f1 a1 - f2 a2), with P = z - c12 - tau a12
        rng = np.random.default_rng(12)
        _, deltas = chain(RS_HALF, 7, 1)
        for _ in range(20):
            alphas = spread_nodes(rng, 2)
            a, b = elimination_pencil(deltas, 7, 1, alphas)
            (a1, a2), (f1, f2) = [x.z for x in alphas], tau_pencil(deltas, 7, 1, alphas).f
            den = f1 * a1 - f2 * a2
            assert abs(b[0] + np.conj((f1 - f2) / den)) < 1e-12
            assert abs(a[0] + np.conj((a1 - a2) / den)) < 1e-12

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_round_trip_from_zeros(self, ell):
        # 2*ell zeros of an admissible (P, tau) must give that P back at tau
        rng = np.random.default_rng(400 + ell)
        n = 2 * ell + 6
        _, deltas = chain(RS_HALF, n, ell)
        for _ in range(10):
            etas = 0.8 * np.sqrt(rng.uniform(size=ell)) * np.exp(1j * rng.uniform(0, TWO_PI, ell))
            spec = QpopucSpec(n, ell, from_zeros(etas), cmath.exp(1j * rng.uniform(0, TWO_PI)))
            pts = zeros_on_circle(spec, deltas)
            picks = [pts[i] for i in sorted(rng.choice(n, size=2 * ell, replace=False))]
            rows, ok = tau_pencil(deltas, n, ell, picks).rows([spec.tau])
            assert ok[0]
            assert np.max(np.abs(rows[0] - spec.P.coeffs)) < 1e-10

    def test_empty_pencil_is_p_one(self):
        # ell = 0: no nodes and no conditions, the paraorthogonal P = 1
        _, deltas = chain(RS_HALF, 9, 0)
        pencil = tau_pencil(deltas, 9, 0, [])
        rows, ok = pencil.rows(np.exp(1j * np.linspace(0.0, TWO_PI, 7)))
        assert rows.tolist() == [[1.0]] * 7
        assert ok.all()
        assert pencil.cond == 1.0
        assert not pencil.degenerate
        pencil.require_solvable()

    def test_empty_pencil_arc_is_the_circle(self):
        _, deltas = chain(RS_HALF, 9, 0)
        arcs = tau_arcs(tau_pencil(deltas, 9, 0, []))
        assert len(arcs.boundary) == 0
        assert arcs.arcs == [(0.0, TWO_PI)]
        assert arcs.stable == [True]

    def test_degenerate_affine_is_the_chord(self):
        # Lebesgue, antipodal nodes: f1 a1 = f2 a2, and P = B, whose zero
        # is the midpoint of the chord, at the one tau admitted
        _, deltas = chain(MeasureSpec("lebesgue"), 4, 1)
        pencil = tau_pencil(deltas, 4, 1, [unit(0.3), unit(0.3 + math.pi)])
        assert pencil.degenerate
        a, b = pencil.affine
        a1, a2 = pencil.nodes
        assert a.tolist() == [0.0, 0.0]
        assert b.tolist() == [-(a1 + 0.5 * (a2 - a1)), 1.0]
        rows, ok = pencil.rows([pencil.tau_required, -pencil.tau_required])
        assert rows.tolist() == [b.tolist()] * 2
        assert ok.tolist() == [True, False]

    def test_single_blaschke_call_for_f_values(self):
        _, deltas = chain(RS_HALF, 16, 3)
        alphas = paper_alphas()
        pencil = tau_pencil(deltas, 16, 3, alphas)
        from circlequad import blaschke_eval

        want = [np.conj(blaschke_eval(deltas, 13, a.z)) for a in alphas]
        assert np.max(np.abs(pencil.f - want)) < 1e-14


def scan_rho(scan):
    """rho_{n-ell-1} of a scan's chain, the factor of both products of Q."""
    return scan.deltas.rho_coeffs(scan.q.n - scan.pencil.ell - 1)


class TestAffineQ:
    """Q = R + tau R* (``assemble``) and the scan's rows Q = tau U + V
    (``AffineQ.coeffs``) against the two products of ``direct_q_rows``,
    term by term."""

    def test_assemble(self):
        rng = np.random.default_rng(14)
        for _ in range(400):
            n = int(rng.integers(2, 80))
            ell = int(rng.integers(0, (n - 1) // 2 + 1))
            k = n - ell - 1
            params = 0.95 * np.sqrt(rng.uniform(size=k)) * np.exp(1j * rng.uniform(0, TWO_PI, k))
            deltas = SchurSequence.from_params(params)
            p = np.append(rng.normal(size=ell) + 1j * rng.normal(size=ell), 1.0)
            tau = np.exp(1j * rng.uniform(0, TWO_PI))
            q = assemble(QpopucSpec(n, ell, ComplexPoly(p), tau), deltas).coeffs
            want = direct_q_rows(p[None], [tau], deltas.rho_coeffs(k))[0]
            assert np.max(np.abs(q - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("measure", [RS_HALF, ARC], ids=lambda m: m.label())
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_scan_rows(self, measure, ell):
        rng = np.random.default_rng(40 + ell)
        for _ in range(5):
            n = int(rng.integers(2 * ell + 3, 13))
            scan = _Scan(measure, n, ell, spread_nodes(rng, 2 * ell))
            tau = np.exp(1j * rng.uniform(0.0, TWO_PI, size=50))
            want = direct_q_rows(scan.pencil.rows(tau)[0], tau, scan_rho(scan))
            got = scan.q.coeffs(tau)
            # both carry the rounding of the products before R_A and R_B
            # cancel: a pencil with large A and B (the arc) moves Q by more
            # than eps max|q| on either path
            a, b = scan.pencil.affine
            terms = np.max(np.convolve(np.abs(a) + np.abs(b), np.abs(scan_rho(scan))))
            assert np.max(np.abs(got - want)) <= 1e-14 * max(terms, np.max(np.abs(want)))

    def test_degenerate_scan_rows(self):
        # at the one tau a degenerate pencil admits, Q = tau R_B* + R_B
        n = 6
        scan = _Scan(MeasureSpec("lebesgue"), n, 1, [unit(0.3), unit(0.3 + math.pi)])
        assert scan.pencil.degenerate
        tau = np.array([scan.pencil.tau_required])
        want = direct_q_rows(scan.pencil.rows(tau)[0], tau, scan_rho(scan))
        got = scan.q.coeffs(tau)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def residual_scans():
    """The criterion-3 scan and the pencils of ``TestAffineQ``, those of
    the arc with large A and B among them."""
    yield _Scan(RS_HALF, 16, 3, paper_alphas())
    for measure in (RS_HALF, ARC):
        for ell in (1, 2, 3):
            rng = np.random.default_rng(40 + ell)
            for _ in range(5):
                n = int(rng.integers(2 * ell + 3, 13))
                yield _Scan(measure, n, ell, spread_nodes(rng, 2 * ell))


class TestNodeResidual:
    """The one prescribed-node residual, ``AffineQ.residual``, read off the
    values of U and V at the nodes, against ``residual_rows``, Horner on
    the formed Q rows, on the rows that reach the check: a valid, stable P
    off the band. The scan's labels read it, as every prescription does."""

    @staticmethod
    def checked_rows(scan, thetas):
        tau = np.exp(1j * thetas)
        p, ok = scan.pencil.rows(tau)
        _, stable, band = schur_cohn_rows_loop(p)
        rows = np.flatnonzero(ok & stable & ~band)
        q = scan.q.coeffs(tau[rows])
        # Q(alpha) = tau U(alpha) + V(alpha) rounds apart from Horner on Q
        # by the rounding of both against the coefficients of U and V
        spread = 4.0 * np.finfo(float).eps * np.sum(np.abs(scan.q.uv))
        return rows, q, spread

    def test_residuals_agree(self):
        thetas = scan_grid(4000)
        checked = 0
        for scan in residual_scans():
            rows, q, spread = self.checked_rows(scan, thetas)
            ok, horner_resid, _ = residual_rows(q, scan.q.nodes, TOL.node_residual)
            affine = scan.q.residual(np.exp(1j * thetas[rows]))[1]
            assert np.all(np.abs(affine - horner_resid) <= spread)
            assert np.array_equal(scan.codes(thetas)[rows] == _GREEN, ok)
            checked += len(rows)
        assert checked > 10000

    def test_mask_at_a_biting_gate(self, monkeypatch):
        # every checked row passes TOL.node_residual by three decades or
        # more, so the gate is moved to the median residual ratio of each
        # scan: about half its rows fail, and the two paths must fail the
        # same rows, up to a row within their rounding gap of the gate
        thetas = scan_grid(4000)
        failed = 0
        for scan in residual_scans():
            rows, q, spread = self.checked_rows(scan, thetas)
            if not len(rows):
                continue
            ratio = residual_rows(q, scan.q.nodes, 1.0)[1] / np.max(np.abs(q), axis=1)
            gate = float(np.median(ratio))
            ok, horner_resid, limit = residual_rows(q, scan.q.nodes, gate)
            # the gate's one reader, ``AffineQ.residual``, reads prescribe's TOL
            monkeypatch.setattr(prescribe, "TOL", dataclasses.replace(TOL, node_residual=gate))
            green = scan.codes(thetas)[rows] == _GREEN
            monkeypatch.undo()
            moved = green != ok
            assert np.all(np.abs(horner_resid - limit)[moved] <= spread)
            failed += np.sum(~ok)
        assert failed > 5000


class TestBatchedScan:
    def test_criterion_3_every_point(self):
        n, ell = 16, 3
        scan = scan_tau(RS_HALF, n, ell, paper_alphas(), grid_size=4000)
        want = oracle_labels(RS_HALF, n, ell, paper_alphas(), scan.thetas)
        assert scan.labels == want
        arcs = oracle_arcs(RS_HALF, n, ell, paper_alphas(), scan.thetas, want)
        assert len(arcs) == len(scan.arcs) == 3
        assert np.max(np.abs(np.subtract(arcs, scan.arcs))) <= _BISECT

    # the grid sizes at the edges of the scan blocks of earlier scanners
    # (64 tau, then 4096 // n = 256 at n = 16), kept as oracle cases
    @pytest.mark.parametrize("grid", [8, 63, 64, 65, 129, 255, 256, 257])
    def test_block_edges(self, grid):
        scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=grid)
        want = oracle_labels(RS_HALF, 16, 3, paper_alphas(), scan.thetas)
        assert scan.labels == want
        arcs = oracle_arcs(RS_HALF, 16, 3, paper_alphas(), scan.thetas, want)
        # the closed-form arcs do not depend on the grid; the oracle finds
        # those that hold a green grid point (at grid 8, two of the three)
        green = np.array(want) == GREEN
        seen = [arc for arc in scan.arcs if (_on_arc(scan.thetas, *arc) & green).any()]
        assert scan.arcs == scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=4000).arcs
        assert len(arcs) == len(seen) == (2 if grid == 8 else 3)
        assert np.max(np.abs(np.subtract(arcs, seen))) <= _BISECT

    @pytest.mark.parametrize(
        "measure, n, ell, angles",
        [(RS_HALF, 16, 3, PAPER), (ARC, 12, 0, [])],
        ids=["criterion-3", "ell-0"],
    )
    def test_one_factor_per_scan(self, monkeypatch, measure, n, ell, angles):
        # the arc certificates read the scan's own pencil: the prescription
        # is factored once per scan, and each certificate is the rule of
        # ``prescribe_2l`` at its arc's midpoint
        scan = scan_tau(measure, n, ell, paper_alphas(angles), grid_size=64)
        factored = []
        true_factor = prescribe._factor
        monkeypatch.setattr(prescribe, "_factor", lambda *a: factored.append(a) or true_factor(*a))
        assert scan_tau(measure, n, ell, paper_alphas(angles), grid_size=64).certificates == (
            scan.certificates
        )
        assert len(factored) == 1 and len(scan.certificates) == (3 if ell else 1)
        monkeypatch.undo()
        mu, deltas = chain(measure, n, ell)
        for cert in scan.certificates:
            tau = complex(np.exp(1j * cert.theta))
            spec = prescribe_2l(deltas, n, ell, paper_alphas(angles), tau).spec
            report = verify_exactness(build_rule(measure, spec, mu=mu, deltas=deltas), mu)
            assert cert.passes == report["passes"]
            assert cert.resid_ratio == max(report["residuals"].values()) / report["tolerance"]

    def test_labels_do_not_depend_on_the_slicing(self):
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        thetas = scan_grid(4000)
        parts = np.split(thetas, np.cumsum([1, 7, 255, 256, 257]))
        got = np.concatenate([scan.codes(part) for part in parts])
        assert np.array_equal(got, scan.codes(thetas))

    def test_nodes_match_companion_roots(self):
        # the scan's one node solve is ``zeros_on_circle``, on the modified
        # chain of each arc certificate: swept over tau, every stable P
        # gives certified nodes, the zeros of its assembled Q
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        tau = np.exp(1j * (0.01 + np.arange(260) * (TWO_PI / 260)))
        p, ok = scan.pencil.rows(tau)
        _, stable, band = schur_cohn_rows(p)
        rows = ok & stable & ~band
        p, tau = p[rows], tau[rows]
        assert len(tau) > 100
        for t, coeffs, q in zip(tau, p, direct_q_rows(p, tau, scan_rho(scan))):
            spec = QpopucSpec(16, 3, ComplexPoly(coeffs), complex(t))
            theta = zeros_on_circle(spec, scan.deltas).theta
            roots = np.angle(np.roots(q[::-1]))
            # wrap-aware distances, for a node within rounding of theta = 0;
            # each root's nearest node, and a different node for each root
            dist = np.abs(np.angle(np.exp(1j * (theta[:, None] - roots))))
            assert np.max(np.min(dist, axis=0)) < 1e-12
            assert np.array_equal(np.sort(np.argmin(dist, axis=0)), np.arange(16))

    @pytest.mark.parametrize(
        "measure", [MeasureSpec("lebesgue"), RS_HALF, ARC], ids=lambda m: m.label()
    )
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_sampled_points(self, measure, ell):
        rng = np.random.default_rng(17 + 5 * ell)
        for _ in range(3):
            n = int(rng.integers(2 * ell + 3, 13))
            alphas = spread_nodes(rng, 2 * ell)
            thetas = rng.uniform(0.0, TWO_PI, size=40)
            got = ScanLabels(_Scan(measure, n, ell, alphas).codes(thetas))
            assert got == oracle_labels(measure, n, ell, alphas, thetas)

    def test_degenerate_lobatto_is_boundary(self):
        # Lebesgue: F_3(z) = z**3, so antipodal nodes give f1 a1 = f2 a2
        # and only tau = -e^{1.2i} is admitted, which lies on no grid here
        n, ell = 4, 1
        alphas = [unit(0.3), unit(0.3 + math.pi)]
        leb = MeasureSpec("lebesgue")
        scan = scan_tau(leb, n, ell, alphas, grid_size=64)
        assert set(scan.labels) == {RED_BOUNDARY}
        assert scan.arcs == []
        assert scan.labels == oracle_labels(leb, n, ell, alphas, scan.thetas)


def hand_pencil(a, b):
    """The pencil of P = tau A + B from the low coefficients of A and of
    the monic B; its nodes and f-values only keep it from reading as
    degenerate."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ell = len(b)
    nodes = np.exp(1j * math.pi * np.arange(2 * ell) / ell)
    return TauPencil(ell, nodes, np.ones(2 * ell, dtype=complex), a, b, np.conj(b), np.conj(a), 1.0)


def stable_on_grid(pencil, thetas):
    _, stable, band = schur_cohn_rows(pencil.rows(np.exp(1j * thetas))[0])
    return stable & ~band


class TestTauArcs:
    """``tau_arcs`` against Schur-Cohn on dense grids, and its edge cases."""

    def test_a_zero_has_no_boundary(self):
        # P = B for every tau: one arc, the whole circle, with B's verdict
        inside = from_zeros([0.5, -0.3j]).coeffs[:2]
        outside = from_zeros([0.5, 1.3j]).coeffs[:2]
        arcs = tau_arcs(hand_pencil([0.0, 0.0], inside))
        assert len(arcs.boundary) == 0 and arcs.arcs == [(0.0, TWO_PI)] and arcs.stable == [True]
        arcs = tau_arcs(hand_pencil([0.0, 0.0], outside))
        assert arcs.arcs == [(0.0, TWO_PI)] and arcs.stable == [False] and arcs.green == []

    @pytest.mark.parametrize(
        "a, b", [([0.5 * cmath.exp(2.0j)], [0.5 * cmath.exp(0.7j)]), ([0.0, 0.5], [0.0, 0.5])],
        ids=["ell-1", "ell-2"],
    )
    def test_double_root_merges_its_arcs(self, a, b):
        # |B| - |A| = |z + b| - |a| touches 0 at one z on the circle (ell = 2
        # multiplies B and A by z): P's zero touches the circle at one tau
        # and turns back, so the arcs on either side are one
        pencil = hand_pencil(a, b)
        arcs = tau_arcs(pencil)
        assert len(arcs.boundary) == 0 and arcs.green == [(0.0, TWO_PI)]
        # the zero touches the circle at z = -b/|b| for b the coefficient
        # next to the leading one; every other tau of a dense grid is stable
        z = -b[-1] / abs(b[-1])
        touch = np.angle(-np.polyval(np.append(b, 1.0)[::-1], z) / np.polyval(np.append(a, 0.0)[::-1], z))
        thetas = scan_grid(20000)
        away = np.abs((thetas - touch + math.pi) % TWO_PI - math.pi) > 1e-9
        assert stable_on_grid(pencil, thetas)[away].all()
        assert (~away).sum() == (1 if len(b) == 2 else 0)

    @pytest.mark.parametrize("gap", [1e-9, 1e-11])
    def test_close_boundaries_are_polished(self, gap):
        # P = z + 1/2 + tau a with a = 1/2 + gap: |z + 1/2| = a at
        # theta = pi +- d, where cos d = 1 - y for y = (a - 1/2)(a + 1/2),
        # exact in floats, so d = 2 asin(sqrt(y / 2)). The two unit roots
        # of H lie only 2d apart, where np.roots alone is off by ~5e-12
        # (gap 1e-9) and ~5e-11 (gap 1e-11)
        a = 0.5 + gap
        d = 2.0 * math.asin(math.sqrt((a - 0.5) * (a + 0.5) / 2.0))
        z = np.exp(1j * (math.pi + np.array([-d, d])))
        want = np.sort(np.angle(-(z + 0.5) / a) % TWO_PI)
        arcs = tau_arcs(hand_pencil([a], [0.5]))
        assert np.max(np.abs(arcs.boundary - want)) < 1e-13

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_arcs_match_dense_schur_cohn(self, ell):
        # one verdict per arc: a dense grid's Schur-Cohn verdicts are the
        # arcs' everywhere but within 1e-9 of a boundary
        rng = np.random.default_rng(90 + ell)
        n = 2 * ell + 6
        thetas = scan_grid(20000)
        changes = 0
        for _ in range(6):
            _, deltas = chain(RS_HALF, n, ell)
            pencil = tau_pencil(deltas, n, ell, spread_nodes(rng, 2 * ell))
            arcs = tau_arcs(pencil)
            on_green = np.zeros(len(thetas), dtype=bool)
            for arc in arcs.green:
                on_green |= _on_arc(thetas, *arc)
            near = np.zeros(len(thetas), dtype=bool)
            for cut in arcs.boundary:
                near |= np.abs((thetas - cut + math.pi) % TWO_PI - math.pi) <= 1e-9
            assert np.array_equal(on_green[~near], stable_on_grid(pencil, thetas)[~near])
            assert len(arcs.boundary) <= 2 * ell
            changes += len(arcs.boundary)
        assert changes > 0

    def test_two_nodes_match_the_closed_form(self):
        # ell = 1: the arc runs from a1 conj(f2) to a2 conj(f1), and
        # lobatto2 reports it
        rng = np.random.default_rng(31)
        for measure in (RS_HALF, ARC):
            _, deltas = chain(measure, 9, 1)
            for _ in range(20):
                alphas = spread_nodes(rng, 2)
                pencil = tau_pencil(deltas, 9, 1, alphas)
                want = np.angle(two_node_tau_arc(alphas, pencil.f))
                (start, end), = tau_arcs(pencil).green
                gaps = np.subtract([start, end], want)
                assert np.max(np.abs((gaps + math.pi) % TWO_PI - math.pi)) < 1e-12
                arc = lobatto2(deltas, 9, *alphas, tau=1.0 + 0.0j).diagnostics["tau_arc"]
                assert (arc.a.theta, arc.b.theta) == (start, end)

    def test_degenerate_pencil_has_no_arc(self):
        # Lebesgue: F_3(z) = z**3, so antipodal nodes give f1 a1 = f2 a2
        _, deltas = chain(MeasureSpec("lebesgue"), 4, 1)
        pencil = tau_pencil(deltas, 4, 1, [unit(0.3), unit(0.3 + math.pi)])
        assert pencil.degenerate
        arcs = tau_arcs(pencil)
        assert arcs.arcs == [] and len(arcs.boundary) == 0

    def test_boundary_in_the_band_of_a_grid_point(self):
        # tau = e^{i pi/4} puts a zero of P on the prescribed node pi/4: it
        # is an arc end, and grid point 500 of 4000 lies on it
        scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=4000)
        assert abs(scan.arcs[0][0] - math.pi / 4) < 1e-12
        mu, deltas = chain(RS_HALF, 16, 3)
        tau = complex(np.exp(1j * scan.thetas[500]))
        assert scan.labels[500] == RED_BOUNDARY == _classify(RS_HALF, 16, 3, paper_alphas(), tau, mu, deltas)
        assert scan.labels[501] == GREEN

    def test_refused_pencil_has_no_arc(self):
        # Lebesgue: nodes a third of a turn apart share their Blaschke value
        scan = scan_tau(MeasureSpec("lebesgue"), 4, 1, [unit(0.3), unit(0.3 + TWO_PI / 3)], grid_size=64)
        assert scan.labels.count(RED_BOUNDARY) == 64
        assert scan.arcs == [] and scan.certificates == []


class TestScanCertificates:
    def test_returned_scan_holds_little(self):
        # the labels are 4000 uint8 codes and the grid is shared. Measured
        # 10.6 KB with numpy 2.4, of which ~2.5 KB are numpy's own small
        # caches; a list of 4000 labels alone held 32 KB, and a grid of
        # the scan's own another 32 KB
        scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=4000)
        tracemalloc.start()
        try:
            scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=4000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert scan.thetas is scan_grid(4000) and not scan.thetas.flags.writeable
        assert held < 16000

    @pytest.mark.parametrize("ell", [0, 3])
    def test_one_node_solve_per_green_arc(self, monkeypatch, ell):
        solved = []

        def count(spec, deltas):
            solved.append(spec.tau)
            return zeros_on_circle(spec, deltas)

        monkeypatch.setattr(quadrature, "zeros_on_circle", count)
        alphas = paper_alphas() if ell else []
        scan = scan_tau(RS_HALF, 16, ell, alphas, grid_size=4000)
        assert len(scan.certificates) == (3 if ell else 1)
        assert all(c.passes and c.condition is None for c in scan.certificates)
        assert len(solved) <= len(scan.certificates)

    @pytest.mark.parametrize(
        "error, label",
        [(PositivityViolationError("weight"), RED_WEIGHTS), (CircleQuadError("other"), RED_BOUNDARY)],
    )
    def test_failed_certificate_drops_its_arc(self, monkeypatch, error, label):
        # the arc whose rule is refused is dropped, and its green points
        # take the label the per-point chain gives that refusal
        whole = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=400)
        middle = whole.certificates[1]

        def refuse(measure, spec, mu=None, deltas=None):
            if abs(np.angle(spec.tau) % TWO_PI - middle.theta) < 1e-12:
                raise error
            return build_rule(measure, spec, mu=mu, deltas=deltas)

        monkeypatch.setattr(quadrature, "build_rule", refuse)
        scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=400)
        assert scan.arcs == [whole.arcs[0], whole.arcs[2]]
        (failed,) = [c for c in scan.certificates if not c.passes]
        assert failed.condition == error.condition and math.isnan(failed.resid_ratio)
        inside = _on_arc(scan.thetas, *whole.arcs[1])
        before, after = np.array(list(whole.labels)), np.array(list(scan.labels))
        assert (before[inside] == GREEN).sum() > 50
        assert (after[inside & (before == GREEN)] == label).all()
        assert np.array_equal(after[~inside], before[~inside])

    def test_labels_are_a_compact_sequence(self):
        thetas = scan_grid(8)
        labels = [GREEN, RED_SCHUR, RED_WEIGHTS, RED_BOUNDARY] * 2
        scan = TauScan(thetas=thetas, labels=labels, arcs=[])
        assert scan.labels == labels and labels == scan.labels
        assert len(scan.labels) == 8 and scan.labels.count(RED_SCHUR) == 2
        assert scan.labels[-1] == RED_BOUNDARY and scan.labels[1:3] == labels[1:3]
        assert list(scan.labels) == labels and scan.labels.codes.dtype == np.uint8
        assert scan.labels != labels[::-1]
        with pytest.raises(ValueError):
            scan.labels.codes[0] = 1


# label sweep configurations: (measure, n, ell), seeded nodes; the last
# is an arc whose ell = 0 Szego rules have weights down to 4.7e-14
SWEEP = [
    (MeasureSpec("rogers_szego", q=0.3), 9, 0),
    (MeasureSpec("rogers_szego", q=0.85), 14, 1),
    (MeasureSpec("rogers_szego", q=0.6), 12, 2),
    (MeasureSpec("rogers_szego", q=0.7), 16, 3),
    (MeasureSpec("rogers_szego", q=0.45), 20, 4),
    (MeasureSpec("arc_lebesgue", theta_a=1.0, theta_b=4.5), 10, 0),
    (MeasureSpec("arc_lebesgue", theta_a=0.2, theta_b=3.8), 9, 1),
    (MeasureSpec("arc_lebesgue", theta_a=2.0, theta_b=6.2), 11, 2),
    (MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=4.0), 12, 3),
    (MeasureSpec("arc_lebesgue", theta_a=5.0, theta_b=9.0), 13, 4),
    (MeasureSpec("arc_lebesgue", theta_a=5.75, theta_b=7.66), 12, 0),
]


def test_label_sweep_against_the_per_point_chain():
    # no label differs from the per-point chain, the small weights of the
    # last configuration included
    rng = np.random.default_rng(11)
    for measure, n, ell in SWEEP:
        alphas = spread_nodes(rng, 2 * ell)
        scan = scan_tau(measure, n, ell, alphas, grid_size=48)
        assert list(scan.labels) == oracle_labels(measure, n, ell, alphas, scan.thetas)


class TestBandHit:
    def test_band_hit_is_boundary_in_any_node_order(self):
        # tau = e^{i pi/4} makes P vanish at the prescribed node pi/4, so
        # Schur-Cohn lands in its boundary band
        mu, deltas = chain(RS_HALF, 16, 3)
        tau = cmath.exp(0.25j * math.pi)
        for order in ([0, 1, 2, 3, 4, 5], [3, 0, 5, 1, 4, 2], [5, 4, 3, 2, 1, 0]):
            alphas = paper_alphas([PAPER[i] for i in order])
            assert _classify(RS_HALF, 16, 3, alphas, tau, mu, deltas) == RED_BOUNDARY

    def test_labels_invariant_under_permutation_and_mirror(self):
        grid = 4000
        base = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=grid).labels
        rng = np.random.default_rng(7)
        shuffled = [PAPER[i] for i in rng.permutation(6)]
        assert scan_tau(RS_HALF, 16, 3, paper_alphas(shuffled), grid_size=grid).labels == base
        # mirroring the nodes mirrors tau: grid point k maps to grid - k
        mirrored = scan_tau(
            RS_HALF, 16, 3, paper_alphas([-a for a in shuffled]), grid_size=grid
        ).labels
        assert [mirrored[-k % grid] for k in range(grid)] == base
        assert base.count(GREEN) == 2405


# ``companion_codes`` of simple circle nodes whose weights it cannot sign
_UNSOLVED = -1
# the smallest least-squares weight ``companion_codes`` counts as
# positive: the oracle keeps the 1e-12 floor its codes were checked
# with, whatever the library's own positivity gate
_ORACLE_FLOOR = 1e-12


def companion_codes(q, mu_arr, mu0):
    """The zeros diagnostic ``_root_codes`` replaced, kept as its oracle:
    Q's zeros from the companion matrix count as circle nodes within 1e-6
    of |z| = 1 and as simple ones when no two are closer than 1e-8; the
    least-squares weights at those nodes then tell a positive rule from
    one with a nonpositive weight. Simple circle nodes get ``_UNSOLVED``
    when their weights miss the moment residual (the replaced code called
    them inadmissible-schur) or when the smallest weight is no larger than
    that residual, so that its sign is noise."""
    d = q.shape[1] - 1
    comp = np.zeros((len(q), d, d), dtype=complex)
    comp[:, 0, :] = -q[:, d - 1 :: -1] / q[:, d : d + 1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    mod = np.abs(roots)
    on_circle = np.max(np.abs(mod - 1.0), axis=1) <= 1e-6
    gaps = np.abs(roots[:, :, None] - roots[:, None, :]) + np.eye(d)
    simple = np.min(gaps, axis=(1, 2)) >= 1e-8
    lam, resid_ok, resid = lstsq_weights_rows(roots / mod, mu_arr, mu0)
    positive = np.min(lam, axis=1) > _ORACLE_FLOOR
    signed = resid_ok & (np.abs(np.min(lam, axis=1)) > resid)
    return np.select(
        [~on_circle, ~simple, ~signed, ~positive], [_SCHUR, _BOUNDARY, _UNSOLVED, _WEIGHTS], _GREEN
    )


def close_circle_pair(q) -> bool:
    """Has Q two zeros within 1e-6 of the circle and 1e-5 of each other?"""
    roots = np.roots(q[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) <= 1e-6]
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
    return bool(np.min(gaps, initial=1.0) <= 1e-5)


def scan_moments(scan):
    """mu_{-m}..mu_m and mu_0 of a scan's measure."""
    m = scan.q.n - scan.pencil.ell - 1
    return scan.mu.array(-m, m), float(scan.mu.get(0).real)


def unstable_rows(scan, grid):
    """Q of every tau on a grid whose P is Schur-unstable outside the band."""
    tau = np.exp(1j * np.arange(grid) * (TWO_PI / grid))
    p = scan.pencil.rows(tau)[0]
    _, stable, band = schur_cohn_rows(p)
    rows = ~stable & ~band
    return direct_q_rows(p[rows], tau[rows], scan_rho(scan))


class TestCohnLabels:
    """``_root_codes`` (Cohn's test on Q'/n) against the companion-root oracle."""

    def test_random_configurations(self):
        rng = np.random.default_rng(2022)
        rows = configs = unsolved = 0
        while configs < 40:
            ell = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                measure = MeasureSpec("rogers_szego", q=float(rng.uniform(0.2, 0.9)))
                n_max = 30
            else:
                a = float(rng.uniform(0.0, TWO_PI))
                b = a + float(rng.uniform(2.0, 5.5))
                measure = MeasureSpec("arc_lebesgue", theta_a=a, theta_b=b)
                # moment Levinson breaks down on arcs from order ~13
                n_max = min(30, ell + 12)
            n = int(rng.integers(2 * ell + 2, n_max + 1))
            try:
                scan = _Scan(measure, n, ell, spread_nodes(rng, 2 * ell))
            except CircleQuadError:
                continue
            if scan.refused:
                continue
            configs += 1
            q = unstable_rows(scan, 200)
            got, want = _root_codes(q), companion_codes(q, *scan_moments(scan))
            # near q = 0.9 and n = 30 the moment system is too ill-conditioned
            # to sign the oracle's weights; its zeros are still simple circle
            # nodes
            solved = want != _UNSOLVED
            # a band hit puts a zero of Q'/n on the circle, where Q has two
            # zeros; the oracle may see an off-circle pair of Q first
            band = got == _BOUNDARY
            assert got[solved & ~band].tolist() == want[solved & ~band].tolist()
            assert (got[~solved & ~band] == _WEIGHTS).all()
            assert all(close_circle_pair(row) for row in q[band])
            rows += len(q)
            unsolved += int(np.sum(~solved))
        assert rows > 5000 and unsolved < 0.01 * rows

    def test_criterion_3_grid(self):
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        q = unstable_rows(scan, 4000)
        codes = _root_codes(q)
        assert codes.tolist() == companion_codes(q, *scan_moments(scan)).tolist()
        assert set(codes.tolist()) == {_SCHUR, _WEIGHTS}

    def test_derivative_identity(self):
        # Q = z rho~ + tau rho~* with rho~ = Q'/n, for every tau-invariant Q
        rng = np.random.default_rng(5)
        for ell, k in [(0, 6), (2, 9), (3, 12)]:
            p = np.concatenate(
                [0.5 * (rng.normal(size=(8, ell)) + 1j * rng.normal(size=(8, ell))), np.ones((8, 1))],
                axis=1,
            )
            tau = np.exp(1j * rng.uniform(0.0, TWO_PI, size=8))
            rho = np.concatenate([rng.normal(size=k) + 1j * rng.normal(size=k), [1.0]])
            q = direct_q_rows(p, tau, rho)
            n = q.shape[1] - 1
            rho_t = q[:, 1:] * (np.arange(1, n + 1) / n)
            rebuilt = np.zeros_like(q)
            rebuilt[:, 1:] = rho_t
            rebuilt[:, :-1] += tau[:, None] * np.conj(rho_t[:, ::-1])
            assert np.max(np.abs(rebuilt - q)) <= 1e-13 * np.max(np.abs(q))

    def test_double_zero_on_circle_is_boundary(self):
        zeros = np.exp(1j * np.array([0.4, 0.4, 1.3, 2.9, 4.0, 5.5]))
        assert _root_codes(from_zeros(zeros).coeffs[None]).tolist() == [_BOUNDARY]
        # a tau where two zeros of the criterion-3 Q meet on the circle:
        # bisect between grid points labelled by either side of the meeting
        mu, deltas = chain(RS_HALF, 16, 3)
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        lo, hi = 217 * TWO_PI / 4000, 218 * TWO_PI / 4000
        assert _LABELS[scan.codes([lo, hi])].tolist() == [RED_WEIGHTS, RED_SCHUR]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            label = _LABELS[scan.codes([mid])[0]]
            if label == RED_BOUNDARY:
                break
            if label == RED_WEIGHTS:
                lo = mid
            else:
                hi = mid
        assert label == RED_BOUNDARY
        tau = complex(np.exp(1j * mid))
        assert _classify(RS_HALF, 16, 3, paper_alphas(), tau, mu, deltas) == RED_BOUNDARY
