"""The tau pencil and the batched scan against their per-point references."""

import cmath
import math

import numpy as np
import pytest

from circlequad import TOL, MeasureSpec, scan_tau, tau_pencil
from circlequad.opuc import TWO_PI
from circlequad.prescribe import _f_values, _vandermonde
from circlequad.quadrature import GREEN, RED_BOUNDARY, _BLOCK, _classify, _Scan

from conftest import chain, unit

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
        while abs(hi - lo) > TOL.scan_refine:
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


def direct_coefficients(deltas, n, ell, alphas, tau):
    """P's low coefficients from the coupled system in (p, conj(p)) at tau."""
    az = np.array([a.z for a in alphas])
    f = _f_values(deltas, n, ell, alphas)
    v = _vandermonde(az, ell)
    d = az**ell
    m_full = np.hstack([v, tau * (f * d)[:, None] * np.conj(v)])
    return np.linalg.solve(m_full, -tau * f - d)[:ell]


class TestTauPencil:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_matches_direct_coupled_solve(self, ell):
        rng = np.random.default_rng(300 + ell)
        n = 2 * ell + 5
        _, deltas = chain(RS_HALF, n, ell)
        alphas = spread_nodes(rng, 2 * ell)
        pencil = tau_pencil(deltas, n, ell, alphas)
        taus = np.exp(1j * rng.uniform(0.0, TWO_PI, size=16))
        coeffs = pencil.coefficients(taus)
        for tau, row in zip(taus, coeffs):
            want = direct_coefficients(deltas, n, ell, alphas, tau)
            assert np.max(np.abs(row[:ell] - want)) < 1e-10
            assert row[ell] == 1.0
        coupling_ok, agree_ok, _ = pencil.defects(taus)
        assert coupling_ok.all() and agree_ok.all()

    def test_single_blaschke_call_for_f_values(self):
        _, deltas = chain(RS_HALF, 16, 3)
        alphas = paper_alphas()
        pencil = tau_pencil(deltas, 16, 3, alphas)
        from circlequad import blaschke_eval

        want = [np.conj(blaschke_eval(deltas, 13, a.z)) for a in alphas]
        assert np.max(np.abs(pencil.f - want)) < 1e-14


class TestBatchedScan:
    def test_criterion_3_every_point(self):
        n, ell = 16, 3
        scan = scan_tau(RS_HALF, n, ell, paper_alphas(), grid_size=4000)
        want = oracle_labels(RS_HALF, n, ell, paper_alphas(), scan.thetas)
        assert scan.labels == want
        arcs = oracle_arcs(RS_HALF, n, ell, paper_alphas(), scan.thetas, want)
        assert len(arcs) == len(scan.arcs) == 3
        assert np.max(np.abs(np.subtract(arcs, scan.arcs))) <= TOL.scan_refine

    @pytest.mark.parametrize("grid", [8, 63, _BLOCK, 65, 129])
    def test_block_edges(self, grid):
        scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=grid)
        want = oracle_labels(RS_HALF, 16, 3, paper_alphas(), scan.thetas)
        assert scan.labels == want
        arcs = oracle_arcs(RS_HALF, 16, 3, paper_alphas(), scan.thetas, want)
        assert len(arcs) == len(scan.arcs)
        assert np.max(np.abs(np.subtract(arcs, scan.arcs)), initial=0.0) <= TOL.scan_refine

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
            got = _Scan(measure, n, ell, alphas).labels(thetas).tolist()
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
