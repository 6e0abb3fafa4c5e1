"""The tau pencil and the batched scan against their per-point references."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from circlequad import (
    TOL,
    MeasureSpec,
    QpopucSpec,
    from_zeros,
    scan_tau,
    tau_pencil,
    zeros_on_circle,
)
from circlequad.errors import CircleQuadError
from circlequad.opuc import TWO_PI, schur_cohn_rows
from circlequad.qpopuc import assemble_rows
from circlequad.quadrature import (
    _BOUNDARY,
    _GREEN,
    _ROOT_BUDGET,
    _SCHUR,
    _WEIGHTS,
    GREEN,
    RED_BOUNDARY,
    RED_SCHUR,
    RED_WEIGHTS,
    _root_codes,
    _Scan,
    weight_checks,
    weights_rows,
)

from circlequad_helpers import (
    _classify,
    chain,
    direct_coefficients,
    elimination_pencil,
    unit,
)

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

    # 64 was the fixed block of an earlier scanner; the block is now
    # _ROOT_BUDGET // n tau values, 256 at n = 16
    @pytest.mark.parametrize(
        "grid", [8, 63, 64, 65, 129] + [_ROOT_BUDGET // 16 + k for k in (-1, 0, 1)]
    )
    def test_block_edges(self, grid):
        scan = scan_tau(RS_HALF, 16, 3, paper_alphas(), grid_size=grid)
        want = oracle_labels(RS_HALF, 16, 3, paper_alphas(), scan.thetas)
        assert scan.labels == want
        arcs = oracle_arcs(RS_HALF, 16, 3, paper_alphas(), scan.thetas, want)
        assert len(arcs) == len(scan.arcs)
        assert np.max(np.abs(np.subtract(arcs, scan.arcs)), initial=0.0) <= TOL.scan_refine

    def test_labels_do_not_depend_on_the_slicing(self):
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        thetas = np.arange(4000) * (TWO_PI / 4000)
        block = _ROOT_BUDGET // 16
        parts = np.split(thetas, np.cumsum([1, 7, block - 1, block, block + 1]))
        got = np.concatenate([scan.labels(part) for part in parts])
        assert got.tolist() == scan.labels(thetas).tolist()

    def test_block_working_set(self):
        # 256 tau of the criterion-3 grid whose P are all stable, so every
        # row takes the node solve and the weights: the heaviest block.
        # Measured peak 2.37 MB with numpy 2.4; the old 64-tau blocks
        # peaked at 1.10 MB, and 256-tau blocks on the old node solve at
        # 4.37 MB
        scan = _Scan(RS_HALF, 16, 3, paper_alphas())
        tau = np.exp(1j * (512 + np.arange(_ROOT_BUDGET // 16)) * (TWO_PI / 4000))
        assert (scan._block(tau) == _GREEN).all()
        tracemalloc.start()
        try:
            scan._block(tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

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


# ``companion_codes`` of simple circle nodes whose weights it cannot sign
_UNSOLVED = -1


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
    lam, resid_ok, resid = weights_rows(roots / mod, mu_arr, mu0)
    positive, _ = weight_checks(lam, mu0)
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


def unstable_rows(scan, grid):
    """Q of every tau on a grid whose P is Schur-unstable outside the band."""
    tau = np.exp(1j * np.arange(grid) * (TWO_PI / grid))
    p = scan.pencil.rows(tau)[0]
    _, stable, band = schur_cohn_rows(p)
    rows = ~stable & ~band
    return assemble_rows(p[rows], tau[rows], scan.rho)


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
            got, want = _root_codes(q), companion_codes(q, scan.mu_arr, scan.mu0)
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
        assert codes.tolist() == companion_codes(q, scan.mu_arr, scan.mu0).tolist()
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
            q = assemble_rows(p, tau, rho)
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
        assert scan.labels([lo, hi]).tolist() == [RED_WEIGHTS, RED_SCHUR]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            label = scan.labels([mid])[0]
            if label == RED_BOUNDARY:
                break
            if label == RED_WEIGHTS:
                lo = mid
            else:
                hi = mid
        assert label == RED_BOUNDARY
        tau = complex(np.exp(1j * mid))
        assert _classify(RS_HALF, 16, 3, paper_alphas(), tau, mu, deltas) == RED_BOUNDARY
