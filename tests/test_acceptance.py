"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line; checks
inside a criterion accumulate into a failure list so the line is printed
even when individual checks fail.
"""

import cmath
import math
import time

import numpy as np

from circlequad import (
    ArcSpec,
    MeasureSpec,
    QpopucSpec,
    UnitPoint,
    assemble,
    build_rule,
    from_zeros,
    lobatto2,
    modified_schur,
    moment_chain,
    moments,
    orthogonality_params,
    prescribe_2l,
    prescribe_2lp1,
    radau_arc_admissible,
    scan_tau,
    schur_cohn,
    tau_for_omega,
    three_nodes,
    verify_exactness,
    zeros_on_circle,
)
from circlequad._kernels import szego_eval
from circlequad.errors import BoundaryDegenerateError, CircleQuadError
from circlequad.opuc import TWO_PI
from circlequad.poly import ONE, ComplexPoly
from circlequad.quadrature import RED_SCHUR, RED_WEIGHTS

from circlequad_helpers import _classify, direct_coefficients

RS_HALF = MeasureSpec("rogers_szego", q=0.5)

SIX_NODE_ANGLES = [
    -0.75 * math.pi,
    -0.5 * math.pi,
    0.0,
    0.25 * math.pi,
    0.5 * math.pi,
    0.75 * math.pi,
]

# the sixteen nodes and weights of the published six-node reference rule
SIX_NODE_TABLE = [
    (-0.942694568084626 - 0.333656936543722j, 0.000883914413545),
    (math.sqrt(2) / 2 * (-1 - 1j), 0.003573449079563),
    (-0.379700471214962 - 0.925109481174597j, 0.011670163240250),
    (-1j, 0.031571926071034),
    (0.382004048856982 - 0.924160649809800j, 0.069097384838415),
    (0.706940179145082 - 0.707273343984008j, 0.120722316200665),
    (0.923913888542018 - 0.382600479036773j, 0.168408825865268),
    (1.0 + 0j, 0.188077141674534),
    (0.923939153768060 + 0.382539462192281j, 0.168360171656870),
    (math.sqrt(2) / 2 * (1 + 1j), 0.120696119860582),
    (0.382340759272763 + 0.924021397911716j, 0.069140956573729),
    (1j, 0.031642200537795),
    (-0.381050525980387 + 0.924554215095074j, 0.011673845455142),
    (math.sqrt(2) / 2 * (-1 + 1j), 0.003486160898429),
    (-0.908886480405499 + 0.417043601720617j, 0.000537635619058),
    (-0.974806799005855 + 0.223050901392394j, 0.000457788015119),
]

# the seven prescribed (starred) nodes of the seven-node reference rule
SEVEN_STARRED = [
    0.707106781186549 - 0.707106781186549j,
    1.000000000000000 - 0.000000000000001j,
    0.929776485888252 + 0.368124552684676j,
    0.809016994374943 + 0.587785252292476j,
    0.707106781186542 + 0.707106781186551j,
    0.637423989748693 + 0.770513242775784j,
    0.000000000000000 + 1.000000000000000j,
]

SEVEN_NODE_TAU = -0.363884303133021 - 0.931444155026694j

# reference (node, weight) rows of the seven-node rule whose weights pass
# the moment-matching certificate. The five remaining upstream rows repeat
# weights of the six-node rule verbatim and their full column sums to
# 0.8782 instead of mu_0 = 1, so they fail the certificate and are checked
# for node position only.
SEVEN_NODE_CONSISTENT = [
    (0.925520203512843 - 0.378698234600514j, 0.168718787427850),
    (1.000000000000000 - 0.000000000000001j, 0.184031304001781),
    (0.929776485888252 + 0.368124552684676j, 0.157535679739229),
    (0.809016994374943 + 0.587785252292476j, 0.029784407222365),
    (0.707106781186542 + 0.707106781186551j, 0.087805627362136),
    (0.637423989748693 + 0.770513242775784j, 0.017212913090585),
    (0.384703682295919 + 0.923040127420233j, 0.067644558942418),
    (0.000000000000000 + 1.000000000000000j, 0.032843677513034),
    (-0.408105016619360 + 0.912934989695385j, 0.011987419059172),
    (-0.772470256507957 + 0.635050945051283j, 0.003103537707867),
    (-0.996767928597351 + 0.080334902251429j, 0.000698363524723),
]

SEVEN_NODE_POSITIONS_ONLY = [
    -0.826939158283098 - 0.562291408878033j,
    -0.467939713417261 - 0.883760388684045j,
    -0.043436557033519 - 0.999056187365392j,
    0.369113471779490 - 0.929384336510408j,
    0.707106781186549 - 0.707106781186549j,
]

GREEN_ARC_BOUNDS_OVER_PI = [0.251, 0.499, 0.765, 1.229, 1.505, 1.995]


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE CRITERION {num} ({name}): {status}")
    assert not failures, "\n".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _nearest_weight(rule, z, failures, what):
    gaps = [abs(p.z - z) for p in rule.nodes]
    i = int(np.argmin(gaps))
    _check(failures, gaps[i] < 1e-9, f"{what}: nearest node off by {gaps[i]:.2e}")
    return float(rule.weights[i]), gaps[i]


def test_criterion_1_six_node_rule():
    failures = []
    t0 = time.perf_counter()
    n, ell = 16, 3
    mu, deltas = moment_chain(RS_HALF, n, ell)
    alphas = [UnitPoint.from_theta(a % TWO_PI) for a in SIX_NODE_ANGLES]
    tau = cmath.exp(0.9j * math.pi)
    pres = prescribe_2l(deltas, n, ell, alphas, tau)
    rule = build_rule(RS_HALF, pres.spec, mu=mu, deltas=deltas)
    params = orthogonality_params(pres.spec, deltas)
    elapsed = time.perf_counter() - t0

    _check(failures, pres.admissible, "prescription not admissible")
    _check(failures, np.min(rule.weights) > 0, "weights not all positive")
    for a in alphas:
        gap = min(abs(p.theta - a.theta) for p in rule.nodes)
        _check(failures, gap < 1e-10, f"prescribed node {a.theta:.4f} off by {gap:.2e}")
    w_one, _ = _nearest_weight(rule, 1.0 + 0j, failures, "node 1")
    _check(
        failures,
        abs(w_one - 0.188077141674534) < 1e-9,
        f"weight at node 1 = {w_one!r}",
    )
    free_z = -0.942694568084626 - 0.333656936543722j
    w_free, _ = _nearest_weight(rule, free_z, failures, "free node")
    _check(
        failures,
        abs(w_free - 0.000883914413545) < 1e-9,
        f"free-node weight = {w_free!r}",
    )
    _check(
        failures,
        abs(params.tau_tilde - cmath.exp(-0.87834j * math.pi)) < 1e-3,
        f"tau_tilde = {params.tau_tilde}",
    )
    _check(
        failures,
        abs(params.omega - cmath.exp(0.02166j * math.pi)) < 1e-3,
        f"omega = {params.omega}",
    )
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(1, "six-node reference rule", failures)


def test_criterion_2_seven_node_rule():
    failures = []
    t0 = time.perf_counter()
    n, ell = 16, 3
    mu, deltas = moment_chain(RS_HALF, n, ell)
    starred = [UnitPoint.from_complex(z, tol=1e-9) for z in SEVEN_STARRED]
    pres = prescribe_2lp1(deltas, n, ell, starred)
    rule = build_rule(RS_HALF, pres.spec, mu=mu, deltas=deltas)
    elapsed = time.perf_counter() - t0

    _check(failures, pres.admissible, "prescription not admissible")
    tau = pres.spec.tau
    _check(
        failures,
        abs(tau.real - SEVEN_NODE_TAU.real) < 1e-9
        and abs(tau.imag - SEVEN_NODE_TAU.imag) < 1e-9,
        f"tau = {tau!r}",
    )
    _check(failures, np.min(rule.weights) > 0, "weights not all positive")
    _check(
        failures,
        abs(float(np.sum(rule.weights)) - 1.0) < 1e-10,
        f"weight sum {np.sum(rule.weights)!r}",
    )
    for z, w_ref in SEVEN_NODE_CONSISTENT:
        w, gap = _nearest_weight(rule, z, failures, f"node near {z:.6f}")
        _check(
            failures,
            abs(w - w_ref) < 1e-9,
            f"weight at {z:.6f}: got {w!r}, reference {w_ref!r}",
        )
    for z in SEVEN_NODE_POSITIONS_ONLY:
        gap = min(abs(p.z - z) for p in rule.nodes)
        _check(failures, gap < 1e-9, f"node {z:.6f} off by {gap:.2e}")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(2, "seven-node reference rule", failures)


def test_criterion_3_green_arcs():
    failures = []
    n, ell = 16, 3
    alphas = [UnitPoint.from_theta(a % TWO_PI) for a in SIX_NODE_ANGLES]
    t0 = time.perf_counter()
    scan = scan_tau(RS_HALF, n, ell, alphas, grid_size=4000)
    elapsed = time.perf_counter() - t0

    bounds = sorted(b / math.pi for arc in scan.arcs for b in arc)
    _check(failures, len(bounds) == 6, f"expected 3 arcs, got {scan.arcs}")
    for got, want in zip(bounds, GREEN_ARC_BOUNDS_OVER_PI):
        _check(
            failures,
            abs(got - want) < 0.002,
            f"arc boundary {got:.4f} vs {want:.3f}",
        )
    mu, deltas = moment_chain(RS_HALF, n, ell)
    lab_one = _classify(RS_HALF, n, ell, alphas, 1.0 + 0j, mu, deltas)
    _check(failures, lab_one == RED_WEIGHTS, f"tau=1 classified {lab_one}")
    lab_b = _classify(
        RS_HALF, n, ell, alphas, cmath.exp(0.63j * math.pi), mu, deltas
    )
    _check(failures, lab_b == RED_SCHUR, f"tau=e^(0.63 pi i) classified {lab_b}")
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(3, "green-arc boundaries", failures)


def _random_admissible_rules(measure, rng, count, n_max=14):
    rules = []
    attempts = 0
    while len(rules) < count and attempts < 400:
        attempts += 1
        n = int(rng.integers(4, n_max + 1))
        ell = int(rng.integers(0, 3))
        if 2 * ell + 1 > n:
            ell = 0
        zs = 0.6 * (rng.normal(size=ell) + 1j * rng.normal(size=ell))
        if ell:
            zs /= max(1.0, 1.4 * np.max(np.abs(zs)))
        tau = cmath.exp(1j * rng.uniform(0, TWO_PI))
        spec = QpopucSpec(n, ell, from_zeros(zs), tau)
        mu, deltas = moment_chain(measure, n, ell)
        try:
            rules.append((build_rule(measure, spec, mu=mu, deltas=deltas), mu))
        except CircleQuadError:
            continue
    return rules


def test_criterion_4_exactness_sharpness():
    failures = []
    rng = np.random.default_rng(41)
    measures = [
        MeasureSpec("lebesgue"),
        MeasureSpec("rogers_szego", q=0.3),
        RS_HALF,
        MeasureSpec("rogers_szego", q=0.8),
        MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4),
    ]
    for measure in measures:
        rules = _random_admissible_rules(measure, rng, 4)
        _check(
            failures, len(rules) == 4, f"{measure.label()}: built {len(rules)}/4"
        )
        for rule, mu in rules:
            mu_full = moments(measure, 2 * rule.m + 2)
            report = verify_exactness(rule, mu_full)
            label = f"{measure.label()} n={rule.n} ell={rule.ell}"
            _check(failures, report["passes"], f"{label}: residuals {report}")
            _check(
                failures,
                max(report["residuals"].values()) <= 1e-9,
                f"{label}: residual too large",
            )
            _check(failures, np.min(rule.weights) > 0, f"{label}: weights")
            _check(
                failures,
                abs(float(np.sum(rule.weights)) - float(mu.get(0).real)) < 1e-10,
                f"{label}: weight sum",
            )
            if measure.variant == "rogers_szego":
                _check(
                    failures,
                    report["bare_next_power"] > 1e-6,
                    f"{label}: not sharp ({report['bare_next_power']:.2e})",
                )
    _finish(4, "exactness and sharpness suite", failures)


def test_criterion_5_oracle_equivalences():
    failures = []
    rng = np.random.default_rng(51)

    # lobatto2 vs the coupled (p, conj p) solve at the same tau; three_nodes
    # and prescribe_2lp1 vs a round trip: three zeros of an admissible
    # (P, tau) must give that (P, tau) back
    n = 7
    mu, deltas = moment_chain(RS_HALF, n, 1)
    for _ in range(10):
        a = [UnitPoint.from_theta(t) for t in rng.uniform(0, TWO_PI, size=2)]
        tau = cmath.exp(1j * rng.uniform(0, TWO_PI))
        r1 = lobatto2(deltas, n, a[0], a[1], tau)
        want = direct_coefficients(deltas, n, 1, a, tau)
        _check(
            failures,
            abs(r1.spec.P.coeffs[0] - want[0]) < 1e-10
            and r1.admissible == (abs(want[0]) < 1.0),
            "lobatto2 and the coupled solve disagree",
        )
        eta = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        spec = QpopucSpec(n, 1, from_zeros([eta]), cmath.exp(1j * rng.uniform(0, TWO_PI)))
        pts = zeros_on_circle(spec, deltas)
        picks = [pts[i] for i in rng.choice(n, size=3, replace=False)]
        for res in (three_nodes(deltas, n, picks), prescribe_2lp1(deltas, n, 1, picks)):
            _check(
                failures,
                res.admissible
                and np.max(np.abs(res.spec.P.coeffs - spec.P.coeffs)) < 1e-9
                and abs(res.spec.tau - spec.tau) < 1e-9,
                "three-node prescription misses the (P, tau) it was drawn from",
            )

    # Schur-Cohn verdict vs companion-matrix root locations
    checked = 0
    for _ in range(500):
        deg = int(rng.integers(1, 7))
        zs = rng.uniform(0.1, 1.7, size=deg) * np.exp(
            1j * rng.uniform(0, TWO_PI, size=deg)
        )
        p = ComplexPoly(np.poly(zs)[::-1])
        try:
            verdict = schur_cohn(p).stable
        except BoundaryDegenerateError:
            continue
        checked += 1
        _check(
            failures,
            verdict == bool(np.max(np.abs(p.roots())) < 1.0),
            f"Schur-Cohn vs roots mismatch for zeros {zs}",
        )
    _check(failures, checked >= 450, f"only {checked} polynomials classified")

    # closed-form uniform-measure chain
    leb = MeasureSpec("lebesgue")
    mu3, d3 = moment_chain(leb, 3, 1)
    res = three_nodes(
        d3,
        3,
        [
            UnitPoint.from_theta(0.0),
            UnitPoint.from_theta(0.5 * math.pi),
            UnitPoint.from_theta(1.25 * math.pi),
        ],
    )
    eta = res.diagnostics["eta"]
    sq2 = math.sqrt(2.0)
    _check(failures, abs(eta - (1 + 1j) * (1 - 1 / sq2)) < 1e-12, f"eta = {eta}")
    _check(
        failures,
        abs(res.spec.tau - cmath.exp(0.75j * math.pi)) < 1e-12,
        f"tau = {res.spec.tau}",
    )
    rule = build_rule(leb, res.spec, mu=mu3, deltas=d3)
    expect = {0.0: 1 - 1 / sq2, 0.5 * math.pi: 1 - 1 / sq2, 1.25 * math.pi: sq2 - 1}
    for theta, w_ref in expect.items():
        i = int(np.argmin([abs(p.theta - theta) for p in rule.nodes]))
        _check(
            failures,
            abs(rule.nodes[i].theta - theta) < 1e-12
            and abs(rule.weights[i] - w_ref) < 1e-12,
            f"closed-form weight at theta={theta}",
        )
    params = orthogonality_params(res.spec, d3)
    _check(failures, abs(params.omega - (-1.0)) < 1e-12, f"omega = {params.omega}")
    _finish(5, "oracle equivalences", failures)


def test_criterion_6_arc_zero_location():
    failures = []
    rng = np.random.default_rng(61)
    ta, tb = 0.3, 2.4
    measure = MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb)
    arc = ArcSpec(UnitPoint.from_theta(ta), UnitPoint.from_theta(tb))
    done = 0
    attempts = 0
    radau_checked = 0
    while done < 200 and attempts < 600:
        attempts += 1
        n = int(rng.integers(4, 13))
        ell = int(rng.integers(0, 3))
        if 2 * ell + 1 > n:
            ell = 0
        zs = 0.6 * (rng.normal(size=ell) + 1j * rng.normal(size=ell))
        if ell:
            zs /= max(1.0, 1.4 * np.max(np.abs(zs)))
        tau = cmath.exp(1j * rng.uniform(0, TWO_PI))
        spec = QpopucSpec(n, ell, from_zeros(zs), tau)
        mu, deltas = moment_chain(measure, n, ell)
        try:
            pts = zeros_on_circle(spec, deltas)
        except CircleQuadError:
            continue
        done += 1
        inside = sum(arc.contains(p.z, closed=False) for p in pts)
        _check(
            failures,
            inside >= n - 2 * ell - 1,
            f"n={n} ell={ell}: only {inside} zeros inside the arc",
        )
        if ell == 0 and radau_arc_admissible(deltas, n, tau, arc):
            radau_checked += 1
            _check(
                failures,
                inside == n,
                f"radau-admissible n={n}: {inside}/{n} zeros inside",
            )
    _check(failures, done == 200, f"only {done} specs evaluated")
    _check(failures, radau_checked > 0, "no radau-admissible instances sampled")
    _finish(6, "arc zero-location property", failures)


def test_criterion_7_representation_equivalence():
    failures = []
    rng = np.random.default_rng(71)
    measures = [RS_HALF, MeasureSpec("arc_lebesgue", theta_a=0.3, theta_b=2.4)]
    for trial in range(200):
        measure = measures[trial % 2]
        n = int(rng.integers(3, 13))
        ell = int(rng.integers(0, 4))
        if 2 * ell + 1 > n:
            ell = 0
        zs = 0.6 * (rng.normal(size=ell) + 1j * rng.normal(size=ell))
        if ell:
            zs /= max(1.0, 1.4 * np.max(np.abs(zs)))
        tau = cmath.exp(1j * rng.uniform(0, TWO_PI))
        spec = QpopucSpec(n, ell, from_zeros(zs), tau)
        mu, deltas = moment_chain(measure, n, ell)
        modified = modified_schur(spec, deltas)
        z = np.exp(1j * rng.uniform(0, TWO_PI, size=64))
        rho, rho_star = szego_eval(modified.params(), z)
        direct = assemble(spec, deltas)
        dev = np.max(np.abs(direct(z) - (z * rho + tau * rho_star)))
        _check(
            failures,
            dev <= 1e-10 * direct.max_abs_coeff(),
            f"trial {trial}: deviation {dev:.2e}",
        )
    _finish(7, "representation equivalence", failures)


def test_criterion_8_tau_for_omega_round_trip():
    failures = []
    rng = np.random.default_rng(81)
    done = 0
    attempts = 0
    while done < 100 and attempts < 300:
        attempts += 1
        ell = int(rng.integers(0, 3))
        n = int(rng.integers(max(4, 2 * ell + 1), 11))
        measure = RS_HALF if attempts % 2 else MeasureSpec("lebesgue")
        mu, deltas = moment_chain(measure, n, ell)
        alphas = [UnitPoint.from_theta(t) for t in rng.uniform(0, TWO_PI, 2 * ell)]
        tau0 = cmath.exp(1j * rng.uniform(0, TWO_PI))
        try:
            if ell:
                pres = prescribe_2l(deltas, n, ell, alphas, tau0)
                spec = pres.spec
            else:
                spec = QpopucSpec(n, 0, ONE, tau0)
            params = orthogonality_params(spec, deltas)
            if params.collapsed:
                continue
            sols, degenerate = tau_for_omega(deltas, n, ell, alphas, params.omega)
        except CircleQuadError:
            continue
        done += 1
        _check(failures, len(sols) <= 2, f"{len(sols)} solutions returned")
        for tau in sols:
            if ell:
                spec_back = prescribe_2l(deltas, n, ell, alphas, tau).spec
            else:
                spec_back = QpopucSpec(n, 0, ONE, tau)
            back = orthogonality_params(spec_back, deltas)
            _check(
                failures,
                (not back.collapsed) and abs(back.omega - params.omega) < 1e-9,
                f"tau {tau} realizes omega {back.omega}, wanted {params.omega}",
            )
        if not degenerate:
            _check(
                failures,
                any(abs(s - tau0) < 1e-7 for s in sols),
                f"original tau {tau0} not among solutions {sols}",
            )
    _check(failures, done == 100, f"only {done} contexts evaluated")
    _finish(8, "tau-for-omega round trip", failures)
