"""Seeded inputs, operations and correctness gates of the three workloads.

Each workload turns ``--seed`` into a stream of plain-number inputs; only
the operation (``run``) turns them into library objects and calls
``circlequad``, so the library never sees the seed. ``check`` is the
workload's oracle: it runs after the timed loop and recomputes what it
can without the library (closed-form moments and reflection
coefficients, moment residuals in plain numpy).

Why these three workloads:

* ``scan`` is the paper's criterion-3 experiment (4000-point tau grid,
  n=16, ell=3, Rogers-Szego q=0.5): thousands of small pipeline calls, so
  per-call overhead, ``prescribe_2l``, ``schur_cohn`` and the n=16 node
  solve dominate. A batched scan shows up here and nowhere else.
* ``rules-large`` builds single ell=0 rules at n=256, where the O(n^3)
  phase-grid ``blaschke_solve`` takes almost all the time; a faster node
  solver shows most here.
* ``prescribe-mix`` answers many small prescription requests, each with
  its own moment/Levinson chain, and builds no rule; it bypasses the root
  solver, so a node-solver change should leave it unchanged, while chain
  set-up and the prescription pencil show here. The Levinson breakdown on
  positive measures (arc-Lebesgue from order ~11-16, Rogers-Szego q=0.95
  at order 28) is kept in the draw on purpose, so a stable chain shows as
  a higher answered share of the draw. The draw is answered and gated
  once before timing; the timed loop then cycles through the requests
  the draw answered correctly, so no timed operation is expected to fail.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# criterion 3 of the paper: six prescribed nodes and the published
# green-arc bounds (in units of pi) of the resulting tau scan
PAPER_NODES = [-0.75 * math.pi, -0.5 * math.pi, 0.0, 0.25 * math.pi,
               0.5 * math.pi, 0.75 * math.pi]
PAPER_ARCS_OVER_PI = [0.251, 0.499, 0.765, 1.229, 1.505, 1.995]
ARC_BOUND_TOL_OVER_PI = 0.002
SCAN_GRID = 4000
SCAN_N, SCAN_ELL, SCAN_Q = 16, 3, 0.5

RULES_N = 256
# at n=256 the smallest true weight drops below the library's absolute
# positivity floor (TOL.weight_positive = 1e-12) once q exceeds ~0.81, so
# q is drawn where every rule is certifiably positive
RULES_Q = (0.3, 0.8)
# Levinson matches the closed form to ~4e-10 at q=0.8, n=256
CHAIN_TOL = 1e-8

MIX_N = (8, 40)
MIX_ELL = (1, 5)
MIX_RS_Q = (0.3, 0.95)
MIX_ARC_SPAN = (0.5 * math.pi, 1.5 * math.pi)
MIX_NODE_GAP = 0.05  # radians between prescribed nodes
MIX_DRAW = 2000  # requests drawn per run, answered and gated before timing
MIX_AUDIT_P = 0.05  # share of timed answers drawn for the rule audit
MIX_AUDIT_MAX = 200  # timed audits per run, to bound the untimed check
NODE_TOL = 1e-9

KINDS = ("2l", "2lp1", "omega")


# ---------------------------------------------------------------- oracles


def rs_moments(q: float, order: int) -> np.ndarray:
    """Rogers-Szego moments mu_k = q^(k^2/2), k = 0..order."""
    k = np.arange(order + 1, dtype=float)
    return q ** (k * k / 2.0) + 0.0j


def arc_moments(a: float, b: float, order: int) -> np.ndarray:
    """Normalised Lebesgue moments of the arc [a, b]."""
    k = np.arange(1, order + 1, dtype=float)
    mu = np.empty(order + 1, dtype=complex)
    mu[0] = 1.0
    mu[1:] = (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k * (b - a))
    return mu


def oracle_moments(measure: tuple, order: int) -> np.ndarray:
    if measure[0] == "rs":
        return rs_moments(measure[1], order)
    return arc_moments(measure[1], measure[2], order)


def moment_residual(nodes_z, lam, mu: np.ndarray, m: int) -> float:
    """max over |k| <= m of |sum lam z^k - mu_k|, with mu_{-k} = conj(mu_k)."""
    k = np.arange(-m, m + 1)
    powers = np.asarray(nodes_z)[None, :] ** k[:, None]
    target = np.where(k >= 0, mu[np.abs(k)], np.conj(mu[np.abs(k)]))
    return float(np.max(np.abs(powers @ np.asarray(lam) - target)))


def rule_problems(cq, rule, measure: tuple, m: int, prescribed=()) -> tuple:
    """(problems, residual ratio) of a built rule against the oracle."""
    z = np.array([p.z for p in rule.nodes])
    lam = np.asarray(rule.weights, dtype=float)
    mu = oracle_moments(measure, m)
    limit = cq.TOL.weight_residual * float(mu[0].real)
    ratio = moment_residual(z, lam, mu, m) / limit
    problems = []
    if ratio > 1.0:
        problems.append(f"moment residual {ratio:.3g} x the weight tolerance")
    if not np.all(lam > 0):
        problems.append(f"non-positive weight {lam.min():.3e}")
    if np.max(np.abs(np.abs(z) - 1.0)) > NODE_TOL:
        problems.append("node off the unit circle")
    for theta in prescribed:
        if np.min(np.abs(z - cmath.exp(1j * theta))) > NODE_TOL:
            problems.append(f"prescribed node {theta:.6f} missing from the rule")
    return problems, ratio


# ---------------------------------------------------------------- scan


def scan_inputs(seed: int):
    """The paper's six nodes for every scan of a run, in a seeded order and,
    on half the seeds, mirrored (theta -> -theta), which mirrors the green
    arcs (tau-angle -> 2 pi - tau-angle). Seed 0 is the paper's order.

    The nodes are not moved: shifting them by up to 0.01 pi (even 0.001 pi)
    changes the arc structure, and with it the scan's cost by up to 2.7x,
    so runs on different seeds would measure different experiments.
    """
    rng = np.random.default_rng(seed)
    nodes, mirror = list(PAPER_NODES), False
    if seed != 0:
        mirror = bool(rng.integers(2))
        nodes = [-t if mirror else t for t in rng.permutation(nodes).tolist()]
    while True:
        yield {"nodes": nodes, "mirror": mirror}


def scan_run(cq, inp, grid=SCAN_GRID):
    measure = cq.MeasureSpec("rogers_szego", q=SCAN_Q)
    alphas = [cq.UnitPoint.from_theta(t % TWO_PI) for t in inp["nodes"]]
    return cq.scan_tau(measure, SCAN_N, SCAN_ELL, alphas, grid_size=grid)


def scan_warmup(cq):
    scan_run(cq, next(scan_inputs(0)), grid=16)


def arc_midpoint(lo: float, hi: float) -> float:
    return lo + ((hi - lo) % TWO_PI or TWO_PI) / 2.0


def scan_check(cq, inp, scan) -> tuple:
    """The published arc bounds (mirrored with the nodes), and each arc's
    midpoint tau must give an admissible prescription whose rule is exact."""
    problems = []
    bounds = sorted(b / math.pi for arc in scan.arcs for b in arc)
    published = sorted(2.0 - b if inp["mirror"] else b for b in PAPER_ARCS_OVER_PI)
    if len(bounds) != len(published):
        problems.append(f"expected 3 green arcs, got {scan.arcs}")
    else:
        for got, want in zip(bounds, published):
            if abs(got - want) > ARC_BOUND_TOL_OVER_PI:
                problems.append(f"arc bound {got:.4f} pi, published {want:.3f} pi")
    if len(scan.labels) != SCAN_GRID:
        problems.append(f"{len(scan.labels)} labels for a {SCAN_GRID}-point grid")
    measure = cq.MeasureSpec("rogers_szego", q=SCAN_Q)
    m = SCAN_N - SCAN_ELL - 1
    mu = cq.moments(measure, 2 * m + 2)
    deltas = cq.schur_from_moments(mu, SCAN_N - SCAN_ELL)
    alphas = [cq.UnitPoint.from_theta(t % TWO_PI) for t in inp["nodes"]]
    worst = 0.0
    for lo, hi in scan.arcs:
        tau = cmath.exp(1j * arc_midpoint(lo, hi))
        try:
            pres = cq.prescribe_2l(deltas, SCAN_N, SCAN_ELL, alphas, tau)
            if not pres.admissible:
                problems.append(f"arc midpoint {arc_midpoint(lo, hi):.4f} inadmissible")
                continue
            rule = cq.build_rule(measure, pres.spec, mu=mu, deltas=deltas)
            if not cq.verify_exactness(rule, mu)["passes"]:
                problems.append("arc-midpoint rule fails verify_exactness")
        except cq.CircleQuadError as exc:
            problems.append(f"arc-midpoint rule raised {exc.condition}")
            continue
        more, ratio = rule_problems(cq, rule, ("rs", SCAN_Q), m, inp["nodes"])
        problems += more
        worst = max(worst, ratio)
    return problems, worst


# ---------------------------------------------------------------- rules-large


def rules_inputs(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        q, u, theta = rng.uniform(RULES_Q[0], RULES_Q[1]), rng.random(), rng.uniform(0, TWO_PI)
        yield {"q": float(q), "radau": bool(u < 0.5), "theta": float(theta)}


def rules_run(cq, inp, n=RULES_N):
    measure = cq.MeasureSpec("rogers_szego", q=inp["q"])
    m = n - 1
    mu = cq.moments(measure, 2 * m + 2)
    deltas = cq.schur_from_moments(mu, n)
    if inp["radau"]:
        spec = cq.radau(deltas, n, cq.UnitPoint.from_theta(inp["theta"])).spec
    else:
        spec = cq.QpopucSpec(n, 0, cq.poly.ONE, cmath.exp(1j * inp["theta"]))
    rule = cq.build_rule(measure, spec, mu=mu, deltas=deltas)
    return rule, cq.verify_exactness(rule, mu), deltas


def rules_warmup(cq):
    rules_run(cq, {"q": 0.5, "radau": True, "theta": 1.0}, n=64)


def rules_check(cq, inp, out) -> tuple:
    rule, report, deltas = out
    q, n = inp["q"], len(rule.nodes)
    problems = [] if report["passes"] else ["verify_exactness does not pass"]
    if n != RULES_N or rule.m != RULES_N - 1:
        problems.append(f"rule has {n} nodes and m = {rule.m}")
    k = np.arange(1, deltas.order + 1)
    chain_err = float(np.max(np.abs(deltas.params() - (-1.0) ** k * q ** (k / 2.0))))
    if chain_err > CHAIN_TOL:
        problems.append(f"reflection coefficients off the closed form by {chain_err:.2e}")
    prescribed = [inp["theta"]] if inp["radau"] else []
    more, ratio = rule_problems(cq, rule, ("rs", q), rule.m, prescribed)
    return problems + more, ratio


# ---------------------------------------------------------------- prescribe-mix


def _mix_nodes(rng, count: int) -> list:
    while True:
        t = np.sort(rng.uniform(0.0, TWO_PI, size=count))
        gaps = np.diff(np.concatenate([t, [t[0] + TWO_PI]]))
        if gaps.min() >= MIX_NODE_GAP:
            return [float(x) for x in t]


def mix_inputs(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        kind = KINDS[int(rng.integers(len(KINDS)))]
        n = int(rng.integers(MIX_N[0], MIX_N[1] + 1))
        ell = int(rng.integers(MIX_ELL[0], min(MIX_ELL[1], (n - 1) // 2) + 1))
        if rng.random() < 0.5:
            measure = ("rs", float(rng.uniform(*MIX_RS_Q)))
        else:
            a = float(rng.uniform(0.0, TWO_PI))
            measure = ("arc", a, a + float(rng.uniform(*MIX_ARC_SPAN)))
        yield {
            "kind": kind,
            "n": n,
            "ell": ell,
            "measure": measure,
            "nodes": _mix_nodes(rng, 2 * ell + (kind == "2lp1")),
            "angle": float(rng.uniform(0.0, TWO_PI)),  # tau, or omega
            "audit": bool(rng.random() < MIX_AUDIT_P),
        }


def mix_measure(cq, measure: tuple):
    if measure[0] == "rs":
        return cq.MeasureSpec("rogers_szego", q=measure[1])
    return cq.MeasureSpec("arc_lebesgue", theta_a=measure[1], theta_b=measure[2])


def mix_run(cq, inp):
    n, ell = inp["n"], inp["ell"]
    m = n - ell - 1
    mu = cq.moments(mix_measure(cq, inp["measure"]), max(2 * m + 2, n - ell))
    deltas = cq.schur_from_moments(mu, n - ell)
    alphas = [cq.UnitPoint.from_theta(t) for t in inp["nodes"]]
    target = cmath.exp(1j * inp["angle"])
    if inp["kind"] == "2l":
        answer = cq.prescribe_2l(deltas, n, ell, alphas, target)
    elif inp["kind"] == "2lp1":
        answer = cq.prescribe_2lp1(deltas, n, ell, alphas)
    else:
        answer = cq.tau_for_omega(deltas, n, ell, alphas, target)
    return answer, mu, deltas


def mix_warmup(cq):
    inp = {"kind": "2l", "n": SCAN_N, "ell": SCAN_ELL, "measure": ("rs", SCAN_Q),
           "nodes": [t % TWO_PI for t in PAPER_NODES], "angle": 0.9 * math.pi}
    mix_run(cq, inp)


def mix_check(cq, inp, out) -> tuple:
    """Rule audit of one answer: every admissible prescription must give a
    positive rule holding the prescribed nodes; every tau returned for an
    omega must realise that omega."""
    answer, mu, deltas = out
    n, ell = inp["n"], inp["ell"]
    measure = mix_measure(cq, inp["measure"])
    problems, worst = [], 0.0
    if inp["kind"] == "omega":
        taus, _ = answer
        omega = cmath.exp(1j * inp["angle"])
        alphas = [cq.UnitPoint.from_theta(t) for t in inp["nodes"]]
        specs = []
        for tau in taus:
            pres = cq.prescribe_2l(deltas, n, ell, alphas, tau)
            params = cq.orthogonality_params(pres.spec, deltas)
            if params.collapsed or abs(params.omega - omega) > 1e-8:
                problems.append(f"tau {tau} does not realise omega")
            if pres.admissible:
                specs.append(pres.spec)
    else:
        specs = [answer.spec] if answer.admissible else []
    for spec in specs:
        try:
            rule = cq.build_rule(measure, spec, mu=mu, deltas=deltas)
        except cq.CircleQuadError as exc:
            problems.append(f"admissible answer gives no rule: {exc.condition}")
            continue
        more, ratio = rule_problems(cq, rule, inp["measure"], rule.m, inp["nodes"])
        problems += more
        worst = max(worst, ratio)
    return problems, worst


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # seed -> iterator of input dicts
    run: object  # (cq, inp) -> output
    warmup: object  # cq -> None; the first, untimed operation
    check: object  # (cq, inp, out) -> (problems, residual ratio)
    verdicts: frozenset = frozenset()  # conditions that are answers
    # > 0: this many seeded inputs are answered and gated once, untimed,
    # and the timed loop cycles through those answered correctly
    draw: int = 0
    audit_all: bool = True  # check every timed answer, or only the flagged sample
    audit_max: int = 1 << 30
    # time operations on perfbench.clock.RefClock; False keeps plain CPU
    # time, for work in large vectorised numpy calls that the clock's
    # calibration kernel does not track
    ref_clock: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", scan_inputs, scan_run, scan_warmup, scan_check),
        Workload("rules-large", rules_inputs, rules_run, rules_warmup, rules_check,
                 ref_clock=False),
        Workload("prescribe-mix", mix_inputs, mix_run, mix_warmup, mix_check,
                 verdicts=frozenset({"no-solution"}), draw=MIX_DRAW,
                 audit_all=False, audit_max=MIX_AUDIT_MAX),
    )
}
