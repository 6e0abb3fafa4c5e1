"""Command-line interface.

Subcommands: rule, scan-tau, zeros, verify, tau-for-omega. Angles are
given in radians or as rational multiples of pi with the shorthand
``pi:<rational>`` (e.g. ``pi:0.9``, ``pi:3/4``, ``pi:-1/2``). Complex
parameters on the circle accept either an angle or ``re,im``.

Exit codes: 0 success, 1 invalid input, 2 inadmissible prescription
(diagnostics are still printed as JSON).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import CircleQuadError, FileFormatError, InvalidParameterError
from .measures import moment_chain, moments, parse_measure_flag
from .opuc import UnitPoint
from .prescribe import prescribe_2l, prescribe_2lp1, tau_for_omega
from .qpopuc import orthogonality_params, zeros_on_circle
from .quadrature import (
    build_rule,
    rule_from_dict,
    rule_to_dict,
    save_rule_csv,
    scan_tau,
    verify_exactness,
)


def parse_angle(text: str) -> float:
    """Radians, with ``pi:<rational>`` meaning that multiple of pi; NaN
    and infinities are refused."""
    if text.startswith("pi:"):
        return float(Fraction(text[3:]) * Fraction(math.pi))
    theta = float(text)
    if not math.isfinite(theta):
        raise InvalidParameterError(f"angle {text!r} is not finite")
    return theta


def parse_unimodular(text: str) -> complex:
    """A point of the unit circle, as an angle or a ``re,im`` pair."""
    if "," in text:
        re, im = (float(p) for p in text.split(",", 1))
        z = complex(re, im)
        # looser than TOL.on_circle: a typed pair carries few digits, and
        # the point is normalised onto the circle below
        if not abs(abs(z) - 1.0) <= 1e-9:
            raise InvalidParameterError(f"|{text}| = {abs(z)} is not 1")
        return z / abs(z)
    theta = parse_angle(text)
    return complex(math.cos(theta), math.sin(theta))


def _round_floats(obj, digits=15):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _emit(payload: dict, out_path=None):
    text = json.dumps(_round_floats(payload), indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _prescription(args, deltas):
    """Shared node-count dispatch; returns (spec, diagnostics). For every
    ell >= 0, 2*ell nodes take --tau (``prescribe_2l``) and 2*ell + 1
    nodes determine it (``prescribe_2lp1``)."""
    nodes = [UnitPoint.from_theta(parse_angle(t)) for t in args.prescribe or []]
    n, ell = args.n, args.ell
    k = len(nodes)
    tau = parse_unimodular(args.tau) if args.tau is not None else None
    if k == 2 * ell:
        if tau is None:
            raise InvalidParameterError(f"{k} nodes with ell = {ell} requires --tau")
        res = prescribe_2l(deltas, n, ell, nodes, tau)
    elif k == 2 * ell + 1:
        if tau is not None:
            raise InvalidParameterError(
                f"{k} nodes determine tau; do not pass --tau"
            )
        res = prescribe_2lp1(deltas, n, ell, nodes)
    else:
        raise InvalidParameterError(
            f"node count {k} incompatible with ell = {ell} (want {2 * ell} or {2 * ell + 1})"
        )
    if not res.admissible:
        raise _Inadmissible(res)
    return res.spec, res.diagnostics


class _Inadmissible(CircleQuadError):
    condition = "inadmissible"

    def __init__(self, result):
        super().__init__("prescription is not admissible")
        self.result = result

    def payload(self):
        diag = {
            k: _jsonable(v) for k, v in self.result.diagnostics.items()
        }
        return {"condition": self.condition, "message": str(self), "diagnostics": diag}


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return str(v)


def cmd_rule(args) -> int:
    measure = parse_measure_flag(args.measure)
    mu, deltas = moment_chain(measure, args.n, args.ell)
    spec, diag = _prescription(args, deltas)
    rule = build_rule(measure, spec, mu=mu, deltas=deltas)
    report = verify_exactness(rule, mu)
    payload = rule_to_dict(rule, residuals=report)
    payload["diagnostics"] = {k: _jsonable(v) for k, v in diag.items()}
    params = orthogonality_params(spec, deltas)
    if not params.collapsed:
        payload["tau_tilde"] = [params.tau_tilde.real, params.tau_tilde.imag]
    if args.format == "csv":
        if not args.out:
            raise InvalidParameterError("csv output requires --out")
        save_rule_csv(rule, args.out)
    else:
        _emit(payload, args.out)
    return 0


def cmd_zeros(args) -> int:
    measure = parse_measure_flag(args.measure)
    _, deltas = moment_chain(measure, args.n, args.ell)
    spec, diag = _prescription(args, deltas)
    pts = zeros_on_circle(spec, deltas)
    payload = {
        "n": spec.n,
        "ell": spec.ell,
        "tau": [spec.tau.real, spec.tau.imag],
        "zeros": [{"theta": p.theta, "re": p.z.real, "im": p.z.imag} for p in pts],
        "diagnostics": {k: _jsonable(v) for k, v in diag.items()},
    }
    _emit(payload, args.out)
    return 0


def _arc(cert) -> dict:
    """A green arc with the rule built at its midpoint: the tau angle,
    whether it passes, its worst exactness residual over its gate (None
    when no rule was built) and the condition that refused it."""
    ratio = None if math.isnan(cert.resid_ratio) else cert.resid_ratio
    return {
        "start": cert.start,
        "end": cert.end,
        "start_over_pi": cert.start / math.pi,
        "end_over_pi": cert.end / math.pi,
        "certificate": {"tau_theta": cert.theta, "passes": cert.passes,
                        "resid_ratio": ratio, "condition": cert.condition},
    }


def cmd_scan_tau(args) -> int:
    measure = parse_measure_flag(args.measure)
    nodes = [UnitPoint.from_theta(parse_angle(t)) for t in args.prescribe or []]
    scan = scan_tau(measure, args.n, args.ell, nodes, grid_size=args.grid)
    payload = {
        "grid": args.grid,
        "counts": dict(Counter(scan.labels)),
        "green_arcs": [_arc(c) for c in scan.certificates if c.passes],
        # green by Schur-Cohn, but the rule at the midpoint was refused
        "dropped_arcs": [_arc(c) for c in scan.certificates if not c.passes],
    }
    if args.classification_csv:
        import csv as _csv

        with open(args.classification_csv, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["tau_theta", "classification"])
            for t, lab in zip(scan.thetas, scan.labels):
                w.writerow([repr(float(t)), lab])
    _emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.rule) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read rule file {args.rule}: {exc}") from exc
    measure = parse_measure_flag(args.measure)
    rule = rule_from_dict(data, measure)
    mu = moments(measure, max(2 * rule.m + 2, len(rule.nodes)))
    report = verify_exactness(rule, mu)
    _emit({"rule": args.rule, "report": report}, args.out)
    return 0 if report["passes"] else 2


def cmd_tau_for_omega(args) -> int:
    measure = parse_measure_flag(args.measure)
    nodes = [UnitPoint.from_theta(parse_angle(t)) for t in args.prescribe or []]
    _, deltas = moment_chain(measure, args.n, args.ell)
    omega = parse_unimodular(args.omega)
    taus, degenerate = tau_for_omega(deltas, args.n, args.ell, nodes, omega)
    payload = {
        "omega": [omega.real, omega.imag],
        "degenerate_all_tau": degenerate,
        "solutions": [
            {"re": t.real, "im": t.imag, "theta": math.atan2(t.imag, t.real)}
            for t in taus
        ],
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlequad",
        description="Szego-type quadrature on the unit circle with prescribed nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_tau=True):
        p.add_argument("--measure", required=True, help="lebesgue | rogers-szego:q=Q | arc-lebesgue:a=A,b=B | file:PATH")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--ell", type=int, default=0)
        p.add_argument("--prescribe", nargs="*", default=[], help="node angles (radians or pi:<rational>)")
        if with_tau:
            p.add_argument("--tau", default=None, help="angle or re,im on the unit circle")
        p.add_argument("--out", default=None)

    p_rule = sub.add_parser("rule", help="build a quadrature rule")
    common(p_rule)
    p_rule.add_argument("--format", choices=["json", "csv"], default="json")
    p_rule.set_defaults(func=cmd_rule)

    p_zeros = sub.add_parser("zeros", help="zeros of the nodal polynomial")
    common(p_zeros)
    p_zeros.set_defaults(func=cmd_zeros)

    p_scan = sub.add_parser("scan-tau", help="classify tau over a circle grid")
    common(p_scan, with_tau=False)
    p_scan.add_argument("--grid", type=int, default=4000)
    p_scan.add_argument("--classification-csv", default=None)
    p_scan.set_defaults(func=cmd_scan_tau)

    p_verify = sub.add_parser("verify", help="re-verify an exported rule")
    p_verify.add_argument("--rule", required=True)
    p_verify.add_argument("--measure", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_tfo = sub.add_parser("tau-for-omega", help="invariance parameters hitting a target omega")
    common(p_tfo, with_tau=False)
    p_tfo.add_argument("--omega", required=True)
    p_tfo.set_defaults(func=cmd_tau_for_omega)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Inadmissible as exc:
        print(json.dumps(_round_floats(exc.payload()), indent=2))
        return 2
    except CircleQuadError as exc:
        payload = exc.payload()
        if hasattr(exc, "diagnostics") and exc.diagnostics:
            payload["diagnostics"] = _jsonable(exc.diagnostics)
            print(json.dumps(_round_floats(payload), indent=2))
            return 2
        print(json.dumps(_round_floats(payload), indent=2))
        return 1
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"condition": "invalid-input", "message": str(exc)}))
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
