"""Built-in measures on the unit circle and moment-file ingestion.

Variants: normalized Lebesgue, Rogers-Szego with parameter q in (0,1)
(mu_k = q**(k**2/2)), Lebesgue restricted to an arc (normalized to
mu_0 = 1), and externally supplied moment tables. Also the
endpoint-modified measure obtained by multiplying d(mu) by
sqrt(conj(ab)) (z - a)(z - b) conj(z), which vanishes at the two arc
endpoints a and b.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FileFormatError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from .opuc import TWO_PI, MomentSequence, SchurSequence, UnitPoint, schur_from_moments


@dataclass(frozen=True)
class ArcSpec:
    """Closed oriented arc from a counterclockwise to b."""

    a: UnitPoint
    b: UnitPoint

    def __post_init__(self):
        # one point up to the rounding of e^{i theta}; TOL.node_distinct
        # (1e-12) is the gap between prescribed nodes, not an arc length
        if abs(self.a.z - self.b.z) < 1e-14:
            raise InvalidParameterError("arc endpoints must be distinct")

    @property
    def span(self) -> float:
        """Angular length in (0, 2*pi)."""
        return (self.b.theta - self.a.theta) % TWO_PI or TWO_PI

    def contains(self, z: complex, closed: bool = True, tol: float = 0.0) -> bool:
        """Membership of a circle point, counterclockwise from a to b."""
        t = (cmath.phase(z) - self.a.theta) % TWO_PI
        if closed:
            return t <= self.span + tol or t >= TWO_PI - tol
        return tol < t < self.span - tol


def arc_between(x: complex, y: complex):
    """Angular offsets helper: t -> position of t counterclockwise from x."""
    base = cmath.phase(x)
    span = (cmath.phase(y) - base) % TWO_PI
    return base, span


def in_open_arc(t: complex, x: complex, y: complex, tol: float = 0.0) -> bool:
    """Is t strictly inside the counterclockwise open arc (x, y)?"""
    base, span = arc_between(x, y)
    pos = (cmath.phase(t) - base) % TWO_PI
    return tol < pos < span - tol


def same_orientation(triple_a, triple_b) -> bool:
    """Do two ordered triples of circle points wind the same way?

    A triple (x, y, z) is counterclockwise when y lies on the
    counterclockwise arc from x to z.
    """

    def ccw(x, y, z):
        base = cmath.phase(x)
        return ((cmath.phase(y) - base) % TWO_PI) < (
            (cmath.phase(z) - base) % TWO_PI
        )

    return ccw(*triple_a) == ccw(*triple_b)


@dataclass(frozen=True)
class MeasureSpec:
    """Description of a measure: which family plus its parameters."""

    variant: str  # lebesgue | rogers_szego | arc_lebesgue | moment_file
    q: float | None = None
    theta_a: float | None = None
    theta_b: float | None = None
    path: str | None = None

    def __post_init__(self):
        v = self.variant
        if v == "rogers_szego":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise InvalidParameterError("rogers_szego requires 0 < q < 1")
        elif v == "arc_lebesgue":
            if self.theta_a is None or self.theta_b is None:
                raise InvalidParameterError("arc_lebesgue requires theta_a, theta_b")
            if not (self.theta_a < self.theta_b < self.theta_a + TWO_PI):
                raise InvalidParameterError(
                    "arc_lebesgue requires theta_a < theta_b < theta_a + 2*pi"
                )
        elif v == "moment_file":
            if not self.path:
                raise InvalidParameterError("moment_file requires a path")
        elif v != "lebesgue":
            raise InvalidParameterError(f"unknown measure variant {v!r}")

    @property
    def support_arc(self) -> ArcSpec | None:
        if self.variant == "arc_lebesgue":
            return ArcSpec(
                UnitPoint.from_theta(self.theta_a), UnitPoint.from_theta(self.theta_b)
            )
        return None

    def label(self) -> str:
        if self.variant == "rogers_szego":
            return f"rogers-szego:q={self.q}"
        if self.variant == "arc_lebesgue":
            return f"arc-lebesgue:a={self.theta_a},b={self.theta_b}"
        if self.variant == "moment_file":
            return f"file:{self.path}"
        return "lebesgue"


LEBESGUE = MeasureSpec("lebesgue")


def moments(spec: MeasureSpec, order: int) -> MomentSequence:
    """Trigonometric moments mu_0..mu_order of the specified measure."""
    if order < 0:
        raise InvalidParameterError("moment order must be >= 0")
    if spec.variant == "lebesgue":
        mu = np.zeros(order + 1, dtype=complex)
        mu[0] = 1.0
        return MomentSequence(mu)
    if spec.variant == "rogers_szego":
        k = np.arange(order + 1, dtype=float)
        return MomentSequence(spec.q ** (k * k / 2.0) + 0.0j)
    if spec.variant == "arc_lebesgue":
        ta, tb = spec.theta_a, spec.theta_b
        k = np.arange(1, order + 1, dtype=float)
        mu = np.empty(order + 1, dtype=complex)
        mu[0] = 1.0
        if order >= 1:
            mu[1:] = (np.exp(1j * k * tb) - np.exp(1j * k * ta)) / (1j * k * (tb - ta))
        return MomentSequence(mu)
    return load_moments(spec.path, max_order=order)


def moment_chain(spec: MeasureSpec, n: int, ell: int) -> tuple[MomentSequence, SchurSequence]:
    """(mu_0..mu_N, delta_1..delta_{n-ell}) for an (n, ell) rule, with
    N = max(2m + 2, n - ell) and m = n - ell - 1."""
    mu = moments(spec, max(2 * (n - ell - 1) + 2, n - ell))
    return mu, schur_from_moments(mu, n - ell)


def modified_hat_moments(
    mu: MomentSequence, a: UnitPoint, b: UnitPoint, order: int
) -> MomentSequence:
    """Moments of the endpoint-vanishing modified measure.

    mu_hat_k = s [mu_{k+1} - (a + b) mu_k + a b mu_{k-1}], where s is
    the square root of conj(a b) whose branch makes mu_hat_0 real and
    positive.
    """
    if mu.order < order + 1:
        raise InvalidParameterError(
            f"need base moments to order {order + 1}, have {mu.order}"
        )
    az, bz = a.z, b.z
    base = mu.array(-1, order + 1)
    raw = base[2:] - (az + bz) * base[1:-1] + az * bz * base[:-2]
    s = cmath.sqrt(np.conj(az * bz))
    for branch in (s, -s):
        h0 = branch * raw[0]
        # the wrong branch gives a negative mu_hat_0; the right one is real
        # up to the cancellation in the three-term combination
        if h0.real > 0 and abs(h0.imag) <= 1e-10 * abs(h0.real):
            return MomentSequence(branch * raw)
    raise NotPositiveDefiniteError(
        "no square-root branch makes the modified moment mu_hat_0 real positive; "
        "the endpoints do not match the support of the measure"
    )


def load_moments(path, max_order: int | None = None) -> MomentSequence:
    """Read a JSON array of [re, im] pairs; index k holds mu_k."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read moment file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise FileFormatError("moment file must be a non-empty JSON array")
    mu = np.empty(len(data), dtype=complex)
    for k, item in enumerate(data):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, (int, float)) for x in item)
        ):
            raise FileFormatError(f"entry {k} is not a [re, im] pair")
        mu[k] = complex(item[0], item[1])
    if mu[0].imag != 0 or mu[0].real <= 0:
        raise FileFormatError("mu_0 must be real and positive")
    if max_order is not None:
        if len(mu) <= max_order:
            raise FileFormatError(
                f"moment file holds order {len(mu) - 1}, need {max_order}"
            )
        mu = mu[: max_order + 1]
    return MomentSequence(mu)


def save_moments(mu: MomentSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump([[z.real, z.imag] for z in mu.mu], fh)


def parse_measure_flag(text: str) -> MeasureSpec:
    """Parse the CLI --measure flag.

    Accepted forms: ``lebesgue``, ``rogers-szego:q=<float>``,
    ``arc-lebesgue:a=<rad>,b=<rad>``, ``file:<path>``.
    """
    if text == "lebesgue":
        return LEBESGUE
    if text.startswith("rogers-szego:"):
        body = text[len("rogers-szego:") :]
        if not body.startswith("q="):
            raise InvalidParameterError(f"bad rogers-szego spec {text!r}")
        return MeasureSpec("rogers_szego", q=float(body[2:]))
    if text.startswith("arc-lebesgue:"):
        body = text[len("arc-lebesgue:") :]
        parts = dict(kv.split("=", 1) for kv in body.split(",") if "=" in kv)
        if set(parts) != {"a", "b"}:
            raise InvalidParameterError(f"bad arc-lebesgue spec {text!r}")
        return MeasureSpec(
            "arc_lebesgue", theta_a=float(parts["a"]), theta_b=float(parts["b"])
        )
    if text.startswith("file:"):
        return MeasureSpec("moment_file", path=text[len("file:") :])
    raise InvalidParameterError(f"unknown measure {text!r}")
