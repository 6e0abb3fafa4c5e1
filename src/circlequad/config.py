"""Centralized numerical tolerances.

The thresholds the library shares live here, so that the disk/circle
membership bands can be tightened or relaxed in one place. A threshold
that belongs to one computation alone stays in its module, with a
comment saying why no field here serves; ``tests/test_config.py`` checks
both.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # unit-circle membership for inputs (|z| - 1)
    on_circle: float = 1e-12
    # unit-modulus checks on values made inside the library: |z| - 1 and
    # |z - e^{i theta}| of a UnitPoint, |tau| - 1 of a QpopucSpec
    unit_point: float = 1e-13
    # Schur-Cohn refusal band around |s_k(0)| = 1 (on Q'/n in the scan: a
    # double zero of Q on the circle)
    disk_boundary_band: float = 1e-12
    # |leading coefficient - 1| accepted as monic
    monic: float = 1e-12
    # |F_n(z) - target| for accepted Blaschke roots
    root_residual: float = 1e-11
    # Newton polish of circle roots stops once every theta step is this small
    bisect_theta: float = 1e-14
    # minimum theta gap between distinct roots
    root_gap: float = 1e-10
    # pointwise check of the direct vs. Favard-route representation
    representation: float = 1e-10
    # moment-matching residual for weights, relative to mu_0
    weight_residual: float = 1e-9
    # |sum of weights - mu_0|, relative to mu_0
    weight_sum: float = 1e-10
    # coupled prescription solve: |conj block - conj(p)|, relative to 1 + max|p|
    coupling: float = 1e-10
    # nodal residual |Q(alpha_i)|, relative to max coefficient
    node_residual: float = 1e-9
    # 1-norm condition number above which linear systems are refused
    condition_limit: float = 1e12
    # degenerate (parallel-secant) detection in the 2-node solve
    lobatto_degenerate: float = 1e-12
    # |tau - tau_required| for the one tau a degenerate 2-node solve admits
    lobatto_tau: float = 1e-9
    # prescribed nodes closer than this count as coinciding
    node_distinct: float = 1e-12
    # Blaschke values f_i at the prescribed nodes closer than this coincide
    blaschke_distinct: float = 1e-12
    # order-collapse detection: |sigma| <= tol * (1 + |delta|)
    sigma_collapse: float = 1e-12


TOL = Tolerances()
