"""Positive Szego-type quadrature on the unit circle with prescribed nodes."""

from ._kernels import using_numba
from .config import TOL, Tolerances
from .errors import CircleQuadError
from .measures import ArcSpec, MeasureSpec, moment_chain, moments
from .opuc import (
    MomentSequence,
    SchurSequence,
    UnitPoint,
    UnitPoints,
    blaschke_eval,
    blaschke_solve,
    schur_cohn,
    schur_from_moments,
)
from .poly import ComplexPoly, from_zeros
from .prescribe import (
    PrescriptionResult,
    classical_arc,
    lobatto2,
    prescribe_2l,
    prescribe_2lp1,
    radau,
    TauPencil,
    radau_arc_admissible,
    tau_for_omega,
    tau_pencil,
    three_nodes,
)
from .qpopuc import (
    OrthogonalityParams,
    QpopucSpec,
    assemble,
    invariance_parameter,
    modified_schur,
    orthogonality_params,
    zeros_on_circle,
)
from .quadrature import (
    QuadRule,
    TauScan,
    build_rule,
    scan_tau,
    verify_exactness,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "CircleQuadError",
    "ComplexPoly",
    "from_zeros",
    "MomentSequence",
    "SchurSequence",
    "UnitPoint",
    "UnitPoints",
    "ArcSpec",
    "MeasureSpec",
    "moments",
    "moment_chain",
    "schur_from_moments",
    "blaschke_eval",
    "blaschke_solve",
    "schur_cohn",
    "QpopucSpec",
    "OrthogonalityParams",
    "assemble",
    "invariance_parameter",
    "orthogonality_params",
    "modified_schur",
    "zeros_on_circle",
    "PrescriptionResult",
    "radau",
    "radau_arc_admissible",
    "lobatto2",
    "three_nodes",
    "prescribe_2l",
    "prescribe_2lp1",
    "classical_arc",
    "tau_for_omega",
    "TauPencil",
    "tau_pencil",
    "QuadRule",
    "TauScan",
    "build_rule",
    "verify_exactness",
    "scan_tau",
    "using_numba",
]
