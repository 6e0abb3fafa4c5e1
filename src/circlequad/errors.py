"""Error taxonomy.

Each exception carries a machine-readable ``condition`` string which the
CLI mirrors into its JSON error output.
"""


class CircleQuadError(Exception):
    condition = "error"

    def payload(self):
        return {"condition": self.condition, "message": str(self)}


class DegreeError(CircleQuadError):
    condition = "degree-error"


class InvalidParameterError(CircleQuadError):
    condition = "invalid-parameter"


class NotPositiveDefiniteError(CircleQuadError):
    condition = "measure-not-positive-definite"


class MomentRangeError(CircleQuadError):
    condition = "insufficient-moments"


class DomainError(CircleQuadError):
    condition = "domain-error"


class InternalConsistencyError(CircleQuadError):
    condition = "internal-consistency"


class BoundaryDegenerateError(CircleQuadError):
    condition = "boundary-degenerate"


class InvarianceError(CircleQuadError):
    condition = "not-invariant"


class NotRepresentableError(CircleQuadError):
    condition = "not-representable"


class NoSolutionError(CircleQuadError):
    condition = "no-solution"


class ConditionViolationError(CircleQuadError):
    condition = "condition-violation"


class NodesNotQuadratureError(CircleQuadError):
    condition = "nodes-not-quadrature"


class PositivityViolationError(CircleQuadError):
    condition = "positivity-violation"

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FileFormatError(CircleQuadError):
    condition = "file-format"
