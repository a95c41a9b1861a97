"""Error types shared across the package.

Invalid scalar arguments raise plain ValueError; the classes below cover
failure modes that callers may want to handle individually.
"""


class MeshMismatchError(ValueError):
    """Operands live on incompatible meshes or mesh tags."""


class StencilRangeError(ValueError):
    """An operator stencil would reach outside the operand's mesh."""


class IncompleteTrajectoryError(ValueError):
    """A time-closure slice required by the operation is missing."""


class WeightOverflowError(FloatingPointError):
    """exp() argument of an exponential weight exceeds the float64 range."""

    def __init__(self, message: str, *, exponent: float):
        self.exponent = float(exponent)
        super().__init__(f"{message} (exp argument {self.exponent:.6g})")


class DegenerateOrderError(ValueError):
    """Residuals sit at rounding level; no convergence order is measurable."""


class SingularUpdateError(ValueError):
    """c*dt = 1 at some node, so the linearly implicit update is singular."""


class BlowUpError(FloatingPointError):
    """Non-finite value produced during time stepping."""

    def __init__(self, j: int, n: int, path: int = 0):
        self.j = int(j)
        self.n = int(n)
        self.path = int(path)
        super().__init__(
            f"non-finite value at space index j={self.j}, "
            f"time level n={self.n}, path {self.path}"
        )
