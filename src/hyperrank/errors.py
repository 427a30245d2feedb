"""Exception hierarchy for the package."""

from __future__ import annotations


class HyperrankError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(HyperrankError):
    """A hypergraph (or a document describing one) violates its invariants."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class IngestError(HyperrankError):
    """Parse-level failure; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message += f" (line {line}, column {column})"
        elif line is not None:
            message += f" (line {line})"
        elif column is not None:
            message += f" (column {column})"
        super().__init__(message)


class ReactionSyntaxError(IngestError):
    pass


class BadWeightError(IngestError):
    pass


class SchemaError(IngestError):
    """Canonical JSON document does not match the expected schema."""


class TailHeadOverlapError(IngestError):
    """A reaction mentions the same species on both sides."""

    def __init__(self, record_id: str, species):
        self.record_id = record_id
        self.species = tuple(species)
        super().__init__(
            f"reaction {record_id}: species on both sides: {', '.join(self.species)}")


class DanglingVertexError(HyperrankError):
    """Some vertex has tail degree zero, so the walk cannot leave it."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        first = self.vertices[0] if self.vertices else "?"
        more = f" (+{len(self.vertices) - 1} more)" if len(self.vertices) > 1 else ""
        super().__init__(f"dangling vertex {first!r}: tail degree is zero{more}")


class NoConvergenceError(HyperrankError):
    """Power iteration hit the iteration cap; carries the last iterate."""

    def __init__(self, residual: float, iterations: int, vertices, iterate):
        self.residual = float(residual)
        self.iterations = int(iterations)
        self.vertices = tuple(vertices)
        self.iterate = iterate
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(final L1 change {self.residual:.3e})"
        )


class MultipleSolutionsError(HyperrankError):
    """The chain has more than one stationary distribution."""

    def __init__(self, solution_space_rank: int):
        self.solution_space_rank = int(solution_space_rank)
        super().__init__(
            "stationary distribution is not unique "
            f"(solution space has dimension {solution_space_rank})"
        )


class DenseLimitExceededError(HyperrankError):
    def __init__(self, size: int, limit: int):
        self.size = int(size)
        self.limit = int(limit)
        super().__init__(f"dense solve limited to {limit} vertices, got {size}")


class NonpositivePiError(HyperrankError):
    """diag(pi)^(-1/2) needs strictly positive rank values."""

    def __init__(self, vertex: str):
        self.vertex = vertex
        super().__init__(f"rank value for vertex {vertex!r} is not strictly positive")


class NotStationaryError(HyperrankError):
    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            "rank vector is not stationary for this transition matrix "
            f"(L1 residual {self.residual:.3e} > {self.tolerance:.1e})"
        )
