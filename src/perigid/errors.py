"""Exception hierarchy shared across the package."""


class PerigidError(Exception):
    """Base class for all library errors."""


class StructuralError(PerigidError):
    """Malformed input object: bad walk, singular basis, empty window, ..."""


class DomainError(PerigidError):
    """An operation was called outside its stated precondition."""


class BudgetError(PerigidError):
    """Input or an exhaustive routine exceeds a documented size budget."""


class GenericitySamplingError(PerigidError):
    """No direction sample gave a faithful realization; the message counts why each failed."""

    def __init__(self, message: str, seed: int, attempts: int):
        super().__init__(f"{message} (seed={seed}, attempts={attempts})")
        self.seed = seed
        self.attempts = attempts


class InternalConsistencyError(PerigidError):
    """Two independent decision routes disagreed; indicates a bug."""


class ParseError(StructuralError):
    """Positioned error while reading a colored-graph file."""

    def __init__(self, message: str, line: int, column: int | None = None):
        pos = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{pos}: {message}")
        self.line = line
        self.column = column


class MultiplicityWarning(UserWarning):
    """More parallel copies or loops than any sparse graph can use."""
