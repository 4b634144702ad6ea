"""Exception hierarchy shared across the package."""


class SocpruneError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(SocpruneError):
    """Array extents disagree with each other or with declared sizes."""


class DomainError(SocpruneError):
    """A numeric argument lies outside its mathematical domain."""


class ValidationError(SocpruneError):
    """A prediction tensor or label vector violates its invariants."""


class RowNotNormalized(ValidationError):
    """A probability row does not sum to 1 within tolerance."""

    def __init__(self, model: int, sample: int, row_sum: float):
        self.model = model
        self.sample = sample
        self.row_sum = row_sum
        super().__init__(
            f"probability row (model={model}, sample={sample}) sums to "
            f"{row_sum!r}, not 1"
        )


class OutOfRange(ValidationError):
    """A probability entry lies outside [0, 1]."""

    def __init__(self, model: int, sample: int, class_index: int, value: float):
        self.model = model
        self.sample = sample
        self.class_index = class_index
        self.value = value
        super().__init__(
            f"probability entry (model={model}, sample={sample}, "
            f"class={class_index}) = {value!r} is outside [0, 1]"
        )


class NotPositiveDefinite(SocpruneError):
    """A matrix required to be positive definite has a nonpositive pivot."""


class MalformedProgram(SocpruneError):
    """A cone program violates its structural invariants."""


class ParseError(SocpruneError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VersionMismatch(ParseError):
    """A file declares an unsupported format version."""


class IoError(SocpruneError):
    """A file could not be written or read at the OS level."""


class FitFailed(SocpruneError):
    """The cone solver did not reach an optimal solution."""

    def __init__(self, status: str):
        self.status = status
        super().__init__(f"weight fit failed: solver status {status!r}")


class AllCellsFailed(SocpruneError):
    """Every grid cell of a cross-validation sweep failed to fit."""


class EmptyEnsemble(SocpruneError):
    """An operation requiring ensemble members received none."""


class InvalidSpec(SocpruneError):
    """A synthetic-data specification is inconsistent."""
