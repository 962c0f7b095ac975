"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
ShapeError -> 3, NumericError -> 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ValueError):
    """Problem with input data or derived corpora."""


class SchemaError(DataError):
    """Input header/schema does not match the declared feature schema."""


class RowError(DataError):
    """A data row could not be parsed. Carries the 1-based data row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyCorpusError(DataError):
    """Filtering removed every session."""


class SplitError(DataError):
    """Corpus too small to split."""


class DegenerateGraphError(DataError):
    """No session contains two distinct items; the graph has no edges."""


class ShapeError(ValueError):
    """Tensor operation received shape-incompatible inputs."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class NumericError(ArithmeticError):
    """A forward or backward pass produced NaN/Inf."""
