"""Exception types shared across the package."""


class RandPivotError(Exception):
    """Base class for all statistical and data errors raised by randpivot."""


class DegenerateWeights(RandPivotError):
    """Every weight equals m/n, so all weight-deviation functionals are zero.

    Pivots, ratio estimators and interval widths are undefined at this
    point (their denominators vanish).  Callers running replicated studies
    should redraw weights and count the event.
    """

    def __init__(self, message: str = "all weights equal m/n; pivot denominators vanish"):
        super().__init__(message)


class ZeroScale(RandPivotError):
    """A studentizing scale (sample s.d., sub-sample s.d., or F(1-F)) is zero."""


class MissingMu(RandPivotError):
    """A G-type pivot was requested without the hypothesized mean."""


class MissingF(RandPivotError):
    """An EDF pivot centered at F(x) was requested without F(x)."""


class TooFewObservations(RandPivotError):
    """Fewer than two observations; the sample variance carries no information."""


class HypothesisViolated(RandPivotError):
    """The error-bound hypothesis delta > (eps1/eps)^2 + p + eps2 fails."""


class EpsOutOfRange(RandPivotError):
    """The bound's epsilon parameter is outside its valid range."""


class NumericOverflow(RandPivotError, OverflowError):
    """A term of a computation overflows float64; the message names its inputs."""


class BadMoments(RandPivotError):
    """Supplied moments violate a moment inequality (e.g. mu4 < sigma2^2)."""


class BadParams(RandPivotError):
    """Distribution parameters are outside the family's domain."""


class DomainError(RandPivotError):
    """A sizing policy was evaluated outside its domain (e.g. log log n <= 0)."""


class DatasetTooSmall(RandPivotError):
    """The dataset has too few records for any of the asymptotics to apply."""


class DatasetFormatError(RandPivotError):
    """A binary dataset file has a bad magic, version, or size."""


class ParseError(RandPivotError):
    """A CSV cell failed to parse as a real number."""

    def __init__(self, row: int, content: str):
        super().__init__(f"row {row}: cannot parse {content!r} as a real number")
        self.row = row
        self.content = content


class MissingColumn(ParseError):
    """The header row has no column of the requested name."""

    def __init__(self, row: int, name: str):
        super().__init__(row, f"no column named {name!r}")

    def __str__(self) -> str:
        return f"row {self.row}: {self.content}"


class NonFiniteValue(RandPivotError):
    """A CSV cell, a dataset record or a sample value is NaN or infinite.

    ``row`` is the 0-based CSV row, record index or sample position.
    """

    def __init__(self, row: int, content: str):
        super().__init__(f"row {row}: non-finite value {content!r}")
        self.row = row
        self.content = content
