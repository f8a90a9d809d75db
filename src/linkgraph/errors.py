"""Exception types shared across the toolkit."""


class LinkGraphError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(LinkGraphError):
    """A data line in an edge-list input could not be parsed.

    Carries the 1-based line number so callers can point at the
    offending line.
    """

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class CacheFormatError(LinkGraphError):
    """A binary graph cache is corrupt, truncated, or from an unknown version."""


class UndefinedStatisticError(LinkGraphError):
    """A requested statistic has no defined value on this input.

    Typical causes: an edgeless graph (zero mean degree in a
    denominator) or an all-zero degree sequence.
    """


class PowerLawFitError(LinkGraphError):
    """A power-law fit could not be carried out on the given data."""


class FitConvergenceError(PowerLawFitError):
    """The exponent search failed to bracket or converge on a root."""


class GenerationError(LinkGraphError):
    """A synthetic-graph request is infeasible for the given parameters."""


class ProvenanceError(LinkGraphError):
    """Two objects that must describe the same graph do not match."""


def value_or_note(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), None)``, or ``(None, note)`` when the call
    raises :class:`UndefinedStatisticError` or :class:`PowerLawFitError`:
    the one place a statistic without a value becomes a note, never a zero.
    Any other exception propagates."""
    try:
        return fn(*args, **kwargs), None
    except (UndefinedStatisticError, PowerLawFitError) as exc:
        return None, str(exc)
