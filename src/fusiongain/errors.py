"""Semantic exception hierarchy.

Every failure mode raised by this package derives from :class:`FusionGainError`,
so callers (and the CLI) can catch one base class and report the concrete
class name as a machine-readable error code.
"""

from __future__ import annotations

from contextlib import contextmanager


class FusionGainError(Exception):
    """Base class for all errors raised by fusiongain."""

    stage: str | None = None


class OutOfRange(FusionGainError, ValueError):
    """An argument lies outside its documented domain."""


class DegenerateDenominator(FusionGainError):
    """A ratio denominator is zero or negative."""


class TooFewObservations(FusionGainError):
    """The sample is too small for the requested operation."""


class SingularDesign(FusionGainError):
    """A least-squares Gram matrix failed the invertibility check."""


class ZeroDispersion(FusionGainError):
    """A bandwidth rule received a sample with no dispersion."""


class EmptyNeighborhood(FusionGainError):
    """All kernel weights underflowed to zero at the evaluation point."""


class DegenerateResidualVariance(FusionGainError):
    """Exact-fit data: the utility ratio for regression is 0/0."""


class IoError(FusionGainError):
    """An input file could not be read or written."""


class ParseError(FusionGainError):
    """A data file contained missing or non-numeric cells."""

    def __init__(self, message: str, locations: list[tuple[int, str]] | None = None):
        super().__init__(message)
        self.locations = locations or []


class EmptyData(FusionGainError):
    """A data file contained a header but no usable rows."""


class UsageError(FusionGainError):
    """Invalid command-line invocation."""


@contextmanager
def stage(name: str):
    """Annotate any FusionGainError escaping the block with the pipeline stage."""
    try:
        yield
    except FusionGainError as err:
        if err.stage is None:
            err.stage = name
            if err.args:
                err.args = (f"{name}: {err.args[0]}",) + err.args[1:]
            else:
                err.args = (name,)
        raise
