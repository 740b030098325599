"""Exception hierarchy shared across the package.

Grouped by the CLI exit code they map to: config/usage errors (1),
data/format errors (2), numeric failures (3).
"""


class TinyClapError(Exception):
    """Base class for all package errors."""


# -- config / usage ----------------------------------------------------------

class InvalidConfig(TinyClapError):
    pass


class UnknownConnector(InvalidConfig):
    pass


class TooFewEvents(InvalidConfig):
    pass


class EmptyPool(InvalidConfig):
    pass


# -- data / format -----------------------------------------------------------

class DataError(TinyClapError):
    pass


class UnknownEvent(DataError):
    pass


class UnparsableSegment(DataError):
    pass


class NoConnector(DataError):
    pass


class FormatError(DataError):
    pass


class SequenceTooLong(DataError):
    pass


class EmptyInput(DataError):
    pass


class IoError(DataError):
    pass


# -- numerics ----------------------------------------------------------------

class NumericFailure(TinyClapError):
    pass


class ShapeError(NumericFailure):
    pass


class NumericError(NumericFailure):
    pass
