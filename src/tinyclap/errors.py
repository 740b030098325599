"""Exception hierarchy shared across the package: one class per CLI exit code.

InvalidConfig is a config or usage error (exit 1), DataError a data error
(exit 2), of which FormatError is a malformed file, and NumericFailure a
numeric failure (exit 3). A failure's kind is in its message.
"""


class TinyClapError(Exception):
    """Base class for all package errors."""


class InvalidConfig(TinyClapError):
    pass


class DataError(TinyClapError):
    pass


class FormatError(DataError):
    pass


class NumericFailure(TinyClapError):
    pass
