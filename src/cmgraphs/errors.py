"""Exception hierarchy with stable machine-readable codes.

Codes surface in CLI error messages so scripts can match on them.  The CLI
maps InputError and SizeBudgetError, the one budget error, to exit code 2
and InternalMismatchError to 3; a failed mathematical condition is not an
exception at all, the CLI reports it and exits 1.
"""


class CmgraphsError(Exception):
    code = "E_GENERIC"

    def __init__(self, message):
        super().__init__(f"{self.code}: {message}")
        self.message = message


class InputError(CmgraphsError):
    """Bad user input (files, indices, malformed values).  CLI exit 2."""

    code = "E_INPUT"


class RangeError(InputError):
    code = "E_RANGE"


class IndexOrderError(InputError):
    """A generating pair (i, j) with i > j; relations must be index-monotone."""

    code = "E_INDEX_ORDER"


class LevelError(InputError):
    code = "E_LEVEL"


class ChainError(InputError):
    code = "E_CHAIN"


class DegreeError(InputError):
    """Generators are not all of the same degree."""

    code = "E_DEGREE"


class UnitIdealError(InputError):
    code = "E_UNIT"


class ParseError(InputError):
    code = "E_PARSE"


class PartsError(InputError):
    code = "E_PARTS"


class NotFaceError(InputError):
    code = "E_NOT_FACE"


class OverflowInputError(InputError):
    code = "E_OVERFLOW"


class SizeBudgetError(CmgraphsError):
    """Enumeration would exceed its size budget: the one budget error."""

    code = "E_SIZE"


class InternalMismatchError(CmgraphsError):
    """Two routes that must agree did not.  Always a bug.  CLI exit 3."""

    code = "E_INTERNAL"
