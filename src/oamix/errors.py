"""Exception types shared across the package.

Every contract violation raises a named subclass of OamixError so callers
(and the CLI) can report the failure kind without string matching.
"""

from numbers import Integral


class OamixError(Exception):
    """Base class for all library errors."""


class InvalidParameter(OamixError, ValueError):
    """An argument or CLI flag outside its domain (a count, a probability,
    a range or a policy name)."""


# point and design validation
class NegativeEntry(OamixError):
    pass


class SumNotOne(OamixError):
    pass


class WrongKind(OamixError):
    pass


# base-design generation and projection
class InvalidDimension(OamixError):
    pass


class DropAllColumns(OamixError):
    pass


# orderings and sign vectors
class OrderingSupportMismatch(OamixError):
    pass


class InconsistentPwo(OamixError):
    pass


class AlreadyExpanded(OamixError):
    pass


class EmptyLevels(OamixError):
    pass


class DuplicateLevel(OamixError):
    pass


class NonPositiveScale(OamixError):
    pass


# model specs and matrices
class UnsupportedReduction(OamixError):
    pass


class KindMismatch(OamixError):
    pass


class MissingPwo(OamixError):
    pass


class MissingAmount(OamixError):
    pass


# evaluation criteria
class SingularInformation(OamixError):
    pass


class ConstantColumn(OamixError):
    pass


class NoResidualDf(OamixError):
    pass


# design files
class MalformedHeader(OamixError):
    pass


class BadPwoValue(OamixError):
    pass


class RowLengthMismatch(OamixError):
    pass


class InconsistentPwoRow(InconsistentPwo):
    """Signs of one design row, located by file line or run number, that no
    addition order induces."""


class AmountMismatch(OamixError):
    pass


def _int_in_range(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int when it is an integer, not a bool, in [least, most];
    otherwise InvalidParameter naming `name`.  Without `least` only the type
    is checked, for a caller that names its own out-of-range error."""
    if not isinstance(value, bool) and isinstance(value, Integral):
        if least is None or (least <= value and (most is None or value <= most)):
            return int(value)
    if least is None:
        bound = ""
    elif most is None:
        bound = f" >= {least}"
    else:
        bound = f" from {least} to {most}"
    raise InvalidParameter(f"{name} must be an integer{bound}, got {value!r}")


def _iterable(name: str, value):
    """An iterator over `value`, or InvalidParameter naming `name` when it
    cannot be iterated."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be iterable, got {value!r}") from None


def located(where: str, exc: OamixError) -> OamixError:
    """`exc` with its message prefixed by `where` (``line 5``, ``run 3``),
    keeping its class; InconsistentPwo becomes InconsistentPwoRow."""
    cls = InconsistentPwoRow if isinstance(exc, InconsistentPwo) else type(exc)
    return cls(f"{where}: {exc}")
