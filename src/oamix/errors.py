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


# the most characters of a refused value that an argument message shows
_SHOWN_CHARS = 60
# the most digits of a size that a limit message shows: Python's default
# limit on int-to-text conversion
_SIZE_DIGITS = 4300
# log10(2), to count an int's decimal digits from its bit length
_LOG10_2 = 0.30102999566398120
# the most digits `_digits` counts exactly: 10^k takes ~0.2 s at k = 10^6
_EXACT_DIGITS = 10**5


def _shown(value, most: int = _SHOWN_CHARS, text=repr) -> str:
    """`text(value)` (its repr by default) for an error message, in at most
    `most` characters, so that a message stays short whatever it is given.

    An int with more digits than `most` is shown by its digit count
    (`_digits`), worked out from its bit length: it is never converted to
    decimal text, which for more than 4300 digits Python refuses.  Other
    text longer than `most` is cut and ends in '...'; a value whose text
    cannot be made (a container holding such an int) is named by its
    type."""
    # an int of at most 3 * most bits has under 0.91 * most digits
    if isinstance(value, int) and abs(value).bit_length() > 3 * most:
        digits = _digits(value)
        if digits + (value < 0) > most:
            count = digits if digits <= _EXACT_DIGITS else f"over {_EXACT_DIGITS}"
            return f"{'a negative' if value < 0 else 'an'} integer of {count} digits"
    try:
        shown = text(value)
    except ValueError:
        return f"a {type(value).__name__} too long to show"
    return shown if len(shown) <= most else shown[: most - 3] + "..."


def _digits(value: int) -> int:
    """The decimal digits of an int (at least 1), or any count over
    `_EXACT_DIGITS` when it has more: 2^(b - 1) <= |value| < 2^b leaves
    d or d + 1 digits, d = floor(b log10 2), and |value| >= 10^d picks
    one."""
    n = abs(value)
    d = int(n.bit_length() * _LOG10_2)
    if d > _EXACT_DIGITS:
        return d
    return d + 1 if n >= 10**d else max(d, 1)


def _joined(values) -> str:
    """The values as comma-separated text, each as `str` makes it."""
    return ",".join(map(str, values))


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
    raise InvalidParameter(f"{name} must be an integer{bound}, got {_shown(value)}")


def _iterable(name: str, value):
    """An iterator over `value`, or InvalidParameter naming `name` when it
    cannot be iterated."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be iterable, got {_shown(value)}") from None


def located(where: str, exc: OamixError) -> OamixError:
    """`exc` with its message prefixed by `where` (``line 5``, ``run 3``),
    keeping its class; InconsistentPwo becomes InconsistentPwoRow."""
    cls = InconsistentPwoRow if isinstance(exc, InconsistentPwo) else type(exc)
    return cls(f"{where}: {exc}")
