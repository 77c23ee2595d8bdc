"""Exception types shared across the package."""

from array import array

# Longest piece of user input an error message quotes
EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """repr of text, cut to its first EXCERPT_CHARS characters plus '...'."""
    if len(text) <= EXCERPT_CHARS:
        return repr(text)
    return repr(text[:EXCERPT_CHARS]) + "..."


def excerpt_repr(value) -> str:
    """repr of a value that is not text, such as an int, cut like excerpt."""
    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's limit on decimal digits
        return f"<int of {value.bit_length()} bits>"
    if len(text) <= EXCERPT_CHARS:
        return text
    return text[:EXCERPT_CHARS] + "..."


class ArithCorrError(Exception):
    """Base class for all errors raised by arithcorr."""


class PolynomialFormatError(ArithCorrError):
    """A polynomial string could not be parsed."""


class RangeFormatError(ArithCorrError):
    """A degree range string could not be parsed as A..B."""


class DegreeOutOfRange(ArithCorrError):
    """Field degree m outside the supported range."""


class DegreeMismatch(ArithCorrError):
    """Supplied modulus polynomial does not have degree m."""


class NotIrreducible(ArithCorrError):
    """Modulus polynomial factors over GF(2)."""


class NotPrimitive(ArithCorrError):
    """Modulus polynomial is irreducible but its root does not generate the multiplicative group."""


class TauOutOfRange(ArithCorrError):
    """Shift amount tau outside the valid range."""


def check_tau(tau: int, lo: int, n: int) -> None:
    """Raise TauOutOfRange unless tau is an int in lo..n-1."""
    if not isinstance(tau, int) or not lo <= tau <= n - 1:
        raise TauOutOfRange(f"tau={excerpt_repr(tau)} outside {lo}..{n - 1}")


def check_taus(taus, n: int):
    """taus checked like check_tau(tau, 1, n), once: a range by its ends, else as one array('q')."""
    if not isinstance(taus, range):
        try:
            taus = array("q", taus)
        except (TypeError, OverflowError):  # not an int, or past 64 bits
            raise TauOutOfRange(f"taus must be ints in 1..{n - 1}") from None
    if taus:
        for tau in (taus[0], taus[-1]) if isinstance(taus, range) else (min(taus), max(taus)):
            check_tau(tau, 1, n)
    return taus


class InvalidSequence(ArithCorrError, ValueError):
    """Bits or a pattern that do not form a binary sequence (also a ValueError)."""


class PatternTooLong(ArithCorrError):
    """Pattern longer than the sequence period."""


class ShiftEqualsSequence(ArithCorrError):
    """sigma(seq) equals sigma of the shifted sequence; correlation undefined."""


class EqualSequences(ArithCorrError):
    """Block decomposition requires two distinct sequences."""


class PeriodMismatch(ArithCorrError):
    """Two-row operations require equal periods."""


class LOutOfRange(ArithCorrError):
    """Interior-run length l outside the valid range."""


class NonIntegerCount(ArithCorrError):
    """A closed-form window count did not come out as an integer."""
