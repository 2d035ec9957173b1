"""Exception hierarchy shared by all spurmin modules, and the integer and
real-number argument checks that raise it."""

from __future__ import annotations

import numbers
import operator

import numpy as np


class SpurminError(Exception):
    """Base class for all package errors."""


class PreconditionViolated(SpurminError):
    """An operation was called on input that breaks its stated preconditions."""


class ShapeViolation(PreconditionViolated):
    """Matrix or vector shapes are inconsistent with the declared dimensions."""


class WidthViolation(PreconditionViolated):
    """Layer widths do not satisfy the width requirements of a construction."""


class InvalidLabels(PreconditionViolated):
    """Cross-entropy loss was given label columns that are not one-hot."""


class NoAdmissibleTurningPoint(SpurminError):
    """Every breakpoint of the activation has adjacent slopes summing to zero
    (or the activation is linear), so the standard construction routes do not
    apply; callers should fall back to the balanced-slope route."""


class AllRowsZero(SpurminError):
    """The linear baseline fits the data exactly, so no nonzero residual row
    exists to seed a descent construction."""


class NonConvergence(SpurminError):
    """An iterative fit did not reach its gradient tolerance within budget."""


class SizingFailed(SpurminError):
    """The halving search for the descent constants exhausted its budget."""


class StrictDecreaseNotAchieved(SpurminError):
    """A descent witness could not be made strictly better than the baseline
    within the halving budget (numerically degenerate input)."""


class ConstructionError(SpurminError):
    """A construction violated one of its own postconditions (internal check)."""


class BoundaryCell(SpurminError):
    """A cell operation was asked to run on a point sitting on a cell boundary."""


class NotEquivalent(SpurminError):
    """Valley-path endpoints are not in the same rescaling equivalence class."""


class GenerationFailed(SpurminError):
    """A random dataset generator failed to satisfy its constraints after retries."""


class NonFiniteOutput(SpurminError):
    """A value bound for JSON output is NaN or infinite, which JSON cannot
    represent."""


class ParseError(SpurminError):
    """A data or network file could not be parsed (maps to the io exit code)."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int, for a count or a seed.

    A bool, a float, a string, a 0-d float array or anything else that
    operator.index refuses raises PreconditionViolated rather than being
    truncated or coerced, and so does an integer below minimum.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise PreconditionViolated(f"{name} must be an integer, not {value!r}") from None
    if minimum is not None and value < minimum:
        raise PreconditionViolated(f"{name} must be at least {minimum}, not {value}")
    return value


def check_real(name: str, value) -> float:
    """value as a float, for the probe's radius or a fit's tolerance or
    parameter cap.

    A bool, or anything that is not a numbers.Real (a string, None, an
    array, a complex or a Decimal), raises PreconditionViolated.  An integer
    or fraction beyond the float range reads as an infinity of its sign, for
    the caller's range check to refuse.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PreconditionViolated(f"{name} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf
