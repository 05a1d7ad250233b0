"""Global size budget for constructions that grow with their input.

Each construction charges a count of the work it does before or while
doing it (nodes of an orbit walk, letters of a read, terms of an
expansion, entries of a field table), so a typo'd degree or order fails
fast instead of allocating.
"""

import os

from .errors import ResourceError, ValidationError

_DEFAULT_BUDGET = 100_000


def _initial_budget() -> int:
    raw = os.environ.get("NCG_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"NCG_BUDGET is not an integer: {raw!r}") from exc
    if value <= 0:
        raise ValidationError("NCG_BUDGET must be positive")
    return value


# read from NCG_BUDGET on first use, so that a bad value is reported where
# the caller handles errors rather than at import
_BUDGET = None


def get_budget() -> int:
    global _BUDGET
    if _BUDGET is None:
        _BUDGET = _initial_budget()
    return _BUDGET


def set_budget(value: int) -> None:
    global _BUDGET
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValidationError("budget must be a positive integer")
    _BUDGET = value


def check_budget(required: int, what: str) -> None:
    """Raise ResourceError when ``required``, a count of ``what``, exceeds
    the budget."""
    budget = get_budget()
    if required > budget:
        # Python will not print an int of more than 4300 digits
        shown = required if required.bit_length() <= 64 else "over 2^64"
        raise ResourceError(f"{what}: {shown}, budget is {budget}",
                            required=required, budget=budget)
