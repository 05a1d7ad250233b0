"""Global size budget for tensor-space constructions.

The ambient dimension of a degree-n tensor space over an amplified
multi-matrix algebra grows like (sum of squared block sizes)^(n+1); the
budget caps it so a typo'd degree fails fast instead of allocating.
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
    if not isinstance(value, int) or value <= 0:
        raise ValidationError("budget must be a positive integer")
    _BUDGET = value


def check_budget(required: int, what: str) -> None:
    budget = get_budget()
    if required > budget:
        raise ResourceError(
            f"{what} needs ambient dimension {required}, budget is {budget}",
            required=required, budget=budget)
