"""Exception types and the integer-count check shared across the package."""


class DataError(ValueError):
    """Malformed or inconsistent input data (files, event streams, bit streams)."""


class InsufficientDataError(DataError):
    """Input too short for the requested statistical procedure."""


class GuardError(RuntimeError):
    """A simulation or extraction cannot make progress (e.g. zero click probability)."""


def as_count(value, what: str, positive: bool = False) -> int:
    """``value`` as an int; ValueError unless it is a whole number >= 0, or >= 1 if ``positive``."""
    try:
        ok = value == int(value) and value >= int(positive)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)
