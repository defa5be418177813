"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """An iterative numerical procedure failed to converge or lost accuracy."""


class AccuracyError(NumericError):
    """A requested accuracy cannot be guaranteed (e.g. quadrature too small)."""


def check_nonneg_int(value, name: str) -> int:
    """value as an int; DomainError unless it is a finite nonnegative integer.

    Infinities, NaN and non-numbers are refused with the same error, never with
    the OverflowError or ValueError that int() raises on them.
    """
    if type(value) is int and value >= 0:   # the common case, without int()
        return value
    try:
        ok = value == int(value) and value >= 0
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _level_index_message(n, **indices) -> str:
    """The refusal of indices past level n: "need 0 <= k <= n, got n=2, k=5"."""
    got = "".join(f", {name}={value}" for name, value in indices.items())
    return f"need 0 <= {', '.join(indices)} <= n, got n={n}{got}"


def check_level_index(n, k, name: str = "k") -> tuple[int, int]:
    """(n, k) as ints; DomainError unless level n and its index k (named name,
    e.g. p, q or q') are nonnegative integers with k <= n."""
    n, k = check_nonneg_int(n, "level n"), check_nonneg_int(k, name)
    if k > n:
        raise DomainError(_level_index_message(n, **{name: k}))
    return n, k


def check_abs_int(value, name: str) -> int:
    """|value| as an int; DomainError unless value is a finite integer of either sign."""
    finite = isinstance(value, numbers.Real) and math.isfinite(value)
    return check_nonneg_int(abs(value) if finite else value, f"|{name}|")


def _as_float(value) -> float:
    """value as a float; NaN for a string, None or anything else float() refuses or
    cannot hold, so a check on the float refuses it, never with float()'s own errors."""
    try:
        return math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_positive(value, name: str) -> float:
    """value as a float; DomainError unless it is a finite positive number (strings, None
    and ints past a double too)."""
    if type(value) is float and 0.0 < value < math.inf:   # the common case, without float()
        return value
    x = _as_float(value)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def require_points(ok, message: str, value=None) -> None:
    """DomainError(message) unless ok holds at every point.

    ok is a boolean scalar or array over points. Over more than one point the
    error names the index of the first failing one; value, when given, is an
    array of ok's shape (or a scalar) whose entry at that point is quoted.
    """
    ok = np.asarray(ok)
    if ok.all() if ok.ndim else ok:   # a scalar's truth value costs less than .all()
        return
    idx = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    if value is not None:
        message += f", got {np.asarray(value)[idx]}"
    if ok.size > 1:
        message += f" at point {idx[0] if len(idx) == 1 else idx}"
    raise DomainError(message)


def _require_table(shape: tuple[int, ...], what: str, cell_bytes: int = 8) -> None:
    """NumericError unless numpy can allocate cell_bytes a cell for a table of this shape.

    The one refusal of tables too large to build, made before any O(n) work.
    numpy refuses a size it cannot map with MemoryError and one past its
    largest array with ValueError; the trial array is never written.
    """
    try:
        np.empty(shape + (cell_bytes // 8,))
    except (MemoryError, ValueError) as exc:
        raise NumericError(f"cannot tabulate the {what} of shape {shape} "
                           f"at {cell_bytes} B a cell: {exc}") from exc
