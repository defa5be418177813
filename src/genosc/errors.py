"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


_INDEX_LIMIT = 2 ** 62   # bounds |m| and every Racah table index: int64 holds it, a float one exact


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """An iterative numerical procedure failed to converge or lost accuracy."""


class AccuracyError(NumericError):
    """A requested accuracy cannot be guaranteed (e.g. quadrature too small)."""


def _require_finite(value, message: str):
    """value; NumericError with message unless every entry of value is finite."""
    finite = np.isfinite(value)
    if np.count_nonzero(finite) < finite.size:   # a count, without a reduction's set-up
        raise NumericError(message)
    return value


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


def _require_member(value, members: type, what: str) -> None:
    """DomainError unless value is a member of the enum members (Kind.Prolate, not "prolate")."""
    if not isinstance(value, members):
        raise DomainError(f"unknown {what} {value!r}")


def _require_type(value, kind: type, what: str) -> None:
    """DomainError unless value is a kind (a SystemParams, not a MorseParams or None), read
    where the object is first used, never as the AttributeError of a missing field."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _level_index_message(n, name: str, value) -> str:
    """The refusal of an index past level n: "need 0 <= k <= n, got n=2, k=5"."""
    return f"need 0 <= {name} <= n, got n={n}, {name}={value}"


def check_level_index(n, k, name: str = "k") -> tuple[int, int]:
    """(n, k) as ints; DomainError unless level n and its index k (named name,
    e.g. p, q or q') are nonnegative integers with k <= n."""
    n, k = check_nonneg_int(n, "level n"), check_nonneg_int(k, name)
    if k > n:
        raise DomainError(_level_index_message(n, name, k))
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


def require_points(ok, message, value=None, entries: bool = False) -> None:
    """DomainError unless ok holds at every point.

    ok is a boolean scalar or array over points; message is a string, or a function of the
    first failing point's index tuple. value, when given, is an array of ok's shape (or a
    scalar) whose entry there is quoted. Over more than one point the error names that
    point, "at point i"; in an index array (entries=True) always, "at entry (i, ...)".
    """
    if ok is np.True_:   # a lone point's check that holds: no array needed
        return
    ok = np.asarray(ok)
    if ok.all() if ok.ndim else ok:   # a scalar's truth value costs less than .all()
        return
    idx = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    message = message(idx) if callable(message) else message
    if value is not None:
        message += f", got {np.asarray(value)[idx]}"
    if entries and idx:
        message += f" at entry {idx}"
    elif not entries and ok.size > 1:
        message += f" at point {idx[0] if len(idx) == 1 else idx}"
    raise DomainError(message)


def check_points(value, name: str) -> np.ndarray:
    """value as a float64 array, 0-d for a scalar; DomainError names its first entry that is
    not a real number (a string, None, a complex or any other object), or refuses a ragged
    sequence. inf, NaN and, as NaN, ints past a double pass to the caller's range rule."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            return arr.astype(np.float64, copy=False)
        arr = np.asarray(value, dtype=object)
    except ValueError as exc:
        raise DomainError(f"{name} must hold real numbers, got a ragged sequence") from exc
    require_points(np.array([isinstance(v, numbers.Real) for v in arr.flat]).reshape(arr.shape),
                   lambda i: f"{name} must hold real numbers, got {arr[i]!r}")
    return np.array([_as_float(v) for v in arr.flat]).reshape(arr.shape)


def check_indices(**named) -> np.ndarray:
    """The named indices as int64, index[k] the k-th broadcast to one shape (0-d in an
    all-scalar call). DomainError names the first index or entry that is not a nonnegative
    integer below _INDEX_LIMIT; scalars are read by check_nonneg_int before any array."""
    values = named.values()
    if all(type(v) is int for v in values) or not any(map(np.ndim, values)):
        index = []
        for name, v in named.items():
            index.append(check_nonneg_int(v, name))
            if index[-1] >= _INDEX_LIMIT:
                raise DomainError(f"{name} must be a nonnegative integer, got {index[-1]!r}")
        return np.array(index, dtype=np.int64)
    out = []
    for name, v in named.items():
        arr = np.asarray(v)
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be nonnegative integers, got dtype {arr.dtype}")
        require_points((arr >= 0) & (arr == np.floor(arr)) & (arr < _INDEX_LIMIT),
                       lambda i: f"{name} must be a nonnegative integer, got {arr.item(i)!r}",
                       entries=True)
        out.append(arr)
    return np.array(np.broadcast_arrays(*out), dtype=np.int64)


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
