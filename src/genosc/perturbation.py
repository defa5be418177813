"""Perturbation series for the spheroidal separation constant in omega R^2.

Both regimes reduce to the same order-by-order recursion, which one builder
(_series) sets up: an unperturbed diagonal plus a tridiagonal coupling read
off the interbasis operator bands. Small R expands around the spherical
constants A_k in powers of omega R^2, large R around the half z-energies in
inverse powers.  The eigenvector tables keep component k pinned
(T_kk^{(j)} = delta_{j0}), so the series vector is not unit-normalized.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NumericError, check_level_index, check_nonneg_int,
                     check_positive)
from .interbasis import _m_bands, _n_bands
from .model import SystemParams, Branch, _a_q, _e_z, _exponents, require_label_m

_RESONANCE_TOL = 1e-12
# Series orders above this are refused before any table is built.  The large-R
# series is asymptotic: its coefficients overflow a double from order ~230 at
# n = 1 down to ~140 at n = 12 and ~80 at n = 100, and over 40 systems with
# n <= 12 no order past 128 came closer to the exact value than order 128 did.
SERIES_MAX_ORDER = 128


class Regime(enum.Enum):
    SmallR = "small"
    LargeR = "large"


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated expansion of one separation-constant branch lambda_k(R)."""

    regime: Regime
    n: int
    k: int
    order: int
    leading: float
    omega: float
    lambda_coeffs: tuple[float, ...]
    vector_coeffs: np.ndarray

    def _evaluate(self, R: float, exponents, combine):
        """combine(omega R^2, its powers at the exponents (negated for large R));
        NumericError naming the regime when a power, or what combine forms from
        them, leaves double range."""
        R = check_positive(R, "R")
        try:
            x = R ** 2 * self.omega
        except OverflowError:   # R^2 past a double
            x = math.inf
        sign = 1 if self.regime is Regime.SmallR else -1
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = combine(x, [x ** (sign * j) for j in exponents])
        except (OverflowError, ZeroDivisionError):   # ZeroDivisionError: 0.0 ** -j or 1 / 0.0
            out = math.inf
        if not np.isfinite(out).all():
            raise NumericError(f"the {self.regime.value}-R series overflows at R={R:g} "
                               f"(omega R^2 = {x:g})")
        return out

    def eigenvalue(self, R: float) -> float:
        """Series value at interfocus half-distance parameter R."""
        small = self.regime is Regime.SmallR

        def value(x, powers):
            products = [c * p for c, p in zip(self.lambda_coeffs, powers)]
            if not all(map(math.isfinite, products)):   # fsum refuses +inf beside -inf
                return math.inf
            return (self.leading if small else x * self.leading) + math.fsum(products)
        return self._evaluate(R, range(1, self.order + 1) if small else range(self.order), value)

    def vector(self, R: float) -> np.ndarray:
        """Series eigenvector at R, normalized to component k = 1."""
        return self._evaluate(R, range(self.order + 1),
                              lambda _, powers: np.array(powers) @ self.vector_coeffs)


def _check_order(order: int) -> int:
    order = check_nonneg_int(order, "series order")
    if not 1 <= order <= SERIES_MAX_ORDER:
        raise DomainError(f"series order must lie in 1..{SERIES_MAX_ORDER}, got {order}")
    return order


def _at_order(regime: Regime, j: int) -> str:
    """The series term a refusal names, "the small-R series at order 3"."""
    return f"the {regime.value}-R series at order {j}"


def _column_sums(block: np.ndarray, regime: Regime, j: int) -> list[float]:
    """Exactly rounded sum of each column of a block of finite products, of the
    regime's series at order j.

    A sum of finite products is finite or raises OverflowError, and math.fsum
    never makes a finite sum of an infinite or NaN term, so the block itself is
    looked at only when a sum fails: a non-finite product is reported before an
    overflowed sum, wherever in the block either sits."""
    try:
        sums = list(map(math.fsum, block.T.tolist()))
        if all(map(math.isfinite, sums)):
            return sums
    except (OverflowError, ValueError):   # ValueError: fsum of +inf beside -inf
        pass
    if not np.isfinite(block).all():
        raise NumericError(f"non-finite product in {_at_order(regime, j)}")
    raise NumericError(f"sum overflows in {_at_order(regime, j)}")


def _recursion_tables(diag: np.ndarray, off: np.ndarray, denom: list[float], k: int,
                      order: int, regime: Regime) -> tuple[tuple[float, ...], np.ndarray]:
    # The coupling is the symmetric tridiagonal matrix with bands diag/off, so
    # component q of coupling @ (previous row) has at most three nonzero
    # products.  Component k stays pinned at every order, so lambda^{(j)} is
    # its k-th component.  math.fsum is exactly rounded and skips zero terms,
    # so every coefficient is the correctly rounded sum of its products,
    # whatever the summation order.  Each table row carries a zero on either
    # side, so the previous row's three shifts are one strided window and its
    # band products one multiply.  The new row is formed in Python floats, the
    # same IEEE operations numpy would do.
    size = len(denom)
    denom = list(denom)
    resonant = [q for q, d in enumerate(denom) if q != k and abs(d) < _RESONANCE_TOL]
    if resonant:
        raise NumericError(f"resonant denominator at order 1, component {resonant[0]}")
    denom[k] = 1.0
    bands = np.zeros((3, size))   # bands[:, q] couples q to q-1, q, q+1
    bands[0, 1:] = off
    bands[1] = diag
    bands[2, :-1] = off
    if not np.isfinite(bands).all():
        raise NumericError(f"non-finite coupling in the {regime.value}-R series")
    padded = np.zeros((order + 1, size + 2))
    padded[0, k + 1] = 1.0
    table = padded[:, 1:-1]
    # shifted[j, i] = padded[j, i:i + size]: row j shifted right, as is and left
    shifted = np.ndarray((order + 1, 3, size), buffer=padded,
                         strides=(padded.strides[0], padded.itemsize, padded.itemsize))
    reversed_lams = np.zeros((order, 1))   # lambda^{(j)} at row order - j
    terms = np.empty((3, size))
    shift_terms = np.empty((order - 1, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, order + 1):
            w = _column_sums(np.multiply(bands, shifted[j - 1], out=terms), regime, j)
            # sum_{t=1}^{j-1} lambda^{(j-t)} T[t, q], one column per q
            shift = _column_sums(np.multiply(reversed_lams[order + 1 - j:], table[1:j],
                                             out=shift_terms[:j - 1]), regime, j)
            row = [(wq - sq) / dq for wq, sq, dq in zip(w, shift, denom)]
            row[k] = 0.0
            if not all(map(math.isfinite, row)):
                raise NumericError(f"non-finite table entry in {_at_order(regime, j)}")
            table[j] = row
            reversed_lams[order - j] = w[k]
    table = np.ascontiguousarray(table)
    table.flags.writeable = False
    return tuple(reversed_lams[::-1, 0].tolist()), table


def _series(regime: Regime, n: int, k: int, params: SystemParams, branch: Branch,
            order: int) -> SeriesExpansion:
    """Either regime's expansion: the operator bands (N / (2 omega) about the spherical
    constants, 2 M about the half z-energies), the unperturbed diagonal's denominators
    and the leading term, fed to one recursion. The bands come first, so that a level
    whose operator table cannot exist is refused before any O(n) array."""
    n, k = check_level_index(n, k)
    order = _check_order(order)
    beta, c = _exponents(params, branch)
    if regime is Regime.SmallR:
        diag, off = _n_bands(n, params, branch)
        gamma = c + beta
        diag, off = diag / (2.0 * params.omega), off / (2.0 * params.omega)
        denom = [4.0 * (k - q) * (k + q + gamma + 1.0) for q in range(n + 1)]
        leading = _a_q(k, params, branch)
    else:
        diag, off = _m_bands(n, params, branch)
        diag, off = 2.0 * diag, 2.0 * off
        denom = [float(k - p) for p in range(n + 1)]
        leading = _e_z(k, params, branch) / (2.0 * params.omega)
    lams, table = _recursion_tables(diag, off, denom, k, order, regime)
    return SeriesExpansion(regime, n, k, order, leading, params.omega, lams, table)


def small_r_series(n: int, k: int, params: SystemParams, branch: Branch,
                   order: int = 6) -> SeriesExpansion:
    """Expand lambda_k(R) = A_k + sum_j lambda^{(j)} (omega R^2)^j."""
    return _series(Regime.SmallR, n, k, params, branch, order)


def large_r_series(n: int, k: int, params: SystemParams, branch: Branch,
                   order: int = 6) -> SeriesExpansion:
    """Expand lambda_k(R)/(omega R^2) = E_z(k)/(2 omega) + sum_j lambda^{(j)} (omega R^2)^{-j}."""
    return _series(Regime.LargeR, n, k, params, branch, order)


def wavefunction_correction(n: int, k: int, m: int, params: SystemParams,
                            branch: Branch, R: float,
                            regime: Regime) -> tuple[float, float, float]:
    """First-order mixing amplitudes for the neighbour states.

    Returns coefficients (c_minus, c_center, c_plus) multiplying the exact
    R = 0 or R = infinity wavefunctions with channel indices k-1, k, k+1;
    c_center is exactly 1 in this normalization and the edge terms vanish
    at k = 0 and k = n.
    """
    require_label_m(m, params)
    if not isinstance(regime, Regime):
        raise DomainError(f"regime must be a Regime member, got {regime!r}")
    series = _series(regime, n, k, params, branch, 1)
    first = series.vector_coeffs[1]

    def amplitudes(x, _):
        scale = x if regime is Regime.SmallR else 1.0 / x
        lo = scale * first[k - 1] if k > 0 else 0.0
        hi = scale * first[k + 1] if k < n else 0.0
        return lo, 1.0, hi
    return series._evaluate(R, (), amplitudes)
