"""Perturbation series for the spheroidal separation constant in omega R^2.

Both regimes reduce to the same order-by-order recursion: an unperturbed
diagonal plus a tridiagonal coupling read off the interbasis matrix tables.
Small R expands around the spherical constants A_k in powers of omega R^2,
large R around the half z-energies in inverse powers.  The eigenvector
tables keep component k pinned (T_kk^{(j)} = delta_{j0}), so the series
vector is not unit-normalized.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .interbasis import m_matrix_cyl, n_matrix_sph
from .model import (SystemParams, Branch, energy_cylindrical_parts,
                    require_admissible, separation_constant_A)

_RESONANCE_TOL = 1e-12


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

    def eigenvalue(self, R: float) -> float:
        """Series value at interfocus half-distance parameter R."""
        x = _check_r(R) ** 2 * self.omega
        if self.regime is Regime.SmallR:
            tail = math.fsum(c * x ** (j + 1)
                             for j, c in enumerate(self.lambda_coeffs))
            return self.leading + tail
        tail = math.fsum(c * x ** (-j)
                         for j, c in enumerate(self.lambda_coeffs))
        return x * self.leading + tail

    def vector(self, R: float) -> np.ndarray:
        """Series eigenvector at R, normalized to component k = 1."""
        x = _check_r(R) ** 2 * self.omega
        sign = 1 if self.regime is Regime.SmallR else -1
        powers = np.array([x ** (sign * j) for j in range(self.order + 1)])
        return powers @ self.vector_coeffs


def _check_r(R: float) -> float:
    R = float(R)
    if not math.isfinite(R) or R <= 0.0:
        raise DomainError(f"R must be positive and finite, got {R!r}")
    return R


def _check_indices(n: int, k: int) -> tuple[int, int]:
    if n != int(n) or n < 0:
        raise DomainError(f"level n must be a nonnegative integer, got {n!r}")
    if k != int(k) or not 0 <= k <= n:
        raise DomainError(f"channel index k must lie in 0..{n}, got {k!r}")
    return int(n), int(k)


def _check_order(order: int) -> int:
    if order != int(order) or order < 1:
        raise DomainError(f"series order must be a positive integer, got {order!r}")
    return int(order)


def _column_sums(block: np.ndarray, what: str) -> np.ndarray:
    """Exactly rounded sum of each column of a block of finite products."""
    if not np.isfinite(block).all():
        raise NumericError(f"non-finite product in {what}")
    try:
        return np.array([math.fsum(col) for col in block.T.tolist()])
    except OverflowError as exc:
        raise NumericError(f"sum overflows in {what}") from exc


def _recursion_tables(coupling: np.ndarray, denom: np.ndarray, k: int, order: int,
                      regime: Regime) -> tuple[tuple[float, ...], np.ndarray]:
    # The coupling is tridiagonal, so component q of coupling @ (previous row)
    # has at most three nonzero products.  Component k stays pinned at every
    # order, so lambda^{(j)} is its k-th component.  math.fsum is exactly
    # rounded and skips zero terms, so every coefficient is the correctly
    # rounded sum of its products, whatever the summation order.
    size = denom.size
    others = np.arange(size) != k
    resonant = np.flatnonzero(others & (np.abs(denom) < _RESONANCE_TOL))
    if resonant.size:
        raise NumericError(f"resonant denominator at order 1, component {resonant[0]}")
    denom = np.where(others, denom, 1.0)
    bands = np.zeros((3, size))   # bands[:, q] couples q to q-1, q, q+1
    bands[0, 1:] = np.diag(coupling, -1)
    bands[1] = np.diag(coupling)
    bands[2, :-1] = np.diag(coupling, 1)
    if not np.isfinite(bands).all():
        raise NumericError(f"non-finite coupling in the {regime.value}-R series")
    table = np.zeros((order + 1, size))
    table[0, k] = 1.0
    lams = np.zeros(order)
    terms = np.zeros((3, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, order + 1):
            what = f"the {regime.value}-R series at order {j}"
            prev = table[j - 1]
            np.multiply(bands[0, 1:], prev[:-1], out=terms[0, 1:])
            np.multiply(bands[1], prev, out=terms[1])
            np.multiply(bands[2, :-1], prev[1:], out=terms[2, :-1])
            w = _column_sums(terms, what)
            lams[j - 1] = w[k]
            # sum_{t=1}^{j-1} lambda^{(j-t)} T[t, q], one column per q
            shift = _column_sums(lams[:j - 1][::-1, None] * table[1:j], what)
            row = (w - shift) / denom
            row[k] = 0.0
            if not np.isfinite(row).all():
                raise NumericError(f"non-finite table entry in {what}")
            table[j] = row
    table.flags.writeable = False
    return tuple(lams.tolist()), table


def small_r_series(n: int, k: int, params: SystemParams, branch: Branch,
                   order: int = 6) -> SeriesExpansion:
    """Expand lambda_k(R) = A_k + sum_j lambda^{(j)} (omega R^2)^j."""
    n, k = _check_indices(n, k)
    order = _check_order(order)
    b, c, _ = require_admissible(params, branch)
    gamma = c + branch.sign * b
    q = np.arange(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = n_matrix_sph(n, params, branch) / (2.0 * params.omega)
        denom = 4.0 * (k - q) * (k + q + gamma + 1.0)
    lams, table = _recursion_tables(coupling, denom, k, order, Regime.SmallR)
    return SeriesExpansion(Regime.SmallR, n, k, order,
                           separation_constant_A(k, params, branch),
                           params.omega, lams, table)


def large_r_series(n: int, k: int, params: SystemParams, branch: Branch,
                   order: int = 6) -> SeriesExpansion:
    """Expand lambda_k(R)/(omega R^2) = E_z(k)/(2 omega) + sum_j lambda^{(j)} (omega R^2)^{-j}."""
    n, k = _check_indices(n, k)
    order = _check_order(order)
    require_admissible(params, branch)
    with np.errstate(over="ignore"):
        coupling = 2.0 * m_matrix_cyl(n, params, branch)
    lams, table = _recursion_tables(coupling, k - np.arange(n + 1.0), k, order,
                                    Regime.LargeR)
    e_z = energy_cylindrical_parts(0, k, params, branch)[1]
    return SeriesExpansion(Regime.LargeR, n, k, order,
                           e_z / (2.0 * params.omega),
                           params.omega, lams, table)


def wavefunction_correction(n: int, k: int, m: int, params: SystemParams,
                            branch: Branch, R: float,
                            regime: Regime) -> tuple[float, float, float]:
    """First-order mixing amplitudes for the neighbour states.

    Returns coefficients (c_minus, c_center, c_plus) multiplying the exact
    R = 0 or R = infinity wavefunctions with channel indices k-1, k, k+1;
    c_center is exactly 1 in this normalization and the edge terms vanish
    at k = 0 and k = n.
    """
    if m != params.m:
        raise DomainError(f"m mismatch: label has {m}, system has {params.m}")
    if not isinstance(regime, Regime):
        raise DomainError(f"regime must be a Regime member, got {regime!r}")
    x = _check_r(R) ** 2 * params.omega
    if regime is Regime.SmallR:
        series = small_r_series(n, k, params, branch, order=1)
        scale = x
    else:
        series = large_r_series(n, k, params, branch, order=1)
        scale = 1.0 / x
    first = series.vector_coeffs[1]
    lo = scale * first[k - 1] if k > 0 else 0.0
    hi = scale * first[k + 1] if k < n else 0.0
    return lo, 1.0, hi
