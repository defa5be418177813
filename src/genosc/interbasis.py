"""Continued Clebsch-Gordan coefficients and the cylindrical/spherical bridge.

The expansion coefficients W connecting the two eigenbases of one degenerate
level are SU(2) Clebsch-Gordan coefficients continued to real arguments.
Column q of W is the eigenvector of the tridiagonal operator 2 M (M from
m_matrix_cyl) for the closed-form eigenvalue A_q, so w_matrix builds it by
the two-sided three-term recursion of Schulten and Gordon (J. Math. Phys.
16, 1961 (1975)) in O(n^2) per table, stable at every level. The continued
Racah sum (w_coefficient, ring_w) is the closed-form route, at the argument
patterns of W and of its ring form only: there a+b-c is a nonnegative integer,
so the sum terminates, and every Gamma argument is positive. Its alternating
t-sum over exact arguments is summed in integers (specfun._horner) and only the
Gamma prefactor rounds, so an entry is a few lgamma ulps off at any level and
independent of its array. _racah sets up a whole table at once; w_coefficient
and ring_w take index arrays that broadcast. _overlap_table, the one
overlap-integral route (an exact tensor Gauss rule read by
oracles.w_overlap_oracle), stops at n = 100. Also owns the two commuting
tridiagonal operators of a level (M in the cylindrical basis, N in the spherical
one) as O(n) bands, which the W recursion, the spheroidal systems and the
perturbation series read; m_matrix_cyl and n_matrix_sph are their dense views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import add, mul

import numpy as np

from ._cache import LEVELS, cached
from .bases import _cylindrical_terms, _spherical_terms
from .errors import (AccuracyError, DomainError, NumericError, _level_index_message,
                     _require_finite, _require_table, check_abs_int, check_indices,
                     check_level_index, require_points)
from .model import Branch, SystemParams, _a_q, _e_n, _exponents, _ring_delta
from .specfun import (_MAX_SUM_TERMS, _dense, _dyadic, _horner, _require_terms, _split_ln2,
                      build_quadrature)

__all__ = [
    "CoefficientMatrix",
    "w_coefficient",
    "w_matrix",
    "ring_w",
    "m_matrix_cyl",
    "n_matrix_sph",
]

# The overlap route refuses levels above this for time, not accuracy (5e-14 off w_matrix
# at n = 100): time n^4, memory n^3, 0.12 s and 25 MB at n = 100 on one x86-64 core.
W_OVERLAP_MAX_LEVEL = 100
# Eigen residual contract, shared with the spheroidal eigensolves: a residual
# may reach this factor times the matrix size and scale.
_RESIDUAL_FACTOR = 1e-12
# A recursion column is rescaled once a value passes this magnitude, far
# below overflow.
_RESCALE_AT = 2.0 ** 256
# Bits a recursion state may grow by between two rescale checks: from below
# _RESCALE_AT it stays below 2^1020.
_GROWTH_BITS = 1020.0 - 256.0


def _sums(d):
    """The Racah sum's five differences d_0..d_4 = a+b-c, a-alpha, b+beta, c-b+alpha, c-a-beta
    and the sums of them it reads: d_0..d_4, the nine prefactor Gamma arguments less one in the
    prefactor's order (a+b-c, a-b+c, -a+b+c, a+alpha, a-alpha, b+beta, b-beta, c+gamma,
    c-gamma), a+b+c and 2c."""
    d0, d1, d2, d3, d4 = d
    return (d0, d1, d2, d3, d4, d0, d1 + d3, d2 + d4, d0 + d3, d1, d2, d0 + d4, d2 + d3, d1 + d4,
            d0 + d1 + d2 + d3 + d4, d1 + d2 + d3 + d4)


# _sums as a 0/1 matrix on the five differences.
_SUMS = np.array([_sums(e) for e in np.eye(5, dtype=np.int64)]).T
# On (2 d_0, ..., 2 d_4, 2t): the first term's arguments less one, t, d_0-t, d_1-t, d_2-t,
# d_3+t, d_4+t, doubled; and its bases t-d_0, t-d_1, t-d_2 over t+1, d_3+t+1, d_4+t+1,
# doubled and less their constants.
_FIRST = np.array([[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, -1],
                   [0, 0, 1, 0, 0, -1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]])
_BASES = np.array([[-1, 0, 0, 0, 0, 1], [0, -1, 0, 0, 0, 1], [0, 0, -1, 0, 0, 1],
                   [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]])
# The doubled differences of W_np^q on (n, p, q) are 2(n-q), 2(n-p), 2(n-p) + 2c,
# 2(p+q-n) +- 2b, 2(p+q-n); those of ring_w on (N, n3, l) are N-l, n3, n3-1,
# l+|m|-n3 + 2 delta, l-|m|-n3. Their sums, as _racah reads them:
_W_SUMS = _SUMS @ (2 * np.array([[1, 0, -1], [1, -1, 0], [1, -1, 0], [-1, 1, 1], [-1, 1, 1]]))
_RING_SUMS = _SUMS @ np.array([[1, 0, -1], [0, 1, 0], [0, 1, 0], [0, -1, 1], [0, -1, 1]])
# A table whose sums could reach this runs on Python ints (object arrays), not int64.
_WIDE = 2 ** 62
# _racah's largest a + b + c: its lgamma prefactor, some (a+b+c) ln(a+b+c) in size, loses
# digits as it grows (ring_w 2e-11 off at 2^15, 1.3e-9 at 2^19)
_MAX_CG_ORDER = 2 ** 15


def _products(M: np.ndarray, offsets: list[int], scale: int, k: int):
    """k prod_i f_i of each column of the factor rows M, as an iterator of Python ints formed
    as it is read: f = M[i] where offsets[i] is 0, else M[i] scale + offsets[i]."""
    small = [row for row, b in zip(M, offsets) if not b]
    out = reduce(mul, small).tolist() if small else repeat(1)
    for row, b in zip(M, offsets):
        if b:
            out = map(mul, out, map(add, map(mul, row.tolist(), repeat(scale)), repeat(b)))
    return out if k == 1 else map(mul, out, repeat(k))


def _ln_prefactor(S: np.ndarray, SB: list[int], F: np.ndarray, FB: list[int],
                  scale: int) -> np.ndarray:
    """ln of each entry's Gamma prefactor over its first term, from the doubled sums S + SB /
    scale (_sums rows 5..15) and the first term's doubled arguments less one F + FB / scale:
    0.5 (ln(2c+1) + sum of the nine lgamma(x+1) - lgamma(a+b+c+2)) - the first term's six
    lgamma(x+1), each sum in that order. Each fn(x + 1) is formed once per distinct (fn, x),
    from the exact ratio of x + 1."""
    slots = ([(math.lgamma, b) for b in SB[:10]] + [(math.log, SB[10])]
             + [(math.lgamma, b) for b in FB])
    classes = {}
    ids = [classes.setdefault(slot, len(classes)) for slot in slots]
    count, by_id = len(classes), list(classes)
    ids[9] += 2 * count   # a+b+c+1, the row plus one
    keys = np.concatenate((S, F)) * count + np.array(ids)[:, None]
    lowest = int(keys.min())
    keys -= lowest
    distinct = np.bincount(keys.ravel()).nonzero()[0]
    ks, which = np.divmod(distinct + lowest, count)
    g = np.empty(distinct[-1] + 1)
    g[distinct] = [fn((k + 2) / 2) if not b else fn(((k + 2) * scale + b) / (2 * scale))
                   for k, (fn, b) in zip(ks.tolist(), map(by_id.__getitem__, which.tolist()))]
    g = g[keys]
    return 0.5 * (g[10] + g[:9].cumsum(axis=0)[-1] - g[9]) - g[11:].cumsum(axis=0)[-1]


def _racah(index: np.ndarray, sums: np.ndarray, offsets, scale: int) -> np.ndarray:
    """Racah single-sum CG values for gamma = alpha + beta over a table of W or ring entries.

    index: nonnegative ints of shape (r, *shape); sums: an int (16, r) matrix, _SUMS @ coeffs
    with rows of absolute sum at most 16; offsets: five ints over the power of two scale. The
    doubled differences of an entry (_sums) are coeffs @ index + offsets / scale: int index
    combinations plus one offset per table, 0 or the exact dyadic of c, +-b or 2 delta.
    Returns an array of that shape.

    Only the patterns of w_coefficient and ring_w come here, and their checks leave none the
    sum cannot serve. W's differences d_0..d_4 are n-q, n-p, n-p+c, p+q-n+-b, p+q-n; the
    ring's (N-l)/2, n3/2, (n3-1)/2, (l+|m|-n3)/2+delta, (l-|m|-n3)/2. Admissibility gives
    c >= 0 and +-b >= -1/2, and the index checks 0 <= p, q <= n, or |m| <= l <= N and
    0 <= n3 <= N-|m| with N-l and N-|m|-n3 even. So d_0 and d_4 are whole and d_0 >= 0: the
    sum terminates. Each of the nine prefactor Gamma arguments less one, a+b+c and 2c is at
    least -1/2 (the least are q+-b, p+-b, q+c+-b for W, (n3-1)/2, (l-|m|-1)/2,
    (l+|m|-1)/2+delta for the ring). So is each of the first term's within the t-range: d_0-t
    and every whole d_1-t, d_2-t are at least 0, and the other is at least c (W) or -1/2
    (ring), and d_3+t >= d_3-d_4 = +-b or |m|+delta. Every Gamma of the sum is at a positive
    argument: no entry needs a continuation past a pole, and its first term's sign is (-1)^t.

    A doubled sum of differences is Z + B / scale with Z an int per entry and 0 <= B < scale
    one int per table, so the t-range (never empty, by the bounds above), both caps, the sign
    and the lgamma prefactor (math.lgamma and math.log once per distinct argument, summed in
    one order) are formed once per table in numpy. Only the term ratios (t-d_0)(t-d_1)(t-d_2) /
    ((t+1)(d_3+t+1)(d_4+t+1)) are summed per entry, by specfun._horner: a base whose offset
    is whole steps as a small int. The first entry (C order) past a cap raises before any sum:
    NumericError past the term cap, else AccuracyError for a + b + c past 2^15, which every
    table wide enough for Python ints (_WIDE) passes, so sums run on int64. NumericError for
    a sum past a double.
    """
    shape = index.shape[1:]
    index = index.reshape(len(index), -1)
    if not index.size:
        return np.zeros(shape)
    whole, B = zip(*(divmod(v, scale) for v in _sums(offsets)))
    if 16 * int(index.max()) + max(map(abs, whole)) >= _WIDE:
        index = index.astype(object)
    Z = sums @ index + np.array(whole, dtype=index.dtype)[:, None]
    half = Z[:5] // 2
    # 0 <= t <= a+b-c, within the ends that whole d_1, d_2 (upper) and d_3, d_4 (lower) set
    ends = np.where((Z[1:5] % 2 == 0) & np.array([[b == 0] for b in B[1:5]]), half[1:], half[0])
    t = np.maximum(0, -np.minimum.reduce(ends[2:]))
    steps = np.minimum(half[0], np.minimum.reduce(ends[:2])) - t
    capped = (steps >= _MAX_SUM_TERMS) | (Z[14] > 2 * _MAX_CG_ORDER - (B[14] > 0))
    if capped.any():
        first = int(capped.argmax())
        _require_terms(int(steps[first]) + 1)
        raise AccuracyError(f"continued CG sum at a + b + c = "
                            f"{(int(Z[14, first]) * scale + B[14]) / (2 * scale)} past "
                            f"{_MAX_CG_ORDER}, where its Gamma prefactor loses its accuracy")
    shifted = np.concatenate((Z[:5], 2 * t[None]))
    F = _FIRST @ shifted
    ln = _ln_prefactor(Z[5:], B[5:], F, [0, *B[:5]], scale)
    # every ratio of every entry, last first: base k + b / scale (doubled) at s = terms-2,
    # ..., 0 is the factor k + 2s over 2 for b = 0, else (k + 2s) scale + b over 2 scale
    bs = [-b % scale for b in B[:3]] + [0, *B[3:5]]
    cuts = steps.cumsum()
    M = ((_BASES @ shifted).repeat(steps, axis=1)
         + 2 * ((cuts - 1).repeat(steps) - np.arange(cuts[-1]))
         + np.array([-(b > 0) for b in B[:3]] + [2, 2, 2])[:, None])
    big = sum(b > 0 for b in bs[3:]) - sum(b > 0 for b in bs[:3])
    tops = _products(M[:3], bs[:3], scale, scale ** max(big, 0))
    bottoms = _products(M[3:], bs[3:], scale, scale ** max(-big, 0))
    # e^ln as e^r 2^j, so a sum past a double may meet a small prefactor
    r, j = _split_ln2(ln)
    values = _horner(tops, bottoms, steps.tolist(), zip(r.tolist(), j.astype(int).tolist()))
    # + 0.0: terms that cancel exactly give 0.0, not -0.0
    return (np.where(t % 2, -1.0, 1.0) * np.array(values) + 0.0).reshape(shape)


def w_coefficient(n: int | np.ndarray, p: int | np.ndarray, q: int | np.ndarray,
                  params: SystemParams, branch: Branch) -> float | np.ndarray:
    """Interbasis coefficient: Psi_cyl(n, p) = sum_q W_np^q Psi_sph(n, q).

    W_np^q = (-1)^(n-q) (a0 b0 alpha beta | c0 alpha+beta) with
    a0 = (n +- b)/2, b0 = (n + c)/2, c0 = q + (c +- b)/2,
    alpha = p - (n -+ b)/2, beta = (n + c)/2 - p. The 1x1 level gives +1.
    n, p and q may be integer arrays that broadcast; the result is then an
    array of their shape, else a float. An exactly zero entry is +0.0. Accuracy: only
    the lgamma prefactor of the exact sum rounds, so the error grows with c, whose
    ulps at a0 + b0 + c0 set it: at c <= 10 a table is within 1e-13 of w_matrix at
    n = 60 and 1e-12 at n = 200, on both branches, while at Q = 1e6 (c ~ 1000)
    tables at n = 12-60 are 1.2-2.7e-12 off it, and at Q = 1e8 (c ~ 1e4) 2.4e-11.
    Time: one numpy set-up per call (about 0.15 ms on one x86-64 core), then an
    integer Horner of about n/3 steps an entry; a whole table takes about 2-4 ms at
    n = 30 and 12-30 ms at n = 60.
    An entry whose sum has more than 2^13 terms (specfun._MAX_SUM_TERMS; from about
    n = 16384 at p = q = n/2) raises NumericError, and one within that cap whose
    a0 + b0 + c0 = n + q + c +- b passes 2^15 (levels from about 2^14) raises
    AccuracyError: the prefactor's error grows with it (figures in ring_w). The first such
    entry of a table (C order) raises before any entry is summed. n, p and q must be
    nonnegative integers below 2^62, scalar or array entry alike (DomainError).
    """
    index = check_indices(**{"level n": n, "p": p, "q": q})
    n, p, q = index
    # the first failing entry (C order) names its index past n, p when both are
    require_points((p <= n) & (q <= n), lambda i: _level_index_message(
        n[i], *(("p", p[i]) if p[i] > n[i] else ("q", q[i]))), entries=True)
    scale, (sb, c) = _dyadic(*_exponents(params, branch))
    val = _racah(index, _W_SUMS, (0, 0, 2 * c, 2 * sb, 0), scale)
    # + 0.0 turns the -0.0 of an exactly zero entry at odd n - q into +0.0
    val = np.where((n - q) % 2, -1.0, 1.0) * val + 0.0
    return val if index.ndim > 1 else float(val)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Orthogonal change-of-basis table at one level.

    entries[p][q] applies as source_state(p) = sum_q entries[p][q] target_state(q);
    the inverse expansion is the transpose.
    """

    n: int
    branch: Branch
    orientation: str
    entries: np.ndarray

    @cached_property
    def ortho_dev(self) -> np.ndarray:
        """Largest |entries entries^T - I| of each row (read-only, formed once).

        The product runs in numpy's own einsum loop, not BLAS, so its bytes do
        not depend on the BLAS thread count.
        """
        gram = np.einsum("ik,jk->ij", self.entries, self.entries)
        dev = np.abs(gram - np.eye(self.n + 1)).max(axis=1)
        dev.flags.writeable = False
        return dev

    def transposed(self) -> "CoefficientMatrix":
        flipped = ("spherical_to_cylindrical"
                   if self.orientation == "cylindrical_to_spherical"
                   else "cylindrical_to_spherical")
        return CoefficientMatrix(n=self.n, branch=self.branch, orientation=flipped,
                                 entries=self.entries.T.copy())


def _residual_bound(size: int, diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Largest eigen residual the contract allows, _RESIDUAL_FACTOR size max(max|d|,
    max|e|, 1); diag/offdiag may be stacked. A NaN entry makes the bound NaN."""
    scale = np.maximum.reduce(np.abs(np.concatenate((diag, offdiag), axis=-1)), axis=-1)
    return _RESIDUAL_FACTOR * size * np.maximum(scale, 1.0)


def _check_residual(diag: np.ndarray, off: np.ndarray, vec: np.ndarray, lam: np.ndarray,
                    label: str) -> None:
    """Eigen residual contract: NumericError naming label unless max|T vec - vec
    diag(lam)| of the symmetric tridiagonal T with bands diag/off is within
    _residual_bound. Formed on the bands in O(n^2) without BLAS, in place in one
    array, and NaN-safe."""
    with np.errstate(all="ignore"):
        res = diag[:, None] - lam
        res *= vec
        coupling = off[:, None]
        upper, lower = res[:-1], res[1:]
        upper += coupling * vec[1:]
        lower += coupling * vec[:-1]
        residual = np.maximum.reduce(np.abs(res, out=res), axis=None)
        within = residual <= _residual_bound(diag.size, diag, off)
    if not within:
        raise NumericError(f"eigen residual {residual:.3e} above contract for {label}")


def _recursion_columns(diag: np.ndarray, off: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of an unreduced symmetric tridiagonal matrix for its
    known eigenvalues lam, one column each, first component positive (or
    underflowed to zero).

    Two-sided three-term recursion in one stacked pass: the upward recursion
    from x_0 = +1 and the downward one from x_n = 1 advance together as one
    (2, columns) state over the whole level, with no per-step masks. Each
    column's turning point is read afterwards from the stored downward rows:
    the first p from the top where |x| stops growing, i.e. the end of the
    forbidden region at the top, through which the downward direction is the
    stable one. The column takes the upward values up to that point and the
    downward ones from it, scaled to agree there, and is normalized. The state
    is checked for values past _RESCALE_AT as often as a bound on its growth
    per step requires; a column of a pass that passed it is scaled by an exact
    power of two, undone when the column is assembled, so the table is that of
    the unscaled recursion wherever no value underflows.
    """
    size, count = diag.size, lam.size
    n = size - 1
    if not n:
        return np.ones((1, count))
    # row j of each pass: x_j of the upward one, x_(n-j) of the downward one
    rows = np.empty((2, size, count))
    rows[:, 0] = 1.0
    rescales = []   # (row r, exponents): rows r on were scaled by 2^-exponents
    with np.errstate(all="ignore"):   # a corrupted matrix shows as non-finite output
        shift = np.empty((2, size, count))
        np.subtract(diag[:, None], lam, out=shift[0])
        shift[1] = shift[0, ::-1]
        couple = np.array((off, off[::-1])).T[:, :, None]
        # a step grows the larger of its two rows at most `grow` times (|shift| and
        # |off| are at most 2 and 1 times the largest |diag|, |lam|, |off|), so rows
        # checked for _RESCALE_AT every `every` steps stay below 2^1020
        scale = np.abs(np.concatenate((off, diag, lam)))
        grow = 3.0 * scale.max() / min(scale[:n].min(), 1.0)
        steps = _GROWTH_BITS / np.log2(max(grow, 2.0))
        every = int(steps) if steps >= 1.0 else 1
        np.divide(np.negative(shift[:, 0] * rows[:, 0]), couple[0], out=rows[:, 1])
        for j in range(1, n):
            if j % every == 0:
                pair = rows[:, j - 1:j + 1]
                big = np.abs(pair).max(axis=1)
                if big.max() > _RESCALE_AT:
                    exp = np.where(big > _RESCALE_AT, np.frexp(big)[1], 0)
                    np.ldexp(pair, -exp[:, None], out=pair)
                    rescales.append((j - 1, exp[:, None]))
            acc = shift[:, j] * rows[:, j]
            acc += couple[j - 1] * rows[:, j - 1]
            np.divide(np.negative(acc, out=acc), couple[j], out=rows[:, j + 1])
        del shift   # freed before the assembly's temporaries
        # the downward run grows from the top down to the turning point: the first
        # row (from the top) that did not grow, the stored false row if all did
        mag = np.abs(rows[1])
        grew = np.zeros((size, count), dtype=bool)
        np.greater(mag[1:], mag[:-1], out=grew[:-1])
        for r, exp in rescales:
            if r:
                grew[r - 1] = np.ldexp(mag[r], exp[1, 0]) > mag[r - 1]
        turn = n - grew.argmin(axis=0)
        if rescales:
            # each row in the units of its pass's turning-point row: times 2^-e for
            # every later rescale e at or before that row
            last = np.array((turn, n - turn))[:, None]
            factor, end = 1.0, size
            for r, exp in reversed(rescales):
                if end < size:
                    rows[:, r:end] *= factor
                factor = factor * np.where(r <= last, np.ldexp(1.0, -exp), 1.0)
                end = r
            rows[:, :end] *= factor
        up, down = rows[0], rows[1, ::-1]
        cols = np.arange(count)
        match = up[turn, cols] / down[turn, cols]
        vec = np.where(np.arange(size)[:, None] <= turn, up, down * match)
        vec /= np.abs(vec).max(axis=0)   # so the sum of squares cannot overflow
        vec /= np.sqrt((vec * vec).sum(axis=0))
    return vec


@cached(LEVELS)
def _w_table(n: int, params: SystemParams, branch: Branch) -> CoefficientMatrix:
    """Level n's W table (entry [p, q] is W_np^q) by recursion, one column
    per q, checked against the eigen residual contract (its orthogonality is
    w_matrix's check); built once per key for w_matrix, which every spheroidal
    state of the level reads.

    Column q is the eigenvector of 2 M (bands from _m_bands) for A_q; its sign
    is the Racah sum's, since W_n0^q is a single Racah term with positive
    Gamma arguments, hence positive, and the recursion starts at x_0 = +1.
    A level too large to tabulate is refused by _m_bands before any O(n)
    array exists.
    """
    diag, off = _m_bands(n, params, branch)
    diag, off = 2.0 * diag, 2.0 * off
    lam = _a_q(np.arange(n + 1.0), params, branch)
    vec = _recursion_columns(diag, off, lam)
    _require_finite(vec, f"interbasis recursion gave non-finite entries at n={n}")
    _check_residual(diag, off, vec, lam, f"interbasis table at n={n}")
    return CoefficientMatrix(n=n, branch=branch, orientation="cylindrical_to_spherical",
                             entries=vec)


def w_matrix(n: int, params: SystemParams, branch: Branch) -> CoefficientMatrix:
    """All W_np^q at level n as a CoefficientMatrix (cylindrical to spherical).

    Built by recursion (see _recursion_columns) in O(n^2); agrees with
    w_coefficient to its accuracy contract. Raises NumericError when
    an entry is non-finite or the table misses its contract: max|W W^T - I|
    within _RESIDUAL_FACTOR (n+1), max|2M W - W diag(A)| within the eigen
    residual bound. The table is built once per (n, params, branch) and shared
    between calls and with the spheroidal states of the level.
    """
    n, _ = check_level_index(n, 0)
    mat = _w_table(n, params, branch)
    ortho = mat.ortho_dev.max()
    if not ortho <= _RESIDUAL_FACTOR * (n + 1):
        raise NumericError(f"interbasis table orthogonality {ortho:.3e} above contract "
                           f"at n={n}")
    return mat


@cached(LEVELS)
def _overlap_table(n: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Level n's W table as the paper's overlaps W_np^q = 2 int psi_cyl(n, p)
    psi_sph(n, q) dV over z > 0 at validated n, built once per key. In x = omega r^2,
    u = cos 2 theta the integrand is x^(c+-b+1) e^-x (1-u)^c (1+u)^(+-b) times a
    polynomial of degree <= 2n in each, so the (n+1)-point Laguerre x Jacobi(c, +-b)
    rule is exact."""
    if n > W_OVERLAP_MAX_LEVEL:
        raise DomainError(f"overlap oracle supports levels up to "
                          f"{W_OVERLAP_MAX_LEVEL}, got {n}")
    beta, c = _exponents(params, branch)
    omega = params.omega
    volume = 4.0 * omega ** 1.5   # the volume element's, below, which the terms carry back
    radial = build_quadrature("laguerre", n + 1, alpha=c + beta + 1.0)
    angular = build_quadrature("jacobi", n + 1, alpha=c, beta=beta)
    x, u = radial.nodes[:, None], angular.nodes   # x down the node grid, u across
    # past c or b ~ 1024 a power of the weight function can pass a double while the rule
    # still builds (at P = 1e5, Q = 4e6), and a product can underflow to zero: refused
    # before numpy warns, and formed as before wherever it stays in range
    with np.errstate(over="raise"):
        try:
            weight_function = (1.0 - u) ** c * (1.0 + u) ** beta
            in_range = weight_function.all()
        except FloatingPointError:
            in_range = False
    if not in_range:
        raise AccuracyError(f"overlap weight function (1 - u)^c (1 + u)^beta leaves double "
                            f"range at n={n}, c={c:g}, beta={beta:g}")
    r, theta = np.sqrt(x / omega), 0.5 * np.arccos(u)
    ct = np.cos(theta)
    # 2 r^2 dr sin(theta) dtheta = x^(1/2) dx du / (4 omega^(3/2) cos theta); the angular
    # weight meets its own weight function first, as the radial product alone can pass a
    # double at omega's floor with c or b near 500
    weight = (radial.scaled_weights[:, None] * np.sqrt(x) / volume
              * (angular.weights / (weight_function * ct)))
    cyl = _cylindrical_terms(n, beta, c, omega, r * np.sin(theta), r * ct) * weight
    sph = _spherical_terms(n, beta, c, omega, r, theta[None])
    # numpy's own loop, not BLAS: the sum order does not follow the thread count
    table = np.einsum("pij,qij->pq", cyl, sph)
    # a last guard on the products of factors formed apart: with the weight function in
    # range, no entry was non-finite over n <= 100, P and Q to 4e6, m to 1500 and omega at
    # both ends (at n = 100, P = 2.7e5, Q = 0, m = 1500 the weight function is refused)
    if not np.isfinite(table).all():
        raise NumericError(f"overlap table at n={n}, omega={omega:g} leaves double range")
    return table


def ring_w(N: int | np.ndarray, m: int, n3: int | np.ndarray, l: int | np.ndarray,
           delta: float) -> float | np.ndarray:
    """Ring-regime (b = 1/2) coefficient W_{N m n3}^l(delta).

    Continued CG with a0 = (N+|m|)/4 + delta/2, b0 = (N-|m|-1)/4,
    c0 = (2l-1)/4 + delta/2, alpha = (N+|m|-2 n3)/4 + delta/2,
    beta = (2 n3 - N + |m| - 1)/4; no extra sign factor. N, n3 and l may be
    integer arrays that broadcast (a level's table from an n3 column against
    an l row); the result is then an array of their shape, else a float.
    Accuracy, time and the 2^13-term cap of each sum (NumericError past it) as
    w_coefficient's (a table within 1e-13 of w_matrix at n = 60): ring_w(N, 1, 0, 1, 0.2)
    is 2e-14 off 60-digit mpmath at N = 2^8 + 1 and 2e-11 at 2^16 + 1, and AccuracyError
    refuses a0 + b0 + c0 = (N + l - 1)/2 + delta past 2^15 (N past about 2^15 at l = N).
    """
    index = check_indices(N=N, n3=n3, l=l)
    N, n3, l = index
    ma = check_abs_int(m, "m")
    delta = _ring_delta(delta)
    require_points((ma <= l) & (l <= N) & ((N - l) % 2 == 0), lambda i: (
        f"need |m| <= l <= N with N - l even, got N={N[i]}, l={l[i]}, m={m}"), entries=True)
    # N - n3 against |m|, which may pass int64 (an empty table checks nothing)
    require_points((N - n3 >= ma) & ((N - n3) % 2 == ma % 2), lambda i: (
        f"need 0 <= n3 <= N - |m| with N - |m| - n3 even, got N={N[i]}, n3={n3[i]}, m={m}"),
        entries=True)
    scale, (delta,) = _dyadic(delta)
    val = _racah(index, _RING_SUMS, (0, 0, -scale, ma * scale + 2 * delta, -ma * scale), scale)
    return val if index.ndim > 1 else float(val)


def _require_operator(n: int) -> None:
    """NumericError unless level n's (n+1)^2 operator table can be allocated."""
    _require_table((n + 1, n + 1), f"level n={n} operator")


@cached(LEVELS)
def _m_bands(n: int, params: SystemParams, branch: Branch) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) of m_matrix_cyl at validated level n, in O(n), for every consumer of M;
    built once per key."""
    sb, c = _exponents(params, branch)
    _require_operator(n)
    d0 = 0.5 * (c - sb + 0.5) * (c - sb + 1.5)
    diag = np.array([d0 + 2.0 * (p + 1.0) * (n - p) + 2.0 * (p + sb) * (n + c - p + 1.0)
                     for p in range(n + 1)])
    off = np.array([2.0 * math.sqrt((p + 1.0) * (p + 1.0 + sb) * (n - p) * (n + c - p))
                    for p in range(n)])
    return diag, off


@cached(LEVELS)
def _n_bands(n: int, params: SystemParams, branch: Branch) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) of n_matrix_sph at validated level n, in O(n), for every consumer of N;
    built once per key.

    The q = 0 diagonal uses the factored form because c + sb can vanish (c = b on
    the Minus branch).
    """
    sb, c = _exponents(params, branch)
    _require_operator(n)
    e_n = _e_n(n, params, branch)
    diag, off = [e_n * (sb + 1.0) / (c + sb + 2.0)], []
    for q in range(1, n + 1):
        base = 2.0 * q + c + sb
        diag.append(e_n * (2.0 * q * (q + 1.0) + (c + sb) * (2.0 * q + sb + 1.0))
                    / (base * (base + 2.0)))
        off.append(-2.0 * params.omega * math.sqrt(
            q * (n - q + 1.0) * (q + c + sb) * (q + sb) * (q + c)
            * (n + q + c + sb + 1.0)
            / (base * base * (base - 1.0) * (base + 1.0))))
    return np.array(diag), np.array(off)


def m_matrix_cyl(n: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Matrix of the spherical constant's operator in the cylindrical basis.

    Symmetric tridiagonal over p = 0..n; twice this matrix is similar to
    diag(A_q) through the W matrix. A dense view of its bands.
    """
    n, _ = check_level_index(n, 0)
    return _dense(*_m_bands(n, params, branch))


def n_matrix_sph(n: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Matrix of the cylindrical constant's operator in the spherical basis.

    Symmetric tridiagonal over q = 0..n with eigenvalues E_z(p). A dense
    view of its bands.
    """
    n, _ = check_level_index(n, 0)
    return _dense(*_n_bands(n, params, branch))
