"""Continued Clebsch-Gordan coefficients and the cylindrical/spherical bridge.

The expansion coefficients W connecting the two eigenbases of one degenerate
level are SU(2) Clebsch-Gordan coefficients continued to real arguments.
Column q of W is the eigenvector of the tridiagonal operator 2 M (M from
m_matrix_cyl) for the closed-form eigenvalue A_q, so w_matrix builds it by
the two-sided three-term recursion of Schulten and Gordon (J. Math. Phys.
16, 1961 (1975)) in O(n^2) per table, stable at every level. The continued
Racah sum (w_coefficient, cg_continued, ring_w) is the closed-form route: it
terminates because a+b-c stays a nonnegative integer for every argument pattern
generated here (1/Gamma at nonpositive integers is zero). Its alternating t-sum
over exact arguments is summed in integers (_cg_sum, specfun._ratio_sum) and only
the Gamma prefactor rounds, so an entry is a few lgamma ulps off at any level and
independent of its array; w_coefficient and ring_w take index arrays that
broadcast, and cg_continued reads one entry. _overlap_table, the one
overlap-integral route (an exact tensor Gauss rule read by w_integral_oracle and
oracles.w_overlap_oracle), stops at n = 100. Also owns the two commuting
tridiagonal operators of a level (M in the cylindrical basis, N in the spherical
one) as O(n) bands, which the W recursion, the spheroidal systems and the
perturbation series read; m_matrix_cyl and n_matrix_sph are their dense views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._cache import LEVELS, cached
from .bases import _angular, _axial, _radial_cyl, _radial_level
from .errors import (AccuracyError, DomainError, NumericError, _level_index_message,
                     _require_table, check_abs_int, check_level_index, check_nonneg_int)
from .model import Branch, SystemParams, _a_q, _e_n, _exponents
from .specfun import (_INT_TOL, _MAX_CG_ORDER, _MAX_SUM_TERMS, _dense, _dyadic, _ratio_sum,
                      build_quadrature)

__all__ = [
    "CgArgs",
    "CoefficientMatrix",
    "cg_continued",
    "w_coefficient",
    "w_matrix",
    "w_integral_oracle",
    "ring_w",
    "m_matrix_cyl",
    "n_matrix_sph",
]

_SELECTION_TOL = 1e-12
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


@dataclass(frozen=True)
class CgArgs:
    """Arguments (a b alpha beta | c gamma), possibly analytically continued.

    Every pattern produced by this package keeps a+b-c a nonnegative integer
    (sum termination); gamma must equal alpha+beta or the coefficient is zero
    by the projection selection rule.
    """

    a: float
    b: float
    alpha: float
    beta: float
    c: float
    gamma: float


class _LnGamma(dict):
    """lgamma((v + scale) / scale) by numerator v, once per call's Racah sums."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, v: int) -> float:
        value = self[v] = math.lgamma((v + self.scale) / self.scale)
        return value


def _cg_sum(abc: int, ama: int, bpb: int, l1: int, l2: int, lg: _LnGamma,
            exact: list[int] | None = None) -> float | None:
    """Racah single-sum CG value for gamma = alpha + beta from the differences
    abc = a+b-c, ama = a-alpha, bpb = b+beta, l1 = c-b+alpha, l2 = c-a-beta (so
    2c = ama+bpb+l1+l2), ints over lg.scale; None for a pattern with no continuation
    (non-integer a+b-c, 2c+1 or a+b+c+2 <= 0, a prefactor Gamma at a negative
    non-integer). 1/Gamma at nonpositive integers is zero. Only the prefactor and
    the first term are floats: the term ratios (t-abc)(t-ama)(t-bpb) /
    ((t+1)(l1+t+1)(l2+t+1)) are summed exactly (_ratio_sum). Given exact, the value
    reads those differences instead; the five given still decide pattern and t-range."""
    scale = lg.scale
    if abc % scale:
        return None
    if abc < 0:
        return 0.0
    two_c = ama + bpb + l1 + l2
    if two_c <= -scale:
        return None
    # the prefactor Gamma arguments less one: a+b-c, a-b+c, -a+b+c, a+alpha,
    # a-alpha, b+beta, b-beta, c+gamma, c-gamma
    pref = (abc, l1 + ama, l2 + bpb, abc + l1, ama, bpb, abc + l2, l1 + bpb, l2 + ama)
    for v in pref:
        if v <= -scale:
            return None if v % scale else 0.0
    if abc + two_c <= -2 * scale:   # a+b+c+2 <= 0
        return None
    tmin, tmax = 0, abc // scale
    for v in (l1, l2):
        if not v % scale:
            tmin = max(tmin, -v // scale)
    for v in (ama, bpb):
        if not v % scale:
            tmax = min(tmax, v // scale)
    if tmax < tmin:
        return 0.0
    if abc + two_c > _MAX_CG_ORDER * scale and tmax - tmin < _MAX_SUM_TERMS:
        raise AccuracyError(f"continued CG sum at a + b + c = {(abc + two_c) / scale} past "
                            f"{_MAX_CG_ORDER}, where its Gamma prefactor loses its accuracy")
    if exact is not None:
        abc, ama, bpb, l1, l2 = exact
        two_c = ama + bpb + l1 + l2
        pref = (abc, l1 + ama, l2 + bpb, abc + l1, ama, bpb, abc + l2, l1 + bpb, l2 + ama)
    t = tmin * scale
    first = (t, abc - t, ama - t, bpb - t, l1 + t, l2 + t)   # the first term's, less one
    sign = -1.0 if tmin % 2 else 1.0
    for v in first:   # Gamma(x) < 0 where x < 0 and floor(x) is odd
        if v < -scale and v // scale % 2 == 0:
            sign = -sign
    ln = (0.5 * (math.log((two_c + scale) / scale) + sum(map(lg.__getitem__, pref))
                 - lg[abc + two_c + scale])
          - sum(map(lg.__getitem__, first)))
    value = _ratio_sum((t - abc, t - ama, t - bpb), (t + scale, l1 + t + scale, l2 + t + scale),
                       tmax - tmin + 1, scale, ln)
    return sign * value if value else 0.0   # terms that cancel exactly give +0.0


def _refuse_entries(bad: np.ndarray, message) -> None:
    """DomainError unless no entry of bad is set; message(i) words entry i, and
    the error of an array call also names that index."""
    if np.count_nonzero(bad):
        i = tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
        raise DomainError(message(i) + (f" at entry {i}" if i else ""))


def cg_continued(args: CgArgs) -> float:
    """Continued SU(2) Clebsch-Gordan coefficient via the terminating Racah sum.

    Reduces to the standard coefficient at (half-)integer arguments. The differences
    a+b-c, a-alpha, b+beta, c-b+alpha, c-a-beta are formed in floating point, read as
    integers within _INT_TOL where they decide the pattern and the range of the sum,
    and exactly in the value. Accuracy: the sum is exact, so the value is within a few
    lgamma ulps of its prefactor (1e-13 of mpmath on every live pattern tested), ulps that
    grow with a + b + c (ring_w: 2e-14 at 2^7, 2e-11 at 2^15, 1.3e-9 at 2^19, 0.6 at 2^47).
    DomainError when the pattern does not terminate (non-integer a+b-c) or would need
    a square root of a negative Gamma value; NumericError for a sum of more than
    2^13 terms (specfun._MAX_SUM_TERMS), which would take more than a few seconds, and
    AccuracyError within that cap for a + b + c past 2^15 (specfun._MAX_CG_ORDER).
    """
    if abs(args.gamma - (args.alpha + args.beta)) > _SELECTION_TOL:
        return 0.0
    a, b, al, be, c = (float(v) for v in (args.a, args.b, args.alpha, args.beta, args.c))
    diffs = (a + b - c, a - al, b + be, c - b + al, c - a - be)
    if all(map(math.isfinite, diffs)):
        scale, nums = _dyadic(*diffs, *(float(round(v)) if abs(v - round(v)) < _INT_TOL
                                        else v for v in diffs))
        value = _cg_sum(*nums[5:], _LnGamma(scale), exact=nums[:5])
        if value is not None:
            return value
    raise DomainError(f"continued CG sum does not terminate for arguments {args}")


def _check_indices(**named) -> tuple[bool, list[np.ndarray]]:
    """(is_array, values): the named indices as int64 arrays broadcast to one
    shape, 0-d for a call whose indices are all scalars. DomainError names the
    first index or entry that is not a nonnegative integer; a scalar is
    checked by check_nonneg_int."""
    if not any(np.ndim(v) for v in named.values()):
        return False, [np.array(check_nonneg_int(v, k)) for k, v in named.items()]
    out = []
    for name, v in named.items():
        arr = np.asarray(v)
        if arr.dtype.kind in "iu":
            ok = arr >= 0
        elif arr.dtype.kind == "f":
            with np.errstate(invalid="ignore"):
                ok = (arr >= 0) & (arr == np.floor(arr)) & (arr < 2.0 ** 62)
        else:
            raise DomainError(f"{name} must be nonnegative integers, got dtype {arr.dtype}")
        _refuse_entries(~ok, lambda i: f"{name} must be a nonnegative integer, got {arr[i].item()!r}")
        out.append(arr.astype(np.int64))
    zero = np.zeros(np.broadcast_shapes(*(arr.shape for arr in out)), dtype=np.int64)
    return True, [arr + zero for arr in out]


def _level_indices(n, p, q) -> tuple[bool, list[np.ndarray]]:
    """_check_indices of n, p, q, refusing the first entry outside 0 <= p, q <= n."""
    is_array, (n, p, q) = _check_indices(**{"level n": n, "p": p, "q": q})
    _refuse_entries((p > n) | (q > n),
                    lambda i: _level_index_message(n[i], p=p[i], q=q[i]))
    return is_array, [n, p, q]


def w_coefficient(n: int | np.ndarray, p: int | np.ndarray, q: int | np.ndarray,
                  params: SystemParams, branch: Branch) -> float | np.ndarray:
    """Interbasis coefficient: Psi_cyl(n, p) = sum_q W_np^q Psi_sph(n, q).

    W_np^q = (-1)^(n-q) (a0 b0 alpha beta | c0 alpha+beta) with
    a0 = (n +- b)/2, b0 = (n + c)/2, c0 = q + (c +- b)/2,
    alpha = p - (n -+ b)/2, beta = (n + c)/2 - p. The 1x1 level gives +1.
    n, p and q may be integer arrays that broadcast; the result is then an
    array of their shape, else a float. Accuracy: only the lgamma prefactor of the
    exact sum rounds, so a table is within 1e-13 of w_matrix at n = 60 and 1e-12
    at n = 200, on both branches; time is a Python loop of about n/3 steps an entry.
    An entry whose sum has more than 2^13 terms (specfun._MAX_SUM_TERMS; from about
    n = 16384 at p = q = n/2) raises NumericError, and one within that cap whose
    a0 + b0 + c0 = n + q + c +- b passes 2^15 (levels from about 2^14) raises
    AccuracyError: the prefactor's error grows with it (cg_continued).
    """
    is_array, (n, p, q) = _level_indices(n, p, q)
    scale, (sb, c) = _dyadic(*_exponents(params, branch))
    lg = _LnGamma(scale)
    # a0+b0-c0 = n-q, a0-alpha = n-p, b0+beta = n+c-p, c0-b0+alpha = p+q-n+-b, c0-a0-beta = p+q-n
    val = np.array([(-1.0 if (nk - qk) % 2 else 1.0) * _cg_sum(
        (nk - qk) * scale, (nk - pk) * scale, (nk - pk) * scale + c,
        (pk + qk - nk) * scale + sb, (pk + qk - nk) * scale, lg)
        for nk, pk, qk in zip(*(v.ravel().tolist() for v in (n, p, q)))]).reshape(n.shape)
    return val if is_array else float(val)


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
    """Largest eigen residual the contract allows; diag/offdiag may be stacked."""
    return _RESIDUAL_FACTOR * size * np.maximum(np.abs(diag).max(axis=-1, initial=1.0),
                                                np.abs(offdiag).max(axis=-1, initial=0.0))


def _check_residual(diag: np.ndarray, off: np.ndarray, vec: np.ndarray, lam: np.ndarray,
                    label: str) -> None:
    """Eigen residual contract: NumericError naming label unless max|T vec - vec
    diag(lam)| of the symmetric tridiagonal T with bands diag/off is within
    _residual_bound. Formed on the bands in O(n^2) without BLAS, and NaN-safe."""
    with np.errstate(all="ignore"):
        res = (diag[:, None] - lam) * vec
        res[:-1] += off[:, None] * vec[1:]
        res[1:] += off[:, None] * vec[:-1]
        residual = np.abs(res).max()
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
    w_matrix's check); built once per key for w_matrix and every spheroidal state.

    Column q is the eigenvector of 2 M (bands from _m_bands) for A_q; its sign
    is the Racah sum's, since W_n0^q is a single Racah term with positive
    Gamma arguments, hence positive, and the recursion starts at x_0 = +1.
    A level too large to tabulate is refused by _m_bands before any O(n)
    array exists.
    """
    diag, off = _m_bands(n, params, branch)
    # extreme parameters overflow the operator; the checks below refuse them
    with np.errstate(all="ignore"):
        diag, off = 2.0 * diag, 2.0 * off
        lam = _a_q(np.arange(n + 1.0), params, branch)
        vec = _recursion_columns(diag, off, lam)
    if not np.isfinite(vec).all():
        raise NumericError(f"interbasis recursion gave non-finite entries at n={n}")
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
    radial = build_quadrature("laguerre", n + 1, alpha=c + beta + 1.0)
    angular = build_quadrature("jacobi", n + 1, alpha=c, beta=beta)
    x, u = radial.nodes[:, None], angular.nodes   # x down the node grid, u across
    r, theta = np.sqrt(x / omega), 0.5 * np.arccos(u)
    ct = np.cos(theta)
    # 2 r^2 dr sin(theta) dtheta = x^(1/2) dx du / (4 omega^(3/2) cos theta)
    weight = (radial.scaled_weights[:, None] * np.sqrt(x) / (4.0 * omega ** 1.5)
              * angular.weights / ((1.0 - u) ** c * (1.0 + u) ** beta * ct))
    ks, down = range(n + 1), range(n, -1, -1)
    cyl = _radial_cyl(down, c, omega, r * np.sin(theta)) * _axial(ks, beta, omega, r * ct) * weight
    sph = _radial_level(n, ks, c, beta, omega, r) * _angular(ks, c, beta, theta)[:, None]
    # numpy's own loop, not BLAS: the sum order does not follow the thread count
    return np.einsum("pij,qij->pq", cyl, sph)


def w_integral_oracle(n: int, p: int, q: int, params: SystemParams, branch: Branch) -> float:
    """Same coefficient from the overlap-integral route: entry (p, q) of the
    table w_overlap_oracle checks; DomainError past W_OVERLAP_MAX_LEVEL. The O(n^4)
    level table is built on the first call and shared by every entry of the level
    (and by w_overlap_oracle) while it stays cached."""
    n, p = check_level_index(n, p, "p")
    q = check_level_index(n, q, "q")[1]
    return float(_overlap_table(n, params, branch)[p, q])


def ring_w(N: int | np.ndarray, m: int, n3: int | np.ndarray, l: int | np.ndarray,
           delta: float) -> float | np.ndarray:
    """Ring-regime (b = 1/2) coefficient W_{N m n3}^l(delta).

    Continued CG with a0 = (N+|m|)/4 + delta/2, b0 = (N-|m|-1)/4,
    c0 = (2l-1)/4 + delta/2, alpha = (N+|m|-2 n3)/4 + delta/2,
    beta = (2 n3 - N + |m| - 1)/4; no extra sign factor. N, n3 and l may be
    integer arrays that broadcast (a level's table from an n3 column against
    an l row); the result is then an array of their shape, else a float.
    Accuracy and the 2^13-term cap of each sum (NumericError past it) as
    w_coefficient's (a table within 1e-13 of w_matrix at n = 60): ring_w(N, 1, 0, 1, 0.2)
    is 2e-14 off 60-digit mpmath at N = 2^8 + 1 and 2e-11 at 2^16 + 1, and AccuracyError
    refuses a0 + b0 + c0 = (N + l - 1)/2 + delta past 2^15 (N past about 2^15 at l = N).
    """
    is_array, (N, n3, l) = _check_indices(N=N, n3=n3, l=l)
    ma = check_abs_int(m, "m")
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"delta must be nonnegative and finite, got {delta}")
    _refuse_entries((l < ma) | (l > N) | ((N - l) % 2 != 0), lambda i: (
        f"need |m| <= l <= N with N - l even, got N={N[i]}, l={l[i]}, m={m}"))
    _refuse_entries((n3 > N - ma) | ((N - ma - n3) % 2 != 0), lambda i: (
        f"need 0 <= n3 <= N - |m| with N - |m| - n3 even, got N={N[i]}, n3={n3[i]}, m={m}"))
    scale, (delta,) = _dyadic(delta)
    lg = _LnGamma(2 * scale)
    # over 2 scale: a0+b0-c0 = (N-l)/2, a0-alpha = n3/2, b0+beta = (n3-1)/2,
    # c0-b0+alpha = (l+|m|-n3)/2 + delta, c0-a0-beta = (l-|m|-n3)/2
    val = np.array([_cg_sum(
        (Nk - lk) * scale, n3k * scale, (n3k - 1) * scale,
        (lk + ma - n3k) * scale + 2 * delta, (lk - ma - n3k) * scale, lg)
        for Nk, n3k, lk in zip(*(v.ravel().tolist() for v in (N, n3, l)))]).reshape(N.shape)
    return val if is_array else float(val)


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
