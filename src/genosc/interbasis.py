"""Continued Clebsch-Gordan coefficients and the cylindrical/spherical bridge.

The expansion coefficients W connecting the two eigenbases of one degenerate
level are SU(2) Clebsch-Gordan coefficients continued to real arguments.
Column q of W is the eigenvector of the tridiagonal operator 2 M (M from
m_matrix_cyl) for the closed-form eigenvalue A_q, so w_matrix builds it by
the two-sided three-term recursion of Schulten and Gordon (J. Math. Phys.
16, 1961 (1975)) in O(n^2) per table, stable at every level. The continued
Racah sum (w_coefficient, cg_continued, ring_w) is kept as the small-level
oracle: it terminates because a+b-c stays a nonnegative integer for every
argument pattern generated here, with 1/Gamma at nonpositive integers zero
throughout, but its alternating terms cancel and it loses orthogonality
from n ~ 70. Also provides the tridiagonal matrix elements of the two
commuting operators (M in the cylindrical basis, N in the spherical one)
that the spheroidal module deforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyError, DomainError, NumericError
from .model import Branch, SystemParams, energy_cylindrical_parts, require_admissible
from .specfun import build_quadrature, jacobi_p, ln_gamma

__all__ = [
    "CgArgs",
    "CoefficientMatrix",
    "cg_continued",
    "w_coefficient",
    "w_matrix",
    "w_column",
    "w_integral_oracle",
    "ring_w",
    "m_matrix_cyl",
    "n_matrix_sph",
]

_SELECTION_TOL = 1e-12
# Distance from an integer below which a continued CG argument counts as one.
_INT_TOL = 1e-9
# Eigen residual contract, shared with the spheroidal eigensolves: a residual
# may reach this factor times the matrix size and scale.
_RESIDUAL_FACTOR = 1e-12
# A recursion column is rescaled once a value passes this magnitude, far
# below overflow.
_RESCALE_AT = 2.0 ** 256


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


def _is_int(v: float) -> bool:
    return abs(v - math.floor(v + 0.5)) < _INT_TOL


def _cg_sum(a: float, b: float, al: float, be: float, cc: float) -> tuple[float, int]:
    """Racah single-sum Clebsch-Gordan value for gamma = al + be.

    Valid for analytically continued real arguments provided a+b-c is a
    nonnegative integer, which truncates the t-sum; integer a-al or b+be
    tighten the upper bound further and integer c-b+al / c-a-be lift the
    lower one. Reciprocals of Gamma at nonpositive integers are taken as
    zero. Returns (value, status); status 1 flags arguments outside the
    continued pattern (non-terminating sum or a negative square-root
    argument that has no principal continuation).
    """
    g = al + be
    abc = a + b - cc
    if not _is_int(abc):
        return 0.0, 1
    if abc < -0.5:
        return 0.0, 0
    two_c1 = 2.0 * cc + 1.0
    if two_c1 <= 0.0:
        return 0.0, 1
    ama = a - al
    bpb = b + be
    cmg = cc - g

    pref_args = (abc + 1.0, a - b + cc + 1.0, -a + b + cc + 1.0,
                 a + al + 1.0, ama + 1.0, bpb + 1.0, b - be + 1.0,
                 cc + g + 1.0, cmg + 1.0)
    lnpref = math.log(two_c1)
    for v in pref_args:
        if v <= 0.0:
            return 0.0, 0 if _is_int(v) else 1
        lnpref += math.lgamma(v)
    pden = a + b + cc + 2.0
    if pden <= 0.0:
        return 0.0, 1
    lnpref -= math.lgamma(pden)

    big1 = cc - b + al
    big2 = cc - a - be
    tmin = 0
    for big in (big1, big2):
        if _is_int(big) and -big > tmin:
            tmin = int(math.floor(-big + 0.5))
    tmax = int(math.floor(abc + 0.5))
    for top in (ama, bpb):
        if _is_int(top):
            tmax = min(tmax, int(math.floor(top + 0.5)))

    # each term is (-1)^t / prod Gamma(arg); a pole in any argument zeroes it
    # (pole tolerance and sign rule as in specfun.gamma_sign_ln)
    signs, logs = [], []
    for t in range(tmin, tmax + 1):
        sgn = -1.0 if t % 2 else 1.0
        logden = 0.0
        for arg in (t + 1.0, abc - t + 1.0, ama - t + 1.0, bpb - t + 1.0,
                    big1 + t + 1.0, big2 + t + 1.0):
            if arg <= 0.0 and abs(arg - math.floor(arg + 0.5)) < 1e-12:
                break
            if arg < 0.0 and math.floor(arg) % 2:
                sgn = -sgn
            logden += math.lgamma(arg)
        else:
            signs.append(sgn)
            logs.append(-logden)
    if not logs:
        return 0.0, 0
    lmax = max(logs)
    # compensated summation of the scaled terms
    total = 0.0
    comp = 0.0
    for sgn, lg in zip(signs, logs):
        y = sgn * math.exp(lg - lmax) - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
    return total * math.exp(lmax + 0.5 * lnpref), 0


def cg_continued(args: CgArgs) -> float:
    """Continued SU(2) Clebsch-Gordan coefficient via the terminating Racah sum.

    Reduces to the standard coefficient at (half-)integer arguments. Raises
    DomainError when the argument pattern does not terminate (non-integer
    a+b-c) or would need a square root of a negative Gamma value.
    """
    if abs(args.gamma - (args.alpha + args.beta)) > _SELECTION_TOL:
        return 0.0
    val, status = _cg_sum(float(args.a), float(args.b), float(args.alpha),
                          float(args.beta), float(args.c))
    if status != 0:
        raise DomainError(
            f"continued CG sum does not terminate for arguments {args}")
    return val


def _check_level_indices(n: int, p: int, q: int) -> tuple[int, int, int]:
    for name, v in (("n", n), ("p", p), ("q", q)):
        if v != int(v) or v < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {v}")
    n, p, q = int(n), int(p), int(q)
    if p > n or q > n:
        raise DomainError(f"indices must satisfy 0 <= p, q <= n, got n={n}, p={p}, q={q}")
    return n, p, q


def w_coefficient(n: int, p: int, q: int, params: SystemParams, branch: Branch) -> float:
    """Interbasis coefficient: Psi_cyl(n, p) = sum_q W_np^q Psi_sph(n, q).

    W_np^q = (-1)^(n-q) (a0 b0 alpha beta | c0 alpha+beta) with
    a0 = (n +- b)/2, b0 = (n + c)/2, c0 = q + (c +- b)/2,
    alpha = p - (n -+ b)/2, beta = (n + c)/2 - p. The 1x1 level gives +1.
    """
    n, p, q = _check_level_indices(n, p, q)
    b, c, _ = require_admissible(params, branch)
    sb = branch.sign * b
    a0 = 0.5 * (n + sb)
    b0 = 0.5 * (n + c)
    c0 = q + 0.5 * (c + sb)
    alpha = p - 0.5 * (n - sb)
    beta = 0.5 * (n + c) - p
    val = cg_continued(CgArgs(a=a0, b=b0, alpha=alpha, beta=beta,
                              c=c0, gamma=alpha + beta))
    return (-1.0) ** (n - q) * val


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
    scale = np.maximum(np.abs(diag).max(axis=-1), 1.0)
    if offdiag.shape[-1]:
        scale = np.maximum(scale, np.abs(offdiag).max(axis=-1))
    return _RESIDUAL_FACTOR * size * scale


def _recursion_columns(diag: np.ndarray, off: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of an unreduced symmetric tridiagonal matrix for its
    known eigenvalues lam, one column each, first component positive (or
    underflowed to zero).

    Two-sided three-term recursion: a downward pass from x_n = 1 runs while
    |x| grows, i.e. through the forbidden region at the top end up to its
    turning point, where the downward direction is the stable one; an upward
    pass from x_0 = +1 runs to that turning point. The downward part is scaled
    to agree with the upward one there, and the column normalized. Both
    passes rescale a column whose values pass _RESCALE_AT.
    """
    size, count = diag.size, lam.size
    down = np.zeros((size, count))
    down[-1] = 1.0
    growing = np.ones(count, dtype=bool)
    with np.errstate(all="ignore"):   # a corrupted matrix shows as non-finite output
        shift = diag[:, None] - lam
        for p in range(size - 1, 0, -1):
            acc = shift[p] * down[p]
            if p + 1 < size:
                acc += off[p] * down[p + 1]
            new = -acc / off[p - 1]
            growing &= np.abs(new) > np.abs(down[p])
            if not growing.any():
                break
            down[p - 1] = np.where(growing, new, 0.0)
            big = np.abs(down[p - 1]) > _RESCALE_AT
            if big.any():
                down[p - 1:, big] /= np.abs(down[p - 1, big])
        # every value of a growing run is nonzero, so the turning point is the
        # first nonzero entry of each column
        turn = np.argmax(down != 0.0, axis=0)
        up = np.zeros((size, count))
        up[0] = 1.0
        for p in range(int(turn.max())):
            acc = shift[p] * up[p]
            if p:
                acc += off[p - 1] * up[p - 1]
            up[p + 1] = np.where(p < turn, -acc / off[p], 0.0)
            big = np.abs(up[p + 1]) > _RESCALE_AT
            if big.any():
                up[:p + 2, big] /= np.abs(up[p + 1, big])
        cols = np.arange(count)
        match = up[turn, cols] / down[turn, cols]
        vec = np.where(np.arange(size)[:, None] <= turn, up, down * match)
        vec /= np.abs(vec).max(axis=0)   # so the sum of squares cannot overflow
        vec /= np.sqrt((vec * vec).sum(axis=0))
    return vec


def _w_columns(n: int, params: SystemParams, branch: Branch,
               qs: np.ndarray | None = None) -> np.ndarray:
    """Columns qs (default all, 0..n) of W by recursion, checked against the
    eigen residual contract.

    Column q is the eigenvector of 2 m_matrix_cyl for A_q; its sign is the
    Racah sum's, since W_n0^q is a single Racah term with positive Gamma
    arguments, hence positive, and the recursion starts at x_0 = +1. The
    dense (n+1)^2 operator is allocated before any O(n) array, so a level
    too large to tabulate fails at once.
    """
    b, c, _ = require_admissible(params, branch)
    # extreme parameters overflow the operator; the checks below refuse them
    with np.errstate(all="ignore"):
        mat = 2.0 * m_matrix_cyl(n, params, branch)
        diag, off = np.diag(mat), np.diag(mat, 1)
        if qs is None:
            qs = np.arange(n + 1.0)
        base = 2.0 * qs + c + branch.sign * b
        lam = (base + 0.5) * (base + 1.5)
        vec = _recursion_columns(diag, off, lam)
        if not np.isfinite(vec).all():
            raise NumericError(f"interbasis recursion gave non-finite entries at n={n}")
        residual = np.abs(mat @ vec - vec * lam).max()
        bound = _residual_bound(n + 1, diag, off)
    if not residual <= bound:
        raise NumericError(f"interbasis eigen residual {residual:.3e} above contract at n={n}")
    return vec


def w_column(n: int, q: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Column q of the W table (W_np^q for p = 0..n) in O(n), by recursion."""
    n, _, q = _check_level_indices(n, 0, q)
    return _w_columns(n, params, branch, np.array([float(q)]))[:, 0]


def w_matrix(n: int, params: SystemParams, branch: Branch) -> CoefficientMatrix:
    """All W_np^q at level n as a CoefficientMatrix (cylindrical to spherical).

    Built by recursion (see _recursion_columns) in O(n^2); agrees with
    w_coefficient where the Racah sum is accurate. Raises NumericError when
    an entry is non-finite or the table misses its contract: max|W W^T - I|
    within _RESIDUAL_FACTOR (n+1), max|2M W - W diag(A)| within the eigen
    residual bound.
    """
    n, _, _ = _check_level_indices(n, 0, 0)
    ent = _w_columns(n, params, branch)
    ent.flags.writeable = False
    mat = CoefficientMatrix(n=n, branch=branch, orientation="cylindrical_to_spherical",
                            entries=ent)
    ortho = mat.ortho_dev.max()
    if not ortho <= _RESIDUAL_FACTOR * (n + 1):
        raise NumericError(f"interbasis table orthogonality {ortho:.3e} above contract "
                           f"at n={n}")
    return mat


def w_integral_oracle(n: int, p: int, q: int, params: SystemParams, branch: Branch,
                      rule_points: int | None = None) -> float:
    """Same coefficient from the overlap-integral route (Gauss-Jacobi).

    W_np^q = (-1)^(q-p) B_np^q E_np^q, with E the x = cos(2 theta) overlap
    2^-(n+c+-b+1) int (1-x)^(n-p+c) (1+x)^(p+-b) P_q^(c,+-b)(x) dx. The
    integrand splits as the rule's weight times a polynomial of degree n+q,
    so the quadrature value is exact up to roundoff.
    """
    n, p, q = _check_level_indices(n, p, q)
    b, c, _ = require_admissible(params, branch)
    sb = branch.sign * b
    needed = (n + q) // 2 + 1
    npts = n + 8 if rule_points is None else int(rule_points)
    if 2 * npts - 1 < n + q:
        raise AccuracyError(
            f"quadrature of {npts} points is not exact at degree {n + q}; "
            f"needs at least {needed}")
    ln_b2 = (math.log(2.0 * q + c + sb + 1.0)
             + ln_gamma(n - q + 1.0) + ln_gamma(q + 1.0)
             + ln_gamma(q + c + sb + 1.0) + ln_gamma(n + q + c + sb + 2.0)
             - ln_gamma(n - p + 1.0) - ln_gamma(p + 1.0)
             - ln_gamma(q + c + 1.0) - ln_gamma(q + sb + 1.0)
             - ln_gamma(n - p + c + 1.0) - ln_gamma(p + sb + 1.0))
    rule = build_quadrature("jacobi", npts, c, sb)
    x = rule.nodes
    poly = (1.0 - x) ** (n - p) * (1.0 + x) ** p * jacobi_p(q, c, sb, x)
    e_val = 2.0 ** (-(n + c + sb + 1.0)) * rule.integrate(poly)
    return (-1.0) ** (q - p) * math.exp(0.5 * ln_b2) * e_val


def ring_w(N: int, m: int, n3: int, l: int, delta: float) -> float:
    """Ring-regime (b = 1/2) coefficient W_{N m n3}^l(delta).

    Continued CG with a0 = (N+|m|)/4 + delta/2, b0 = (N-|m|-1)/4,
    c0 = (2l-1)/4 + delta/2, alpha = (N+|m|-2 n3)/4 + delta/2,
    beta = (2 n3 - N + |m| - 1)/4; no extra sign factor.
    """
    for name, v in (("N", N), ("n3", n3), ("l", l)):
        if v != int(v) or v < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {v}")
    N, n3, l = int(N), int(n3), int(l)
    ma = abs(int(m))
    if delta < 0.0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    if l < ma or l > N or (N - l) % 2:
        raise DomainError(f"need |m| <= l <= N with N - l even, got N={N}, l={l}, m={m}")
    if n3 > N - ma or (N - ma - n3) % 2:
        raise DomainError(
            f"need 0 <= n3 <= N - |m| with N - |m| - n3 even, got N={N}, n3={n3}, m={m}")
    a0 = 0.25 * (N + ma) + 0.5 * delta
    b0 = 0.25 * (N - ma - 1.0)
    c0 = 0.25 * (2.0 * l - 1.0) + 0.5 * delta
    alpha = 0.25 * (N + ma - 2.0 * n3) + 0.5 * delta
    beta = 0.25 * (2.0 * n3 - N + ma - 1.0)
    return cg_continued(CgArgs(a=a0, b=b0, alpha=alpha, beta=beta,
                               c=c0, gamma=alpha + beta))


def m_matrix_cyl(n: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Matrix of the spherical constant's operator in the cylindrical basis.

    Symmetric tridiagonal over p = 0..n; twice this matrix is similar to
    diag(A_q) through the W matrix.
    """
    n, _, _ = _check_level_indices(n, 0, 0)
    b, c, _ = require_admissible(params, branch)
    sb = branch.sign * b
    mat = np.zeros((n + 1, n + 1))
    for p in range(n + 1):
        mat[p, p] = (0.5 * (c - sb + 0.5) * (c - sb + 1.5)
                     + 2.0 * (p + 1.0) * (n - p)
                     + 2.0 * (p + sb) * (n + c - p + 1.0))
        if p < n:
            off = 2.0 * math.sqrt((p + 1.0) * (p + 1.0 + sb) * (n - p) * (n + c - p))
            mat[p, p + 1] = off
            mat[p + 1, p] = off
    return mat


def n_matrix_sph(n: int, params: SystemParams, branch: Branch) -> np.ndarray:
    """Matrix of the cylindrical constant's operator in the spherical basis.

    Symmetric tridiagonal over q = 0..n with eigenvalues E_z(p); the q = 0
    diagonal uses the factored form because c + sb can vanish (c = b on the
    Minus branch).
    """
    n, _, _ = _check_level_indices(n, 0, 0)
    b, c, _ = require_admissible(params, branch)
    sb = branch.sign * b
    omega = params.omega
    e_n = omega * (2.0 * n + c + sb + 2.0)
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = e_n * (sb + 1.0) / (c + sb + 2.0)
    for q in range(1, n + 1):
        base = 2.0 * q + c + sb
        mat[q, q] = (e_n * (2.0 * q * (q + 1.0) + (c + sb) * (2.0 * q + sb + 1.0))
                     / (base * (base + 2.0)))
        off = -2.0 * omega * math.sqrt(
            q * (n - q + 1.0) * (q + c + sb) * (q + sb) * (q + c)
            * (n + q + c + sb + 1.0)
            / (base * base * (base - 1.0) * (base + 1.0)))
        mat[q - 1, q] = off
        mat[q, q - 1] = off
    return mat
