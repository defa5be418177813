"""Scalar special functions and Gaussian quadrature rules.

Everything downstream (basis evaluation, overlap coefficients, oracle
integrals) is built on these primitives. Normalization-sized quantities are
handled in log space via ln_gamma; polynomial values come from forward
three-term recurrences.

laguerre_functions runs the orthonormal Laguerre functions on scaled rows with
a log scale per point: no overflow at any degree, exactly 0 in the far tail.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, NumericError, check_nonneg_int

__all__ = [
    "QuadratureRule",
    "ln_gamma",
    "gamma_sign_ln",
    "jacobi_p",
    "jacobi_rows",
    "gen_laguerre",
    "laguerre_functions",
    "gegenbauer",
    "hermite",
    "assoc_legendre",
    "hyp2f1_unit",
    "build_quadrature",
]

_QUAD_KINDS = ("legendre", "jacobi", "laguerre")


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_sign_ln(x: float) -> tuple[float, float]:
    """(sign, ln|Gamma(x)|) for any real x; sign 0.0 at the poles.

    A point within 1e-12 of a nonpositive integer counts as a pole. Off the
    poles Gamma(x) < 0 exactly where x < 0 and floor(x) is odd.
    """
    x = float(x)
    if x <= 0.0 and abs(x - math.floor(x + 0.5)) < 1e-12:
        return 0.0, math.inf
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    return sign, math.lgamma(x)


# The recurrences yield their values at degrees 0, 1, ..., n in turn, each one
# row over the points, and keep only the last two rows. A yielded row is the
# recurrence's own state: read it, do not write to it.

def _jacobi(n, alpha, beta, x):
    p0 = np.ones_like(x)
    yield p0
    if n == 0:
        return
    p1 = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    yield p1
    for k in range(2, n + 1):
        k2ab = 2.0 * k + alpha + beta
        c1 = 2.0 * k * (k + alpha + beta) * (k2ab - 2.0)
        c2 = (k2ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (k2ab - 2.0) * (k2ab - 1.0) * k2ab
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * k2ab
        p0, p1 = p1, ((c2 + c3 * x) * p1 - c4 * p0) / c1
        yield p1


def _laguerre(n, alpha, x):
    p0 = np.ones_like(x)
    yield p0
    if n == 0:
        return
    p1 = 1.0 + alpha - x
    yield p1
    for k in range(2, n + 1):
        p0, p1 = p1, ((2.0 * k - 1.0 + alpha - x) * p1 - (k - 1.0 + alpha) * p0) / k
        yield p1


def _gegenbauer(n, lam, x):
    p0 = np.ones_like(x)
    yield p0
    if n == 0:
        return
    p1 = 2.0 * lam * x
    yield p1
    for k in range(2, n + 1):
        p0, p1 = p1, (2.0 * (k + lam - 1.0) * x * p1 - (k + 2.0 * lam - 2.0) * p0) / k
        yield p1


def _hermite(n, x):
    p0 = np.ones_like(x)
    yield p0
    if n == 0:
        return
    p1 = 2.0 * x
    yield p1
    for k in range(2, n + 1):
        p0, p1 = p1, 2.0 * x * p1 - 2.0 * (k - 1.0) * p0
        yield p1


def _poly_eval(recurrence, args, x):
    """Last degree of a forward three-term recurrence over the points x (any
    shape); a float for a scalar x. Only the last two rows are ever held."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = deque(recurrence(*args, arr.ravel()), maxlen=1)[0]
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _check_degree(n: int) -> int:
    return check_nonneg_int(n, "polynomial degree")


def _jacobi_args(n, alpha, beta):
    n = _check_degree(n)
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"jacobi_p requires alpha, beta > -1, got ({alpha}, {beta})")
    return n, float(alpha), float(beta)


def jacobi_rows(n: int, alpha: float, beta: float, x):
    """P_0^(alpha, beta)(x), ..., P_n^(alpha, beta)(x), alpha, beta > -1, as a
    generator of rows over the array x, from one forward recurrence."""
    return _jacobi(*_jacobi_args(n, alpha, beta), np.asarray(x, dtype=np.float64))


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x), alpha, beta > -1."""
    return _poly_eval(_jacobi, _jacobi_args(n, alpha, beta), x)


def gen_laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x), alpha > -1."""
    n = _check_degree(n)
    if not alpha > -1.0:
        raise DomainError(f"gen_laguerre requires alpha > -1, got {alpha}")
    return _poly_eval(_laguerre, (n, float(alpha)), x)


@lru_cache(maxsize=1024)
def _ln_gamma_sum(y: float) -> float:
    """lnGamma(y), y > 0, on [100, 1e4) from an exact sum of ln(y - j): lgamma is 1e-12 off."""
    m = int(y) - 1 if 100.0 <= y < 1e4 else 0
    return math.lgamma(y - m) + math.fsum(np.log(y - np.arange(1.0, m + 1.0)).tolist())


def laguerre_functions(degrees, alpha, log_x, power: float = 0.0,
                       ln_const: float = 0.0) -> np.ndarray:
    """e^ln_const x^power phi_k^alpha(x) at x = exp(log_x), a row per k in degrees.

    phi_k^alpha(x) = sqrt(k!/Gamma(k+alpha+1)) x^(alpha/2) e^(-x/2) L_k^alpha(x),
    alpha > -1, from sqrt((k+1)(k+alpha+1)) phi_{k+1} = (k+alpha+1) phi_k - x chi_k and
    chi_{k+1} = sqrt((k+1)/(k+alpha+1)) chi_k + phi_{k+1}, chi_k being phi_k with L_k^(alpha+1)
    (DLMF 18.9.13-14; x is a factor, so small x keeps its digits at high degree), on rows
    renormalised by exact powers of two beside each point's log scale ln phi_0 + ln_const
    + power ln x. alpha is one order, or one per (distinct) degree, and ln_const one value
    or one per order; log_x is finite, or -inf if alpha > 0 = power. Points do not affect
    each other (a lone one runs as a cheaper numpy scalar), nor, to 2 ulp, do rows. A point
    where every requested phi is below e^-1500 gives exactly 0 (for ln_const < 700, |power| <= 1).
    """
    degrees = [k if type(k) is int and k >= 0 else _check_degree(k) for k in degrees]
    orders = [float(alpha)] if np.isscalar(alpha) else [float(a) for a in alpha]
    consts = [float(ln_const)] if np.isscalar(ln_const) else [float(c) for c in ln_const]
    wanted = {deg: i for i, deg in enumerate(degrees)}
    if (not degrees or len(wanted) < len(degrees) or len(orders) not in (1, len(degrees))
            or len(consts) not in (1, len(orders)) or not all(a > -1.0 for a in orders)):
        raise DomainError(f"laguerre_functions needs distinct degrees, alpha > -1 and one order "
                          f"or one per degree, ln_const likewise; got alpha={alpha}, "
                          f"ln_const={ln_const}, degrees {degrees}")
    n, lo, hi = max(degrees), min(orders), max(orders)
    # |phi_k| <= e^(m ln(x + c) - x/2 + 1/16), k <= n, x >= 1 (m = hi+/2 + n, c = 3n + 1.5 hi+
    # + 1): below e^-1500 past x_tail, where points move to give 0. Below it a step grows
    # max(|phi_k|, |chi_k|) at most 2 x_tail / sqrt(lo + 1) times; rows checked for 2^332
    # every `every` steps stay below 2^1000.
    x_tail = 3002.0 + (2.0 * max(hi, 0.0) + 4.0 * n) * math.log(3004.0 + 5.0 * n + 2.5 * hi)
    every = max(1, int((668.0 * math.log(2.0) - math.log(2.0 * x_tail))
                       / math.log(2.0 * x_tail / math.sqrt(lo + 1.0))))
    pts = np.minimum(np.asarray(log_x, dtype=np.float64), math.log(x_tail))
    x = np.exp(pts)
    if len(orders) == 1:   # one order runs on the points
        col, ln_gamma, phi, const = lo, _ln_gamma_sum(lo + 1.0), 1.0, consts[0]
        steps = [(k + lo, math.sqrt(k * (k + lo)), math.sqrt(k / (k + lo)))
                 for k in range(1, n + 1)]
    else:   # one order per row, on a (rows,) + points grid in degree order
        by_degree = [wanted[deg] for deg in sorted(wanted)]
        orders = [orders[i] for i in by_degree]
        consts = consts if len(consts) == 1 else [consts[i] for i in by_degree]
        col = np.array(orders).reshape((-1,) + (1,) * pts.ndim)
        k = np.arange(1, n + 1, dtype=np.float64).reshape((-1, 1) + (1,) * pts.ndim)
        steps = list(zip(k + col, np.sqrt(k * (k + col)), np.sqrt(k / (k + col))))
        ln_gamma = np.array([_ln_gamma_sum(a + 1.0) for a in orders]).reshape(col.shape)
        const = np.reshape(consts, (-1,) + (1,) * pts.ndim)
        phi = np.ones(np.broadcast_shapes(col.shape, pts.shape))
    ln0 = (0.5 * col + power) * pts - 0.5 * x + (const - 0.5 * ln_gamma)
    rows = [None] * len(degrees)
    chi, exp2, scale = phi, 0, np.exp(ln0)   # phi, chi: scaled phi_k, chi_k (chi_0 = phi_0)
    read = 0   # rows read and still on the grid, cut in batches of a quarter of it, 16 or more
    for k in range(n + 1):
        if k in wanted and len(orders) == 1:
            rows[wanted[k]] = phi * scale
        elif k in wanted:
            rows[wanted[k]] = phi[read] * scale[read]
            read += 1
            if read >= max(16, len(phi) / 4):
                phi, chi, scale, ln0 = phi[read:], chi[read:], scale[read:], ln0[read:]
                exp2 = exp2[read:] if isinstance(exp2, np.ndarray) else exp2
                steps[k:] = [(c[read:], d[read:], g[read:]) for c, d, g in steps[k:]]
                read = 0
        if k == n:
            break
        if k and k % every == 0:
            big = np.maximum(np.abs(phi), np.abs(chi))
            if big.max() > 2.0 ** 332:
                e = np.where(big > 2.0 ** 332, np.frexp(big)[1], 0)
                phi, chi, exp2 = np.ldexp(phi, -e), np.ldexp(chi, -e), exp2 + e
                # e^ln0 2^exp2 as e^r 2^(j + exp2), ln0 = r + j ln 2 split exactly (ln 2's
                # head has 15 bits, |j| < 2^38 past the floor that keeps -inf off the cast):
                # rounding ln0 + exp2 ln 2 costs ulps that follow which steps renormalised a row
                j = np.rint(np.maximum(ln0, -1e11) / math.log(2.0))
                r = (ln0 - j * 0.693145751953125) - j * 1.4286068203094172321e-6
                scale = np.where(e > 0, np.ldexp(np.exp(r), j.astype(np.int64) + exp2), scale)
        c, d, g = steps[k]
        phi = (c * phi - x * chi) / d
        chi = g * chi + phi
    return np.array(rows) if len(rows) > 1 else rows[0][None]


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x), lam > -1/2 and lam != 0."""
    n = _check_degree(n)
    if lam <= -0.5 or lam == 0.0:
        raise DomainError(f"gegenbauer requires lam > -1/2, lam != 0, got {lam}")
    return _poly_eval(_gegenbauer, (n, float(lam)), x)


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x)."""
    n = _check_degree(n)
    return _poly_eval(_hermite, (n,), x)


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre function on [-1, 1], 0 <= m <= l.

    Defined through the Gegenbauer connection
    P_l^m(x) = (-2)^m / sqrt(pi) * Gamma(m + 1/2) * (1-x^2)^(m/2) * C_{l-m}^{m+1/2}(x),
    which fixes the sign convention (P_1^1(0) = -1).
    """
    l = _check_degree(l)
    m = _check_degree(m)
    if m > l:
        raise DomainError(f"assoc_legendre requires m <= l, got l={l}, m={m}")
    xa = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(xa) > 1.0 + 1e-14):
        raise DomainError("assoc_legendre requires |x| <= 1")
    cval = gegenbauer(l - m, m + 0.5, x)
    if m == 0:
        return cval
    pref = (-2.0) ** m / math.sqrt(math.pi) * math.exp(ln_gamma(m + 0.5))
    s = np.clip(1.0 - np.square(xa), 0.0, None) ** (0.5 * m)
    out = pref * s * cval
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def hyp2f1_unit(a: float, b: float, c: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; 1).

    Terminating case when a or b is a nonpositive integer; otherwise the
    Gauss summation value Gamma(c)Gamma(c-a-b) / [Gamma(c-a)Gamma(c-b)],
    requiring c - a - b > 0. Reciprocal Gamma at a nonpositive integer is
    taken as zero, so the value vanishes when c - a or c - b is one.
    """
    a, b, c = float(a), float(b), float(c)

    def _nonpos_int(v: float) -> bool:
        return v <= 1e-9 and abs(v - round(v)) < 1e-9

    if _nonpos_int(a) or _nonpos_int(b):
        if _nonpos_int(b) and (not _nonpos_int(a) or round(b) > round(a)):
            a, b = b, a
        k_top = int(-round(a))
        total = 1.0
        term = 1.0
        for k in range(k_top):
            den = (c + k) * (k + 1.0)
            if den == 0.0:
                raise DomainError(f"hyp2f1_unit undefined: c hits a nonpositive integer, c={c}")
            term *= (a + k) * (b + k) / den
            total += term
        return total
    if c - a - b <= 0.0:
        raise DomainError(f"hyp2f1_unit diverges at unit argument for c-a-b={c - a - b}")
    sc, lc = gamma_sign_ln(c)
    if sc == 0.0:
        raise DomainError(f"hyp2f1_unit undefined: c is a nonpositive integer, c={c}")
    scab, lcab = gamma_sign_ln(c - a - b)
    sca, lca = gamma_sign_ln(c - a)
    scb, lcb = gamma_sign_ln(c - b)
    if sca == 0.0 or scb == 0.0:
        return 0.0
    return sc * scab * sca * scb * math.exp(lc + lcab - lca - lcb)


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: sum(w_i f(x_i)) integrates f against the weight function.

    kind is one of 'legendre' (weight 1 on [-1,1]), 'jacobi' (weight
    (1-x)^alpha (1+x)^beta on [-1,1]) or 'laguerre' (weight x^alpha e^-x on
    [0, inf)). Nodes are strictly increasing; a rule of N points is exact through
    degree 2N - 1. Weights are strictly positive; a Laguerre rule's leave double range
    past ~180 points or alpha ~ 170, where reading them raises AccuracyError. Its
    scaled_weights, the weights over x^alpha e^-x, never do; other kinds' are the weights.
    """

    kind: str
    npoints: int
    alpha: float
    beta: float
    nodes: np.ndarray
    scaled_weights: np.ndarray

    @cached_property
    def weights(self) -> np.ndarray:
        """The Gauss weights: a Laguerre rule's scaled_weights times x^alpha e^-x."""
        if self.kind != "laguerre":
            return self.scaled_weights
        with np.errstate(over="ignore", under="ignore"):
            # to a few ulps: the half power stays in range wherever the weights do
            half = self.nodes ** (0.5 * self.alpha) * np.exp(-0.5 * self.nodes)
            weights = self.scaled_weights * half * half
        if not np.all((weights > 0.0) & (weights < math.inf)):
            raise AccuracyError(f"laguerre rule weights leave double range for "
                                f"n={self.npoints}, alpha={self.alpha}")
        weights.flags.writeable = False
        return weights

    def integrate(self, values: np.ndarray) -> float:
        """Contract sampled integrand values (at .nodes) with the weights."""
        # numpy's own loop, not BLAS: the sum order does not follow the thread count
        return float(np.einsum("i,i->", self.weights, values))


def _jacobi_coeffs(n: int, alpha: float, beta: float):
    """Monic three-term coefficients (a_k, b_k), k = 0..n, of an n-point rule (the
    last ones give p_n at its nodes), with b_0 the weight integral."""
    k = np.arange(n + 1, dtype=np.float64)
    ab = alpha + beta
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
        b = (4.0 * k * (k + alpha) * (k + beta) * (k + ab)
             / ((2.0 * k + ab) ** 2 * (2.0 * k + ab + 1.0) * (2.0 * k + ab - 1.0)))
    a[0] = (beta - alpha) / (ab + 2.0)
    ln_b0 = ((ab + 1.0) * math.log(2.0) + ln_gamma(alpha + 1.0)
             + ln_gamma(beta + 1.0) - ln_gamma(ab + 2.0))
    b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    try:
        b[0] = math.exp(ln_b0)
    except OverflowError:
        raise AccuracyError(f"jacobi rule weight integral e^{ln_b0:.6g} leaves double "
                            f"range for n={n}, alpha={alpha}, beta={beta}") from None
    return a, b


@lru_cache(maxsize=256)
def build_quadrature(kind: str, n: int, alpha: float = 0.0, beta: float = 0.0) -> QuadratureRule:
    """Golub-Welsch construction of an n-point Gaussian rule.

    Nodes are the eigenvalues of the symmetrized recurrence (Jacobi) matrix,
    solved by LAPACK (numpy.linalg.eigvalsh, ascending), a Jacobi rule's then
    polished by one Newton step; weights come from the reciprocal Christoffel
    sums, so no eigenvectors are needed. A Laguerre rule's sum is of orthonormal
    Laguerre functions (laguerre_functions), which gives its scaled weights at any
    size; a Jacobi rule whose weight integral or weights leave double range raises
    AccuracyError. Rules are cached and immutable.
    """
    if kind not in _QUAD_KINDS:
        raise DomainError(f"unknown quadrature kind {kind!r}, expected one of {_QUAD_KINDS}")
    if check_nonneg_int(n, "quadrature size") < 1:
        raise DomainError(f"quadrature size must be a positive integer, got {n}")
    n = int(n)
    alpha = float(alpha)
    beta = float(beta)
    if kind == "laguerre":
        if alpha <= -1.0 or beta != 0.0:
            raise DomainError(f"laguerre rule needs alpha > -1, beta = 0, got ({alpha}, {beta})")
        k = np.arange(n, dtype=np.float64)
        acoef, off = 2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha))
    else:
        if kind == "legendre" and (alpha != 0.0 or beta != 0.0):
            raise DomainError("legendre rule takes no exponents")
        if alpha <= -1.0 or beta <= -1.0:
            raise DomainError(f"jacobi rule requires alpha, beta > -1, got ({alpha}, {beta})")
        acoef, bcoef = _jacobi_coeffs(n, alpha, beta)
        off = np.sqrt(bcoef[1:n])
    jacobi = np.diag(acoef[:n])
    jacobi.flat[n::n + 1] = off   # the subdiagonal: eigvalsh reads the lower triangle
    try:
        nodes = np.linalg.eigvalsh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"quadrature eigensolve failed for {kind}, n={n}: {exc}") from exc
    if not (np.isfinite(nodes).all() and (kind != "laguerre" or nodes[0] > 0.0)):
        raise NumericError(f"quadrature eigensolve gave nodes off the {kind} interval, n={n}")
    if kind == "laguerre":
        phi = laguerre_functions(range(n), alpha, np.log(nodes))
        weights = 1.0 / np.einsum("ki,ki->i", phi, phi)
    else:
        # Christoffel sums of the orthonormal polynomials at the nodes; where a
        # sum overflows the true weight underflows double precision: 0, refused below.
        # eigvalsh puts nodes near +-1 ulps off (61-point Jacobi(0, -1/2): end weight
        # 5.7e-13 off); one Newton step polishes them, with p_n' = total / (sqrt(b_n)
        # p_{n-1}) from Christoffel-Darboux
        sqb = np.sqrt(bcoef)
        with np.errstate(over="ignore", invalid="ignore"):
            for polish in (True, False):
                prev, cur, total = np.zeros_like(nodes), np.full_like(nodes, 1.0 / sqb[0]), 0.0
                for k in range(n):
                    total = total + cur * cur
                    prev, cur = cur, ((nodes - acoef[k]) * cur - sqb[k] * prev) / sqb[k + 1]
                if polish:
                    nodes = nodes - sqb[n] * cur * prev / total
        weights = 1.0 / total
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise AccuracyError(f"quadrature weights leave double range for {kind}, n={n}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(kind=kind, npoints=n, alpha=alpha, beta=beta,
                          nodes=nodes, scaled_weights=weights)
