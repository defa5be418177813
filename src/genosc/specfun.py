"""Scalar special functions and Gaussian quadrature rules.

Everything downstream (basis evaluation, overlap coefficients, oracle
integrals) is built on these primitives. The Gamma normalisers of the Laguerre
functions and the Jacobi family come from one exact product (_ln_norm0); the Jacobi
family's p_0 refuses where alpha + beta + 1 leaves that product's range (_gamma_ratio). The
Jacobi, Laguerre, Gegenbauer and Hermite polynomials, and the orthonormal Jacobi
rows behind the Jacobi rules and bases' angular factors (_jacobi_rows), are step
functions of one forward three-term recurrence (_three_term).

The orthonormal Laguerre functions run on rows renormalised by exact powers of two, with
one finish (_scale_rows), for every degree of one order (laguerre_functions) or for an order
falling by two per degree, phi_p^(beta-2p) (laguerre_diagonal: a spherical level's radial
terms, the Morse levels). Every Gauss rule is finished from its orthonormal rows at the nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice, repeat
from operator import mul

import numpy as np

from ._cache import SETUPS, cached
from .errors import (AccuracyError, DomainError, NumericError, _as_float, _require_finite,
                     _require_table, check_nonneg_int, check_points)

__all__ = [
    "QuadratureRule",
    "ln_gamma",
    "gamma_sign_ln",
    "jacobi_p",
    "gen_laguerre",
    "laguerre_functions",
    "laguerre_diagonal",
    "gegenbauer",
    "hermite",
    "assoc_legendre",
    "build_quadrature",
]

_QUAD_KINDS = ("legendre", "jacobi", "laguerre")


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not _as_float(x) > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_sign_ln(x: float) -> tuple[float, float]:
    """(sign, ln|Gamma(x)|) for any real x or +inf; sign 0.0 at the poles.

    A point within 1e-12 of a nonpositive integer counts as a pole. Off the
    poles Gamma(x) < 0 exactly where x < 0 and floor(x) is odd. NaN and -inf
    raise DomainError.
    """
    x = _as_float(x)
    if not x > -math.inf:
        raise DomainError(f"gamma_sign_ln requires a real x or +inf, got {x}")
    if x <= 0.0 and abs(x - math.floor(x + 0.5)) < 1e-12:
        return 0.0, math.inf
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    return sign, math.lgamma(x)


def _three_term(n, p0, p1, step):
    """P_0 = p0, P_1 = p1, ..., P_n over the points from P_k = step(k, P_{k-1}, P_{k-2}),
    yielded in turn, only the last two rows held. A yielded row is the recurrence's own
    state: read it, do not write to it."""
    yield p0
    if n == 0:
        return
    yield p1
    for k in range(2, n + 1):
        p0, p1 = p1, step(k, p1, p0)
        yield p1


def _jacobi(n, alpha, beta, x):
    def step(k, p1, p0):
        k2ab = 2.0 * k + alpha + beta
        c3 = (k2ab - 2.0) * (k2ab - 1.0) * k2ab
        return (((k2ab - 1.0) * (alpha * alpha - beta * beta) + c3 * x) * p1
                - 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * k2ab * p0) / (
                    2.0 * k * (k + alpha + beta) * (k2ab - 2.0))
    return _three_term(n, np.ones_like(x), 0.5 * (alpha - beta + (alpha + beta + 2.0) * x), step)


def _laguerre(n, alpha, x):
    return _three_term(n, np.ones_like(x), 1.0 + alpha - x, lambda k, p1, p0: (
        (2.0 * k - 1.0 + alpha - x) * p1 - (k - 1.0 + alpha) * p0) / k)


def _gegenbauer(n, lam, x):
    return _three_term(n, np.ones_like(x), 2.0 * lam * x, lambda k, p1, p0: (
        2.0 * (k + lam - 1.0) * x * p1 - (k + 2.0 * lam - 2.0) * p0) / k)


def _hermite(n, x):
    return _three_term(n, np.ones_like(x), 2.0 * x,
                       lambda k, p1, p0: 2.0 * x * p1 - 2.0 * (k - 1.0) * p0)


def _poly_eval(recurrence, args, x):
    """Last degree of a forward three-term recurrence over the points x (any
    shape); a float for a scalar x. Only the last two rows are ever held."""
    pts = check_points(x, "x")
    out = deque(recurrence(*args, np.atleast_1d(pts).ravel()), maxlen=1)[0]
    return out.reshape(pts.shape) if pts.ndim else float(out[0])


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x), alpha, beta > -1."""
    n = check_nonneg_int(n, "polynomial degree")
    if not (_as_float(alpha) > -1.0 and _as_float(beta) > -1.0):
        raise DomainError(f"jacobi_p requires alpha, beta > -1, got ({alpha}, {beta})")
    return _poly_eval(_jacobi, (n, float(alpha), float(beta)), x)


def gen_laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x), alpha > -1."""
    n = check_nonneg_int(n, "polynomial degree")
    if not _as_float(alpha) > -1.0:
        raise DomainError(f"gen_laguerre requires alpha > -1, got {alpha}")
    return _poly_eval(_laguerre, (n, float(alpha)), x)


# ln 2 for Cody-Waite reduction: the head has 15 bits, so j * head is exact for
# |j| < 2^38, which flooring a log at -1e11 keeps even -inf within
_LN2_HI, _LN2_LO = 0.693145751953125, 1.4286068203094172321e-6


def _split_ln2(ln):
    """(r, j), ln = r + j ln 2 split exactly, j integral: e^ln as e^r 2^j for any finite
    ln. Rounding ln + k ln 2 instead would cost ulps that follow which steps renormalised
    a row."""
    j = np.rint(ln / math.log(2.0))
    return (ln - j * _LN2_HI) - j * _LN2_LO, j


def _ln_norm0(beta) -> tuple[float, int]:
    """(r, j) with 1/sqrt(Gamma(beta + 1)) = e^r 2^j, beta = num/den > -1 a float or dyadic
    Fraction: the one Gamma routine for normalisers. Below beta = 9999, Gamma(beta - k + 1)
    times the k = int(beta) factors beta - t, t < k, each an int over one power of two,
    multiplied as ints kept to 96 bits and rounded once (a product of doubles gathers an ulp
    a factor); lgamma past it."""
    num, den = beta.as_integer_ratio()
    if not num < 9999 * den:
        r, j = _split_ln2(-0.5 * math.lgamma(num / den + 1.0))
        return float(r), int(j)
    k = max(num // den, 0)
    factors, prod, e = range(num - (k - 1) * den, num + 1, den), 1, 0   # (beta - t) den
    for i in range(0, k, 16):
        prod *= math.prod(factors[i:i + 16])
        drop = max(prod.bit_length() - 96, 0)
        prod, e = prod >> drop, e + drop
    m, de = math.frexp(float(prod) * math.gamma((num - k * den) / den + 1.0))
    e += de - k * (den.bit_length() - 1)
    return -0.5 * math.log(m * 2.0 ** (e % 2)), -(e // 2)


# a Laguerre order's (_scale_rows) or a Jacobi exponent's (_gamma_ratio), built once
_order_norm0 = cached(SETUPS)(_ln_norm0)


@cached(SETUPS)
def _gamma_ratio(alpha: float, beta: float) -> tuple[float, int]:
    """(m, e), e even, with Gamma(alpha + 1) Gamma(beta + 1) / Gamma(alpha + beta + 2) = m 2^e,
    alpha, beta > -1, from the cached normalisers of alpha and beta (_order_norm0) and _ln_norm0 at
    the exact alpha + beta + 1 (_jacobi_p0).
    AccuracyError from alpha + beta + 1 = 9999, where _ln_norm0 turns to lgamma and the ratio
    would cancel three of its values (theta_ring was 3.2e-12 off at 10005, 6.7e-10 at 2e6)."""
    total = Fraction(alpha) + Fraction(beta) + 1
    if not total < 9999:   # alpha and beta are then below it too
        raise AccuracyError(f"Jacobi p_0 at alpha + beta + 1 = {float(total):g} >= 9999 "
                            f"cancels three lgamma values")
    (ra, ja), (rb, jb) = _order_norm0(alpha), _order_norm0(beta)
    rs, js = _ln_norm0(total)
    return math.exp(2.0 * (rs - ra - rb)), 2 * (js - ja - jb)


def _jacobi_p0(alpha: float, beta: float, power: float = 0.0) -> float:
    """2^power p_0, p_0 = 1/sqrt(b_0) and b_0 = 2^(alpha + beta + 1) Gamma(alpha + 1)
    Gamma(beta + 1) / Gamma(alpha + beta + 2) the Jacobi weight integral, alpha, beta > -1:
    _gamma_ratio's m 2^e with the power of two joined to e exactly, so no factor leaves
    double range on its own. AccuracyError when the product or the order leaves it."""
    try:
        m, e = _gamma_ratio(alpha, beta)
        s = alpha + beta + 1.0 - 2.0 * power
        half = math.floor(0.5 * s)   # 2^s = 2^(s - 2 half) 4^half, s - 2 half exact
        return math.ldexp(1.0 / math.sqrt(m * 2.0 ** (s - 2.0 * half)), -(e // 2 + half))
    except OverflowError:
        raise AccuracyError(f"Jacobi p_0 leaves double range for alpha={alpha}, "
                            f"beta={beta}") from None


@cached(SETUPS)
def _jacobi_coeffs(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(a_k, sqrt(b_k)), k = 0..n, n >= 1, of the orthonormal Jacobi(alpha, beta) recurrence
    sqrt(b_{k+1}) p_{k+1} = (x - a_k) p_k - sqrt(b_k) p_{k-1}: the steps to degree n, which
    an n-point rule's Jacobi matrix and its p_n read too. No step reads sqrt(b_0), held as 0."""
    k = np.arange(n + 1, dtype=np.float64)
    ab = alpha + beta
    s = 2.0 * k + ab
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (beta * beta - alpha * alpha) / (s * (s + 2.0))
        b = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s ** 2 * (s + 1.0) * (s - 1.0))
    a[0], b[0] = (beta - alpha) / (ab + 2.0), 0.0
    b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    return a, np.sqrt(b)


def _jacobi_rows(n: int, alpha: float, beta: float, x, start):
    """start p_k / p_0 over the points x, k = 0..n, yielded in turn (_three_term): the orthonormal
    Jacobi(alpha, beta) polynomials p_k (DLMF 18.9.2) from _jacobi_coeffs' steps, read as floats
    (indexing an array costs a lone point more than the step). start is p_0 times the caller's
    factor at each point; a root of the weight in it makes every row bounded at any degree."""
    a, sb = (v.tolist() for v in _jacobi_coeffs(max(n, 1), alpha, beta))   # p_1 at n = 0 too
    return _three_term(n, start, (x - a[0]) * start / sb[1],
                       lambda k, p1, p0: ((x - a[k - 1]) * p1 - sb[k - 1] * p0) / sb[k])


def _x_tail(n: int, hi: float) -> float:
    """|phi_k^a(x)| <= e^(m ln(x + c) - x/2 + 1/16) for k <= n, -1 < a <= hi and x >= 1
    (m = hi+/2 + n, c = 3n + 1.5 hi+ + 1): below e^-1500 past this x."""
    return 3002.0 + (2.0 * max(hi, 0.0) + 4.0 * n) * math.log(3004.0 + 5.0 * n + 2.5 * hi)


def _degree_rows(degrees, what: str) -> dict:
    """{degree: row} of distinct nonnegative degrees, at least one."""
    wanted = {k if type(k) is int and k >= 0 else check_nonneg_int(k, "polynomial degree"): i
              for i, k in enumerate(degrees)}
    if not wanted or len(wanted) < len(degrees):
        raise DomainError(f"{what} needs distinct degrees, got {list(degrees)}")
    return wanted


def _scale_rows(out, wanted: dict, renorms: list, x, pts, order: float, power: float,
                ln_const: float) -> tuple[float, int]:
    """Both Laguerre drivers' finish, in place: row wanted[k] of out times x^(order/2 + power)
    e^(-x/2) N_0 e^ln_const 2^e, x = exp(pts), N_0 = e^r0 2^j0 = _order_norm0(order) (returned),
    e the exp2 of the last (since, exp2) in renorms with since <= k, else 0. No large log is
    rounded: x^floor(order/2) comes from the rows' x (ln x is an ulp off), -x/2 is split
    exactly, and each value is rounded from its own mantissa, so points stay independent."""
    half = int(0.5 * order)
    if half > 2 ** 20:   # its Gamma normaliser keeps under nine digits, its power costs O(order)
        raise AccuracyError(f"Laguerre order {order} past 2^21")
    r0, j0 = _order_norm0(order)
    rest = (0.5 * order - half + power) * pts + (r0 + ln_const)
    hx = -0.5 * x
    j = np.rint((hx + rest) / math.log(2.0))
    scale = np.exp(((hx - j * _LN2_HI) - j * _LN2_LO) + rest)
    j = j.astype(np.int64) + j0
    if half:   # x^half = m 2^e: x = f 2^k with f in [1/2, 1) keeps f^1000 >= 2^-1000 in range
        f, k = np.frexp(x)
        m, e = np.power(f, min(half, 1000)), k * half
        for done in range(1000, half, 1000):
            m, de = np.frexp(m)
            m, e = m * np.power(f, min(1000, half - done)), e + de
        scale, j = scale * m, j + e
    out *= scale
    if not renorms:
        np.ldexp(out, j, out=out)
        return r0, j0
    # rows share an exp2 from one renormalisation to the next: one ldexp per run of rows,
    # with no row table of exponents
    since, exp2s = zip(*renorms)
    exp2s, start = (0, *exp2s), 0
    for group, rows in groupby(bisect_right(since, k) for k in wanted):
        stop = start + sum(1 for _ in rows)
        np.ldexp(out[start:stop], exp2s[group] + j, out=out[start:stop])
        start = stop
    return r0, j0


def laguerre_functions(degrees, alpha: float, log_x, power: float = 0.0,
                       ln_const: float = 0.0) -> np.ndarray:
    """e^ln_const x^power phi_k^alpha(x) at x = exp(log_x), a row per k in degrees.

    phi_k^alpha(x) = sqrt(k!/Gamma(k+alpha+1)) x^(alpha/2) e^(-x/2) L_k^alpha(x) for one
    order alpha > -1, from sqrt((k+1)(k+alpha+1)) phi_{k+1} = (k+alpha+1) phi_k - x chi_k and
    chi_{k+1} = sqrt((k+1)/(k+alpha+1)) chi_k + phi_{k+1}, chi_k being phi_k with L_k^(alpha+1)
    (DLMF 18.9.13-14; x is a factor, so small x keeps its digits at high degree), on rows
    renormalised by exact powers of two and finished by _scale_rows. alpha and ln_const
    are one value each (an order that falls by two per degree runs in laguerre_diagonal);
    log_x is finite, or -inf if alpha > 0 = power. Off 40-digit mpmath by at most 1e-13 of
    each row's largest value over its support, for alpha to 1200 and degrees to 80. Points
    do not affect each other (a lone one runs as a cheaper numpy scalar), nor, to 2 ulp, do
    rows. A point where every requested phi is below e^-1500 gives exactly 0 (for
    ln_const < 700, |power| <= 1). An order past 2^21 raises AccuracyError (_scale_rows).
    """
    wanted = _degree_rows(degrees, "laguerre_functions")
    if not (np.isscalar(alpha) and np.isscalar(ln_const) and alpha > -1.0):
        raise DomainError(f"laguerre_functions takes one order alpha > -1 and one ln_const, "
                          f"got alpha={alpha}, ln_const={ln_const}")
    alpha, n = float(alpha), max(wanted)
    # below x_tail a step grows max(|phi_k|, |chi_k|) at most 2 x_tail / sqrt(alpha + 1)
    # times; rows checked for 2^332 every `every` steps stay below 2^1000
    x_tail = _x_tail(n, alpha)
    every = max(1, int((668.0 * math.log(2.0) - math.log(2.0 * x_tail))
                       / math.log(2.0 * x_tail / math.sqrt(alpha + 1.0))))
    # below -2^32 every x^a, |a| > 2e-7, is 0 or past a double: log_x reads as at least that
    pts = np.maximum(np.minimum(np.asarray(log_x, np.float64), math.log(x_tail)), -2.0 ** 32)
    x = np.exp(pts)
    out, renorms, exp2 = np.empty((len(wanted),) + pts.shape), [], 0
    phi = chi = 1.0   # scaled phi_k, chi_k (chi_0 = phi_0)
    for k in range(n + 1):
        if k in wanted:
            out[wanted[k]] = phi
        if k == n:
            break
        if k and k % every == 0:
            big = np.maximum(np.abs(phi), np.abs(chi))
            if big.max() > 2.0 ** 332:
                e = np.where(big > 2.0 ** 332, np.frexp(big)[1], 0)
                phi, chi, exp2 = np.ldexp(phi, -e), np.ldexp(chi, -e), exp2 + e
                renorms.append((k + 1, exp2))
        c = (k + 1) + alpha
        phi = (c * phi - x * chi) / math.sqrt((k + 1) * c)
        chi = math.sqrt((k + 1) / c) * chi + phi
    _scale_rows(out, wanted, renorms, x, pts, alpha, power, float(ln_const))
    return out


# laguerre_diagonal's closed-form region: x below 2^-600
_LOG_X_SMALL = -600.0 * math.log(2.0)


@cached(SETUPS)
def _diagonal_steps(beta: float, n: int):
    """laguerre_diagonal's steps (u_p, v_p, w_p), p < n, their largest magnitudes and
    ln x_tail. With a = alpha_p = beta - 2p > 1 and
    s = sqrt((p+1)(beta-p)), the orthonormal form of a0, a1 and b2 is u = (a-1) a / s,
    v = -(beta+1) a / ((a+1) s) and w = -(a-1) sqrt(p (beta-p+1)) / ((a+1) s)."""
    steps = []
    for p in range(n):
        a, s = beta - 2.0 * p, math.sqrt((p + 1.0) * (beta - p))
        t = (a + 1.0) * s
        steps.append(((a - 1.0) * a / s, -(beta + 1.0) * a / t,
                      -(a - 1.0) * math.sqrt(p * (beta - p + 1.0)) / t))
    bound = tuple(max((abs(step[i]) for step in steps), default=0.0) for i in range(3))
    # each phi_p^(beta-2p), p <= n, meets the one-order bound of degree 0 and order beta + 1
    return tuple(steps), bound, math.log(_x_tail(0, beta + 1.0))


def laguerre_diagonal(degrees, beta: float, log_x, power: float = 0.0,
                      ln_const: float = 0.0) -> np.ndarray:
    """e^ln_const x^power phi_p^(beta-2p)(x) at x = exp(log_x), a row per p in degrees.

    The order alpha_p = beta - 2p falls by two per degree (the spherical radial terms of
    one oscillator level, the Morse levels); every alpha_p > -1. Each point and degree
    costs one step of the orthonormal form of the contiguous relation of Kummer's M
    (DLMF 13.3) L_{p+1}^(alpha_p-2) = (a0 + a1 x) L_p^(alpha_p) + b2 x^2 L_{p-1}^(alpha_p+2),
    phi_{p+1} = (u_p / x + v_p) phi_p + w_p phi_{p-1}, on rows renormalised by exact powers
    of two and finished by _scale_rows, so points do not affect each other. Below
    x = 2^-600 a point takes the leading term N_p C(p + alpha_p, p) x^(alpha_p/2) e^(-x/2),
    exact there to O(p x), so the u/x step never sees a tiny x. ln_const is one value; log_x
    is finite, or -inf if every alpha_p > 0 = power; beta past 2^21 raises AccuracyError. A
    point where every requested phi is below e^-1500 is exactly 0 (ln_const < 700, |power| <= 1).
    """
    wanted = _degree_rows(degrees, "laguerre_diagonal")
    beta, n = float(beta), max(wanted)
    if not (np.isscalar(ln_const) and beta - 2.0 * n > -1.0):
        raise DomainError(f"laguerre_diagonal needs beta - 2 max(degrees) > -1 and one "
                          f"ln_const; got beta={beta}, degrees up to {n}, ln_const={ln_const}")
    pts = np.asarray(log_x, dtype=np.float64)[()]   # a lone point runs as a numpy scalar
    if pts.size == 0:
        return np.empty((len(wanted),) + pts.shape)
    steps, bound, log_tail = _diagonal_steps(beta, n)
    lo, hi = (float(pts.min()), float(pts.max())) if pts.ndim else (float(pts), float(pts))
    if hi > log_tail:
        pts, hi = np.minimum(pts, log_tail), log_tail
    small = pts < _LOG_X_SMALL if lo < _LOG_X_SMALL else None
    if small is not None:
        log_pts, pts = pts, np.where(small, 0.0, pts)   # x = 1 stands in
        lo, hi = float(pts.min()), float(pts.max())
    x = np.exp(pts)
    # a step grows max(|phi_p|, |phi_{p-1}|) at most `grow` times on these points; rows
    # checked for 2^332 every `every` steps stay below 2^1000
    grow = bound[0] * math.exp(-lo) + bound[1] * math.exp(hi) + bound[2]
    every = max(1, int(668.0 * math.log(2.0) / math.log(max(grow, 2.0))))
    out, renorms = np.empty((len(wanted),) + pts.shape), []
    prev, cur, exp2 = 0.0, 1.0, 0
    for k, (uk, vk, wk) in enumerate(steps):
        if k in wanted:
            out[wanted[k]] = cur
        if k and k % every == 0:
            big = np.maximum(np.abs(cur), np.abs(prev))
            if big.max() > 2.0 ** 332:
                e = np.where(big > 2.0 ** 332, np.frexp(big)[1], 0)
                prev, cur, exp2 = np.ldexp(prev, -e), np.ldexp(cur, -e), exp2 + e
                renorms.append((k + 1, exp2))
        step = uk / x
        step += vk
        step *= cur
        step += wk * prev
        prev, cur = cur, step
    if n in wanted:
        out[wanted[n]] = cur
    r0, j0 = _scale_rows(out, wanted, renorms, x, pts, beta, power, float(ln_const))
    if small is not None:
        # C_{p+1} = u_p C_p from C_0 = 1, held as m 2^e: the leading term over N_0 x^(beta/2)
        lead, m, e2 = [None] * len(wanted), 1.0, 0
        for k in range(n + 1):
            if k in wanted:
                lead[wanted[k]] = (m, e2)
            if k < n:
                m, de = math.frexp(m * steps[k][0])
                e2 += de
        at = np.flatnonzero(small)
        lx = np.ravel(log_pts)[at]
        alpha = beta - 2.0 * np.array(list(wanted), dtype=np.float64)[:, None]
        with np.errstate(over="ignore"):   # a log_x near -1e308: -inf, floored below
            ln = (0.5 * alpha + power) * lx - 0.5 * np.exp(lx) + (r0 + float(ln_const))
        r, j = _split_ln2(np.maximum(ln, -1e11))
        m, e2 = np.array(lead).T
        out.reshape(len(wanted), -1)[:, at] = np.ldexp(
            m[:, None] * np.exp(r), e2.astype(np.int64)[:, None] + j.astype(np.int64) + j0)
    return out


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x), lam > -1/2 and lam != 0."""
    n = check_nonneg_int(n, "polynomial degree")
    if not (-0.5 < _as_float(lam) < math.inf and lam != 0.0):
        raise DomainError(f"gegenbauer requires a finite lam > -1/2, lam != 0, got {lam}")
    return _poly_eval(_gegenbauer, (n, float(lam)), x)


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x)."""
    n = check_nonneg_int(n, "polynomial degree")
    return _poly_eval(_hermite, (n,), x)


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre function on [-1, 1], 0 <= m <= l.

    Defined through the Gegenbauer connection
    P_l^m(x) = (-2)^m / sqrt(pi) * Gamma(m + 1/2) * (1-x^2)^(m/2) * C_{l-m}^{m+1/2}(x),
    which fixes the sign convention (P_1^1(0) = -1).
    """
    l = check_nonneg_int(l, "polynomial degree")
    m = check_nonneg_int(m, "polynomial degree")
    if m > l:
        raise DomainError(f"assoc_legendre requires m <= l, got l={l}, m={m}")
    xa = check_points(x, "x")
    if not np.all(np.abs(xa) <= 1.0 + 1e-14):   # NaN fails it too
        raise DomainError("assoc_legendre requires |x| <= 1")
    cval = gegenbauer(l - m, m + 0.5, xa)
    if m == 0:
        return cval
    pref = (-2.0) ** m / math.sqrt(math.pi) * math.exp(ln_gamma(m + 0.5))
    s = np.clip(1.0 - np.square(xa), 0.0, None) ** (0.5 * m)
    out = pref * s * cval
    return out if xa.ndim else float(out)


def _dyadic(*values: float) -> tuple[int, list[int]]:
    """(scale, nums): finite floats as exact Python ints over one power of two,
    values[i] = nums[i] / scale."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return scale, [num * (scale // den) for num, den in ratios]


# The largest terminating sum: its cost grows as terms^2 (about 1 s for a 7800-term Racah
# entry on a 2-core x86-64 host), so 2^13 keeps an accepted sum within seconds; the CLI
# forms <= 801
_MAX_SUM_TERMS = 2 ** 13


def _require_terms(terms: int) -> None:
    """NumericError for a terminating sum of more than _MAX_SUM_TERMS terms."""
    if terms > _MAX_SUM_TERMS:
        raise NumericError(f"terminating hypergeometric sum of more than {_MAX_SUM_TERMS} terms")


def _base(num: int, scale: int) -> tuple[int, int]:
    """The Pochhammer base num / scale as a (value, step) pair of _ratio_sum: a whole one
    steps by 1 as a small int, any other by scale."""
    return (num // scale, 1) if num % scale == 0 else (num, scale)


def _horner(tops, bottoms, runs, scales) -> list[float]:
    """For each run length n of runs and its (r, j) of scales, the sum 1 + t_0/b_0 (1 + t_1/b_1
    (1 + ...)) of the next n int term ratios t_k/b_k (tops, bottoms: iterables of ints given last
    term first, no zero bottom) times e^r 2^j: the sum as mantissa 2^e, the mantissa correctly
    rounded, then mantissa e^r 2^(e + j) as one multiply and one ldexp. The package's one exact
    Horner and its one finish: in integers, with no gcd. NumericError for a value past a double."""
    out = []
    ratios = zip(tops, bottoms)
    for n, (r, j) in zip(runs, scales):
        num = den = 1
        for top, bottom in islice(ratios, n):
            den *= bottom
            num = den + top * num
        e = num.bit_length() - den.bit_length()   # |num/den| / 2^e in (1/2, 2)
        mantissa = num / (den << e) if e > 0 else (num << -e) / den
        try:
            out.append(math.ldexp(mantissa * math.exp(r), e + j))
        except OverflowError:
            raise NumericError("terminating hypergeometric sum past a double") from None
    return out


def _ratio_sum(upper, lower, terms: int) -> float:
    """The terminating hypergeometric sum sum_{k < terms} prod_{s < k} prod_i (u_i/du_i + s) /
    prod_j (v_j/dv_j + s), exact (_horner) and rounded once: its Pochhammer bases
    are (u, du) int pairs, du > 0, as many upper as lower, each stepping by its own du (a whole
    base as a small int, _base), 1 <= terms and no zero denominator factor. NumericError for
    more terms than _MAX_SUM_TERMS, before any step, or for a sum past a double."""
    _require_terms(terms)
    # each term ratio carries prod dv / prod du, in lowest terms
    kn = kd = 1
    for _, d in lower:
        kn *= d
    for _, d in upper:
        kd *= d
    g = math.gcd(kn, kd)
    # k prod_i (u_i + s du_i) at s = terms-2, ..., 0, multiplied out as _horner reads it
    tops, bottoms = repeat(kn // g, terms - 1), repeat(kd // g, terms - 1)
    for u, du in upper:
        tops = map(mul, tops, range(u + (terms - 2) * du, u - du, -du))
    for v, dv in lower:
        bottoms = map(mul, bottoms, range(v + (terms - 2) * dv, v - dv, -dv))
    (value,) = _horner(tops, bottoms, [terms - 1], [(0.0, 0)])
    return value


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: sum(w_i f(x_i)) integrates f against the weight function.

    kind is one of 'legendre' (weight 1 on [-1,1]), 'jacobi' (weight
    (1-x)^alpha (1+x)^beta on [-1,1]) or 'laguerre' (weight x^alpha e^-x on
    [0, inf)). Nodes are strictly increasing and Newton-polished; a rule of N points is
    exact through degree 2N - 1. Weights are strictly positive and first-order at the
    polished nodes; a Laguerre rule's leave double range past ~180 points or alpha ~ 170,
    where reading them raises AccuracyError. Its scaled_weights, the weights over
    x^alpha e^-x, never do; other kinds' are the weights.
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


def build_quadrature(kind: str, n: int, alpha: float = 0.0, beta: float = 0.0) -> QuadratureRule:
    """Golub-Welsch construction of an n-point Gaussian rule.

    Nodes are the eigenvalues of the symmetrized recurrence (Jacobi) matrix,
    solved by LAPACK (numpy.linalg.eigvalsh through _lapack, ascending), then
    polished by one Newton step; weights, the reciprocal Christoffel sums, follow the
    step to first order. One table of the orthonormal rows at the nodes gives both for
    either kind, so no eigenvectors are needed: a Laguerre rule's rows are orthonormal
    Laguerre functions (laguerre_functions), which give its scaled weights at any
    size, a Jacobi rule's the orthonormal polynomials (_jacobi_rows); a Jacobi rule
    whose weight integral or weights leave double range, or whose alpha + beta + 1 is at
    least 9999 (its p_0, _gamma_ratio), raises AccuracyError. A LAPACK
    failure, a node off the interval and a size whose n x n Jacobi matrix cannot be
    allocated (before any array is built) raise NumericError. Rules are immutable and
    built once per validated (kind, int n, float alpha, beta), -0.0 as 0.0 (genosc._cache).
    """
    if kind not in _QUAD_KINDS:
        raise DomainError(f"unknown quadrature kind {kind!r}, expected one of {_QUAD_KINDS}")
    if check_nonneg_int(n, "quadrature size") < 1:
        raise DomainError(f"quadrature size must be a positive integer, got {n}")
    alpha, beta = _as_float(alpha), _as_float(beta)
    if kind == "laguerre" and not (-1.0 < alpha < math.inf and beta == 0.0):
        raise DomainError(f"laguerre rule needs finite alpha > -1, beta = 0, got ({alpha}, {beta})")
    if kind == "legendre" and (alpha != 0.0 or beta != 0.0):
        raise DomainError("legendre rule takes no exponents")
    if kind == "jacobi" and not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise DomainError(f"jacobi rule requires finite alpha, beta > -1, got ({alpha}, {beta})")
    return _gauss_rule(kind, int(n), alpha + 0.0, beta + 0.0)   # + 0.0: -0.0 as 0.0


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix, or stack of them, from its bands: written
    through strided views of each flattened matrix, whose diagonals are steps of
    size + 1."""
    size = diag.shape[-1]
    mat = np.zeros(diag.shape + (size,))
    flat = mat.reshape(diag.shape[:-1] + (size * size,))
    flat[..., ::size + 1] = diag
    flat[..., 1::size + 1] = flat[..., size::size + 1] = off
    return mat


def _lapack(solver, diag: np.ndarray, off: np.ndarray, label: str) -> np.ndarray:
    """solver (np.linalg.eigh or eigvalsh) on the dense symmetric tridiagonal
    matrix with bands diag/off, or on a stack of them: the package's one eigensolve.
    A LAPACK failure raises NumericError, and so do non-finite eigenvalues, which
    LAPACK can return instead of failing on a non-finite entry; label names the problem."""
    try:
        out = solver(_dense(diag, off))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed for {label}: {exc}") from exc
    # eigh gives (eigenvalues, eigenvectors), eigvalsh the eigenvalues
    _require_finite(out[0] if isinstance(out, tuple) else out,
                    f"eigensolve gave non-finite eigenvalues for {label}")
    return out


@cached(SETUPS)
def _gauss_rule(kind: str, n: int, alpha: float, beta: float) -> QuadratureRule:
    """build_quadrature's rule at validated, canonical arguments."""
    _require_table((n, n), f"{kind} rule's Jacobi matrix at n={n}")
    if kind == "laguerre":
        k = np.arange(n + 1, dtype=np.float64)
        acoef, sqb = 2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha))
    else:
        acoef, sqb = _jacobi_coeffs(n, alpha, beta)
        p0 = _jacobi_p0(alpha, beta)
        if not p0 > 2.0 ** -512:   # b_0 = 1/p_0^2 past a double
            raise AccuracyError(f"jacobi rule weight integral leaves double range for n={n}, "
                                f"alpha={alpha}, beta={beta}")
    nodes = _lapack(np.linalg.eigvalsh, acoef[:n], sqb[1:n], f"{kind} rule at n={n}")
    if not (nodes[0] > 0.0 if kind == "laguerre" else -1.0 < nodes[0] and nodes[-1] < 1.0):
        raise NumericError(f"quadrature eigensolve gave nodes off the {kind} interval, n={n}")
    # eigvalsh's nodes are ulps off (1000-point Laguerre: the smallest 7.8e-12 relative).
    # One table of the orthonormal p_k there, k <= n, gives S = sum_{k<n} p_k^2, p_n, p_{n-1}:
    # Newton moves a node by -step, step = sqrt(b_n) p_n p_{n-1} / S (Christoffel-Darboux:
    # p_n' = S / (sqrt(b_n) p_{n-1})), and its weight 1/S to (1 + s step) / S, s = d ln S/dx
    # = -tau/sigma of the rule's differential equation. An overflowed S is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "laguerre":
            # phi_k = (-1)^k p_k sqrt(x^alpha e^-x): p_n p_{n-1} flips, the scaled S has s = -1/x
            rows = laguerre_functions(range(n + 1), alpha, np.log(nodes))
            flip, slope = -1.0, -1.0 / nodes
        else:
            rows = np.fromiter(_jacobi_rows(n, alpha, beta, nodes, np.full_like(nodes, p0)),
                               np.dtype((np.float64, n)), n + 1)
            flip, slope = 1.0, (alpha - beta + (alpha + beta + 2.0) * nodes) / (1.0 - nodes * nodes)
        total = np.einsum("ki,ki->i", rows[:n], rows[:n])
        step = flip * sqb[n] * rows[n] * rows[n - 1] / total
        weights = (1.0 + slope * step) / total
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise AccuracyError(f"quadrature weights leave double range for {kind}, n={n}")
    return QuadratureRule(kind=kind, npoints=n, alpha=alpha, beta=beta,
                          nodes=nodes - step, scaled_weights=weights)


build_quadrature.cache_info = _gauss_rule.cache_info
build_quadrature.cache_clear = _gauss_rule.cache_clear
