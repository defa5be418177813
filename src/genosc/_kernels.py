"""Hot numerical kernels with a numba/pure-numpy dual path.

Every kernel is written once as plain numpy/scalar code. When numba is
importable and GENOSC_NO_NUMBA is unset, the functions are compiled with
@njit at import; otherwise the same source runs as ordinary Python. The
two paths are compared by benchmarks/bench_kernels.py.
"""

import math
import os

import numpy as np

_INT_TOL = 1e-9

# Lanczos approximation, g = 7, 9 terms. Valid for positive arguments;
# arguments below 1/2 are lifted through ln Gamma(x) = ln Gamma(x+1) - ln x.
_LANCZOS_HALF_LOG_TWO_PI = 0.9189385332046727417803297


def ln_gamma_pos(x):
    shift = 0.0
    while x < 0.5:
        shift += math.log(x)
        x += 1.0
    z = x - 1.0
    s = 0.99999999999980993
    s += 676.5203681218851 / (z + 1.0)
    s += -1259.1392167224028 / (z + 2.0)
    s += 771.32342877765313 / (z + 3.0)
    s += -176.61502916214059 / (z + 4.0)
    s += 12.507343278686905 / (z + 5.0)
    s += -0.13857109526572012 / (z + 6.0)
    s += 9.9843695780195716e-6 / (z + 7.0)
    s += 1.5056327351493116e-7 / (z + 8.0)
    base = z + 7.5
    return _LANCZOS_HALF_LOG_TWO_PI + (z + 0.5) * math.log(base) - base + math.log(s) - shift


def gamma_sign_ln(x):
    """Sign and log-magnitude of Gamma(x); sign 0.0 marks a pole."""
    if x > 0.0:
        return 1.0, ln_gamma_pos(x)
    if abs(x - math.floor(x + 0.5)) < 1e-12:
        return 0.0, math.inf
    s = math.sin(math.pi * x)
    lg = math.log(math.pi / abs(s)) - ln_gamma_pos(1.0 - x)
    return (1.0 if s > 0.0 else -1.0), lg


def jacobi_arr(n, alpha, beta, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    for k in range(2, n + 1):
        k2ab = 2.0 * k + alpha + beta
        c1 = 2.0 * k * (k + alpha + beta) * (k2ab - 2.0)
        c2 = (k2ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (k2ab - 2.0) * (k2ab - 1.0) * k2ab
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * k2ab
        p0, p1 = p1, ((c2 + c3 * x) * p1 - c4 * p0) / c1
    return p1


def laguerre_arr(n, alpha, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 1.0 + alpha - x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2.0 * k - 1.0 + alpha - x) * p1 - (k - 1.0 + alpha) * p0) / k
    return p1


def gegenbauer_arr(n, lam, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 2.0 * lam * x
    for k in range(2, n + 1):
        p0, p1 = p1, (2.0 * (k + lam - 1.0) * x * p1 - (k + 2.0 * lam - 2.0) * p0) / k
    return p1


def hermite_arr(n, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 2.0 * x
    for k in range(2, n + 1):
        p0, p1 = p1, 2.0 * x * p1 - 2.0 * (k - 1.0) * p0
    return p1


def christoffel_weights(acoef, bcoef, x):
    """Gauss weights as reciprocal Christoffel sums of orthonormal polynomials.

    acoef/bcoef are the monic three-term coefficients, bcoef[0] the weight
    integral. Nodes where the sum overflows get weight exactly 0 (their true
    weight underflows double precision).
    """
    nrule = acoef.shape[0]
    sqb = np.sqrt(bcoef)
    pm = np.zeros_like(x)
    pc = np.full(x.shape[0], 1.0 / sqb[0])
    total = pc * pc
    for k in range(nrule - 1):
        pm, pc = pc, ((x - acoef[k]) * pc - sqb[k] * pm) / sqb[k + 1]
        total = total + pc * pc
    w = np.empty_like(x)
    for i in range(x.shape[0]):
        w[i] = 1.0 / total[i] if math.isfinite(total[i]) else 0.0
    return w


def cg_sum(a, b, al, be, cc):
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
    if abs(abc - math.floor(abc + 0.5)) > _INT_TOL:
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
            if abs(v - math.floor(v + 0.5)) < _INT_TOL:
                return 0.0, 0
            return 0.0, 1
        lnpref += ln_gamma_pos(v)
    pden = a + b + cc + 2.0
    if pden <= 0.0:
        return 0.0, 1
    lnpref -= ln_gamma_pos(pden)

    big1 = cc - b + al
    big2 = cc - a - be
    tmin = 0
    if abs(big1 - math.floor(big1 + 0.5)) < _INT_TOL and -big1 > tmin:
        tmin = int(math.floor(-big1 + 0.5))
    if abs(big2 - math.floor(big2 + 0.5)) < _INT_TOL and -big2 > tmin:
        tmin = int(math.floor(-big2 + 0.5))
    tmax = int(math.floor(abc + 0.5))
    if abs(ama - math.floor(ama + 0.5)) < _INT_TOL:
        t2 = int(math.floor(ama + 0.5))
        if t2 < tmax:
            tmax = t2
    if abs(bpb - math.floor(bpb + 0.5)) < _INT_TOL:
        t3 = int(math.floor(bpb + 0.5))
        if t3 < tmax:
            tmax = t3
    if tmax < tmin:
        return 0.0, 0

    nterm = tmax - tmin + 1
    logs = np.empty(nterm)
    signs = np.empty(nterm)
    lmax = -math.inf
    for j in range(nterm):
        t = float(tmin + j)
        sgn = 1.0 if (tmin + j) % 2 == 0 else -1.0
        logden = 0.0
        for arg in (t + 1.0, abc - t + 1.0, ama - t + 1.0, bpb - t + 1.0,
                    big1 + t + 1.0, big2 + t + 1.0):
            sg, lg = gamma_sign_ln(arg)
            if sg == 0.0:
                sgn = 0.0
                break
            sgn *= sg
            logden += lg
        if sgn == 0.0:
            logs[j] = -math.inf
            signs[j] = 0.0
        else:
            logs[j] = -logden
            signs[j] = sgn
            if logs[j] > lmax:
                lmax = logs[j]
    if lmax == -math.inf:
        return 0.0, 0
    # compensated summation of the scaled terms
    total = 0.0
    comp = 0.0
    for j in range(nterm):
        if signs[j] == 0.0:
            continue
        y = signs[j] * math.exp(logs[j] - lmax) - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
    return total * math.exp(lmax + 0.5 * lnpref), 0


_PY_IMPLS = {
    "ln_gamma_pos": ln_gamma_pos,
    "gamma_sign_ln": gamma_sign_ln,
    "jacobi_arr": jacobi_arr,
    "laguerre_arr": laguerre_arr,
    "gegenbauer_arr": gegenbauer_arr,
    "hermite_arr": hermite_arr,
    "christoffel_weights": christoffel_weights,
    "cg_sum": cg_sum,
}

USE_NUMBA = os.environ.get("GENOSC_NO_NUMBA", "").lower() not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:
    _JIT_IMPLS = {}
    for _name in ("ln_gamma_pos", "gamma_sign_ln", "jacobi_arr", "laguerre_arr",
                  "gegenbauer_arr", "hermite_arr", "christoffel_weights",
                  "cg_sum"):
        _JIT_IMPLS[_name] = njit(cache=True)(_PY_IMPLS[_name])
    # rebind so jitted kernels resolve each other at compile time
    globals().update(_JIT_IMPLS)
else:
    _JIT_IMPLS = {}
