"""Special-function layer: frozen references, closed-form oracles, quadrature."""

import decimal
import math
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_jacobi

from genosc import specfun as sf
from genosc.errors import AccuracyError, DomainError, NumericError
from genosc.interbasis import w_coefficient
from genosc.model import Branch, SystemParams
from genosc.oracles import (GramFamily, bi_orthogonality_hypergeometric, gram_matrix,
                            reciprocal_gamma)

mpmath.mp.dps = 35


# ---------------------------------------------------------------- oracles

def jacobi_sum_oracle(n, a, b, x):
    """Finite-sum Jacobi value; exact alternative to the recurrence."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(n + 1):
        t = (mpmath.binomial(n + a, n - k) * mpmath.binomial(n + b, k)
             * ((x - 1) / 2) ** k * ((x + 1) / 2) ** (n - k))
        total += t
    return float(total)


def laguerre_sum_oracle(n, a, x):
    """L_n^a(x) = sum_k binom(n+a, n-k) (-x)^k / k!."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(n + 1):
        total += mpmath.binomial(n + a, n - k) * (-x) ** k / mpmath.factorial(k)
    return float(total)


def gegenbauer_sum_oracle(n, lam, x):
    """C_n^lam(x) = sum_k (-1)^k Gamma(lam+n-k) (2x)^(n-2k) / [Gamma(lam) k! (n-2k)!]."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(n // 2 + 1):
        total += ((-1) ** k * mpmath.gamma(lam + n - k)
                  * (2 * x) ** (n - 2 * k)
                  / (mpmath.gamma(lam) * mpmath.factorial(k) * mpmath.factorial(n - 2 * k)))
    return float(total)


def hermite_sum_oracle(n, x):
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(n // 2 + 1):
        total += ((-1) ** k * mpmath.factorial(n) * (2 * x) ** (n - 2 * k)
                  / (mpmath.factorial(k) * mpmath.factorial(n - 2 * k)))
    return float(total)


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_trivial_points():
    assert sf.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert sf.ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert sf.ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_ln_gamma_frozen_references():
    # 35-digit mpmath.loggamma values
    refs = {
        7.3: 7.1478925230222490327770571544283892,
        0.001: 6.9071788853838536825123446680769825,
        300.0: 1409.2020674704117874873772665457379,
        2.5: 0.28468287047291915963249466968270192,
    }
    for x, ref in refs.items():
        assert sf.ln_gamma(x) == pytest.approx(ref, rel=1e-13)


def test_ln_gamma_sweep_against_mpmath():
    # relative error target; near the zeros of ln Gamma (x = 1, 2) the
    # relative measure is ill-posed, so the bound is taken on max(|ref|, 1)
    xs = np.concatenate([np.geomspace(1e-3, 0.5, 80),
                         np.linspace(0.5, 3.0, 120),
                         np.geomspace(3.0, 300.0, 120)])
    for x in xs:
        ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert abs(sf.ln_gamma(float(x)) - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        sf.ln_gamma(0.0)
    with pytest.raises(DomainError):
        sf.ln_gamma(-3.2)


def _norm0_error(beta):
    """Relative error of _ln_norm0's e^r 2^j against 1/sqrt(Gamma(beta + 1)) in 40 digits."""
    r, j = sf._ln_norm0(beta)
    with mpmath.workdps(40):
        want = mpmath.rgamma(mpmath.mpf(beta) + 1) ** 0.5
        return float(abs(mpmath.exp(r) * mpmath.ldexp(1, j) / want - 1))


def test_ln_norm0_keeps_its_digits_where_beta_plus_one_rounds():
    # beta + 1 rounds for beta in [2^k - 1, 2^k) with its low bits set; a product
    # started from it was 3.9e-13 off at beta = 1023.4
    assert _norm0_error(1023.4) <= 2e-15
    rng = np.random.default_rng(28)
    for k in range(6, 11):
        for beta in rng.uniform(2.0 ** k - 1.0, 2.0 ** k, 8).tolist():
            assert _norm0_error(beta) <= 2e-15, beta


def test_gamma_ratio_matches_mpmath_at_large_and_small_c():
    # Gamma(c + 1) Gamma(beta + 1) / Gamma(c + beta + 2) from _ln_norm0 at the exact sum
    # c + beta + 1, whose rounding as a float costs 2.9e-13 at c = 2000
    for c, beta in ((2000.0, 0.742), (2000.3, 1.25), (1023.4, 0.5), (1.0, 0.742),
                    (3.3, 0.5), (0.0, -0.5), (200.75, 1.5)):
        m, e = sf._gamma_ratio(c, beta)
        with mpmath.workdps(40):
            mc, mb = mpmath.mpf(c), mpmath.mpf(beta)
            want = mpmath.gamma(mc + 1) * mpmath.gamma(mb + 1) / mpmath.gamma(mc + mb + 2)
            assert float(abs(mpmath.ldexp(m, e) / want - 1)) <= 1e-15, (c, beta)


def test_ln_norm0_of_a_fraction_is_that_of_the_equal_float():
    # _gamma_ratio passes the exact sum alpha + beta + 1 as a dyadic Fraction
    for beta in (0.0, 0.5, 2.75, 1023.4, 5000.125, 12000.5):
        got = sf._ln_norm0(Fraction(beta))
        assert got == sf._ln_norm0(beta) and [type(v) for v in got] == [float, int]


def test_jacobi_weight_integral_matches_mpmath():
    # b_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2), read as 1/p_0^2 from
    # _jacobi_p0; lgamma differences put it 1.1e-14, 9.2e-14 and 5.1e-13 off at these
    for a, b in ((50.25, 0.5), (200.75, 1.5), (800.25, 0.5)):
        p0 = sf._jacobi_p0(a, b)
        with mpmath.workdps(40):
            got = 1 / mpmath.mpf(p0) ** 2
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            want = 2 ** (ma + mb + 1) * mpmath.beta(ma + 1, mb + 1)
            assert float(abs(got / want - 1)) <= 1e-15, (a, b)


def test_gamma_sign_ln_negative_axis():
    for x in (-0.5, -1.5, -2.3, -7.8, 4.2):
        s, lg = sf.gamma_sign_ln(x)
        ref = float(mpmath.gamma(mpmath.mpf(x)))
        assert s * math.exp(lg) == pytest.approx(ref, rel=1e-12)
    for pole in (0.0, -1.0, -6.0):
        s, lg = sf.gamma_sign_ln(pole)
        assert s == 0.0 and math.isinf(lg)
    # near the poles, at -40.5 (Gamma ~ 1e-48) and over a non-integer sweep
    # of (-60, 0): sign and ln|Gamma| both against mpmath
    xs = [-3.0 - 1e-9, -3.0 + 1e-9, -1e-9, -40.5,
          *np.linspace(-59.95, -0.05, 600)]
    for x in xs:
        s, lg = sf.gamma_sign_ln(x)
        ref = mpmath.gamma(mpmath.mpf(x))
        assert s == float(mpmath.sign(ref)), x
        ref_ln = float(mpmath.log(abs(ref)))
        assert abs(lg - ref_ln) <= 1e-13 * max(abs(ref_ln), 1.0), x


# ---------------------------------------------------------------- polynomials

def test_jacobi_examples():
    assert sf.jacobi_p(0, 0.3, 2.0, 0.77) == 1.0
    assert sf.jacobi_p(1, 1.0, 0.5, 0.0) == pytest.approx(0.25, rel=1e-15)
    got = sf.jacobi_p(4, 0.7, 1.3, 0.3)
    assert got == pytest.approx(jacobi_sum_oracle(4, 0.7, 1.3, 0.3), rel=1e-12)


def test_laguerre_examples():
    assert sf.gen_laguerre(0, 0.9, 5.0) == 1.0
    assert sf.gen_laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, rel=1e-15)
    got = sf.gen_laguerre(3, 1.2, 0.7)
    assert got == pytest.approx(laguerre_sum_oracle(3, 1.2, 0.7), rel=1e-12)


def test_gegenbauer_examples():
    assert sf.gegenbauer(0, 0.8, 0.1) == 1.0
    assert sf.gegenbauer(1, 0.8, 0.25) == pytest.approx(2 * 0.8 * 0.25, rel=1e-15)
    # even-degree connection C_{2n}^lam(x) = (lam)_n / (1/2)_n * P_n^(lam-1/2,-1/2)(2x^2-1)
    n, lam, x = 2, 0.9, 0.4
    ratio = math.exp(sf.ln_gamma(lam + n) - sf.ln_gamma(lam)
                     - sf.ln_gamma(0.5 + n) + sf.ln_gamma(0.5))
    rhs = ratio * sf.jacobi_p(n, lam - 0.5, -0.5, 2 * x * x - 1)
    assert sf.gegenbauer(2 * n, lam, x) == pytest.approx(rhs, rel=1e-12)


def test_hermite_examples():
    assert sf.hermite(0, -1.3) == 1.0
    assert sf.hermite(1, 2.0) == pytest.approx(4.0, rel=1e-15)
    assert sf.hermite(3, 0.5) == pytest.approx(-5.0, rel=1e-14)


def test_polynomials_accept_arrays():
    x = np.linspace(-1, 1, 7)
    vals = sf.jacobi_p(3, 0.2, 0.4, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert vi == pytest.approx(sf.jacobi_p(3, 0.2, 0.4, float(xi)), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8),
       a=st.floats(-0.9, 4.0), b=st.floats(-0.9, 4.0),
       x=st.floats(-1.0, 1.0))
def test_jacobi_recurrence_matches_sum(n, a, b, x):
    assert sf.jacobi_p(n, a, b, x) == pytest.approx(
        jacobi_sum_oracle(n, a, b, x), rel=1e-11, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), a=st.floats(-0.9, 4.0), x=st.floats(0.0, 12.0))
def test_laguerre_recurrence_matches_sum(n, a, x):
    assert sf.gen_laguerre(n, a, x) == pytest.approx(
        laguerre_sum_oracle(n, a, x), rel=1e-11, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), lam=st.floats(-0.45, 4.0), x=st.floats(-1.0, 1.0))
def test_gegenbauer_recurrence_matches_sum(n, lam, x):
    if abs(lam) < 1e-6:
        lam = 0.5
    assert sf.gegenbauer(n, lam, x) == pytest.approx(
        gegenbauer_sum_oracle(n, lam, x), rel=1e-11, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 8), x=st.floats(-3.0, 3.0))
def test_hermite_recurrence_matches_sum(n, x):
    assert sf.hermite(n, x) == pytest.approx(
        hermite_sum_oracle(n, x), rel=1e-11, abs=1e-11)


def test_polynomial_domain_errors():
    with pytest.raises(DomainError):
        sf.jacobi_p(2, -1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        sf.jacobi_p(2, 0.5, math.nan, 0.5)
    with pytest.raises(DomainError):
        sf.gen_laguerre(2, -1.2, 0.5)
    with pytest.raises(DomainError):
        sf.gen_laguerre(2, math.nan, 0.5)
    with pytest.raises(DomainError, match="alpha > -1"):
        sf.laguerre_functions([2, 1], -1.5, np.zeros(3))
    with pytest.raises(DomainError, match="alpha > -1"):
        sf.laguerre_functions([2, 1], math.nan, np.zeros(3))
    with pytest.raises(DomainError):
        sf.laguerre_functions([2, 1, 0], [0.5, 1.5], np.zeros(3))
    with pytest.raises(DomainError):
        sf.laguerre_functions([], 0.5, np.zeros(3))
    # one order per call: a list of orders (one per degree) is refused, even a
    # valid one, as is a list of ln_const
    with pytest.raises(DomainError, match="one order"):
        sf.laguerre_functions([2, 1], [0.5, 1.5], np.zeros(3))
    with pytest.raises(DomainError, match="one order"):
        sf.laguerre_functions([2], [0.5], np.zeros(3))
    with pytest.raises(DomainError, match="one order"):
        sf.laguerre_functions([2, 1], 0.5, np.zeros(3), 0.0, [0.0, 0.0])
    # the diagonal family needs every order beta - 2p > -1, distinct degrees and
    # one ln_const
    with pytest.raises(DomainError):
        sf.laguerre_diagonal([0, 3], 5.0, np.zeros(3))
    with pytest.raises(DomainError):
        sf.laguerre_diagonal([1, 1], 9.0, np.zeros(3))
    with pytest.raises(DomainError):
        sf.laguerre_diagonal([], 9.0, np.zeros(3))
    with pytest.raises(DomainError):
        sf.laguerre_diagonal([0, 3], 9.0, np.zeros(3), 0.0, [0.0, 0.0])
    with pytest.raises(DomainError):
        sf.laguerre_diagonal([0], math.nan, np.zeros(3))
    with pytest.raises(DomainError):
        sf.gegenbauer(2, 0.0, 0.5)
    with pytest.raises(DomainError):
        sf.jacobi_p(-1, 0.0, 0.0, 0.5)
    # non-finite and non-numeric degrees are domain errors, not OverflowError
    # or ValueError from int()
    for bad in (math.inf, -math.inf, math.nan, 2.5, "3", None):
        for call in (lambda n: sf.gen_laguerre(n, 0.5, 1.0),
                     lambda n: sf.jacobi_p(n, 0.5, 0.5, 0.2),
                     lambda n: sf.gegenbauer(n, 0.5, 0.2),
                     lambda n: sf.hermite(n, 0.2),
                     lambda n: sf.assoc_legendre(n, 0, 0.2),
                     lambda n: sf.laguerre_functions([n], 0.5, 0.0),
                     lambda n: sf.laguerre_diagonal([n], 20.0, 0.0)):
            with pytest.raises(DomainError, match="polynomial degree"):
                call(bad)


# The two-array recurrences that the row generators replaced, kept as the
# reference that every degree still comes out bit for bit.

def _ref_jacobi(n, alpha, beta, x):
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


def _ref_laguerre(n, alpha, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 1.0 + alpha - x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2.0 * k - 1.0 + alpha - x) * p1 - (k - 1.0 + alpha) * p0) / k
    return p1


def _ref_gegenbauer(n, lam, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 2.0 * lam * x
    for k in range(2, n + 1):
        p0, p1 = p1, (2.0 * (k + lam - 1.0) * x * p1 - (k + 2.0 * lam - 2.0) * p0) / k
    return p1


def _ref_hermite(n, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 2.0 * x
    for k in range(2, n + 1):
        p0, p1 = p1, 2.0 * x * p1 - 2.0 * (k - 1.0) * p0
    return p1


def test_polynomials_match_two_array_recurrences_bit_for_bit():
    rng = np.random.default_rng(1996)
    for _ in range(300):
        n = int(rng.integers(0, 41))
        a, b = rng.uniform(-0.99, 8.0, 2)
        lam = rng.uniform(0.05, 6.0)
        size = int(rng.integers(1, 30))
        x = rng.uniform(-1.0, 1.0, size)
        w = rng.uniform(0.0, 80.0, size)
        cases = [(sf.jacobi_p(n, a, b, x), _ref_jacobi(n, a, b, x)),
                 (sf.gen_laguerre(n, a, w), _ref_laguerre(n, a, w)),
                 (sf.gegenbauer(n, lam, x), _ref_gegenbauer(n, lam, x)),
                 (sf.hermite(n, 3.0 * x), _ref_hermite(n, 3.0 * x)),
                 (sf.jacobi_p(n, a, b, x.reshape(1, -1)), _ref_jacobi(n, a, b, x)[None]),
                 # a scalar point runs as a batch of one
                 (sf.jacobi_p(n, a, b, float(x[0])), _ref_jacobi(n, a, b, x[:1])[0]),
                 (sf.gen_laguerre(n, a, float(w[0])), _ref_laguerre(n, a, w[:1])[0])]
        for got, ref in cases:
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)


def test_rows_give_every_degree_of_one_recurrence():
    rng = np.random.default_rng(7)
    n = 25
    x = rng.uniform(-1.0, 1.0, 17)
    w = rng.uniform(0.0, 60.0, 17)
    # the four families' generators, every degree row bit for bit
    for gen, ref in ((sf._jacobi(n, 1.3, -0.4, x), lambda j: _ref_jacobi(j, 1.3, -0.4, x)),
                     (sf._laguerre(n, 2.7, w), lambda j: _ref_laguerre(j, 2.7, w)),
                     (sf._gegenbauer(n, 1.6, x), lambda j: _ref_gegenbauer(j, 1.6, x)),
                     (sf._hermite(n, 3.0 * x), lambda j: _ref_hermite(j, 3.0 * x))):
        rows = list(gen)
        assert len(rows) == n + 1
        for j, row in enumerate(rows):
            assert np.array_equal(row, ref(j)), j

    # the orthonormal Laguerre functions against the polynomial recurrence,
    # within 1e-12 of the largest |phi| over the points
    def ref_phi(j, a):
        ln_c = 0.5 * (math.lgamma(j + 1.0) - math.lgamma(j + a + 1.0))
        return np.exp(ln_c + 0.5 * a * np.log(w) - 0.5 * w) * _ref_laguerre(j, a, w)

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())

    # every degree of one order, in any order of rows
    degrees = rng.permutation(n + 1)
    phi = sf.laguerre_functions(degrees, 2.7, np.log(w))
    assert phi.shape == (n + 1, w.size)
    for row, j in zip(phi, degrees):
        assert close(row, ref_phi(j, 2.7))
    # an order falling by two per degree (laguerre_diagonal): row q is
    # phi_{n-q}^{beta-2(n-q)}, whose order beta - 2n + 2q starts in (-0.5, 30)
    for beta in 2.0 * n + rng.uniform(-0.5, 30.0, 6):
        phi = sf.laguerre_diagonal([n - q for q in range(6)], beta, np.log(w))
        for q, row in enumerate(phi):
            assert close(row, ref_phi(n - q, beta - 2.0 * (n - q))), (beta, q)
    # a point alone gives the bits it gets in the batch; x = 0 at order > 0
    assert np.array_equal(sf.laguerre_functions([7], 2.7, math.log(w[3]))[0],
                          sf.laguerre_functions([7], 2.7, np.log(w))[0, 3])
    assert sf.laguerre_functions([0, 3], 0.5, -math.inf).tolist() == [0.0, 0.0]

    # degree 6000 up to its turning point x ~ 24000, where ln phi_0 = -x/2 is
    # far below e^-745: the recurrence on rows scaled by powers of two, each
    # point's scale e^(-x/2) 2^exp2 formed in 40 digits, at the x the
    # function sees (exp of log x: an ulp off x moves phi_6000 by ~1e-12)
    def ref_deep(j, x):
        p0, p1, exp2 = 0.0, 1.0, 0
        for k in range(j):
            p0, p1 = p1, ((2.0 * k + 1.0 - x) * p1 - k * p0) / (k + 1.0)
            if abs(p1) > 2.0 ** 300:
                p0, p1, exp2 = p0 / 2.0 ** 300, p1 / 2.0 ** 300, exp2 + 300
        with decimal.localcontext(prec=40) as ctx:
            return float(ctx.exp(Decimal(-0.5 * x) + exp2 * ctx.ln(Decimal(2))) * Decimal(p1))

    deep = np.array([20000.0, 23000.0, 23500.0, 24000.0])
    phi = sf.laguerre_functions([6000, 5999], 0.0, np.log(deep))
    for row, j in zip(phi, (6000, 5999)):
        want = np.array([ref_deep(j, x) for x in np.exp(np.log(deep)).tolist()])
        assert np.abs(want).max() > 1e-3
        assert close(row, want), j


def _subset_cases(seed: int, calls: int, most: int | None = None):
    """(n, degrees, alpha, log_x, power, ln_const) of seeded laguerre_functions calls: alpha
    to 900, 1, 5 or 17 points uniform in (1e-6, 4n + alpha + 40) (a lone one half the time
    as a numpy scalar), and up to `most` (all by default) of the degrees 0..n, n <= 80, in
    random order."""
    rng = np.random.default_rng(seed)
    for _ in range(calls):
        alpha = float(rng.choice([rng.uniform(-0.99, 5.0), rng.uniform(0.0, 900.0),
                                  float(rng.integers(0, 50))]))
        n = int(rng.integers(0, 81))
        size = int(rng.choice([1, 5, 17]))
        log_x = np.log(np.sort(rng.uniform(1e-6, 4.0 * n + alpha + 40.0, size)))
        if size == 1 and rng.random() < 0.5:
            log_x = float(log_x[0])   # a lone point runs as a numpy scalar
        count = int(rng.integers(1, min(n + 1, most or n + 1) + 1))
        degrees = [int(k) for k in rng.permutation(n + 1)[:count]]
        yield (n, degrees, alpha, log_x, float(rng.choice([0.0, 0.25, -0.25])),
               float(rng.uniform(-50.0, 50.0)))


def test_a_row_does_not_depend_on_the_other_degrees_requested():
    # the docstring's "nor, to 2 ulp, do rows": a subset's rows against the same degrees
    # of one call for every degree to n (0 ulp apart here)
    for n, degrees, alpha, log_x, power, ln_const in _subset_cases(34, 300):
        got = sf.laguerre_functions(degrees, alpha, log_x, power, ln_const)
        every = sf.laguerre_functions(range(n + 1), alpha, log_x, power, ln_const)[degrees]
        assert got.shape == every.shape
        assert np.all(np.abs(got - every) <= 2.0 * np.spacing(np.abs(every))), (alpha, n)


def _ref_laguerre_function(p, alpha, log_x, power, ln_const):
    """e^ln_const x^power phi_p^alpha(x) at x = e^log_x in 40 digits."""
    if log_x == -math.inf:
        return 0.0
    with mpmath.workdps(40):
        x, alpha = mpmath.exp(mpmath.mpf(log_x)), mpmath.mpf(alpha)
        ln_c = (mpmath.loggamma(p + 1) - mpmath.loggamma(p + alpha + 1)) / 2
        return float(mpmath.laguerre(p, alpha, x) * mpmath.exp(
            ln_const + ln_c + (alpha / 2 + power) * mpmath.log(x) - x / 2))


def _laguerre_sweep(seed: int, calls: int):
    """(degrees, alpha, log_x, power, ln_const) of seeded laguerre_functions calls: alpha to
    1200, degrees to 80, five points over the largest degree's support m +- 3 sqrt(m)."""
    rng = np.random.default_rng(seed)
    for _ in range(calls):
        alpha = float(rng.choice([rng.uniform(-0.99, 5.0), 10.0 ** rng.uniform(0.0, 3.08)]))
        n = int(rng.integers(0, 81))
        m = 2.0 * n + alpha + 1.0
        x = rng.uniform(max(m - 3.0 * math.sqrt(m), 1e-3), m + 3.0 * math.sqrt(m), 5)
        yield ([n, int(rng.integers(0, n))] if n else [0], alpha, np.log(x),
               float(rng.choice([0.0, 0.25, -0.25])), float(rng.uniform(-5.0, 5.0)))


def _support(p, alpha):
    """log of 12 points over row p's support m +- 2 sqrt(m), m = 2p + alpha + 1."""
    m = 2.0 * p + alpha + 1.0
    return np.log(np.linspace(max(m - 2.0 * math.sqrt(m), 1e-3), m + 2.0 * math.sqrt(m), 12))


def test_laguerre_functions_match_mpmath_at_large_order():
    # every row within 1e-13 of its largest value: 12 points over m +- 2 sqrt(m),
    # m = 2n + alpha + 1, at four orders (6.2e-16, 6.3e-15, 1.6e-14 and 2.6e-14 off; at
    # 8000.5 x^floor(order/2) is formed in four powers of at most 1000), then a seeded
    # 300-call sweep (3.9e-14 at worst); then 100 seeded calls of one or two degrees at
    # points anywhere in (1e-6, 4n + alpha + 40), the tails too, each row's error taken of
    # its largest value over its support, the docstring's contract (2.0e-14 at worst)
    cases = [([n], alpha, _support(n, alpha), 0.0, 0.0, False)
             for alpha, n in ((150.5, 0), (1200.3, 5), (1200.3, 40), (8000.5, 20))]
    cases += [(*args, False) for args in _laguerre_sweep(38, 300)]
    cases += [(*args, True) for _, *args in _subset_cases(36, 100, most=2)]
    for degrees, alpha, log_x, power, ln_const, over_support in cases:
        got = sf.laguerre_functions(degrees, alpha, log_x, power, ln_const)
        for row, p in zip(got, degrees):
            want = np.array([_ref_laguerre_function(p, alpha, v, power, ln_const)
                             for v in np.ravel(log_x).tolist()])
            scale = np.abs(want).max() if not over_support else max(
                abs(_ref_laguerre_function(p, alpha, v, power, ln_const))
                for v in _support(p, alpha).tolist())
            assert np.abs(np.ravel(row) - want).max() <= 1e-13 * scale, (alpha, p, power)


def test_a_batch_point_equals_its_lone_call_bit_for_bit(monkeypatch):
    # Both drivers' docstrings: points do not affect each other, with or without a
    # renormalisation (the per-row exponents the finish broadcasts over the points)
    cases = [(sf.laguerre_functions, args) for args in _laguerre_sweep(38, 100)]
    rule = sf.build_quadrature("laguerre", 300, 0.3)
    cases.append((sf.laguerre_functions, (range(301), 0.3, np.log(rule.nodes[::15]), 0.0, 0.0)))
    rng = np.random.default_rng(21)
    for lam in (3.5, 30.25, 120.0, 400.51):   # Morse levels, beta = 2 lambda - 1
        beta, top = 2.0 * lam - 1.0, math.ceil(lam) - 1
        log_x = np.log(rng.uniform(0.01, 2.5 * beta + 10.0, 7))
        cases.append((sf.laguerre_diagonal, (range(top + 1), beta, log_x, 0.0, 0.0)))
    for beta, n in ((31.7, 12), (230.3, 100)):   # spherical radial terms of one level
        log_x = np.log(rng.uniform(0.01, 2.5 * beta + 10.0, 7))
        cases.append((sf.laguerre_diagonal, (range(0, n + 1, 3), beta, log_x, -0.25, 0.6)))
    finish, seen = sf._scale_rows, set()
    monkeypatch.setattr(sf, "_scale_rows", lambda out, wanted, renorms, *rest: (
        seen.add((driver, bool(renorms))), finish(out, wanted, renorms, *rest))[1])
    for driver, (degrees, order, log_x, power, ln_const) in cases:
        batch = driver(degrees, order, log_x, power, ln_const)
        for i, point in enumerate(log_x.tolist()):
            lone = driver(degrees, order, point, power, ln_const)
            assert lone.tobytes() == np.ascontiguousarray(batch[:, i]).tobytes(), (order, i)
    assert seen == {(driver, renormalised) for driver in (sf.laguerre_functions,
                                                          sf.laguerre_diagonal)
                    for renormalised in (False, True)}


def test_laguerre_orders_past_2_21_raise_accuracy_error():
    # the finish's power x^floor(order/2) costs O(order) numpy calls there, and the Gamma
    # normaliser keeps under nine digits: both drivers, and the rules built on them, refuse
    start = time.perf_counter()
    for call in (lambda: sf.laguerre_functions([0, 1], 2.0 ** 22, np.log([1e6, 4e6])),
                 lambda: sf.laguerre_diagonal([0, 1], 2.0 ** 22, np.log([1e6, 4e6])),
                 lambda: sf.build_quadrature("laguerre", 3, 1e12)):
        with pytest.raises(AccuracyError, match=r"past 2\^21"):
            call()
    assert time.perf_counter() - start < 1.0
    assert np.all(np.isfinite(sf.laguerre_functions([0, 1], 2.0 ** 21, np.log([2e6, 2.1e6]))))


def test_laguerre_diagonal_matches_mpmath():
    # phi_p^(beta-2p) for the Morse levels (beta = 2 lambda - 1) and the radial terms
    # of a spherical level (beta = 2n + c +- b + 1, with the radial power -1/4 and
    # constant), within 1e-12 of each row's largest value, at points spread over
    # each family's support, below 2^-600 (the closed-form region), at x = 0
    # where every order is positive and power 0, and past the far tail
    from genosc.model import Branch, SystemParams, require_admissible

    rng = np.random.default_rng(2021)
    both = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b = 0.3, c = 1
    steep = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)
    # lambda = 400.51 leaves the top level the order 0.02, whose x^0.01 is still
    # e^-14 at x = e^-1400: a check of the closed-form region's digits
    cases = [(2.0 * lam - 1.0, math.ceil(lam) - 1, 0.0, 0.0) for lam in (30, 120, 400, 400.51)]
    for n, params, branch in ((12, steep, Branch.Plus), (60, both, Branch.Minus),
                              (100, steep, Branch.Plus)):
        b, c, _ = require_admissible(params, branch)
        cases.append((2.0 * n + c + branch.sign * b + 1.0, n, -0.25,
                      0.5 * math.log(2.0) + 0.75 * math.log(params.omega)))
    for beta, n, power, ln_const in cases:
        x_tail = sf._x_tail(0, beta + 1.0)   # every phi_p^(beta-2p) is below e^-1500 past it
        log_x = np.concatenate([np.log(rng.uniform(0.01, 2.5 * beta + 10.0, 10)),
                                [-450.0, -700.0, -1400.0, math.log(x_tail) + 1.0, 800.0]
                                + ([-math.inf] if power == 0.0 else [])])
        degrees = sorted({0, n, *rng.integers(0, n + 1, 4).tolist()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sf.laguerre_diagonal(degrees, beta, log_x, power, ln_const)
        assert got.shape == (len(degrees), log_x.size) and np.all(np.isfinite(got))
        assert np.all(got[:, log_x > math.log(x_tail)] == 0.0)
        for row, p in zip(got, degrees):
            want = np.array([_ref_laguerre_function(p, beta - 2.0 * p, v, power, ln_const)
                             for v in log_x.tolist()])
            assert np.abs(want).max() > 0.0
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max(), (beta, p)


# ------------------------------------------------------- connecting formulas

GRID = np.linspace(-0.999, 0.999, 50)


def test_connect_gegenbauer_jacobi_odd():
    # C_{2n+1}^lam(x) = (lam)_{n+1} / (1/2)_{n+1} * x * P_n^(lam-1/2, 1/2)(2x^2-1)
    for n, lam in [(0, 0.7), (2, 1.3), (4, 0.51), (3, 2.8)]:
        ratio = math.exp(sf.ln_gamma(lam + n + 1) - sf.ln_gamma(lam)
                         - sf.ln_gamma(n + 1.5) + sf.ln_gamma(0.5))
        lhs = sf.gegenbauer(2 * n + 1, lam, GRID)
        rhs = ratio * GRID * sf.jacobi_p(n, lam - 0.5, 0.5, 2 * GRID ** 2 - 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_connect_gegenbauer_jacobi_even():
    for n, lam in [(1, 0.7), (2, 1.3), (5, 0.51), (3, 2.8)]:
        ratio = math.exp(sf.ln_gamma(lam + n) - sf.ln_gamma(lam)
                         - sf.ln_gamma(n + 0.5) + sf.ln_gamma(0.5))
        lhs = sf.gegenbauer(2 * n, lam, GRID)
        rhs = ratio * sf.jacobi_p(n, lam - 0.5, -0.5, 2 * GRID ** 2 - 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_connect_hermite_laguerre_odd():
    # H_{2n+1}(x) = (-1)^n 2^(2n+1) n! x L_n^(1/2)(x^2)
    xg = np.linspace(-3, 3, 50)
    for n in (0, 1, 3, 6):
        pref = (-1.0) ** n * 2.0 ** (2 * n + 1) * math.factorial(n)
        lhs = sf.hermite(2 * n + 1, xg)
        rhs = pref * xg * sf.gen_laguerre(n, 0.5, xg ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-9)


def test_connect_hermite_laguerre_even():
    xg = np.linspace(-3, 3, 50)
    for n in (0, 1, 3, 6):
        pref = (-1.0) ** n * 2.0 ** (2 * n) * math.factorial(n)
        lhs = sf.hermite(2 * n, xg)
        rhs = pref * sf.gen_laguerre(n, -0.5, xg ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-9)


def test_connect_legendre_gegenbauer():
    # P_l^m(x) = (-2)^m / sqrt(pi) * Gamma(m+1/2) (1-x^2)^(m/2) C_{l-m}^{m+1/2}(x)
    for l, m in [(1, 1), (3, 2), (5, 0), (6, 4)]:
        pref = (-2.0) ** m / math.sqrt(math.pi) * math.exp(sf.ln_gamma(m + 0.5))
        lhs = sf.assoc_legendre(l, m, GRID)
        rhs = pref * (1 - GRID ** 2) ** (m / 2) * sf.gegenbauer(l - m, m + 0.5, GRID)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_assoc_legendre_examples():
    assert sf.assoc_legendre(0, 0, 0.3) == 1.0
    assert abs(sf.assoc_legendre(1, 1, 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert sf.assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, rel=1e-14)
    # m = 0 reduces to the Legendre polynomial
    assert sf.assoc_legendre(4, 0, 0.7) == pytest.approx(
        sf.jacobi_p(4, 0.0, 0.0, 0.7), rel=1e-12)
    with pytest.raises(DomainError):
        sf.assoc_legendre(2, 3, 0.5)
    with pytest.raises(DomainError):
        sf.assoc_legendre(2, 1, 1.5)


# ---------------------------------------------------------------- exact sums

def ratio_sum_2f1(k, b, c):
    """2F1(-k, b; c; 1) at the exact values of the floats b and c, by sf._ratio_sum."""
    scale, (b, c) = sf._dyadic(b, c)
    return sf._ratio_sum(((-k, 1), sf._base(b, scale)), (sf._base(c, scale), (1, 1)), k + 1)


def exact_terminating_2f1(k, b, c):
    """2F1(-k, b; c; 1) at the exact values of the floats b and c, as a Fraction."""
    b, c = Fraction(b), Fraction(c)
    total = term = Fraction(1)
    for j in range(k):
        term *= (j - k) * (b + j) / ((c + j) * (j + 1))
        total += term
    return total


def test_ratio_sum_trivial():
    assert ratio_sum_2f1(1, 2.0, 4.0) == 0.5
    assert ratio_sum_2f1(0, 5.2, 3.1) == 1.0


def test_ratio_sum_terminating():
    # direct 3-term sum, 35-digit arithmetic
    assert ratio_sum_2f1(2, 1.3, 3.7) == pytest.approx(
        0.46923519263944795859689476710753307, rel=1e-13)


def test_ratio_sum_is_correctly_rounded():
    # alternating sums that cancel; a float loop lost digits and gave NaN at
    # (300, 1000, 0.5), whose terms pass a double before they cancel
    for k, b, c in ((40, 0.3, 1.7), (25, -7.3, 2.9), (60, 33.1, 0.25), (300, 1000.0, 0.5)):
        assert ratio_sum_2f1(k, b, c) == float(exact_terminating_2f1(k, b, c)), (k, b, c)
    # Chu-Vandermonde: (c - b)_k / (c)_k is exactly zero when c - b is an integer in (-k, 0]
    assert ratio_sum_2f1(7, 4.75, 2.75) == 0.0
    with pytest.raises(NumericError, match="past a double"):
        ratio_sum_2f1(500, 2000.0, 0.5)


def two_step_finish(tops, bottoms, runs, ln):
    """The exact sums' finish as two steps, each run's sum as a correctly rounded mantissa
    2^e and then mantissa e^r 2^(e + j) (sf._split_ln2 of ln) over numpy arrays: inf past a
    double."""
    mantissas, exponents, k = [], [], 0
    for n in runs:
        num = den = 1
        for top, bottom in zip(tops[k:k + n], bottoms[k:k + n]):
            den *= bottom
            num = den + top * num
        k += n
        e = num.bit_length() - den.bit_length()
        mantissas.append(num / (den << e) if e > 0 else (num << -e) / den)
        exponents.append(e)
    r, j = sf._split_ln2(ln)
    exp_r = np.fromiter(map(math.exp, r.tolist()), float, r.size)
    with np.errstate(over="ignore"):
        return np.ldexp(np.array(mantissas) * exp_r, np.array(exponents) + j.astype(np.int64))


def test_horner_finish_matches_the_two_step_rounding():
    # sums of 24 ratios pass no e^99, so e^ln <= e^600 keeps every value within a double,
    # and e^ln down to e^-760 makes some of them subnormal
    rng = np.random.default_rng(39)
    subnormal = 0
    for _ in range(40):
        runs = rng.integers(0, 25, size=30).tolist()
        tops = rng.integers(-60, 61, size=sum(runs)).tolist()
        bottoms = rng.integers(1, 61, size=sum(runs)).tolist()
        ln = rng.uniform(-760.0, 600.0, size=len(runs))
        r, j = sf._split_ln2(ln)
        out = np.array(sf._horner(tops, bottoms, runs, zip(r.tolist(), j.astype(int).tolist())))
        ref = two_step_finish(tops, bottoms, runs, ln)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        subnormal += np.count_nonzero((out != 0.0) & (np.abs(out) < 2.0 ** -1022))
    assert subnormal
    # past a double, where the two steps give inf
    assert np.isinf(two_step_finish([], [], [0], np.array([710.0])))
    with pytest.raises(NumericError, match="past a double"):
        sf._horner([], [], [0], [(0.0, 1024)])


def test_exact_sums_refuse_more_terms_than_the_cap():
    # sums of 1e7 and about 2^61 terms ran until killed; each is refused at once
    big = 2 ** 62 - 4
    params = SystemParams(1.3, 0.7, 1.1, 1)
    for call in (lambda: ratio_sum_2f1(10 ** 7, 2.5, 3.5),
                 lambda: bi_orthogonality_hypergeometric(8192, 8192, 0, params, Branch.Plus),
                 lambda: w_coefficient(big, big // 2, big // 2, params, Branch.Plus)):
        start = time.perf_counter()
        with pytest.raises(NumericError, match=f"more than {sf._MAX_SUM_TERMS} terms"):
            call()
        assert time.perf_counter() - start < 1.0
    # the cap itself is summed: 2F1(-8191, b; c; 1) has 8192 terms
    assert ratio_sum_2f1(sf._MAX_SUM_TERMS - 1, 2.5, 3.5) > 0.0
    with pytest.raises(NumericError, match="terms"):
        ratio_sum_2f1(sf._MAX_SUM_TERMS, 2.5, 3.5)


# ---------------------------------------------------------------- quadrature

def test_quadrature_legendre_trivial():
    r = sf.build_quadrature("legendre", 1)
    assert r.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert r.weights[0] == pytest.approx(2.0, rel=1e-14)


def test_quadrature_jacobi00_is_legendre():
    rj = sf.build_quadrature("jacobi", 5, 0.0, 0.0)
    rl = sf.build_quadrature("legendre", 5)
    np.testing.assert_allclose(rj.nodes, rl.nodes, atol=1e-13)
    np.testing.assert_allclose(rj.weights, rl.weights, atol=1e-13)


def test_quadrature_invariants():
    for kind, n, a, b in [("jacobi", 40, 1.0, 0.3), ("jacobi", 7, 2.5, -0.7),
                          ("laguerre", 128, 2.8, 0.0), ("legendre", 16, 0.0, 0.0)]:
        r = sf.build_quadrature(kind, n, a, b)
        assert r.npoints == n == len(r.nodes) == len(r.weights)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.weights > 0)
        if kind == "laguerre":
            assert np.all(r.nodes > 0)
        else:
            assert np.all(np.abs(r.nodes) < 1.0)


def test_quadrature_laguerre_moments():
    # N-point rule integrates x^(k+alpha) e^-x exactly for k <= 2N-1
    for n, alpha in [(20, 0.5), (12, 0.0), (30, 2.8)]:
        r = sf.build_quadrature("laguerre", n, alpha)
        for k in range(0, 2 * n, 3):
            ref = math.exp(sf.ln_gamma(k + alpha + 1.0))
            got = r.integrate(r.nodes ** k)
            assert got == pytest.approx(ref, rel=1e-12), (n, alpha, k)


def test_quadrature_laguerre_scaled_weights_past_plain_range():
    # 400 points and alpha = 180, where the plain weights leave double range: the
    # scaled weights stay finite and positive, and sum_i w~_i x_i^(j+alpha) e^-x_i
    # is Gamma(j + alpha + 1) for small j; they are the plain ones where both exist
    for n, alpha in ((400, 0.0), (400, 0.7), (400, -0.9), (6, 180.0)):
        r = sf.build_quadrature("laguerre", n, alpha)
        w = r.scaled_weights
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)
        assert not w.flags.writeable
        ln_x = np.log(r.nodes)
        for j in range(6):
            ln_ref = math.lgamma(j + alpha + 1.0)
            got = np.sum(w * np.exp((j + alpha) * ln_x - r.nodes - ln_ref))
            assert got == pytest.approx(1.0, rel=1e-12), (n, alpha, j)
    r = sf.build_quadrature("laguerre", 30, 2.8)
    np.testing.assert_allclose(r.weights, r.scaled_weights * r.nodes ** 2.8 * np.exp(-r.nodes),
                               rtol=1e-13)
    assert sf.build_quadrature("jacobi", 7, 2.5, -0.7).scaled_weights is \
        sf.build_quadrature("jacobi", 7, 2.5, -0.7).weights


def jacobi_moment_oracle(a, b, k):
    """Exact int_-1^1 (1-x)^a (1+x)^b x^k dx via x^k = ((1+x)-1)^k and Beta."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    total = mpmath.mpf(0)
    for j in range(k + 1):
        total += (mpmath.binomial(k, j) * (-1) ** (k - j) * 2 ** (a + b + j + 1)
                  * mpmath.gamma(a + 1) * mpmath.gamma(b + j + 1)
                  / mpmath.gamma(a + b + j + 2))
    return float(total)


def test_quadrature_jacobi_moments():
    for n, a, b in [(10, 1.0, 0.3), (8, 0.0, 0.0), (9, 2.5, -0.7)]:
        r = sf.build_quadrature("jacobi", n, a, b)
        for k in range(0, 2 * n, 4):
            ref = jacobi_moment_oracle(a, b, k)
            got = r.integrate(r.nodes ** k)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-13), (n, a, b, k)


def test_quadrature_nodes_match_scipy_at_large_sizes():
    for kind, n, a, b in [("laguerre", 150, 0.5, 0.0), ("jacobi", 200, 0.0, 0.0),
                          ("jacobi", 200, 1.3, -0.4)]:
        r = sf.build_quadrature(kind, n, a, b)
        ref, _ = roots_genlaguerre(n, a) if kind == "laguerre" else roots_jacobi(n, a, b)
        assert np.all(r.weights > 0.0)
        np.testing.assert_allclose(r.nodes, ref, rtol=1e-13, atol=0.0)


def _mp_gauss_point(kind, n, a, b, x0):
    """(node, Christoffel weight 1/sum_{k<n} p_k^2) of the zero of the orthonormal p_n
    next to x0, by 40-digit Newton on the three-term recurrence from mpmath coefficients."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if kind == "laguerre":
            diag = [2 * k + a + 1 for k in range(n)]
            sqb = [mpmath.sqrt(mpmath.gamma(a + 1))] + [mpmath.sqrt(k * (k + a))
                                                        for k in range(1, n + 1)]
        else:
            ab = a + b
            diag = [(b - a) / (ab + 2)] + [(b * b - a * a) / ((2 * k + ab) * (2 * k + ab + 2))
                                           for k in range(1, n)]
            sqb = [mpmath.sqrt(2 ** (ab + 1) * mpmath.beta(a + 1, b + 1)),
                   mpmath.sqrt(4 * (a + 1) * (b + 1) / ((ab + 2) ** 2 * (ab + 3)))]
            sqb += [mpmath.sqrt(4 * k * (k + a) * (k + b) * (k + ab) / (
                (2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1))) for k in range(2, n + 1)]
        x = mpmath.mpf(float(x0))
        for _ in range(5):
            prev, cur, total = 0, 1 / sqb[0], 0
            for k in range(n):
                total += cur * cur
                prev, cur = cur, ((x - diag[k]) * cur - sqb[k] * prev) / sqb[k + 1]
            x -= sqb[n] * cur * prev / total   # Christoffel-Darboux: p_n' = S / (sqrt(b_n) p_{n-1})
        return x, 1 / total


# every rule size to 17, then 40 and 100, checked at its first, middle and last node
RULE_SIZES = (*range(1, 18), 40, 100)


def test_laguerre_rule_nodes_are_newton_polished():
    # eigvalsh alone left the smallest node 6.5e-14 (150, 0) to 1.4e-11 (1000, 0.3) off;
    # the scaled weight there followed it
    cases = [(150, 0.0), (300, 0.5), (1000, 0.0), (1000, 0.3)]
    cases += [(n, alpha) for alpha in (-0.5, 0.0, 0.3, 2.5, 7.7, 40.0) for n in RULE_SIZES]
    for n, alpha in cases:
        rule = sf.build_quadrature("laguerre", n, alpha)
        for i in {n - 1, n // 2, 0}:
            x, w = _mp_gauss_point("laguerre", n, alpha, 0.0, rule.nodes[i])
            assert abs(rule.nodes[i] / x - 1) <= 1e-14, (n, alpha, i)
            with mpmath.workdps(40):
                scaled = w * mpmath.exp(x) / x ** alpha   # moved with the node
                assert abs(rule.scaled_weights[i] / scaled - 1) <= 1e-13, (n, alpha, i)


def test_jacobi_rule_weights_follow_the_polished_nodes():
    # weights summed at eigvalsh's nodes and moved to first order with them; the
    # weights a second pass summed at the polished nodes were up to 5.9e-13 off. The
    # smaller rules' nodes are held to one ulp of the interval's end (a node at 0 comes
    # out 1e-32 off)
    cases = [("jacobi", n, a, b, 1e-16, (0, 1, n // 2, n - 2, n - 1))
             for n, a, b in ((61, 0.0, -0.5), (150, 40.0, 3.0), (150, -0.9, -0.9), (300, 0.0, 0.0))]
    cases += [(kind, n, a, b, np.spacing(1.0), {0, n // 2, n - 1})
              for kind, a, b in (("jacobi", 0.5, 0.25), ("legendre", 0.0, 0.0)) for n in RULE_SIZES]
    for kind, n, a, b, node_tol, picks in cases:
        rule = sf.build_quadrature(kind, n, a, b)
        for i in picks:
            x, w = _mp_gauss_point(kind, n, a, b, rule.nodes[i])
            assert abs(rule.nodes[i] - x) <= node_tol, (kind, n, a, b, i)
            assert abs(rule.weights[i] / w - 1) <= 2.5e-13, (kind, n, a, b, i)


def test_quadrature_lapack_failure_is_numeric_error(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(NumericError):
        sf.build_quadrature("jacobi", 23, 0.125, 0.625)
    # a node LAPACK puts on the end of the interval is refused: the weights' first-order
    # update divides by 1 - x^2 (Jacobi) or x (Laguerre)
    for kind, ends in (("jacobi", (-0.5, 1.0)), ("laguerre", (0.0, 9.0))):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: np.linspace(*ends, len(mat)))
        with pytest.raises(NumericError, match=f"nodes off the {kind} interval"):
            sf.build_quadrature(kind, 24, 0.125)


def test_quadrature_degree_2n_not_exact():
    # one degree past the guarantee must fail: rules out silent over-fitting
    r = sf.build_quadrature("legendre", 4)
    exact = 2.0 / 9.0
    assert abs(r.integrate(r.nodes ** 8) - exact) > 1e-6


def test_quadrature_caching_returns_same_object():
    r1 = sf.build_quadrature("jacobi", 31, 1.0, 0.3)
    r2 = sf.build_quadrature("jacobi", 31, 1.0, 0.3)
    assert r1 is r2
    assert not r1.nodes.flags.writeable


def test_quadrature_domain_errors():
    with pytest.raises(DomainError):
        sf.build_quadrature("chebyshev", 5)
    with pytest.raises(DomainError):
        sf.build_quadrature("jacobi", 5, -1.5, 0.0)
    with pytest.raises(DomainError):
        sf.build_quadrature("laguerre", 0, 0.5)
    for bad in (math.inf, math.nan, 2.5):
        with pytest.raises(DomainError, match="quadrature size"):
            sf.build_quadrature("legendre", bad)
    # a Laguerre rule's smallest weights underflow past ~180 points, and its weight
    # integral Gamma(172) leaves double range: reading those weights is refused
    for n, alpha in ((400, 0.0), (5, 171.0)):
        rule = sf.build_quadrature("laguerre", n, alpha)
        with pytest.raises(AccuracyError, match=rf"laguerre rule .* n={n}, alpha={alpha}"):
            rule.weights
        with pytest.raises(AccuracyError):
            rule.integrate(np.ones(n))
    # the weight integral 2^1101 / 1101 leaves double range
    with pytest.raises(AccuracyError, match=r"jacobi rule .* n=5, alpha=1100.0"):
        sf.build_quadrature("jacobi", 5, 1100.0, 0.0)
    # Christoffel sums overflow at the largest nodes: those weights
    # underflow double precision, so the rule is refused
    with pytest.raises(AccuracyError):
        sf.build_quadrature("jacobi", 600, 500.0, 0.0)


def test_quadrature_refuses_a_size_it_cannot_tabulate():
    # the n x n Jacobi matrix of a million points (8 TB) is refused before any array,
    # by a rule of its own and by a Gram check that asks for one
    with pytest.raises(NumericError, match=r"laguerre rule.* n=1000000 "):
        sf.build_quadrature("laguerre", 10 ** 6)
    with pytest.raises(NumericError, match=r"jacobi rule.* n=1000002 "):
        gram_matrix(GramFamily.Theta, 10 ** 6, SystemParams(1.0, 0.05, 0.5, 1))


@pytest.mark.parametrize("args", [("jacobi", 3, math.inf, 0.0), ("jacobi", 3, 0.5, math.inf),
                                  ("laguerre", 3, math.inf)])
def test_quadrature_refuses_infinite_exponents(args):
    # once an OverflowError (jacobi) or a RuntimeWarning and NumericError (laguerre)
    with pytest.raises(DomainError, match="rule (needs|requires) finite alpha"):
        sf.build_quadrature(*args)


def test_non_finite_arguments_are_domain_errors():
    for call in (lambda: sf.gamma_sign_ln(-math.inf), lambda: sf.gamma_sign_ln(math.nan),
                 lambda: reciprocal_gamma(-math.inf), lambda: reciprocal_gamma(math.nan),
                 lambda: sf.assoc_legendre(2, 1, math.nan),
                 lambda: sf.assoc_legendre(2, 1, np.array([0.5, math.nan])),
                 lambda: sf.gegenbauer(2, math.nan, 0.3),
                 lambda: sf.gegenbauer(2, math.inf, 0.3),
                 lambda: sf.build_quadrature("jacobi", 5, math.nan, 0.0),
                 lambda: sf.build_quadrature("laguerre", 5, math.nan)):
        with pytest.raises(DomainError):
            call()
    # +inf stays the limit: Gamma(+inf) = +inf, 1/Gamma(+inf) = 0
    assert sf.gamma_sign_ln(math.inf) == (1.0, math.inf)
    assert reciprocal_gamma(math.inf) == 0.0 and reciprocal_gamma(-3.0) == 0.0
