"""Perturbation series: closed-form low orders, truncation scaling, mixing."""

import math
import random
import re

import numpy as np
import pytest

from genosc.errors import DomainError, NumericError
from genosc.interbasis import m_matrix_cyl, n_matrix_sph
from genosc.model import (Branch, SystemParams, admissible_branches,
                          channel_constants, separation_constant_A)
from genosc import perturbation
from genosc.perturbation import (SERIES_MAX_ORDER, Regime, large_r_series,
                                 small_r_series, wavefunction_correction)
from genosc.spheroidal import Kind, build_tridiag_t, build_tridiag_u, eigensolve

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)
SETS = [BOTH, STEEP, SystemParams(1.0, 2.0, 3.0, 0)]


def cases(n_max):
    for params in SETS:
        for branch in admissible_branches(params):
            for n in range(n_max + 1):
                for k in range(n + 1):
                    yield params, branch, n, k


# closed-form coefficient radicals of the two separation systems
def big_a(n, q, c, sb):
    return math.sqrt(q * (n - q + 1) * (q + c + sb) * (q + sb) * (q + c)
                     * (n + q + c + sb + 1)
                     / ((2 * q + c + sb) ** 2 * (2 * q + c + sb - 1)
                        * (2 * q + c + sb + 1)))


def big_b(n, q, c, sb):
    return (0.5 * (2 * n + c + sb + 2)
            * (2 * q * (q + 1) + (c + sb) * (2 * q + sb + 1))
            / ((2 * q + c + sb) * (2 * q + c + sb + 2)))


def big_c(n, p, c, sb):
    return math.sqrt(p * (p + sb) * (n - p + 1) * (n + c - p + 1))


def big_d(n, p, c, sb):
    return ((p + 1) * (n - p) + (p + sb) * (n + c - p + 1)
            + 0.25 * (c - sb + 0.5) * (c - sb + 1.5))


# ------------------------------------------------------------ small R

def test_small_low_orders_match_closed_forms():
    for params, branch, n, k in cases(4):
        b, c, _ = channel_constants(params)
        sb = branch.sign * b
        gamma = c + sb
        ser = small_r_series(n, k, params, branch, order=2)
        assert ser.lambda_coeffs[0] == pytest.approx(big_b(n, k, c, sb), rel=1e-13)
        lam2 = 0.0
        if k > 0:
            lam2 += big_a(n, k, c, sb) ** 2 / (4 * (2 * k + gamma))
        if k < n:
            lam2 -= big_a(n, k + 1, c, sb) ** 2 / (4 * (2 * k + gamma + 2))
        assert ser.lambda_coeffs[1] == pytest.approx(lam2, rel=1e-12, abs=1e-14)
        first = ser.vector_coeffs[1]
        for q in range(n + 1):
            if q == k - 1:
                assert first[q] == pytest.approx(
                    -big_a(n, k, c, sb) / (4 * (2 * k + gamma)), rel=1e-13)
            elif q == k + 1:
                assert first[q] == pytest.approx(
                    big_a(n, k + 1, c, sb) / (4 * (2 * k + gamma + 2)), rel=1e-13)
            else:
                assert first[q] == 0.0


def test_small_scalar_level_is_exact():
    ser = small_r_series(0, 0, BOTH, Branch.Plus, order=6)
    assert ser.leading == pytest.approx(5.04, abs=1e-14)
    assert ser.lambda_coeffs[0] == pytest.approx(0.65, abs=1e-14)
    assert all(coeff == 0.0 for coeff in ser.lambda_coeffs[1:])
    for R in (0.05, 0.7, 3.0):
        assert ser.eigenvalue(R) == pytest.approx(5.04 + 0.65 * R * R, abs=1e-12)


def test_small_truncation_error_scales_as_third_power():
    for n, k in [(3, 0), (3, 1), (3, 3), (4, 2)]:
        ser = small_r_series(n, k, BOTH, Branch.Plus, order=2)
        errs = []
        for R in (0.05, 0.1):
            lam = eigensolve(build_tridiag_t(n, BOTH, Branch.Plus, R,
                                             Kind.Prolate)).lam[k]
            errs.append(abs(lam - ser.eigenvalue(R)))
        slope = math.log(errs[1] / errs[0]) / math.log(4.0)
        assert slope == pytest.approx(3.0, abs=0.2)


def test_small_high_order_matches_eigensolve():
    for params, n, k in [(BOTH, 3, 1), (BOTH, 4, 0), (STEEP, 3, 3)]:
        ser = small_r_series(n, k, params, Branch.Plus, order=6)
        sol = eigensolve(build_tridiag_t(n, params, Branch.Plus, 0.3,
                                         Kind.Prolate))
        assert ser.eigenvalue(0.3) == pytest.approx(sol.lam[k], abs=1e-12)
        exact = sol.vectors[:, k] / sol.vectors[k, k]
        np.testing.assert_allclose(ser.vector(0.3), exact, atol=1e-12)


# ------------------------------------------------------------ large R

def test_large_low_orders_match_closed_forms():
    for params, branch, n, k in cases(4):
        b, c, _ = channel_constants(params)
        sb = branch.sign * b
        ser = large_r_series(n, k, params, branch, order=2)
        assert ser.leading == pytest.approx(k + 0.5 * (sb + 1), rel=1e-13)
        assert ser.lambda_coeffs[0] == pytest.approx(4 * big_d(n, k, c, sb),
                                                     rel=1e-13)
        lam2 = 16 * (big_c(n, k, c, sb) ** 2 - big_c(n, k + 1, c, sb) ** 2)
        assert ser.lambda_coeffs[1] == pytest.approx(lam2, rel=1e-12, abs=1e-12)
        first = ser.vector_coeffs[1]
        if k > 0:
            assert first[k - 1] == pytest.approx(4 * big_c(n, k, c, sb),
                                                 rel=1e-13)
        if k < n:
            assert first[k + 1] == pytest.approx(-4 * big_c(n, k + 1, c, sb),
                                                 rel=1e-13)


def test_large_scalar_level_is_exact():
    ser = large_r_series(0, 0, BOTH, Branch.Plus, order=6)
    assert ser.leading == pytest.approx(0.65, abs=1e-14)
    assert ser.lambda_coeffs[0] == pytest.approx(5.04, abs=1e-13)
    assert all(coeff == 0.0 for coeff in ser.lambda_coeffs[1:])
    for R in (0.5, 2.0, 40.0):
        assert ser.eigenvalue(R) == pytest.approx(5.04 + 0.65 * R * R, abs=1e-12)


def test_large_truncation_error_scales_as_inverse_third_power():
    # measured on lambda/(omega R^2), the natural large-R object
    for n, k in [(3, 0), (3, 1), (4, 2)]:
        ser = large_r_series(n, k, BOTH, Branch.Plus, order=2)
        errs = []
        for R in (20.0, 40.0):
            x = BOTH.omega * R * R
            lam = eigensolve(build_tridiag_u(n, BOTH, Branch.Plus, R,
                                             Kind.Prolate)).lam[k]
            errs.append(abs(lam - ser.eigenvalue(R)) / x)
        slope = math.log(errs[1] / errs[0]) / math.log(4.0)
        assert slope == pytest.approx(-3.0, abs=0.3)


def test_large_high_order_matches_eigensolve():
    for params in (BOTH, STEEP):
        for n in range(5):
            for k in range(n + 1):
                ser = large_r_series(n, k, params, Branch.Plus, order=6)
                sol = eigensolve(build_tridiag_u(n, params, Branch.Plus, 30.0,
                                                 Kind.Prolate))
                assert ser.eigenvalue(30.0) == pytest.approx(sol.lam[k],
                                                             rel=1e-4)
    ser = large_r_series(3, 1, BOTH, Branch.Plus, order=6)
    sol = eigensolve(build_tridiag_u(3, BOTH, Branch.Plus, 20.0, Kind.Prolate))
    exact = sol.vectors[:, 1] / sol.vectors[1, 1]
    np.testing.assert_allclose(ser.vector(20.0), exact, atol=1e-8)


# ------------------------------------------------------- shared structure

def test_table_pinning_invariants():
    for maker in (small_r_series, large_r_series):
        ser = maker(3, 2, BOTH, Branch.Plus, order=4)
        ek = np.zeros(4)
        ek[2] = 1.0
        np.testing.assert_array_equal(ser.vector_coeffs[0], ek)
        assert np.all(ser.vector_coeffs[1:, 2] == 0.0)
        assert not ser.vector_coeffs.flags.writeable


def test_recursion_residual_order():
    ser = small_r_series(3, 1, BOTH, Branch.Plus, order=3)
    res = []
    for R in (0.05, 0.08):
        system = build_tridiag_t(3, BOTH, Branch.Plus, R, Kind.Prolate)
        vec = ser.vector(R)
        res.append(np.abs(system.dense() @ vec - ser.eigenvalue(R) * vec).max())
    slope = (math.log(res[1] / res[0])
             / math.log((0.08 / 0.05) ** 2))
    assert slope == pytest.approx(4.0, abs=0.4)
    ser = large_r_series(3, 1, BOTH, Branch.Plus, order=3)
    res = []
    for R in (25.0, 40.0):
        x = BOTH.omega * R * R
        system = build_tridiag_u(3, BOTH, Branch.Plus, R, Kind.Prolate)
        vec = ser.vector(R)
        res.append(np.abs(system.dense() @ vec
                          - ser.eigenvalue(R) * vec).max() / x)
    slope = math.log(res[1] / res[0]) / math.log((40.0 / 25.0) ** 2)
    assert slope == pytest.approx(-4.0, abs=0.4)


# --------------------------------------------------- first-order mixing

def test_correction_edge_channels_vanish():
    for regime in Regime:
        lo, center, hi = wavefunction_correction(3, 0, 1, BOTH, Branch.Plus,
                                                 0.5, regime)
        assert lo == 0.0 and center == 1.0
        lo, center, hi = wavefunction_correction(3, 3, 1, BOTH, Branch.Plus,
                                                 0.5, regime)
        assert hi == 0.0 and center == 1.0


def test_correction_closed_forms():
    b, c, _ = channel_constants(BOTH)
    sb = b
    gamma = c + sb
    R = 0.1
    x = BOTH.omega * R * R
    lo, _, hi = wavefunction_correction(3, 1, 1, BOTH, Branch.Plus, R,
                                        Regime.SmallR)
    assert lo == pytest.approx(-x * big_a(3, 1, c, sb) / (4 * (2 + gamma)),
                               rel=1e-13)
    assert hi == pytest.approx(x * big_a(3, 2, c, sb) / (4 * (4 + gamma)),
                               rel=1e-13)
    R = 30.0
    x = BOTH.omega * R * R
    lo, _, hi = wavefunction_correction(3, 1, 1, BOTH, Branch.Plus, R,
                                        Regime.LargeR)
    assert lo == pytest.approx(4 * big_c(3, 1, c, sb) / x, rel=1e-13)
    assert hi == pytest.approx(-4 * big_c(3, 2, c, sb) / x, rel=1e-13)


def test_correction_projection_against_eigenvector():
    for params, n, k in [(BOTH, 3, 1), (STEEP, 2, 1)]:
        R = 0.1
        x = params.omega * R * R
        sol = eigensolve(build_tridiag_t(n, params, Branch.Plus, R,
                                         Kind.Prolate))
        w = sol.vectors[:, k] / sol.vectors[k, k]
        lo, _, hi = wavefunction_correction(n, k, params.m, params,
                                            Branch.Plus, R, Regime.SmallR)
        assert abs(w[k - 1] - lo) <= 0.05 * x * x
        assert abs(w[k + 1] - hi) <= 0.05 * x * x
        R = 30.0
        x = params.omega * R * R
        sol = eigensolve(build_tridiag_u(n, params, Branch.Plus, R,
                                         Kind.Prolate))
        w = sol.vectors[:, k] / sol.vectors[k, k]
        lo, _, hi = wavefunction_correction(n, k, params.m, params,
                                            Branch.Plus, R, Regime.LargeR)
        assert abs(w[k - 1] - lo) <= 1e3 / (x * x)
        assert abs(w[k + 1] - hi) <= 1e3 / (x * x)


# ------------------------------------------- banded vs dense recursion

def dense_recursion(coupling, denom, k, order):
    """The recursion as first written: full dense rows, one fsum per entry."""
    size = coupling.shape[0]
    table = np.zeros((order + 1, size))
    table[0, k] = 1.0
    lams = []
    for j in range(1, order + 1):
        w = [math.fsum(coupling[q, r] * table[j - 1, r] for r in range(size))
             for q in range(size)]
        lams.append(w[k])
        for q in range(size):
            if q == k:
                continue
            shift = math.fsum(lams[j - t - 1] * table[t, q] for t in range(1, j))
            table[j, q] = (w[q] - shift) / denom[q]
    return tuple(lams), table


def dense_reference(regime, n, k, params, branch, order):
    if regime is Regime.SmallR:
        b, c, _ = channel_constants(params)
        gamma = c + branch.sign * b
        coupling = n_matrix_sph(n, params, branch) / (2.0 * params.omega)
        denom = [4.0 * (k - q) * (k + q + gamma + 1.0) for q in range(n + 1)]
    else:
        coupling = 2.0 * m_matrix_cyl(n, params, branch)
        denom = [float(k - p) for p in range(n + 1)]
    return dense_recursion(coupling, denom, k, order)


def test_banded_recursion_matches_dense_reference_bit_for_bit():
    rng = random.Random(1975)
    makers = {Regime.SmallR: small_r_series, Regime.LargeR: large_r_series}
    checked = 0
    for _ in range(300):
        params = SystemParams(omega=10.0 ** rng.uniform(-1.0, 1.0),
                              p_strength=rng.choice((rng.uniform(-0.25, 0.0),
                                                     rng.uniform(0.0, 4.0))),
                              q_strength=rng.choice((0.0, rng.uniform(0.0, 3.0))),
                              m=rng.randint(0, 3))
        branch = rng.choice(admissible_branches(params))
        n = rng.randint(0, 14)
        k = rng.randint(0, n)
        order = rng.choice((1, 2, 3, 6, 12, 20, 40))
        regime = rng.choice(tuple(Regime))
        series = makers[regime](n, k, params, branch, order=order)
        lams, table = dense_reference(regime, n, k, params, branch, order)
        assert series.lambda_coeffs == lams
        assert series.vector_coeffs.tobytes() == table.tobytes()
        checked += params.p_strength <= 0.0 and branch is Branch.Minus
    assert checked >= 10


def test_a_series_error_names_the_first_order_that_fails():
    # crafted recursions past the sampled paths: an overflowed table entry, a resonance,
    # a non-finite coupling
    crafted = [(np.array([1.0, 1.0]), np.array([1e300]), [0.0, 1e-11], 0, 3, Regime.SmallR),
               (np.array([1.0, 1.0]), np.array([1.0]), [0.0, 1e-13], 0, 3, Regime.SmallR),
               (np.array([1.0, np.inf]), np.array([1.0]), [1.0, 0.0], 1, 3, Regime.LargeR)]
    texts = []
    for args in crafted:
        with pytest.raises(NumericError) as refused:
            perturbation._recursion_tables(*args)
        texts.append(str(refused.value))
    assert texts == ["non-finite table entry in the small-R series at order 1",
                     "resonant denominator at order 1, component 1",
                     "non-finite coupling in the large-R series"]
    # seeded series at the order cap, most of them overflowing below it: a series that
    # fails at order J returns at J - 1 and fails again at J with the same text; one
    # that returns at the cap truncates to its order-64 series exactly
    rng = random.Random(37)
    cases = [(large_r_series, 40, 1, SystemParams(1.0, 0.0, 0.0, 0), Branch.Plus)]
    for _ in range(50):
        params = SystemParams(omega=10.0 ** rng.uniform(-150.0, 150.0),
                              p_strength=rng.choice((rng.uniform(-0.25, 0.0),
                                                     10.0 ** rng.uniform(-3.0, 6.0))),
                              q_strength=rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 6.0))),
                              m=rng.randint(0, 5))
        n = rng.randint(1, 60)
        # the small-R coefficients stay finite at the cap over these ranges
        maker = rng.choice((small_r_series, large_r_series, large_r_series, large_r_series))
        cases.append((maker, n, rng.randint(0, n), params,
                      rng.choice(admissible_branches(params))))
    texts = []
    for maker, n, k, params, branch in cases:
        try:
            cap = maker(n, k, params, branch, order=SERIES_MAX_ORDER)
        except NumericError as exc:
            texts.append(str(exc))
        else:
            low = maker(n, k, params, branch, order=64)
            assert low.lambda_coeffs == cap.lambda_coeffs[:64]
            assert low.vector_coeffs.tobytes() == cap.vector_coeffs[:65].tobytes()
            continue
        order = int(re.fullmatch(r".* at order (\d+)", texts[-1]).group(1))
        if order > 1:
            maker(n, k, params, branch, order=order - 1)
        with pytest.raises(NumericError) as again:
            maker(n, k, params, branch, order=order)
        assert str(again.value) == texts[-1]
    assert texts[0] == "non-finite product in the large-R series at order 112"
    assert len(texts) >= 25 and any(text.startswith("sum overflows") for text in texts)


def test_series_overflow_raises_numeric_error():
    # below the cap: this system's large-R coefficients overflow at order 112
    with pytest.raises(NumericError, match="large-R series at order"):
        large_r_series(40, 1, SystemParams(1.0, 0.0, 0.0, 0), Branch.Plus,
                       order=SERIES_MAX_ORDER)


def test_series_power_overflow_raises_numeric_error():
    # (omega R^2)^j past a double: a NumericError naming the regime, never OverflowError
    small = small_r_series(2, 0, SystemParams(1e150, 0.0, 0.0, 0), Branch.Plus, order=3)
    large = large_r_series(2, 1, SystemParams(1e-150, 0.0, 0.0, 0), Branch.Plus, order=6)
    for series, message in (
            (small, r"^the small-R series overflows at R=0\.05 \(omega R\^2 = 2\.5e\+147\)$"),
            (large, r"^the large-R series overflows at R=0\.05 \(omega R\^2 = 2\.5e-153\)$")):
        for evaluate in (series.eigenvalue, series.vector):
            with pytest.raises(NumericError, match=message):
                evaluate(0.05)
    # every power in range, but a product c (omega R^2)^-j past a double: at order 3,
    # R = 20 the value's products overflow; at order 2, R = 10 only the vector's entries do
    tiny = SystemParams(1e-150, 1e14, 0.5, 1)
    third = large_r_series(3, 1, tiny, Branch.Plus, order=3)
    second = large_r_series(3, 1, tiny, Branch.Plus, order=2)
    for evaluate, R, x in ((third.eigenvalue, 20.0, "4e-148"), (third.vector, 20.0, "4e-148"),
                           (second.vector, 10.0, "1e-148")):
        message = rf"^the large-R series overflows at R={R:g} \(omega R\^2 = {x}\)$"
        with pytest.raises(NumericError, match=message):
            evaluate(R)
    assert math.isfinite(second.eigenvalue(10.0))
    # omega R^2 underflowing to 0, whose inverse powers are infinite
    for evaluate in (second.eigenvalue, second.vector):
        with pytest.raises(NumericError, match=r"^the large-R series overflows at R=1e-200 "
                                               r"\(omega R\^2 = 0\)$"):
            evaluate(1e-200)
    # the omegas these overflows were once shown at lie outside the accepted range
    for omega in (1e300, 1e-300, 1e-155):
        with pytest.raises(DomainError, match=r"^omega must lie in \[1e-150, 1e150\], got "
                                              + re.escape(repr(omega)) + "$"):
            SystemParams(omega, 0.3, 0.5, 1)


def test_power_past_a_double_raises_numeric_error_naming_the_series():
    # R^2 past a double in the small-R regime, omega R^2 underflowing to 0 (whose
    # inverse is the first-order scale) in the large-R one: the series' own refusal
    params = SystemParams(1.0, 0.05, 0.5, 1)
    for regime, R, x in ((Regime.SmallR, 1e200, "inf"), (Regime.LargeR, 1e-200, "0")):
        message = re.escape(f"the {regime.value}-R series overflows at R={R:g} "
                            f"(omega R^2 = {x})")
        with pytest.raises(NumericError, match=f"^{message}$"):
            wavefunction_correction(2, 1, 1, params, Branch.Plus, R, regime)
    small = small_r_series(2, 1, params, Branch.Plus, order=1)
    for evaluate in (small.eigenvalue, small.vector):
        with pytest.raises(NumericError, match=r"^the small-R series overflows at R=1e\+200 "):
            evaluate(1e200)


def test_order_cap_is_checked_before_any_table(monkeypatch):
    def no_bands(*args):
        raise AssertionError("bands built for a refused order")

    monkeypatch.setattr(perturbation, "_n_bands", no_bands)
    monkeypatch.setattr(perturbation, "_m_bands", no_bands)
    refusal = rf"series order must lie in 1\.\.{SERIES_MAX_ORDER}, got"
    for maker in (small_r_series, large_r_series):
        for order in (SERIES_MAX_ORDER + 1, 20000):
            with pytest.raises(DomainError, match=refusal):
                maker(2, 0, BOTH, Branch.Plus, order=order)


# ------------------------------------------------------------ validation

def test_argument_validation():
    with pytest.raises(DomainError):
        small_r_series(2, 3, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        small_r_series(-1, 0, BOTH, Branch.Plus)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="level n"):
            small_r_series(bad, 0, BOTH, Branch.Plus)
        with pytest.raises(DomainError, match="k must be a nonnegative integer"):
            large_r_series(2, bad, BOTH, Branch.Plus)
        with pytest.raises(DomainError, match="series order"):
            small_r_series(2, 1, BOTH, Branch.Plus, order=bad)
    with pytest.raises(DomainError):
        large_r_series(2, 1, BOTH, Branch.Plus, order=0)
    with pytest.raises(DomainError):
        small_r_series(2, 1, STEEP, Branch.Minus)
    ser = small_r_series(1, 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        ser.eigenvalue(0.0)
    for bad in ("0.5", None, math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(DomainError, match="R must be positive"):
            ser.eigenvalue(bad)
        with pytest.raises(DomainError, match="R must be positive"):
            ser.vector(bad)
    with pytest.raises(DomainError):
        wavefunction_correction(2, 1, 0, BOTH, Branch.Plus, 1.0, Regime.SmallR)
    with pytest.raises(DomainError):
        wavefunction_correction(2, 1, 1, BOTH, Branch.Plus, 1.0, "small")
