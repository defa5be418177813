"""Morse channel: spectrum, oscillator map, normalized wavefunctions."""

import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from genosc.cli import _MORSE_NORM_TOL
from genosc.errors import DomainError
from genosc.morse import (EffectiveChannel, MorseParams, _wavefunctions, bound_state_count,
                          morse_norms, morse_spectrum, morse_wavefunction, quadrature_norm,
                          quadrature_norm_scaled, sw_to_morse)


def params_for(lam, a=1.0):
    return MorseParams(v0=0.5 * lam * lam * a * a, a=a)


# ------------------------------------------------------------ spectrum

def test_spectrum_worked_example():
    spec = morse_spectrum(MorseParams(2.0, 1.0))
    np.testing.assert_allclose(spec, [-1.125, -0.125], atol=1e-15)
    assert bound_state_count(MorseParams(2.0, 1.0)) == 2


def test_level_count_sweep():
    for lam, count in [(0.6, 1), (1.0, 1), (2.5, 3), (7.3, 7)]:
        params = params_for(lam)
        assert bound_state_count(params) == count
        assert len(morse_spectrum(params)) == count


def test_below_threshold_is_empty_with_diagnostic(caplog):
    params = params_for(0.4)
    with caplog.at_level(logging.INFO, logger="genosc.morse"):
        spec = morse_spectrum(params)
    assert spec.size == 0
    assert "no discrete" in caplog.text


def test_level_of_a_well_without_levels_is_refused_as_an_empty_spectrum():
    # not "level p must lie in 0..-1": the refusal names the well, as sw_to_morse's does
    params = MorseParams(0.05, 1.0)   # lam = sqrt(0.1)
    message = r"^no discrete spectrum: sqrt\(2 V0\)/a = 0\.316228 <= 1/2$"
    for call in (lambda: morse_wavefunction(0, params, 0.0), lambda: quadrature_norm(0, params),
                 lambda: sw_to_morse(params, -1.0)):
        with pytest.raises(DomainError, match=message):
            call()


def test_spectrum_bracket_and_ordering():
    for lam in (0.6, 1.0, 2.0, 7.3):
        params = params_for(lam, a=1.7)
        spec = morse_spectrum(params)
        assert np.all(spec > -params.v0)
        assert np.all(spec < 0.0)
        assert np.all(np.diff(spec) > 0.0)


def test_threshold_level_sits_at_zero():
    # lam - 1/2 integral: the top state closes the bracket at E = 0 exactly
    spec = morse_spectrum(params_for(2.5))
    assert spec[-1] == 0.0
    with pytest.raises(DomainError):
        morse_wavefunction(2, params_for(2.5), 0.0)


# ---------------------------------------------------------- channel map

def test_sw_map_worked_example():
    channel = sw_to_morse(MorseParams(2.0, 1.0), -1.125)
    assert channel == EffectiveChannel(omega=4.0, p_strength=8.75,
                                       e_z=16.0, b=3.0)


def test_sw_map_round_trip_over_spectrum():
    for lam, a in [(2.0, 1.0), (7.3, 1.4)]:
        params = params_for(lam, a)
        for p, energy in enumerate(morse_spectrum(params)):
            channel = sw_to_morse(params, energy)
            assert channel.omega == pytest.approx(2.0 * lam, rel=1e-15)
            assert channel.e_z == pytest.approx(4.0 * lam * lam, rel=1e-15)
            assert channel.p_strength > -0.25
            assert channel.b == pytest.approx(
                math.sqrt(channel.p_strength + 0.25), rel=1e-13)
            assert channel.b == pytest.approx(2.0 * lam - 2.0 * p - 1.0,
                                              rel=1e-12)
            # quantization identity E_z = omega (2p + b + 1)
            assert channel.e_z == pytest.approx(
                channel.omega * (2.0 * p + channel.b + 1.0), rel=1e-12)


def test_sw_map_rejections():
    params = MorseParams(2.0, 1.0)
    with pytest.raises(DomainError):
        sw_to_morse(params, -0.01)     # 0 < -32E < a^2: no integral index
    with pytest.raises(DomainError):
        sw_to_morse(params, 0.2)
    with pytest.raises(DomainError):
        sw_to_morse(params_for(0.4), -1.0)


# ---------------------------------------------------------- wavefunction

def test_ground_state_nodeless_and_profiles_count_nodes():
    params = params_for(3.2)
    for p, expected in enumerate((0, 1, 2)):
        vals = morse_wavefunction(p, params, np.linspace(-2.0, 10.0, 2000))
        sgn = np.sign(vals[np.abs(vals) > 0.0])
        assert int(np.sum(sgn[1:] * sgn[:-1] < 0)) == expected


def test_wavefunction_scalar_and_array_forms():
    params = MorseParams(2.0, 1.0)
    xs = np.array([-0.5, 0.0, 1.3])
    vec = morse_wavefunction(0, params, xs)
    assert isinstance(morse_wavefunction(0, params, 0.0), float)
    for x, v in zip(xs, vec):
        assert morse_wavefunction(0, params, float(x)) == v
    assert morse_wavefunction(0, params, np.array([])).shape == (0,)
    # deep wells (lambda ~ 316 and 400), where L_p^alpha overflows: within
    # 1e-12 of the largest |psi| on the grid of 40-digit mpmath values of
    # (-1)^p sqrt(a alpha) phi_p^alpha(w), and a point alone as in the batch
    for v0, a in ((50000.0, 1.0), (80000.0, 1.0)):
        params = MorseParams(v0, a)
        top = bound_state_count(params) - 1
        if 2.0 * params.lam - 2.0 * top - 1.0 <= 0.0:
            top -= 1
        xs = np.linspace(-2.0, 8.0, 21) / a
        for p in (0, top // 2, top):
            vec = morse_wavefunction(p, params, xs)
            with mpmath.workdps(40):
                lam = mpmath.sqrt(2 * mpmath.mpf(v0)) / a
                alpha = 2 * lam - 2 * p - 1
                ln_c = (mpmath.log(a * alpha) + mpmath.loggamma(p + 1)
                        - mpmath.loggamma(p + alpha + 1)) / 2
                want = []
                for x in xs:
                    w = 2 * lam * mpmath.exp(-a * mpmath.mpf(float(x)))
                    lag = mpmath.laguerre(p, alpha, w)
                    want.append(float((-1) ** p * lag
                                      * mpmath.exp(ln_c + alpha / 2 * mpmath.log(w) - w / 2)))
            want = np.array(want)
            assert np.abs(vec - want).max() <= 1e-12 * np.abs(want).max()
            assert morse_wavefunction(p, params, float(xs[7])) == vec[7]


def test_level_rows_match_one_level_evaluator():
    # every normalizable level in one recurrence, on the morse command's grid;
    # the deep wells renormalise a row at other steps than its one-level call
    for lam in (3.3, 24.0, 80.0, 400.0):
        params = params_for(lam)
        xs = np.linspace(-2.0 / params.a, 8.0 / params.a, 101)
        ps = [p for p in range(bound_state_count(params)) if 2.0 * lam - 2.0 * p - 1.0 > 0.0]
        rows = _wavefunctions(ps, params, xs)
        assert rows.shape == (len(ps), xs.size)
        for p, row in zip(ps, rows):
            one = morse_wavefunction(p, params, xs)
            assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max(), (lam, p)
        for p in (0, ps[-1]):
            value = morse_wavefunction(p, params, float(xs[40]))
            assert isinstance(value, float)
            assert value == morse_wavefunction(p, params, xs)[40]


def test_normalization_both_quadrature_routes():
    # (80, 1) and V0 = 55.1355 had norms 1.124 and 0.772 under a window search
    cases = [(params_for(lam, a), range(bound_state_count(params_for(lam, a))))
             for lam, a in [(2.0, 1.0), (3.2, 1.3), (7.3, 1.0), (80.0, 1.0),
                            (50.0, 0.3), (50.0, 2.0), (150.0, 0.3), (150.0, 2.0)]]
    cases.append((MorseParams(55.1355, 1.0), range(11)))
    # top levels within 1e-3 .. 1e-9 of the continuum threshold
    cases += [(params_for(p + 0.5 + gap), [p]) for p in (0, 10, 100)
              for gap in (1e-3, 1e-6, 1e-9)]
    for params, levels in cases:
        for p in levels:
            assert quadrature_norm(p, params) == pytest.approx(1.0, abs=1e-12)
            # the Gauss-Laguerre sum of L_p^alpha squared is Gamma(p+alpha+1)/p!,
            # past the float range on the low levels of the deep wells
            alpha = 2.0 * params.lam - 2.0 * p - 1.0
            if math.lgamma(p + alpha + 1.0) - math.lgamma(p + 1.0) <= 700.0:
                assert quadrature_norm_scaled(p, params) == pytest.approx(
                    1.0, abs=1e-12)


def test_quadrature_norm_matches_mpmath_integral():
    # the threshold level of V0 = 55.1355 (alpha = 2e-3): its w^alpha tail
    # reaches t = log w ~ -2e4
    params, p = MorseParams(55.1355, 1.0), 10
    with mpmath.workdps(20):
        lam = mpmath.sqrt(2 * mpmath.mpf(params.v0)) / params.a
        alpha = 2 * lam - 2 * p - 1

        def laguerre(w):
            lo, hi = mpmath.mpf(1), 1 + alpha - w
            for k in range(2, p + 1):
                lo, hi = hi, ((2 * k - 1 + alpha - w) * hi - (k - 1 + alpha) * lo) / k
            return hi

        # psi^2 dx in t = log w: C^2 / a = p! alpha / Gamma(2 lam - p)
        scale = mpmath.factorial(p) * alpha / mpmath.gamma(2 * lam - p)
        exact = float(mpmath.quad(
            lambda t: scale * mpmath.exp(alpha * t - mpmath.exp(t)) * laguerre(mpmath.exp(t)) ** 2,
            [-60 / alpha, -30, -5, 0, 1, 2, 3, 4, 6]))
    assert abs(quadrature_norm(p, params) - exact) <= 1e-13


def test_morse_norms_from_one_rule_past_the_old_laguerre_cap():
    # lambda = 400: every level from one 400-point Gauss-Laguerre rule, past the
    # 150 points a Laguerre rule was once capped at; quadrature_norm reads the
    # same rule one level at a time
    params = params_for(400.0)
    norms = morse_norms(params)
    assert norms.shape == (400,)
    assert np.abs(norms - 1.0).max() <= _MORSE_NORM_TOL
    for p in (0, 200, 399):
        assert abs(quadrature_norm(p, params) - norms[p]) <= 1e-14
    # the threshold level has no norm; a well without levels has none at all
    assert morse_norms(params_for(10.5)).shape == (10,)
    assert morse_norms(params_for(0.5)).shape == (0,)


def test_morse_norms_on_newton_polished_nodes():
    # the rule's unpolished smallest nodes put the norms at lambda = 316 6.7e-13 off one
    assert np.abs(morse_norms(params_for(316.0)) - 1.0).max() <= 1e-13


def test_wavefunction_deep_tail_is_finite_without_warnings():
    # w = 2 lam e^{-a x} underflows past a x ~ 745; log w does not
    for params in (params_for(7.3), params_for(80.0, 2.0)):
        xs = np.array([400.0, 1e3, 1e5]) / params.a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [morse_wavefunction(p, params, xs) for p in range(3)]
            assert morse_wavefunction(0, params, 1e3 / params.a) == 0.0
        for val in vals:
            assert np.isfinite(val).all()
            assert np.abs(val).max() < 1e-100


def test_orthogonality():
    params = params_for(2.7)
    val, err = quad(lambda x: (morse_wavefunction(0, params, x)
                               * morse_wavefunction(1, params, x)),
                    -8.0, 40.0, epsabs=1e-13, limit=200)
    assert err < 1e-10
    assert abs(val) < 1e-10
    params = params_for(3.2)
    for i in range(3):
        for j in range(i + 1, 3):
            val, _ = quad(lambda x: (morse_wavefunction(i, params, x)
                                     * morse_wavefunction(j, params, x)),
                          -8.0, 40.0, epsabs=1e-13, limit=200)
            assert abs(val) < 1e-10


def test_finite_difference_energy_residual():
    h = 2e-4
    for lam, a in [(2.0, 1.0), (3.2, 1.3)]:
        params = params_for(lam, a)
        for p, energy in enumerate(morse_spectrum(params)):
            x = np.linspace(-1.0 / a, 6.0 / a, 150)
            f0 = morse_wavefunction(p, params, x)
            fm = morse_wavefunction(p, params, x - h)
            fp = morse_wavefunction(p, params, x + h)
            second = (fp - 2.0 * f0 + fm) / (h * h)
            pot = params.v0 * (np.exp(-2 * a * x) - 2.0 * np.exp(-a * x))
            mask = np.abs(f0) > 0.2 * np.abs(f0).max()
            ratio = (-0.5 * second[mask] + pot[mask] * f0[mask]) / f0[mask]
            assert np.abs((ratio - energy) / energy).max() <= 1e-5


# ------------------------------------------------------------ validation

def test_parameter_validation():
    for bad in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0),
                (1.0, math.inf)]:
        with pytest.raises(DomainError):
            MorseParams(*bad)
    params = MorseParams(2.0, 1.0)
    for p in (-1, 2, 0.5, math.inf, -math.inf, math.nan, "x"):
        with pytest.raises(DomainError, match=r"level p must lie in 0\.\.1"):
            morse_wavefunction(p, params, 0.0)
    with pytest.raises(DomainError):
        quadrature_norm(5, params)


def test_wavefunction_refuses_nan_and_keeps_the_limits_at_infinity():
    # a NaN x once leaked a bare ValueError from laguerre_diagonal's growth bound
    params = MorseParams(5.0, 1.0)
    with pytest.raises(DomainError, match="x must not be NaN, got nan$"):
        morse_wavefunction(0, params, math.nan)
    with pytest.raises(DomainError, match="x must not be NaN, got nan at point 2$"):
        morse_wavefunction(1, params, np.array([0.0, 1.0, math.nan]))
    assert morse_wavefunction(0, params, math.inf) == 0.0
    assert morse_wavefunction(0, params, -math.inf) == 0.0
    assert morse_wavefunction(2, params, np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]
