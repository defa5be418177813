"""Eigenfunction factors: norms, node counts, limits, operator residuals."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from genosc import bases
from genosc.bases import (cylindrical_level, psi_cylindrical, psi_spherical,
                          radial_cylindrical, radial_spherical,
                          spherical_harmonic_limit, spherical_level,
                          theta_angular, theta_ring, z_axial)
from genosc.errors import AccuracyError, DomainError
from genosc.model import (Branch, CylindricalLabel, SphericalLabel,
                          SystemParams, admissible_branches, channel_constants,
                          ring_relabel, separation_constant_A)
from genosc.specfun import gen_laguerre, jacobi_p, ln_gamma
from genosc.spheroidal import Kind, Route, SpheroidalPoint, psi_spheroidal

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)     # b=1/2, c=2
ISO = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=0)
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)    # b=1.5


def quad(f, a, b):
    val, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=300)
    assert err < 1e-10
    return val


def count_sign_changes(f, a, b, npts=4000):
    x = np.linspace(a, b, npts)[1:-1]
    v = f(x)
    s = np.sign(v)
    return int(np.sum(s[1:] * s[:-1] < 0))


# ---------------------------------------------------------------- theta

def test_theta_norm_and_orthogonality():
    for q in (0, 1, 3):
        val = quad(lambda t, q=q: theta_angular(q, BOTH, Branch.Plus, t) ** 2 * math.sin(t),
                   0.0, math.pi / 2)
        assert val == pytest.approx(0.5, abs=1e-12)
    cross = quad(lambda t: theta_angular(0, BOTH, Branch.Plus, t)
                 * theta_angular(1, BOTH, Branch.Plus, t) * math.sin(t), 0.0, math.pi / 2)
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_theta_minus_branch_norm():
    val = quad(lambda t: theta_angular(2, BOTH, Branch.Minus, t) ** 2 * math.sin(t),
               0.0, math.pi / 2)
    assert val == pytest.approx(0.5, abs=1e-11)


def _theta_errors(qs, c, beta, t):
    """Largest error of Theta_q over the points t, q in qs, relative to its largest value
    there: against N_q (sin t)^c (cos t)^(1/2+beta) P_q^(c, beta)(cos 2t) in 40 digits."""
    rows = bases._angular(qs, c, beta, t)
    assert np.all(np.isfinite(rows))
    errors = []
    with mpmath.workdps(40):
        c, beta = mpmath.mpf(c), mpmath.mpf(beta)
        for q, row in zip(qs, rows):
            norm = mpmath.sqrt((2 * q + c + beta + 1) * mpmath.gamma(q + 1)
                               * mpmath.gamma(q + c + beta + 1)
                               / (mpmath.gamma(q + c + 1) * mpmath.gamma(q + beta + 1)))
            want = np.array([float(norm * mpmath.sin(x) ** c * mpmath.cos(x) ** (0.5 + beta)
                                   * mpmath.jacobi(q, c, beta, mpmath.cos(2 * x)))
                             for x in map(mpmath.mpf, t.tolist())])
            errors.append(np.abs(row - want).max() / np.abs(want).max())
    return errors


THETA_POINTS = np.linspace(0.05, 1.52, 9)


def test_theta_matches_mpmath():
    # 1.0e-14 at worst for q <= 12 on these pairs
    rng = np.random.default_rng(28)
    for c, beta in zip(rng.uniform(0.0, 4.0, 40).tolist(), rng.uniform(-0.5, 2.0, 40).tolist()):
        assert max(_theta_errors(range(13), c, beta, THETA_POINTS)) <= 2e-14, (c, beta)


def test_theta_matches_mpmath_to_level_300():
    # the orthonormal recurrence is 4.0e-13 and 1.7e-13 off at worst here; an unnormalised
    # P_q times N_q was 1.03e-12 off
    for c, beta in ((1.0, 0.3), (3.3, 1.9)):
        assert max(_theta_errors(range(0, 301, 25), c, beta, THETA_POINTS)) <= 6e-13, (c, beta)


def test_theta_stays_finite_at_large_c():
    # Q = 4e6 gives c = 2000: 2^(c + beta + 1) alone leaves double range, and P_q times N_q
    # overflowed to NaN on 89 of 200 points at q = 300. Every row is finite now. N_0 comes
    # from the exact sum c + beta + 1 and (sin t)^c is within 2000 roundings of sin t; at
    # q = 300 the rows near t = pi/2 follow the rounding of cos 2t and a_k near -1: 2.5e-12
    params = SystemParams(omega=1.0, p_strength=0.3, q_strength=4e6, m=0)
    beta, c, _ = channel_constants(params)   # the Plus branch: beta = b
    t = np.linspace(0.05, 1.55, 31)
    assert np.all(np.isfinite(bases._angular(range(301), c, beta, t)))
    assert max(_theta_errors((0, 3, 40), c, beta, t)) <= 6e-13
    assert _theta_errors((300,), c, beta, t)[0] <= 3e-12


def test_angular_factors_stay_finite_over_a_seeded_sweep():
    # P, Q and delta over many decades, q and l up to 500: P_q times N_q and the Gegenbauer
    # form times an lgamma constant were non-finite on 9 and 4 of these draws
    rng = np.random.default_rng(1)
    t_half, t_ring = np.linspace(0.01, 1.56, 40), np.linspace(0.01, 3.13, 40)
    for _ in range(300):
        p_strength, q_strength = rng.uniform(-0.24, 50.0), 10.0 ** rng.uniform(-2.0, 7.0)
        m, q = int(rng.integers(0, 50)), int(10.0 ** rng.uniform(0.0, 2.7))
        m_ring, delta = int(rng.integers(0, 50)), 10.0 ** rng.uniform(-2.0, 3.0)
        params = SystemParams(1.0, p_strength, q_strength, m)
        assert np.all(np.isfinite(theta_angular(q, params, Branch.Plus, t_half))), params
        assert np.all(np.isfinite(theta_ring(q + m_ring, m_ring, delta, t_ring))), (q, m_ring, delta)


def test_theta_readers_raise_accuracy_error_past_double_range():
    # Theta_0's constant sqrt(Gamma(c + b + 2) / (Gamma(c + 1) Gamma(b + 1))) leaves double
    # range from c = b = 1021.4 (P = Q = 1.0433e6), where the readers raised a bare
    # OverflowError; the cylindrical route of psi_spheroidal still answers there
    t = np.linspace(0.1, 1.4, 9)
    point = SpheroidalPoint(np.linspace(1.1, 3.0, 4), np.linspace(0.1, 0.9, 4),
                            np.linspace(0.0, 6.0, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = SystemParams(1.0, 1.043e6, 1.043e6, 0)
        assert np.all(np.isfinite(theta_angular(0, near, Branch.Plus, t)))
        for strength in (1.05e6, 4e6):
            params = SystemParams(1.0, strength, strength, 0)
            with pytest.raises(AccuracyError, match="alpha=.*, beta="):
                theta_angular(0, params, Branch.Plus, t)
            with pytest.raises(AccuracyError):
                spherical_level(3, params, Branch.Plus, np.ones_like(t), t)
            psi = functools.partial(psi_spheroidal, 2, 1, 0, params, Branch.Plus, 1.0,
                                    Kind.Prolate, point)
            with pytest.raises(AccuracyError):
                psi(Route.ViaSpherical)
            assert np.all(np.isfinite(psi(Route.ViaCylindrical)))


def test_theta_q0_positive_interior():
    t = np.linspace(1e-3, math.pi / 2 - 1e-3, 200)
    assert np.all(theta_angular(0, STEEP, Branch.Plus, t) > 0)


def test_theta_node_count():
    for q in range(5):
        for branch, params in [(Branch.Plus, BOTH), (Branch.Minus, BOTH), (Branch.Plus, STEEP)]:
            zeros = count_sign_changes(
                lambda t: theta_angular(q, params, branch, t), 1e-4, math.pi / 2 - 1e-4)
            assert zeros == q, (q, branch)


def test_theta_domain():
    with pytest.raises(DomainError):
        theta_angular(0, BOTH, Branch.Plus, 0.0)
    with pytest.raises(DomainError):
        theta_angular(0, BOTH, Branch.Plus, math.pi / 2)
    with pytest.raises(DomainError):
        theta_angular(0, STEEP, Branch.Minus, 0.3)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="q must be"):
            theta_angular(bad, BOTH, Branch.Plus, 0.3)
        with pytest.raises(DomainError, match="theta must lie"):
            theta_angular(0, BOTH, Branch.Plus, bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="delta"):
            theta_ring(2, 1, bad, 0.3)


@pytest.mark.parametrize("bad_m", [math.nan, math.inf, "1", 1.5])
def test_theta_ring_m_must_be_an_integer(bad_m):
    with pytest.raises(DomainError, match=r"\|m\| must be"):
        theta_ring(2, bad_m, 0.1, 0.3)


def test_theta_poschl_teller_residual():
    # f = Theta sqrt(sin t) satisfies
    # -f'' + [(b^2-1/4)/cos^2 + (c^2-1/4)/sin^2] f = (A + 1/4) f
    h = 1e-3
    for params, branch, q in [(BOTH, Branch.Plus, 2), (BOTH, Branch.Minus, 1),
                              (STEEP, Branch.Plus, 2)]:
        b, c, _ = channel_constants(params)
        a_val = separation_constant_A(q, params, branch) + 0.25

        def f(t):
            return theta_angular(q, params, branch, t) * np.sqrt(np.sin(t))

        # central window: the O(h^2) truncation term scales with the squared
        # potential, which diverges at the interval ends
        t = np.linspace(0.35, math.pi / 2 - 0.35, 150)
        fm, f0, fp = f(t - h), f(t), f(t + h)
        second = (fp - 2.0 * f0 + fm) / (h * h)
        pot = (b * b - 0.25) / np.cos(t) ** 2 + (c * c - 0.25) / np.sin(t) ** 2
        mask = np.abs(f0) > 0.2 * np.max(np.abs(f0))
        ratio = (-second[mask] + pot[mask] * f0[mask]) / f0[mask]
        assert np.max(np.abs(ratio - a_val)) <= 1e-5 * a_val


# ---------------------------------------------------------------- radial

def test_radial_spherical_norm_and_orthogonality():
    assert quad(lambda r: radial_spherical(0, 0, BOTH, Branch.Plus, r) ** 2 * r * r,
                0.0, 12.0) == pytest.approx(1.0, abs=1e-12)
    for q in (0, 2):
        cross = quad(lambda r, q=q: radial_spherical(0, q, BOTH, Branch.Plus, r)
                     * radial_spherical(1, q, BOTH, Branch.Plus, r) * r * r, 0.0, 12.0)
        assert cross == pytest.approx(0.0, abs=1e-12)


def test_radial_spherical_nodes():
    for n_r in range(4):
        zeros = count_sign_changes(
            lambda r: radial_spherical(n_r, 1, STEEP, Branch.Plus, r), 1e-3, 6.0)
        assert zeros == n_r


def test_radial_cylindrical_norm_orthogonality_nodes():
    assert quad(lambda s: radial_cylindrical(0, BOTH, s) ** 2 * s,
                0.0, 12.0) == pytest.approx(1.0, abs=1e-12)
    assert quad(lambda s: radial_cylindrical(0, BOTH, s) * radial_cylindrical(1, BOTH, s) * s,
                0.0, 12.0) == pytest.approx(0.0, abs=1e-12)
    t = np.linspace(1e-3, 6, 500)
    assert np.all(radial_cylindrical(0, STEEP, t) > 0)
    assert count_sign_changes(lambda s: radial_cylindrical(3, BOTH, s), 1e-3, 8.0) == 3


def test_radial_domain():
    with pytest.raises(DomainError):
        radial_spherical(0, 0, BOTH, Branch.Plus, 0.0)
    with pytest.raises(DomainError):
        radial_cylindrical(0, BOTH, -1.0)
    with pytest.raises(DomainError, match="r must lie"):
        radial_spherical(0, 0, BOTH, Branch.Plus, math.nan)
    with pytest.raises(DomainError, match=r"rho must lie .* at point 1"):
        radial_cylindrical(0, BOTH, np.array([1.0, math.nan]))
    with pytest.raises(DomainError, match="z must lie"):
        z_axial(0, BOTH, Branch.Plus, math.nan)
    for bad in (math.inf, -math.inf):
        with pytest.raises(DomainError, match="r must lie"):
            radial_spherical(3, 2, BOTH, Branch.Plus, bad)
        with pytest.raises(DomainError, match=r"rho must lie .* at point 1"):
            radial_cylindrical(3, BOTH, np.array([1.0, bad]))
        with pytest.raises(DomainError, match="z must lie"):
            z_axial(3, BOTH, Branch.Plus, bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="n_r must be"):
            radial_spherical(bad, 0, BOTH, Branch.Plus, 1.0)


# ---------------------------------------------------------------- axial

def test_z_axial_norm_and_sign():
    for p, branch in [(0, Branch.Plus), (1, Branch.Plus), (2, Branch.Minus)]:
        val = quad(lambda z, p=p, br=branch: z_axial(p, BOTH, br, z) ** 2, 0.0, 12.0)
        assert val == pytest.approx(0.5, abs=1e-12)
    # sign near z -> 0+ is (-1)^p
    for p in range(4):
        assert math.copysign(1.0, z_axial(p, BOTH, Branch.Plus, 1e-4)) == (-1.0) ** p


def test_z_axial_nodes():
    for p in range(4):
        assert count_sign_changes(
            lambda z: z_axial(p, BOTH, Branch.Minus, z), 1e-3, 6.0) == p


def test_z_axial_hermite_reduction_at_ring():
    # b = 1/2: Minus channel is the even-Hermite series, Plus the odd one
    omega = RING.omega
    z = np.linspace(0.05, 4.0, 50)
    for p in range(4):
        zm = z_axial(p, RING, Branch.Minus, z)
        ref_m = ((omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * z * z)
                 * _hermite(2 * p, math.sqrt(omega) * z)
                 / math.sqrt(2.0 ** (2 * p) * math.factorial(2 * p)))
        np.testing.assert_allclose(zm, ref_m, rtol=1e-11, atol=1e-13)
        zp = z_axial(p, RING, Branch.Plus, z)
        ref_p = ((omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * z * z)
                 * _hermite(2 * p + 1, math.sqrt(omega) * z)
                 / math.sqrt(2.0 ** (2 * p + 1) * math.factorial(2 * p + 1)))
        np.testing.assert_allclose(zp, ref_p, rtol=1e-11, atol=1e-13)


def _hermite(n, x):
    from genosc.specfun import hermite
    return hermite(n, x)


def _phi_error(got, factor, k, a, omega, u):
    """got's largest error against factor(omega, x) phi_k^a(x), x = omega u^2, in 40 digits,
    relative to its largest reference value over the points u."""
    with mpmath.workdps(40):
        om, a, want = mpmath.mpf(omega), mpmath.mpf(a), []
        for x in (om * mpmath.mpf(v) ** 2 for v in u.tolist()):
            phi = (mpmath.sqrt(mpmath.factorial(k) / mpmath.gamma(k + a + 1)) * x ** (a / 2)
                   * mpmath.exp(-x / 2) * mpmath.laguerre(k, a, x))
            want.append(float(factor(om, x) * phi))
    want = np.array(want)
    return np.abs(got - want).max() / np.abs(want).max()


def test_radial_and_axial_factors_match_mpmath_at_large_orders():
    # R_{n_r q}, R_{n_rho} and Z_p at x = omega u^2 over each factor's support, with c to
    # 1200 (Q = 1.44e6), b to 1000 (P = 1e6), q to 300 and degrees to 80: within 3e-13 of
    # the largest value (1.7e-13 at worst on a 60-draw sweep, most of it the rounding of
    # ln(omega u^2), which the factor's slope in ln x multiplies)
    cases = [(SystemParams(1.0, 0.3, 1.44e6, 0), 40, 300), (SystemParams(0.7, 1e6, 2.0, 3), 80, 0),
             (SystemParams(1.7, 1e6, 1.44e6, 5), 5, 120)]
    rng = np.random.default_rng(38)
    for _ in range(9):
        params = SystemParams(rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-0.5, 6.0),
                              10.0 ** rng.uniform(-0.5, 6.16), int(rng.integers(0, 50)))
        cases.append((params, int(rng.integers(0, 81)), int(rng.integers(0, 301))))
    for params, k, q in cases:
        b, c, _ = channel_constants(params)
        omega = params.omega
        for name, a, factor, evaluate in (
                ("R_sph", 2.0 * q + c + b + 1.0,
                 lambda om, x: mpmath.sqrt(2) * om ** 0.75 / x ** 0.25,
                 lambda u: radial_spherical(k, q, params, Branch.Plus, u)),
                ("R_cyl", c, lambda om, x: mpmath.sqrt(2 * om),
                 lambda u: radial_cylindrical(k, params, u)),
                ("Z", b, lambda om, x: (-1) ** k * om ** 0.25 * x ** 0.25,
                 lambda u: z_axial(k, params, Branch.Plus, u))):
            m = 2.0 * k + a + 1.0
            u = np.sqrt(np.linspace(max(m - 2.0 * math.sqrt(m), 1e-3), m + 2.0 * math.sqrt(m), 8)
                        / omega)
            assert _phi_error(evaluate(u), factor, k, a, omega, u) <= 3e-13, (name, params, k, q)


# ------------------------------------------------------------- ring forms

def test_theta_ring_reduction_at_half():
    # the Jacobi-form angular factor collapses onto the Gegenbauer ring form
    _, _, delta = channel_constants(RING)
    t = np.linspace(0.02, math.pi / 2 - 0.02, 50)
    for q in range(4):
        for branch in (Branch.Plus, Branch.Minus):
            lbl = SphericalLabel(n_r=0, q=q, m=RING.m, branch=branch)
            ring = ring_relabel(lbl, RING)
            np.testing.assert_allclose(
                theta_angular(q, RING, branch, t),
                theta_ring(ring.l, RING.m, delta, t), rtol=1e-11, atol=1e-13)


def test_theta_ring_matches_mpmath_at_large_l_and_delta():
    # the Gegenbauer form times an lgamma constant was NaN on 66 of 200 points at
    # (427, 46, 424.24) and 6.5e-13 off at (60, 2, 900); the rows are 5.5e-14 and 4.1e-14 off
    t = np.linspace(0.01, 3.13, 40)
    for l, m, delta in ((427, 46, 424.23926946473), (60, 2, 900.0)):
        got = theta_ring(l, m, delta, t)
        with mpmath.workdps(40):
            mu = m + mpmath.mpf(delta)
            const = 2 ** mu * mpmath.gamma(mu + 0.5) * mpmath.sqrt(
                (2 * l + 2 * mpmath.mpf(delta) + 1) * mpmath.factorial(l - m)
                / (2 * mpmath.pi * mpmath.gamma(l + m + 2 * mpmath.mpf(delta) + 1)))
            want = np.array([float(const * mpmath.sin(x) ** mu
                                   * mpmath.gegenbauer(l - m, mu + 0.5, mpmath.cos(x)))
                             for x in map(mpmath.mpf, t.tolist())])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (l, m, delta)


def test_theta_ring_refuses_past_the_exact_gamma_ratio():
    # p_0's constant is one exact product while 2 mu + 1 < 9999: 1.3e-13 off 40-digit
    # mpmath at delta = 4990, within the docstring's bound. Past it the lgamma ratio
    # cancelled to 3.2e-12 at delta = 5001 and 6.7e-10 at 1e6; there it refuses
    t = np.concatenate([[1.5707963], np.linspace(0.01, 3.13, 40)])
    got = theta_ring(1, 1, 4990.0, t)
    with mpmath.workdps(40):
        mu = 1 + mpmath.mpf(4990)
        const = 2 ** mu * mpmath.gamma(mu + 0.5) * mpmath.sqrt(
            (2 * mu + 1) / (2 * mpmath.pi * mpmath.gamma(2 * mu + 1)))
        want = np.array([float(const * mpmath.sin(x) ** mu)
                         for x in map(mpmath.mpf, t.tolist())])   # C_0 = 1
    assert np.abs(got - want).max() <= 1.3e-13 * np.abs(want).max()
    for delta in (5001.0, 1e6):
        with pytest.raises(AccuracyError, match="9999"):
            theta_ring(1, 1, delta, 1.5707963)
    # the limit is on 2 mu + 1, mu = |m| + delta
    assert math.isfinite(theta_ring(3, 0, 4998.9, 1.0))
    with pytest.raises(AccuracyError):
        theta_ring(3, 3, 4996.0, 1.0)


def test_theta_ring_norm():
    val = quad(lambda t: theta_ring(4, 1, 1.0, t) ** 2 * math.sin(t), 0.0, math.pi / 2)
    assert val == pytest.approx(0.5, abs=1e-11)


def test_spherical_harmonic_values():
    assert spherical_harmonic_limit(0, 0, 0.7, 1.1) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi))
    t = 0.9
    assert spherical_harmonic_limit(1, 0, t, 0.0) == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(t), rel=1e-12)
    # differs from Condon-Shortley by (-1)^|m|
    got = spherical_harmonic_limit(1, 1, t, 0.3)
    ref = math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(t) * np.exp(1j * 0.3)
    assert got == pytest.approx(ref, rel=1e-12)


def test_spherical_harmonic_unsold_identity():
    for l in (0, 1, 3):
        for t in (0.3, 1.0, 2.4):
            total = sum(abs(spherical_harmonic_limit(l, m, t, 0.8)) ** 2
                        for m in range(-l, l + 1))
            assert total == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-12)


def test_theta_legendre_reduction():
    # delta = 0 ring form vs the associated-Legendre route
    from genosc.specfun import assoc_legendre
    t = np.linspace(0.05, math.pi - 0.05, 50)
    for l, m in [(1, 1), (3, 2), (4, 0)]:
        ref = ((-1.0) ** m * math.sqrt((2 * l + 1) / 2.0
                                       * math.factorial(l - m) / math.factorial(l + m))
               * assoc_legendre(l, m, np.cos(t)))
        np.testing.assert_allclose(theta_ring(l, m, 0.0, t), ref, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------- psi

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_refuses_a_non_finite_phi(bad):
    # once (nan+nanj) with two RuntimeWarnings
    sph = SphericalLabel(n_r=1, q=1, m=BOTH.m, branch=Branch.Plus)
    cyl = CylindricalLabel(n_rho=1, p=1, m=BOTH.m, branch=Branch.Plus)
    for call in (lambda phi: psi_spherical(sph, BOTH, (1.3, 0.8, phi)),
                 lambda phi: psi_cylindrical(cyl, BOTH, (1.0, phi, 0.5)),
                 lambda phi: spherical_harmonic_limit(2, 1, 0.5, phi)):
        with pytest.raises(DomainError, match=f"phi must be finite, got {bad}$"):
            call(bad)
        with pytest.raises(DomainError, match=f"phi must be finite, got {bad} at point 1$"):
            call(np.array([0.3, bad, 0.4]))


def test_psi_spherical_modulus_and_norm():
    lbl = SphericalLabel(n_r=1, q=1, m=BOTH.m, branch=Branch.Plus)
    pt = (1.3, 0.8, 0.0)
    vals = [psi_spherical(lbl, BOTH, (1.3, 0.8, phi)) for phi in (0.0, 1.0, 2.5)]
    assert all(abs(abs(v) - abs(vals[0])) < 1e-14 for v in vals)
    assert isinstance(psi_spherical(lbl, BOTH, pt), complex)
    # m -> -m leaves the modulus invariant (c depends on m^2)
    neg = SystemParams(BOTH.omega, BOTH.p_strength, BOTH.q_strength, -BOTH.m)
    lbl_neg = SphericalLabel(n_r=1, q=1, m=-BOTH.m, branch=Branch.Plus)
    assert abs(psi_spherical(lbl_neg, neg, pt)) == pytest.approx(
        abs(psi_spherical(lbl, BOTH, pt)), rel=1e-13)
    # half-domain norm = (radial norm) x (angular half-norm) x (phi norm) = 1/2
    rad = quad(lambda r: radial_spherical(1, 1, BOTH, Branch.Plus, r) ** 2 * r * r, 0, 14.0)
    ang = quad(lambda t: theta_angular(1, BOTH, Branch.Plus, t) ** 2 * math.sin(t),
               0, math.pi / 2)
    assert rad * ang * 1.0 == pytest.approx(0.5, abs=1e-11)


def test_psi_cylindrical_modulus_and_norm():
    lbl = CylindricalLabel(n_rho=0, p=2, m=BOTH.m, branch=Branch.Minus)
    vals = [psi_cylindrical(lbl, BOTH, (0.9, phi, 0.6)) for phi in (0.0, 2.0)]
    assert abs(abs(vals[0]) - abs(vals[1])) < 1e-14
    rad = quad(lambda s: radial_cylindrical(0, BOTH, s) ** 2 * s, 0, 14.0)
    ax = quad(lambda z: z_axial(2, BOTH, Branch.Minus, z) ** 2, 0, 14.0)
    assert rad * ax == pytest.approx(0.5, abs=1e-11)
    with pytest.raises(DomainError):
        psi_cylindrical(lbl, BOTH, (0.9, 0.0, -0.5))


def test_psi_label_params_mismatch():
    lbl = SphericalLabel(n_r=0, q=0, m=2, branch=Branch.Plus)
    with pytest.raises(DomainError):
        psi_spherical(lbl, BOTH, (1.0, 0.5, 0.0))


# ------------------------------------------------------ per-label parity

# The per-label evaluators as they were before they were built on the
# orthonormal Laguerre-function recurrence, a normalization times a power,
# a Gaussian and a polynomial, kept as the reference that they still give
# the same values to a relative bound (test_specfun pins the polynomials).

def _ref_theta_angular(q, params, branch, theta):
    b, c, _ = channel_constants(params)
    beta = branch.sign * b
    t = np.asarray(theta, dtype=np.float64)
    ln_n2 = (math.log(2.0 * q + c + beta + 1.0) + ln_gamma(q + 1.0)
             + ln_gamma(q + c + beta + 1.0) - ln_gamma(q + c + 1.0)
             - ln_gamma(q + beta + 1.0))
    st, ct = np.sin(t), np.cos(t)
    out = (math.exp(0.5 * ln_n2) * st ** c * ct ** (0.5 + beta)
           * jacobi_p(q, c, beta, np.cos(2.0 * t)))
    return float(out) if np.ndim(theta) == 0 else out


def _ref_radial_spherical(n_r, q, params, branch, r):
    b, c, _ = channel_constants(params)
    alpha = 2.0 * q + c + branch.sign * b + 1.0
    rr = np.asarray(r, dtype=np.float64)
    omega = params.omega
    ln_c2 = (math.log(2.0) + 1.5 * math.log(omega)
             + ln_gamma(n_r + 1.0) - ln_gamma(n_r + alpha + 1.0))
    x = omega * rr * rr
    out = (math.exp(0.5 * ln_c2) * (math.sqrt(omega) * rr) ** (alpha - 0.5)
           * np.exp(-0.5 * x) * gen_laguerre(n_r, alpha, x))
    return float(out) if np.ndim(r) == 0 else out


def _ref_radial_cylindrical(n_rho, params, rho):
    _, c, _ = channel_constants(params)
    rr = np.asarray(rho, dtype=np.float64)
    omega = params.omega
    ln_c2 = (math.log(2.0) + math.log(omega)
             + ln_gamma(n_rho + 1.0) - ln_gamma(n_rho + c + 1.0))
    x = omega * rr * rr
    out = (math.exp(0.5 * ln_c2) * np.exp(-0.5 * x)
           * (math.sqrt(omega) * rr) ** c * gen_laguerre(n_rho, c, x))
    return float(out) if np.ndim(rho) == 0 else out


def _ref_z_axial(p, params, branch, z):
    b, _, _ = channel_constants(params)
    beta = branch.sign * b
    zz = np.asarray(z, dtype=np.float64)
    omega = params.omega
    ln_c2 = 0.5 * math.log(omega) + ln_gamma(p + 1.0) - ln_gamma(p + beta + 1.0)
    x = omega * zz * zz
    out = ((-1.0) ** p * math.exp(0.5 * ln_c2) * np.exp(-0.5 * x)
           * (math.sqrt(omega) * zz) ** (0.5 + beta) * gen_laguerre(p, beta, x))
    return float(out) if np.ndim(z) == 0 else out


def _random_system(rng):
    """Parameters over both branch regimes, c = 0 included (m = 0, Q = 0)."""
    m = int(rng.integers(0, 3))
    params = SystemParams(omega=10.0 ** rng.uniform(-1.0, 1.0),
                          p_strength=float(rng.choice([rng.uniform(-0.25, 0.0),
                                                       rng.uniform(0.0, 4.0)])),
                          q_strength=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
                          m=m)
    branches = admissible_branches(params)
    return params, branches[int(rng.integers(len(branches)))]


def test_per_label_evaluators_match_reference():
    # bound fixed before measuring: within 1e-12 of the largest |value| the
    # same label takes over the sampled points, for the batch and for a
    # point alone (which also keeps the float return type)
    rng = np.random.default_rng(1996)
    for _ in range(150):
        params, branch = _random_system(rng)
        q, deg = (int(v) for v in rng.integers(0, 21, 2))
        u = rng.uniform(0.02, 7.0, int(rng.integers(1, 20))) / math.sqrt(params.omega)
        t = rng.uniform(0.01, 0.5 * math.pi - 0.01, u.size)
        pairs = ((lambda x: theta_angular(q, params, branch, x),
                  lambda x: _ref_theta_angular(q, params, branch, x), t),
                 (lambda x: radial_spherical(deg, q, params, branch, x),
                  lambda x: _ref_radial_spherical(deg, q, params, branch, x), u),
                 (lambda x: radial_cylindrical(deg, params, x),
                  lambda x: _ref_radial_cylindrical(deg, params, x), u),
                 (lambda x: z_axial(deg, params, branch, x),
                  lambda x: _ref_z_axial(deg, params, branch, x), u))
        for new, ref, points in pairs:
            want = ref(points)
            bound = 1e-12 * np.abs(want).max()
            assert np.all(np.abs(new(points) - want) <= bound)
            alone = new(float(points[0]))
            assert type(alone) is float and abs(alone - want[0]) <= bound


# -------------------------------------------------------- level evaluators

def test_level_terms_match_per_label_products():
    rng = np.random.default_rng(5)
    for params in (BOTH, RING, ISO, STEEP):
        for branch in admissible_branches(params):
            for n in (0, 1, 4, 11, 20):
                u = rng.uniform(0.05, 6.0, 30)
                t = rng.uniform(0.01, 0.5 * math.pi - 0.01, 30)
                sph = spherical_level(n, params, branch, u, t)
                cyl = cylindrical_level(n, params, branch, u, t)
                assert sph.shape == cyl.shape == (n + 1, 30)
                ref_sph = np.array([radial_spherical(n - q, q, params, branch, u)
                                    * theta_angular(q, params, branch, t)
                                    for q in range(n + 1)])
                ref_cyl = np.array([radial_cylindrical(n - p, params, u)
                                    * z_axial(p, params, branch, t) for p in range(n + 1)])
                for got, ref in ((sph, ref_sph), (cyl, ref_cyl)):
                    np.testing.assert_allclose(got, ref, rtol=1e-13,
                                               atol=1e-15 * np.abs(ref).max())
                # a point gives the same values alone as in the batch
                for i in (0, 17):
                    assert np.array_equal(spherical_level(n, params, branch, u[i], t[i]),
                                          sph[:, i])
                    assert np.array_equal(cylindrical_level(n, params, branch, u[i], t[i]),
                                          cyl[:, i])
                    for label, batch in (
                            (lambda x: theta_angular(n, params, branch, x), t),
                            (lambda x: radial_spherical(n, 1, params, branch, x), u),
                            (lambda x: radial_cylindrical(n, params, x), u),
                            (lambda x: z_axial(n, params, branch, x), t)):
                        assert label(float(batch[i])) == label(batch)[i]


def test_level_evaluators_validate_like_per_label():
    # no points give an empty table of the level's rows, as at one label
    for n in (0, 3, 20):
        assert spherical_level(n, BOTH, Branch.Plus, [], []).shape == (n + 1, 0)
        assert cylindrical_level(n, BOTH, Branch.Plus, [], []).shape == (n + 1, 0)
    with pytest.raises(DomainError, match="theta must lie .* at point 1"):
        spherical_level(2, BOTH, Branch.Plus, [1.0, 1.0], [0.3, math.pi / 2])
    with pytest.raises(DomainError, match="z must lie .* at point 2"):
        cylindrical_level(2, BOTH, Branch.Plus, [1.0, 1.0, 1.0], [0.3, 0.4, 0.0])
    with pytest.raises(DomainError):
        cylindrical_level(2, STEEP, Branch.Minus, 1.0, 1.0)
    with pytest.raises(DomainError):
        spherical_level(math.inf, BOTH, Branch.Plus, 1.0, 0.3)
    for bad in (math.inf, -math.inf):
        with pytest.raises(DomainError, match="r must lie .* at point 1"):
            spherical_level(2, BOTH, Branch.Plus, [1.0, bad], [0.3, 0.3])
        with pytest.raises(DomainError, match="rho must lie"):
            cylindrical_level(2, BOTH, Branch.Plus, bad, 1.0)
        with pytest.raises(DomainError, match="z must lie .* at point 0"):
            cylindrical_level(2, BOTH, Branch.Plus, [1.0, 1.0], [bad, 0.4])


def test_level_far_tail_is_exactly_zero_without_warnings():
    # the Gaussian e^{-omega u^2/2} is 0 in double precision from u ~ 38.6 at
    # omega = 1 (27.3 at omega = 2) on; the polynomial and power factors
    # overflow far beyond that
    far = np.array([1.0, 20.0, 1e3, 1e100, 1e200, 1e307])
    theta = np.full(far.shape, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (BOTH, STEEP):
            for branch in admissible_branches(params):
                for n in (0, 5, 20, 60):
                    near = np.ones(far.shape)
                    for level in (spherical_level(n, params, branch, far, theta),
                                  cylindrical_level(n, params, branch, far, near),
                                  cylindrical_level(n, params, branch, near, far)):
                        assert np.all(level[:, :2] != 0.0)
                        assert np.all(level[:, 2:] == 0.0)
                    assert np.all(spherical_level(n, params, branch, 1e200, 0.7) == 0.0)
                    for label in (radial_spherical(n, 2, params, branch, far),
                                  radial_cylindrical(n, params, far),
                                  z_axial(n, params, branch, far)):
                        assert np.all(label[:2] != 0.0)
                        assert np.all(label[2:] == 0.0)
        # lone far points of another system
        params = SystemParams(1.1, 0.7, 1.3, 1)
        assert radial_spherical(3, 2, params, Branch.Plus, 1e200) == 0.0
        assert radial_cylindrical(3, params, 1e200) == 0.0
        assert z_axial(3, params, Branch.Plus, 1e100) == 0.0
