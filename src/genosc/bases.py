"""Normalized eigenfunctions in spherical and cylindrical coordinates.

Angular/axial factors are normalized over the half-regions theta in (0, pi/2)
and z > 0 with integral 1/2; radial factors carry unit norm. Coordinate
singularities are excluded by precondition: for the Minus branch the
exponents 1/2 - b and c can put a one-sided divergence at the excluded
endpoints, so no limit evaluation is attempted.

Each factor is evaluated for one label, or for every term of an oscillator
level at once (spherical_level, cylindrical_level), where one recurrence per
polynomial family gives every degree; both share the normalizations below.
In a level evaluator a radial or axial factor is exactly 0 wherever its
Gaussian e^{-x/2} is 0 in floating point, so the far tail gives 0, never
inf * 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_nonneg_int, require_points
from .model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                    require_admissible)
from .specfun import (gegenbauer, gen_laguerre, gen_laguerre_rows, jacobi_p,
                      jacobi_rows, ln_gamma)

__all__ = [
    "theta_angular",
    "radial_spherical",
    "psi_spherical",
    "spherical_level",
    "radial_cylindrical",
    "z_axial",
    "psi_cylindrical",
    "cylindrical_level",
    "theta_ring",
    "spherical_harmonic_limit",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# e^{-x/2} is 0 in double precision once x passes about 1491, so capping
# x = omega u^2 at this value keeps it finite without changing any Gaussian.
_TAIL_X = 1600.0


def _checked(x, name: str, upper: float | None = None):
    arr = np.asarray(x, dtype=np.float64)
    ok = arr > 0.0 if upper is None else (arr > 0.0) & (arr < upper)
    hi = "inf" if upper is None else upper
    require_points(ok, f"{name} must lie strictly inside (0, {hi})")
    return arr


def _gaussian(u, omega: float):
    """(sqrt(omega) u, x = omega u^2, e^{-x/2}) over the points u > 0.

    Where e^{-x/2} is 0 in floating point the first two are replaced by 1 and
    0: the factor is then exactly 0 and no power or polynomial overflows.
    """
    u = np.minimum(u, math.sqrt(_TAIL_X / omega))
    x = omega * u * u
    gauss = np.exp(-0.5 * x)
    s = math.sqrt(omega) * u
    if not gauss.all():
        tail = gauss == 0.0
        s, x = np.where(tail, 1.0, s), np.where(tail, 0.0, x)
    return s, x, gauss


def _shaped(out, x):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _with_phase(amp, m: int, phi, scalar: bool):
    out = amp * np.exp(1j * m * np.asarray(phi, dtype=np.float64)) / _SQRT_TWO_PI
    return complex(out) if scalar else out


# Log-squared normalizations, each a function of one label's indices, shared
# by the per-label and the level evaluators. Every Gamma argument is at least
# 1/2 (c >= 0, and -b >= -1/2 where Minus is admissible).

def _ln_theta_norm2(q: int, c: float, beta: float) -> float:
    """ln N_q^2 of theta_angular."""
    return (math.log(2.0 * q + c + beta + 1.0) + math.lgamma(q + 1.0)
            + math.lgamma(q + c + beta + 1.0) - math.lgamma(q + c + 1.0)
            - math.lgamma(q + beta + 1.0))


def _ln_radial_sph_c2(n_r: int, alpha: float, omega: float) -> float:
    """ln C^2 of radial_spherical, alpha = 2q + c +- b + 1."""
    return (math.log(2.0) + 1.5 * math.log(omega)
            + math.lgamma(n_r + 1.0) - math.lgamma(n_r + alpha + 1.0))


def _ln_radial_cyl_c2(n_rho: int, c: float, omega: float) -> float:
    """ln C^2 of radial_cylindrical."""
    return (math.log(2.0) + math.log(omega)
            + math.lgamma(n_rho + 1.0) - math.lgamma(n_rho + c + 1.0))


def _ln_axial_c2(p: int, beta: float, omega: float) -> float:
    """ln C^2 of z_axial, without its (-1)^p sign."""
    return 0.5 * math.log(omega) + math.lgamma(p + 1.0) - math.lgamma(p + beta + 1.0)


def theta_angular(q: int, params: SystemParams, branch: Branch, theta):
    """Angular factor Theta_q: N_q (sin t)^c (cos t)^(1/2 +- b) P_q^(c, +-b)(cos 2t).

    Normalized to integral Theta^2 sin(t) dt = 1/2 over (0, pi/2), N_q > 0.
    """
    q = check_nonneg_int(q, "q")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    t = _checked(theta, "theta", upper=0.5 * math.pi)
    ln_n2 = _ln_theta_norm2(q, c, beta)
    st, ct = np.sin(t), np.cos(t)
    out = (math.exp(0.5 * ln_n2) * st ** c * ct ** (0.5 + beta)
           * jacobi_p(q, c, beta, np.cos(2.0 * t)))
    return _shaped(out, theta)


def radial_spherical(n_r: int, q: int, params: SystemParams, branch: Branch, r):
    """Radial factor R_{n_r q} with unit norm against r^2 dr on (0, inf)."""
    n_r = check_nonneg_int(n_r, "n_r")
    q = check_nonneg_int(q, "q")
    b, c, _ = require_admissible(params, branch)
    alpha = 2.0 * q + c + branch.sign * b + 1.0
    rr = _checked(r, "r")
    omega = params.omega
    ln_c2 = _ln_radial_sph_c2(n_r, alpha, omega)
    x = omega * rr * rr
    out = (math.exp(0.5 * ln_c2) * (math.sqrt(omega) * rr) ** (alpha - 0.5)
           * np.exp(-0.5 * x) * gen_laguerre(n_r, alpha, x))
    return _shaped(out, r)


def psi_spherical(label: SphericalLabel, params: SystemParams, point):
    """Full wavefunction R(r) Theta(theta) e^{i m phi} / sqrt(2 pi) at (r, theta, phi)."""
    if label.m != params.m:
        raise DomainError(f"label m = {label.m} does not match params m = {params.m}")
    r, theta, phi = point
    rad = radial_spherical(label.n_r, label.q, params, label.branch, r)
    ang = theta_angular(label.q, params, label.branch, theta)
    return _with_phase(rad * ang, label.m, phi, all(np.ndim(v) == 0 for v in point))


def radial_cylindrical(n_rho: int, params: SystemParams, rho):
    """Radial factor R_{n_rho}(rho; c) with unit norm against rho d rho."""
    n_rho = check_nonneg_int(n_rho, "n_rho")
    _, c, _ = require_admissible(params, Branch.Plus)
    rr = _checked(rho, "rho")
    omega = params.omega
    ln_c2 = _ln_radial_cyl_c2(n_rho, c, omega)
    x = omega * rr * rr
    out = (math.exp(0.5 * ln_c2) * np.exp(-0.5 * x)
           * (math.sqrt(omega) * rr) ** c * gen_laguerre(n_rho, c, x))
    return _shaped(out, rho)


def z_axial(p: int, params: SystemParams, branch: Branch, z):
    """Axial factor Z_p on z > 0 with the (-1)^p sign; half-line norm 1/2.

    The alternating sign matters: the interbasis coefficients are defined
    against exactly this convention.
    """
    p = check_nonneg_int(p, "p")
    b, _, _ = require_admissible(params, branch)
    beta = branch.sign * b
    zz = _checked(z, "z")
    omega = params.omega
    ln_c2 = _ln_axial_c2(p, beta, omega)
    x = omega * zz * zz
    out = ((-1.0) ** p * math.exp(0.5 * ln_c2) * np.exp(-0.5 * x)
           * (math.sqrt(omega) * zz) ** (0.5 + beta) * gen_laguerre(p, beta, x))
    return _shaped(out, z)


def psi_cylindrical(label: CylindricalLabel, params: SystemParams, point):
    """Full wavefunction R(rho) e^{i m phi} / sqrt(2 pi) Z(z) at (rho, phi, z), z > 0."""
    if label.m != params.m:
        raise DomainError(f"label m = {label.m} does not match params m = {params.m}")
    rho, phi, z = point
    rad = radial_cylindrical(label.n_rho, params, rho)
    ax = z_axial(label.p, params, label.branch, z)
    return _with_phase(rad * ax, label.m, phi, all(np.ndim(v) == 0 for v in point))


# The level evaluators below return row k = the k-th term of a level at every
# point, an array of shape (n+1,) + the points' shape (a scalar point gives
# n+1 values). They raise point-only factors with np.power, never **: on the
# numpy scalars of a single point ** runs the scalar pow, which can differ in
# the last bit from the array loop, and no value may depend on the batch size.

def spherical_level(n: int, params: SystemParams, branch: Branch, r, theta) -> np.ndarray:
    """Every term R_{n-q,q}(r) Theta_q(theta), q = 0..n, of level n at once.

    r and theta are equal-shape arrays of points, or scalars. The radial
    factors come from one Laguerre recurrence that carries the order
    2q + c +- b + 1 of every term, the angular ones from one Jacobi recurrence.
    """
    n = check_nonneg_int(n, "n")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    omega = params.omega
    s, x, gauss = _gaussian(_checked(r, "r"), omega)
    t = _checked(theta, "theta", upper=0.5 * math.pi)
    column = (n + 1,) + (1,) * np.ndim(x)
    orders = [2.0 * q + c + beta + 1.0 for q in range(n + 1)]
    alpha = np.array(orders).reshape(column)
    ln_norm2 = [_ln_radial_sph_c2(n - q, a, omega) + _ln_theta_norm2(q, c, beta)
                for q, a in enumerate(orders)]
    norm = np.exp(0.5 * np.array(ln_norm2)).reshape(column)
    # row j holds degree j at every order; term q reads degree n - q
    rows = gen_laguerre_rows(n, alpha, x)
    lag = np.array([row[n - j] for j, row in enumerate(rows)][::-1])
    jac = np.array(list(jacobi_rows(n, c, beta, np.cos(2.0 * t))))
    point = np.power(np.sin(t), c) * np.power(np.cos(t), 0.5 + beta) * gauss
    return norm * np.power(s, alpha - 0.5) * point * lag * jac


def cylindrical_level(n: int, params: SystemParams, branch: Branch, rho, z) -> np.ndarray:
    """Every term R_{n-p}(rho) Z_p(z), p = 0..n, of level n at once.

    rho and z are equal-shape arrays of points, or scalars. The radial and the
    axial factors each come from one Laguerre recurrence over all degrees.
    """
    n = check_nonneg_int(n, "n")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    omega = params.omega
    s_rho, x_rho, g_rho = _gaussian(_checked(rho, "rho"), omega)
    s_z, x_z, g_z = _gaussian(_checked(z, "z"), omega)
    ln_norm2 = [_ln_radial_cyl_c2(n - p, c, omega) + _ln_axial_c2(p, beta, omega)
                for p in range(n + 1)]
    # the axial factor carries the sign (-1)^p
    norm = (np.exp(0.5 * np.array(ln_norm2)) * (-1.0) ** np.arange(n + 1)).reshape(
        (n + 1,) + (1,) * np.ndim(x_rho))
    # term p reads radial degree n - p and axial degree p
    rad = np.array(list(gen_laguerre_rows(n, c, x_rho)))[::-1]
    ax = np.array(list(gen_laguerre_rows(n, beta, x_z)))
    point = g_rho * np.power(s_rho, c) * g_z * np.power(s_z, 0.5 + beta)
    return norm * point * rad * ax


def theta_ring(l: int, m: int, delta: float, theta):
    """Ring-regime angular factor Theta_{lm}(theta; delta) in Gegenbauer form.

    2^(|m|+delta) Gamma(|m|+delta+1/2)
      * sqrt[(2l+2delta+1)(l-|m|)! / (2 pi Gamma(l+|m|+2delta+1))]
      * (sin t)^(|m|+delta) C_{l-|m|}^{|m|+delta+1/2}(cos t).

    Valid on (0, pi); same half-interval normalization as theta_angular.
    """
    l = check_nonneg_int(l, "l")
    ma = abs(int(m))
    if m != int(m) or l < ma:
        raise DomainError(f"theta_ring needs integer m with |m| <= l, got l={l}, m={m}")
    if delta < 0.0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    t = _checked(theta, "theta", upper=math.pi)
    mu = ma + delta
    ln_const = ((mu) * math.log(2.0) + ln_gamma(mu + 0.5)
                + 0.5 * (math.log(2.0 * l + 2.0 * delta + 1.0)
                         + ln_gamma(l - ma + 1.0)
                         - math.log(2.0 * math.pi)
                         - ln_gamma(l + ma + 2.0 * delta + 1.0)))
    out = (math.exp(ln_const) * np.sin(t) ** mu
           * gegenbauer(l - ma, mu + 0.5, np.cos(t)))
    return _shaped(out, theta)


def spherical_harmonic_limit(l: int, m: int, theta, phi):
    """Y_lm at the isotropic point (P = Q = 0): theta_ring(delta=0) e^{i m phi}/sqrt(2 pi).

    Matches the textbook harmonic up to the module's positive-constant
    convention, which differs from Condon-Shortley by (-1)^|m|.
    """
    ang = theta_ring(l, m, 0.0, theta)
    return _with_phase(ang, int(m), phi, np.ndim(theta) == 0 and np.ndim(phi) == 0)
