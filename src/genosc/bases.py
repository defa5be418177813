"""Normalized eigenfunctions in spherical and cylindrical coordinates.

Angular/axial factors are normalized over the half-regions theta in (0, pi/2)
and z > 0 with integral 1/2; radial factors carry unit norm. Coordinate
singularities are excluded by precondition: for the Minus branch the
exponents 1/2 - b and c can put a one-sided divergence at the excluded
endpoints, so no limit evaluation is attempted. Coordinates must be finite.

Each angular factor (Theta_q, the ring Theta_lm) is one bounded row of the
orthonormal Jacobi recurrence (specfun._jacobi_rows), and each radial and axial
factor a constant times one orthonormal Laguerre function of x = omega u^2: no
degree or order overflows. Each factor is evaluated for one label, or for every
term of an oscillator level at once (spherical_level, cylindrical_level), where
one recurrence per family gives every degree; both read the same per-family
helpers below. The cylindrical and axial factors, and the spherical radial
factors of one q, keep one Laguerre order (specfun.laguerre_functions); the
spherical radial terms R_{n-q,q} of a level, whose order 2q + c +- b + 1 falls
by two per degree n - q, run in specfun.laguerre_diagonal. In the far tail
every factor is exactly 0, never inf * 0.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import (DomainError, _require_type, check_abs_int, check_nonneg_int, check_points,
                     require_points)
from .model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                    _exponents, _ring_delta, require_label_m)
from .specfun import _jacobi_p0, _jacobi_rows, laguerre_diagonal, laguerre_functions

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
_HALF_PI = 0.5 * math.pi


def _with_phase(amp, m: int, phi, checked: bool = False):
    if not checked:   # psi_spheroidal's phi comes checked, from its SpheroidalPoint
        phi = check_points(phi, "phi")
        require_points(np.isfinite(phi), "phi must be finite", phi)
    out = amp * np.exp(1j * m * phi) / _SQRT_TWO_PI
    return out if out.ndim else complex(out)


def _triple(point, names: str):
    """The three coordinates of a point; DomainError unless it unpacks into three."""
    try:
        first, second, third = point
    except (TypeError, ValueError):
        raise DomainError(f"point must be a triple {names}, got {point!r}") from None
    return first, second, third


def _inside(u, name: str, hi: float = math.inf):
    """u, a parsed coordinate; DomainError unless each point lies strictly inside (0, hi)."""
    require_points((u > 0.0) & (u < hi), f"{name} must lie strictly inside (0, {hi})")
    return u


def _log_x(omega: float, u):   # ln(omega u^2), finite where omega u^2 is not
    return math.log(omega) + 2.0 * np.log(u)


def _angular(qs, c: float, beta: float, t):
    """Theta_q(t) = 2^((c + beta + 1)/2) p_q(cos 2t) (sin t)^c (cos t)^(1/2 + beta), q in qs,
    p_q the orthonormal Jacobi(c, beta) polynomial, from rows started at Theta_0."""
    norm0 = _jacobi_p0(c, beta, 0.5 * (c + beta + 1.0))
    # np.power, never **: on a lone point's numpy scalar ** runs libm pow
    start = norm0 * np.power(np.sin(t), c) * np.power(np.cos(t), 0.5 + beta)
    rows = list(_jacobi_rows(max(qs), c, beta, np.cos(2.0 * t), start))
    return np.array(rows if qs == range(len(rows)) else [rows[q] for q in qs])


def _radial_sph(degrees, q: int, c: float, beta: float, omega: float, r):
    """R_{n_r q} = sqrt(2) omega^(3/4) x^(-1/4) phi_{n_r}^(2q+c+beta+1)(x), n_r in degrees."""
    return laguerre_functions(degrees, 2.0 * q + c + beta + 1.0, _log_x(omega, r),
                              -0.25, 0.5 * math.log(2.0) + 0.75 * math.log(omega))


def _radial_level(n: int, qs, c: float, beta: float, omega: float, r):
    """R_{n-q, q} for each q in qs: the terms of level n, whose Laguerre order
    2q + c + beta + 1 = (2n + c + beta + 1) - 2(n - q) falls by two per degree n - q."""
    return laguerre_diagonal([n - q for q in qs], 2.0 * n + c + beta + 1.0, _log_x(omega, r),
                             -0.25, 0.5 * math.log(2.0) + 0.75 * math.log(omega))


def _ln_sqrt_2omega(omega: float) -> float:
    """ln sqrt(2 omega), also where 2 omega passes a double."""
    twice = 2.0 * omega
    return 0.5 * math.log(twice) if twice < math.inf else 0.5 * (math.log(2.0) + math.log(omega))


def _radial_cyl(degrees, c: float, omega: float, rho):
    """R_{n_rho} = sqrt(2 omega) phi_{n_rho}^c(x) for each n_rho in degrees."""
    return laguerre_functions(degrees, c, _log_x(omega, rho), 0.0, _ln_sqrt_2omega(omega))


def _axial(ps: range, beta: float, omega: float, z):
    """Z_p = (-1)^p omega^(1/4) x^(1/4) phi_p^beta(x) for each p in ps, consecutive degrees."""
    out = laguerre_functions(ps, beta, _log_x(omega, z), 0.25, 0.25 * math.log(omega))
    out[1 - ps[0] % 2::2] *= -1.0   # the rows of odd p
    return out


def theta_angular(q: int, params: SystemParams, branch: Branch, theta):
    """Angular factor Theta_q: N_q (sin t)^c (cos t)^(1/2 +- b) P_q^(c, +-b)(cos 2t).

    Normalized to integral Theta^2 sin(t) dt = 1/2 over (0, pi/2), N_q > 0. Finite at any
    q and c; off 40-digit mpmath by at most, relative to the largest |Theta_q|: 1.0e-14 for
    q <= 12 and c < 4, 4.0e-13 to q = 300 at c = 1 and 3.3, and at c = 2000 3.6e-13 to
    q = 40 and 2.5e-12 at q = 300 ((sin t)^c, and cos 2t near a recurrence coefficient).
    AccuracyError where Theta_0's constant sqrt(Gamma(c +- b + 2) / (Gamma(c + 1) Gamma(+-b + 1)))
    leaves double range: from about c = b = 1021.4 (P = Q = 1.0433e6), in every Theta_q reader,
    and from c +- b + 1 = 9999, where that constant would cancel three lgamma values.
    """
    q = check_nonneg_int(q, "q")
    beta, c = _exponents(params, branch)
    t = _inside(check_points(theta, "theta"), "theta", _HALF_PI)
    out = _angular((q,), c, beta, t)[0]
    return out if t.ndim else float(out)


def radial_spherical(n_r: int, q: int, params: SystemParams, branch: Branch, r):
    """Radial factor R_{n_r q} with unit norm against r^2 dr on (0, inf).

    Off 40-digit mpmath by at most 3e-13 of its largest value over points spread across
    its support, for c to 1200 (Q = 1.44e6), b to 1000 (P = 1e6), q to 300 and n_r to 80;
    most of that is the rounding of ln(omega r^2), which the factor's slope in ln x
    multiplies. Exactly 0 in the far tail; AccuracyError past Laguerre order 2^21.
    """
    n_r = check_nonneg_int(n_r, "n_r")
    q = check_nonneg_int(q, "q")
    beta, c = _exponents(params, branch)
    rr = _inside(check_points(r, "r"), "r")
    out = _radial_sph((n_r,), q, c, beta, params.omega, rr)[0]
    return out if rr.ndim else float(out)


def psi_spherical(label: SphericalLabel, params: SystemParams, point):
    """Full wavefunction R(r) Theta(theta) e^{i m phi} / sqrt(2 pi) at (r, theta, phi)."""
    _require_type(label, SphericalLabel, "label")
    require_label_m(label.m, params)
    r, theta, phi = _triple(point, "(r, theta, phi)")
    rad = radial_spherical(label.n_r, label.q, params, label.branch, r)
    return _with_phase(rad * theta_angular(label.q, params, label.branch, theta), label.m, phi)


def radial_cylindrical(n_rho: int, params: SystemParams, rho):
    """Radial factor R_{n_rho}(rho; c) with unit norm against rho d rho.

    Off 40-digit mpmath by at most 3e-13 of its largest value over points spread across
    its support, for c to 1200 (Q = 1.44e6) and n_rho to 80; most of that is the
    rounding of ln(omega rho^2), which the factor's slope in ln x multiplies. Exactly 0
    in the far tail; AccuracyError past c = 2^21.
    """
    n_rho = check_nonneg_int(n_rho, "n_rho")
    _, c = _exponents(params, Branch.Plus)
    rr = _inside(check_points(rho, "rho"), "rho")
    out = _radial_cyl((n_rho,), c, params.omega, rr)[0]
    return out if rr.ndim else float(out)


def z_axial(p: int, params: SystemParams, branch: Branch, z):
    """Axial factor Z_p on z > 0 with the (-1)^p sign; half-line norm 1/2.

    The alternating sign matters: the interbasis coefficients are defined
    against exactly this convention. Off 40-digit mpmath by at most 3e-13 of its
    largest value over points spread across its support, for b to 1000 (P = 1e6) and
    p to 80; most of that is the rounding of ln(omega z^2), which the factor's slope in
    ln x multiplies. Exactly 0 in the far tail; AccuracyError past b = 2^21.
    """
    p = check_nonneg_int(p, "p")
    beta, _ = _exponents(params, branch)
    zz = _inside(check_points(z, "z"), "z")
    out = _axial(range(p, p + 1), beta, params.omega, zz)[0]
    return out if zz.ndim else float(out)


def psi_cylindrical(label: CylindricalLabel, params: SystemParams, point):
    """Full wavefunction R(rho) e^{i m phi} / sqrt(2 pi) Z(z) at (rho, phi, z), z > 0."""
    _require_type(label, CylindricalLabel, "label")
    require_label_m(label.m, params)
    rho, phi, z = _triple(point, "(rho, phi, z)")
    rad = radial_cylindrical(label.n_rho, params, rho)
    return _with_phase(rad * z_axial(label.p, params, label.branch, z), label.m, phi)


# The level evaluators below return row k = the k-th term of a level at every
# point, an array of shape (n+1,) + the points' shape (a scalar point gives
# n+1 values), each from its level's term builder, which psi_spheroidal shares.

def _spherical_terms(n: int, beta: float, c: float, omega: float, r, t) -> np.ndarray:
    return _radial_level(n, range(n + 1), c, beta, omega, r) * _angular(range(n + 1), c, beta, t)


def _cylindrical_terms(n: int, beta: float, c: float, omega: float, rho, z) -> np.ndarray:
    return _radial_cyl(range(n, -1, -1), c, omega, rho) * _axial(range(n + 1), beta, omega, z)


def spherical_level(n: int, params: SystemParams, branch: Branch, r, theta) -> np.ndarray:
    """Every term R_{n-q,q}(r) Theta_q(theta), q = 0..n, of level n at once.

    r and theta are equal-shape arrays of points, or scalars. The radial
    factors come from one Laguerre-function recurrence whose order
    2q + c +- b + 1 falls by two per degree n - q, the angular ones from one
    Jacobi recurrence, finite at any n and c and as accurate as theta_angular's.
    """
    n = check_nonneg_int(n, "n")
    beta, c = _exponents(params, branch)
    rr = _inside(check_points(r, "r"), "r")
    t = _inside(check_points(theta, "theta"), "theta", _HALF_PI)
    return _spherical_terms(n, beta, c, params.omega, rr, t)


def cylindrical_level(n: int, params: SystemParams, branch: Branch, rho, z) -> np.ndarray:
    """Every term R_{n-p}(rho) Z_p(z), p = 0..n, of level n at once.

    rho and z are equal-shape arrays of points, or scalars. The radial and the
    axial factors each come from one Laguerre-function recurrence over all
    degrees.
    """
    n = check_nonneg_int(n, "n")
    beta, c = _exponents(params, branch)
    rr = _inside(check_points(rho, "rho"), "rho")
    zz = _inside(check_points(z, "z"), "z")
    return _cylindrical_terms(n, beta, c, params.omega, rr, zz)


def theta_ring(l: int, m: int, delta: float, theta):
    """Ring-regime angular factor Theta_{lm}(theta; delta), mu = |m| + delta:

    2^mu Gamma(mu + 1/2) sqrt[(2l+2delta+1)(l-|m|)! / (2 pi Gamma(l+|m|+2delta+1))]
      * (sin t)^mu C_{l-|m|}^{mu+1/2}(cos t) = p_{l-|m|}(cos t) (sin t)^mu,

    p_k the orthonormal Jacobi(mu, mu) polynomial, a bounded row at every l. Valid on
    (0, pi); same half-interval normalization as theta_angular. Off 40-digit mpmath by at
    most 5.5e-14 of the largest |Theta| at (l, m, delta) = (300, 10, 20), (60, 2, 900)
    and (427, 46, 424.24), and 1.3e-13 at (1, 1, 4990). AccuracyError from 2 mu + 1 = 9999
    (delta from 4999 - |m|), where p_0's constant would cancel three lgamma values.
    """
    l, ma = check_nonneg_int(l, "l"), check_abs_int(m, "m")
    if l < ma:
        raise DomainError(f"theta_ring needs |m| <= l, got l={l}, m={m}")
    delta = _ring_delta(delta)
    t = _inside(check_points(theta, "theta"), "theta", math.pi)
    mu = ma + delta
    start = _jacobi_p0(mu, mu) * np.power(np.sin(t), mu)
    out = deque(_jacobi_rows(l - ma, mu, mu, np.cos(t), start), maxlen=1)[0]
    return out if t.ndim else float(out)


def spherical_harmonic_limit(l: int, m: int, theta, phi):
    """Y_lm at the isotropic point (P = Q = 0): theta_ring(delta=0) e^{i m phi}/sqrt(2 pi).

    Matches the textbook harmonic up to the module's positive-constant
    convention, which differs from Condon-Shortley by (-1)^|m|.
    """
    return _with_phase(theta_ring(l, m, 0.0, theta), int(m), phi)
