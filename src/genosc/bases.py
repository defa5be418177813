"""Normalized eigenfunctions in spherical and cylindrical coordinates.

Angular/axial factors are normalized over the half-regions theta in (0, pi/2)
and z > 0 with integral 1/2; radial factors carry unit norm. Coordinate
singularities are excluded by precondition: for the Minus branch the
exponents 1/2 - b and c can put a one-sided divergence at the excluded
endpoints, so no limit evaluation is attempted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                    _check_nonneg_int, require_admissible)
from .specfun import gegenbauer, gen_laguerre, jacobi_p, ln_gamma

__all__ = [
    "theta_angular",
    "radial_spherical",
    "psi_spherical",
    "radial_cylindrical",
    "z_axial",
    "psi_cylindrical",
    "theta_ring",
    "spherical_harmonic_limit",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _checked(x, name: str, upper: float | None = None):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr > 0.0) or (upper is not None and not np.all(arr < upper)):
        hi = f", {upper})" if upper is not None else ", inf)"
        raise DomainError(f"{name} must lie strictly inside (0{hi}")
    return arr


def _shaped(out, x):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _with_phase(amp, m: int, phi, scalar: bool):
    out = amp * np.exp(1j * m * np.asarray(phi, dtype=np.float64)) / _SQRT_TWO_PI
    return complex(out) if scalar else out


def theta_angular(q: int, params: SystemParams, branch: Branch, theta):
    """Angular factor Theta_q: N_q (sin t)^c (cos t)^(1/2 +- b) P_q^(c, +-b)(cos 2t).

    Normalized to integral Theta^2 sin(t) dt = 1/2 over (0, pi/2), N_q > 0.
    """
    q = _check_nonneg_int(q, "q")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    t = _checked(theta, "theta", upper=0.5 * math.pi)
    ln_n2 = (math.log(2.0 * q + c + beta + 1.0) + ln_gamma(q + 1.0)
             + ln_gamma(q + c + beta + 1.0) - ln_gamma(q + c + 1.0)
             - ln_gamma(q + beta + 1.0))
    st, ct = np.sin(t), np.cos(t)
    out = (math.exp(0.5 * ln_n2) * st ** c * ct ** (0.5 + beta)
           * jacobi_p(q, c, beta, np.cos(2.0 * t)))
    return _shaped(out, theta)


def radial_spherical(n_r: int, q: int, params: SystemParams, branch: Branch, r):
    """Radial factor R_{n_r q} with unit norm against r^2 dr on (0, inf)."""
    n_r = _check_nonneg_int(n_r, "n_r")
    q = _check_nonneg_int(q, "q")
    b, c, _ = require_admissible(params, branch)
    alpha = 2.0 * q + c + branch.sign * b + 1.0
    rr = _checked(r, "r")
    omega = params.omega
    ln_c2 = (math.log(2.0) + 1.5 * math.log(omega)
             + ln_gamma(n_r + 1.0) - ln_gamma(n_r + alpha + 1.0))
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
    n_rho = _check_nonneg_int(n_rho, "n_rho")
    _, c, _ = require_admissible(params, Branch.Plus)
    rr = _checked(rho, "rho")
    omega = params.omega
    ln_c2 = (math.log(2.0) + math.log(omega)
             + ln_gamma(n_rho + 1.0) - ln_gamma(n_rho + c + 1.0))
    x = omega * rr * rr
    out = (math.exp(0.5 * ln_c2) * np.exp(-0.5 * x)
           * (math.sqrt(omega) * rr) ** c * gen_laguerre(n_rho, c, x))
    return _shaped(out, rho)


def z_axial(p: int, params: SystemParams, branch: Branch, z):
    """Axial factor Z_p on z > 0 with the (-1)^p sign; half-line norm 1/2.

    The alternating sign matters: the interbasis coefficients are defined
    against exactly this convention.
    """
    p = _check_nonneg_int(p, "p")
    b, _, _ = require_admissible(params, branch)
    beta = branch.sign * b
    zz = _checked(z, "z")
    omega = params.omega
    ln_c2 = 0.5 * math.log(omega) + ln_gamma(p + 1.0) - ln_gamma(p + beta + 1.0)
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


def theta_ring(l: int, m: int, delta: float, theta):
    """Ring-regime angular factor Theta_{lm}(theta; delta) in Gegenbauer form.

    2^(|m|+delta) Gamma(|m|+delta+1/2)
      * sqrt[(2l+2delta+1)(l-|m|)! / (2 pi Gamma(l+|m|+2delta+1))]
      * (sin t)^(|m|+delta) C_{l-|m|}^{|m|+delta+1/2}(cos t).

    Valid on (0, pi); same half-interval normalization as theta_angular.
    """
    l = _check_nonneg_int(l, "l")
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
