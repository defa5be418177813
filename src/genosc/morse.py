"""One-dimensional Morse well mapped onto the half-line oscillator channel.

The substitution w = 2 lambda e^{-a x} turns the Morse bound-state equation
into the half-line channel with omega = 2 lambda, E_z = 4 lambda^2 and an
inverse-square strength fixed by the energy, so spectrum and wavefunctions
come out of the oscillator machinery.  The printed closed-form constant in
the source material does not square-integrate to one; the constant used
here does, as quadrature_norm (Gauss-Legendre panels in log w) and
quadrature_norm_scaled (Gauss-Laguerre) both measure.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import build_quadrature, gen_laguerre, ln_gamma

_logger = logging.getLogger(__name__)

_PANEL_NODES = 24
# panel width in log w is this over sqrt((p+1)(p+alpha+1)); norms hold 4e-13 up to 8
_PANEL_SCALE = 4.0
_TAIL_MASS = 1e-18   # share of the norm the tail bound leaves below the panels


@dataclass(frozen=True)
class MorseParams:
    """Morse well V0 (e^{-2 a x} - 2 e^{-a x}) with depth V0 and range 1/a."""

    v0: float
    a: float

    def __post_init__(self) -> None:
        for name in ("v0", "a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def lam(self) -> float:
        """Dimensionless depth sqrt(2 V0)/a; bound states need lam > 1/2."""
        return math.sqrt(2.0 * self.v0) / self.a


@dataclass(frozen=True)
class EffectiveChannel:
    """Half-line oscillator channel equivalent to one Morse level."""

    omega: float
    p_strength: float
    e_z: float
    b: float


def bound_state_count(params: MorseParams) -> int:
    """Number of discrete levels, floor(lam - 1/2) + 1 above threshold."""
    lam = params.lam
    if lam <= 0.5:
        return 0
    return int(math.floor(lam - 0.5)) + 1


def morse_spectrum(params: MorseParams) -> np.ndarray:
    """Discrete energies for p = 0 .. floor(lam - 1/2), strictly increasing."""
    count = bound_state_count(params)
    if count == 0:
        _logger.info("no discrete Morse levels: sqrt(2 V0)/a = %.6g <= 1/2",
                     params.lam)
        return np.empty(0)
    out = -params.v0 * (1.0 - (np.arange(count) + 0.5) / params.lam) ** 2
    out.flags.writeable = False
    return out


def sw_to_morse(params: MorseParams, energy: float) -> EffectiveChannel:
    """Channel constants whose half-line equation matches one Morse level.

    Only energies with -32 E > a^2 admit an integral channel index; the
    remaining sliver 0 < -32 E < a^2 is rejected explicitly.
    """
    lam = params.lam
    if lam <= 0.5:
        raise DomainError(f"no discrete spectrum: sqrt(2 V0)/a = {lam:.6g} <= 1/2")
    energy = float(energy)
    if not math.isfinite(energy) or energy >= 0.0:
        raise DomainError(f"discrete levels have E < 0, got {energy!r}")
    if -32.0 * energy <= params.a ** 2:
        raise DomainError(
            f"no bound state at this matching: -32 E = {-32.0 * energy:.6g} "
            f"does not exceed a^2 = {params.a ** 2:.6g}")
    return EffectiveChannel(omega=2.0 * lam,
                            p_strength=-8.0 * energy / params.a ** 2 - 0.25,
                            e_z=4.0 * lam * lam,
                            b=2.0 * math.sqrt(-2.0 * energy) / params.a)


def _check_level(p: int, params: MorseParams) -> tuple[int, float, float]:
    count = bound_state_count(params)
    if p != int(p) or not 0 <= p < count:
        raise DomainError(f"level p must lie in 0..{count - 1}, got {p!r}")
    p = int(p)
    lam = params.lam
    alpha = 2.0 * lam - 2.0 * p - 1.0
    if alpha <= 0.0:
        raise DomainError(
            f"level p = {p} sits exactly at the continuum threshold "
            "and is not square integrable")
    return p, lam, alpha


def morse_wavefunction(p: int, params: MorseParams, x) -> float | np.ndarray:
    """Normalized bound state at position x; accepts scalars or arrays.

    Evaluated through log w = log(2 lambda) - a x, so deep in the tail w
    underflows to zero without a log(0).
    """
    p, lam, alpha = _check_level(p, params)
    ln_c = 0.5 * (math.log(params.a) + ln_gamma(p + 1.0) + math.log(alpha)
                  - ln_gamma(2.0 * lam - p))
    log_w = math.log(2.0 * lam) - params.a * np.asarray(x, dtype=np.float64)
    with np.errstate(under="ignore"):
        w = np.exp(log_w)
        vals = ((-1.0) ** p * np.exp(ln_c + 0.5 * alpha * log_w - 0.5 * w)
                * gen_laguerre(p, alpha, w))
    return vals if vals.ndim else float(vals)


def quadrature_norm(p: int, params: MorseParams) -> float:
    """Norm integral of psi_p^2 over the line, the x-space check of the constant.

    Gauss-Legendre panels in t = log w (dx = dt / a), laid out in closed form
    with nu = 2p + alpha + 1 = 2 lambda: of width _PANEL_SCALE /
    sqrt((p+1)(p+alpha+1)) from w_s = max(alpha^2 - 1, 1) / (2 nu), below the
    first Laguerre zero (by Sturm comparison; for alpha^2 < 2 that zero
    exceeds j_{alpha,1}^2 / (2 nu)), to 4 nu + 60, past the turning point
    2 nu. Below w_s the density is at most alpha Gamma(p+alpha+1) /
    (p! Gamma(alpha+1)^2) w^alpha; panels double in width until that bound
    leaves under _TAIL_MASS. All nodes go through one morse_wavefunction call.
    """
    p, lam, alpha = _check_level(p, params)
    nu = 2.0 * lam
    width = _PANEL_SCALE / math.sqrt((p + 1.0) * (p + alpha + 1.0))
    t_s = math.log(max(alpha * alpha - 1.0, 1.0) / (2.0 * nu))
    t_top = math.log(4.0 * nu + 60.0)
    ln_bound = ln_gamma(p + alpha + 1.0) - ln_gamma(p + 1.0) - 2.0 * ln_gamma(alpha + 1.0)
    t_min = (math.log(_TAIL_MASS) - ln_bound) / alpha
    doublings = math.ceil(math.log2(max(t_s - t_min, 0.0) / width + 1.0))
    edges = np.concatenate([
        t_s - width * (2.0 ** np.arange(doublings, 0, -1) - 1.0),
        np.linspace(t_s, t_top, math.ceil((t_top - t_s) / width) + 1)])
    rule = build_quadrature("legendre", _PANEL_NODES)
    half = 0.5 * np.diff(edges)
    t = (edges[:-1] + half)[:, None] + half[:, None] * rule.nodes
    psi = morse_wavefunction(p, params, (math.log(nu) - t) / params.a)
    return float(half @ (psi * psi) @ rule.weights) / params.a


def quadrature_norm_scaled(p: int, params: MorseParams) -> float:
    """Same norm after the exponential substitution, now a Gauss-type sum."""
    p, lam, alpha = _check_level(p, params)
    rule = build_quadrature("laguerre", p + 1, alpha=alpha - 1.0)
    vals = gen_laguerre(p, alpha, rule.nodes) ** 2
    scale = math.exp(ln_gamma(p + 1.0) + math.log(alpha)
                     - ln_gamma(2.0 * lam - p))
    return scale * rule.integrate(vals)
