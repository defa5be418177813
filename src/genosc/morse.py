"""One-dimensional Morse well mapped onto the half-line oscillator channel.

The substitution w = 2 lambda e^{-a x} turns the Morse bound-state equation
into the half-line channel with omega = 2 lambda, E_z = 4 lambda^2 and an
inverse-square strength fixed by the energy, so spectrum and wavefunctions
come out of the oscillator machinery.  The printed closed-form constant in
the source material does not square-integrate to one; the constant used
here does, as morse_norms measures: with N the top normalizable level, every
psi_p^2 dx is w^alpha0 e^{-w} dw (alpha0 = 2 lambda - 2N - 2, in (-1, 1]) times a
polynomial of degree <= 2N, so one (N+1)-point Gauss-Laguerre rule, whose
scaled weights hold at any depth, integrates every norm exactly. Level p is the
orthonormal Laguerre function of order alpha_p = 2 lambda - 1 - 2p, which falls
by two per level: every level at a point comes from one
specfun.laguerre_diagonal recurrence, one step per level, so a whole well's
norm table costs O(N^2). The morse command's norm check and its printed grid
share one such recurrence, run on the rule's nodes followed by the grid; points
do not affect each other, so each value is the one a separate pass gives.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, _as_float, _require_type, check_nonneg_int, check_points,
                     check_positive, require_points)
from .specfun import build_quadrature, laguerre_diagonal

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MorseParams:
    """Morse well V0 (e^{-2 a x} - 2 e^{-a x}) with depth V0 and range 1/a."""

    v0: float
    a: float

    def __post_init__(self) -> None:
        for name in ("v0", "a"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))

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
    """Number of discrete levels, floor(lam - 1/2) + 1 above threshold; DomainError unless
    params is a MorseParams."""
    _require_type(params, MorseParams, "params")
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
    _require_bound(params)
    lam = params.lam
    energy = _as_float(energy)
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


def _require_bound(params: MorseParams) -> int:
    """bound_state_count; DomainError where the well has no discrete level."""
    count = bound_state_count(params)
    if count == 0:
        raise DomainError(f"no discrete spectrum: sqrt(2 V0)/a = {params.lam:.6g} <= 1/2")
    return count


def _check_level(p: int, params: MorseParams) -> int:
    count = _require_bound(params)
    try:
        level = check_nonneg_int(p, "level p")
    except DomainError:
        level = count   # not an index at all: the same range message
    if level >= count:
        raise DomainError(f"level p must lie in 0..{count - 1}, got {p!r}")
    if level not in normalizable_levels(params):
        raise DomainError(
            f"level p = {level} sits exactly at the continuum threshold "
            "and is not square integrable")
    return level


def normalizable_levels(params: MorseParams) -> range:
    """Bound levels with a square-integrable state: alpha_p = 2 lambda - 2p - 1 > 0."""
    count = bound_state_count(params)
    return range(count if 2.0 * params.lam - 2.0 * count + 1.0 > 0.0 else count - 1)


def _wavefunctions(ps, params: MorseParams, x) -> np.ndarray:
    """psi_p(x) = (-1)^p sqrt(a alpha_p) phi_p^alpha_p(w), a row per normalizable p in ps,
    from one Laguerre-function recurrence whose order alpha_p = 2 lambda - 1 - 2p falls by
    two per level; w = 2 lambda e^{-a x} is taken through log w = log(2 lambda) - a x
    (no log(0))."""
    beta = 2.0 * params.lam - 1.0
    log_w = math.log(2.0 * params.lam) - params.a * np.asarray(x, dtype=np.float64)
    psi = laguerre_diagonal(ps, beta, log_w)
    psi *= np.reshape([(-1.0) ** p * math.sqrt(params.a * (beta - 2.0 * p)) for p in ps],
                      (-1,) + (1,) * log_w.ndim)
    return psi


def morse_wavefunction(p: int, params: MorseParams, x) -> float | np.ndarray:
    """Normalized bound state psi_p at position x, scalars or arrays (0.0 at +-inf)."""
    p = _check_level(p, params)
    x = check_points(x, "x")
    require_points(~np.isnan(x), "x must not be NaN", x)
    vals = _wavefunctions((p,), params, x)[0]
    return vals if vals.ndim else float(vals)


def _norms(ps, params: MorseParams, x=()) -> tuple[np.ndarray, np.ndarray]:
    """Norm integrals of psi_p^2 over the line for p in ps, on the well's one rule: N + 1
    Gauss-Laguerre points of weight w^alpha0 e^{-w}. As dx = dw / (a w), norm_p is
    sum_i s_i psi_p(w_i)^2 / (a w_i), s_i the rule's scaled weights. The recurrence runs
    on the rule's positions followed by the points x, whose psi_p rows come back second,
    as a copy, so the merged table is dropped on return."""
    top = normalizable_levels(params)[-1]
    rule = build_quadrature("laguerre", top + 1, alpha=2.0 * params.lam - 2.0 * top - 2.0)
    w = rule.nodes
    psi = _wavefunctions(ps, params, np.concatenate((np.log(2.0 * params.lam / w) / params.a, x)))
    at_nodes = psi[:, :w.size]
    # numpy's own loop, not BLAS, so the sum order does not follow the thread count
    norms = np.einsum("pi,i,pi->p", at_nodes, rule.scaled_weights / (params.a * w), at_nodes)
    return norms, psi[:, w.size:].copy()


def morse_norms(params: MorseParams) -> np.ndarray:
    """Norm integral of psi_p^2 over the line for each normalizable level, in order."""
    levels = normalizable_levels(params)
    return _norms(levels, params)[0] if levels else np.empty(0)


def quadrature_norm(p: int, params: MorseParams) -> float:
    """Norm integral of psi_p^2 over the line: level p's entry of morse_norms."""
    p = _check_level(p, params)
    return float(_norms((p,), params)[0][0])


quadrature_norm_scaled = quadrature_norm   # the scaled Gauss-Laguerre sum's name, now one route
