"""Physical parameters, quantum-number bookkeeping, energies, separation constants.

Scalar backbone shared by every other module. Units: hbar = mass = 1, so the
oscillator frequency omega carries all dimensions. The barrier constants feed
in only through b = sqrt(P + 1/4) and c = sqrt(Q + m^2); the axial channel
splits into a Plus/Minus branch pair (the sign in front of b), with Minus
admissible only while b <= 1/2. The signed exponent beta = +-b of a branch is
formed in one place, _exponents, which every module reads it from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (_INDEX_LIMIT, DomainError, _as_float, _require_finite, _require_member,
                     _require_type, check_abs_int, check_nonneg_int)

__all__ = [
    "Branch",
    "SystemParams",
    "SphericalLabel",
    "CylindricalLabel",
    "RingLabel",
    "channel_constants",
    "admissible_branches",
    "require_admissible",
    "require_label_m",
    "separation_constant_A",
    "energy_level",
    "energy_cylindrical_parts",
    "enumerate_level",
    "ring_relabel",
    "ring_separation_constant",
    "ring_energy",
]


class Branch(enum.Enum):
    """Sign choice in front of b for the axial (theta or z) channel."""

    Plus = 1
    Minus = -1
    __hash__ = object.__hash__   # members are singletons: a table key hashes them in C

    @property
    def sign(self) -> int:
        return self.value


# The accepted range: the paper's domain (omega > 0, P > -1/4, Q >= 0) capped at 1e150, omega
# floored at 1e-150 and |m| below errors._INDEX_LIMIT, so that omega^2, c^2 = Q + m^2 and every
# product of two parameters with a level-sized factor stay inside a double. Each field maps to
# its lowest accepted value (for P the double above -1/4) and the range as its refusal names it.
_CAP = 1e150
_RANGES = {"omega": (1e-150, "[1e-150, 1e150]"),
           "p_strength": (math.nextafter(-0.25, 0.0), "(-1/4, 1e150]"),
           "q_strength": (0.0, "[0, 1e150]")}


def _in_range(name: str, value) -> float:
    """value as a float inside its _RANGES entry; DomainError naming the field and range."""
    low, span = _RANGES[name]
    x = _as_float(value)
    if not low <= x <= _CAP:   # NaN too
        raise DomainError(f"{name} must lie in {span}, got {value!r}")
    return x


@dataclass(frozen=True)
class SystemParams:
    """Potential parameters: (omega^2/2) r^2 + P/(2 z^2) + Q/(2 rho^2), plus m.

    Stored as floats and an int m: one table-cache key per value (genosc._cache). P and Q
    reach every table as P + 1/4 and Q + m^2, the same bits for -0.0 as for 0.0. A value
    outside _RANGES (or |m| >= 2^62) raises DomainError naming the field and its range."""

    omega: float
    p_strength: float
    q_strength: float
    m: int

    def __post_init__(self):
        for name in _RANGES:
            object.__setattr__(self, name, _in_range(name, getattr(self, name)))
        k = check_abs_int(self.m, "m")
        if k >= _INDEX_LIMIT:
            raise DomainError(f"|m| must lie below 2^62, got {self.m}")
        object.__setattr__(self, "m", -k if self.m < 0 else k)


def channel_constants(params: SystemParams) -> tuple[float, float, float]:
    """(b, c, delta) with b = sqrt(P + 1/4), c = sqrt(Q + m^2), delta = c - |m|; DomainError
    unless params is a SystemParams."""
    _require_type(params, SystemParams, "params")
    b = (params.p_strength + 0.25) ** 0.5
    c = (params.q_strength + params.m * params.m) ** 0.5
    return b, c, c - abs(params.m)


def admissible_branches(params: SystemParams) -> tuple[Branch, ...]:
    """Plus always; Minus only while b <= 1/2 (i.e. P <= 0)."""
    b, _, _ = channel_constants(params)
    if b > 0.5:
        return (Branch.Plus,)
    return (Branch.Plus, Branch.Minus)


def require_admissible(params: SystemParams, branch: Branch) -> tuple[float, float, float]:
    """Validate the branch against b and hand back (b, c, delta)."""
    _require_member(branch, Branch, "branch")
    b, c, delta = channel_constants(params)
    if branch is Branch.Minus and b > 0.5:
        raise DomainError(
            f"Minus branch is inadmissible for b = {b} > 1/2 (p_strength = {params.p_strength})")
    return b, c, delta


def _exponents(params: SystemParams, branch: Branch) -> tuple[float, float]:
    """(beta, c) of an admissible branch, beta = +-b the signed axial exponent: the
    one place the branch sign is applied to b."""
    b, c, _ = require_admissible(params, branch)
    return (b if branch is Branch.Plus else -b), c


def require_label_m(m, params: SystemParams) -> None:
    """DomainError unless params is a SystemParams and a state label's m is the system's m."""
    _require_type(params, SystemParams, "params")
    if m != params.m:
        raise DomainError(f"label m = {m} does not match params m = {params.m}")


@dataclass(frozen=True)
class SphericalLabel:
    """State (n_r, q, m, branch) in the spherical separation; level n = n_r + q."""

    n_r: int
    q: int
    m: int
    branch: Branch

    def __post_init__(self):
        check_nonneg_int(self.n_r, "n_r")
        check_nonneg_int(self.q, "q")
        _require_member(self.branch, Branch, "branch")

    @property
    def n(self) -> int:
        return self.n_r + self.q


@dataclass(frozen=True)
class CylindricalLabel:
    """State (n_rho, p, m, branch) in the cylindrical separation; n = n_rho + p."""

    n_rho: int
    p: int
    m: int
    branch: Branch

    def __post_init__(self):
        check_nonneg_int(self.n_rho, "n_rho")
        check_nonneg_int(self.p, "p")
        _require_member(self.branch, Branch, "branch")

    @property
    def n(self) -> int:
        return self.n_rho + self.p


@dataclass(frozen=True)
class RingLabel:
    """Ring-regime (b = 1/2) relabeling: principal N with either l or n3.

    A spherical state maps to (N, l); a cylindrical one to (N, n3). The field
    not determined by the source label stays None.
    """

    N: int
    m: int
    delta: float
    l: int | None = None
    n3: int | None = None

    def __post_init__(self):
        check_nonneg_int(self.N, "N")
        check_abs_int(self.m, "m")
        _ring_delta(self.delta)
        if self.l is not None:
            check_nonneg_int(self.l, "l")
            if self.l < abs(self.m) or self.l > self.N or (self.N - self.l) % 2:
                raise DomainError(
                    f"ring label needs |m| <= l <= N with N - l even, got N={self.N}, "
                    f"l={self.l}, m={self.m}")
        if self.n3 is not None:
            check_nonneg_int(self.n3, "n3")
            if self.n3 > self.N - abs(self.m) or (self.N - abs(self.m) - self.n3) % 2:
                raise DomainError(
                    f"ring label needs 0 <= n3 <= N - |m| with N - |m| - n3 even, got "
                    f"N={self.N}, n3={self.n3}, m={self.m}")


# The closed forms below take one index or an index array, and are the only
# place each is written; the public scalar functions validate and call them.

def _a_q(q, params: SystemParams, branch: Branch):
    """A_q = (2q + c +- b + 1/2)(2q + c +- b + 3/2)."""
    beta, c = _exponents(params, branch)
    base = 2.0 * q + c + beta
    return (base + 0.5) * (base + 1.5)


def _e_n(n, params: SystemParams, branch: Branch):
    """E_n = omega (2n + c +- b + 2)."""
    beta, c = _exponents(params, branch)
    return params.omega * (2.0 * n + c + beta + 2.0)


def _e_rho(n_rho, params: SystemParams, branch: Branch):
    """E_rho = omega (2 n_rho + c + 1)."""
    _, c = _exponents(params, branch)
    return params.omega * (2.0 * n_rho + c + 1.0)


def _e_z(p, params: SystemParams, branch: Branch):
    """E_z = omega (2p +- b + 1)."""
    beta, _ = _exponents(params, branch)
    return params.omega * (2.0 * p + beta + 1.0)


def separation_constant_A(q: int, params: SystemParams, branch: Branch) -> float:
    """Angular separation constant A_q = (2q + c +- b + 1/2)(2q + c +- b + 3/2)."""
    return _a_q(check_nonneg_int(q, "q"), params, branch)


def energy_level(n: int, params: SystemParams, branch: Branch) -> float:
    """E_n = omega (2n + c +- b + 2); degenerate across all splits of n."""
    return _e_n(check_nonneg_int(n, "n"), params, branch)


def energy_cylindrical_parts(n_rho: int, p: int, params: SystemParams,
                             branch: Branch) -> tuple[float, float]:
    """(E_rho, E_z) = (omega (2 n_rho + c + 1), omega (2p +- b + 1))."""
    n_rho = check_nonneg_int(n_rho, "n_rho")
    p = check_nonneg_int(p, "p")
    return _e_rho(n_rho, params, branch), _e_z(p, params, branch)


def enumerate_level(n: int, params: SystemParams) -> list[tuple[SphericalLabel, CylindricalLabel]]:
    """All states at level n: (n+1) per admissible branch, paired by index.

    Pair k holds the spherical label with q = k and the cylindrical label
    with p = k; the pairing is positional bookkeeping, not a physical map.
    """
    n = check_nonneg_int(n, "n")
    out = []
    for branch in admissible_branches(params):
        for k in range(n + 1):
            out.append((SphericalLabel(n_r=n - k, q=k, m=params.m, branch=branch),
                        CylindricalLabel(n_rho=n - k, p=k, m=params.m, branch=branch)))
    return out


def ring_relabel(label, params: SystemParams) -> RingLabel:
    """Map a spherical/cylindrical label to ring quantum numbers at b = 1/2.

    Spherical: l = |m| + 2q + 1 (Plus) or |m| + 2q (Minus), N = 2 n_r + l.
    Cylindrical: n3 = 2p + 1 (Plus) or 2p (Minus), N = |m| + 2 n_rho + n3.
    """
    b, _, delta = channel_constants(params)
    if b != 0.5:
        raise DomainError(f"ring relabeling requires b = 1/2 exactly (P = 0), got b = {b}")
    if not isinstance(label, (SphericalLabel, CylindricalLabel)):
        raise DomainError(f"cannot ring-relabel {type(label).__name__}")
    require_label_m(label.m, params)
    odd = 1 if label.branch is Branch.Plus else 0
    if isinstance(label, SphericalLabel):
        l = abs(label.m) + 2 * label.q + odd
        return RingLabel(N=2 * label.n_r + l, m=label.m, delta=delta, l=l)
    n3 = 2 * label.p + odd
    return RingLabel(N=abs(label.m) + 2 * label.n_rho + n3, m=label.m, delta=delta, n3=n3)


def _ring_delta(delta) -> float:
    """delta as a float; DomainError unless it is nonnegative and finite."""
    d = _as_float(delta)
    if not 0.0 <= d < math.inf:
        raise DomainError(f"delta must be nonnegative and finite, got {delta}")
    return d


def ring_separation_constant(l: int, delta: float) -> float:
    """A_l(delta) = (l + delta)(l + delta + 1); reduces to l(l+1) at delta = 0."""
    l = check_nonneg_int(l, "l")
    shifted = _as_float(l) + _ring_delta(delta)   # an l past a double reads as NaN
    return _require_finite(shifted * (shifted + 1.0), f"A_{l} at delta={delta} leaves double range")


def ring_energy(N: int, delta: float, omega: float) -> float:
    """E_N = omega (N + delta + 3/2); the isotropic-oscillator ladder at delta = 0. omega
    obeys SystemParams' range."""
    N = check_nonneg_int(N, "N")
    d = _ring_delta(delta)
    return _require_finite(_in_range("omega", omega) * (_as_float(N) + d + 1.5),
                           f"E_{N} at delta={delta}, omega={omega} leaves double range")
