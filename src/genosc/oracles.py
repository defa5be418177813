"""Independent numerical cross-checks for the closed-form machinery.

Every oracle here recomputes a quantity through Gauss quadrature against the
pointwise basis functions, never through the coefficient formulas under
test.  Each reads every degree it needs from one call of the family's level
helper (bases._angular, _radial_sph, _radial_level, _radial_cyl, _axial,
morse._wavefunctions; the public evaluators are their one-row views) and
contracts once; a Gram matrix is a fresh array on every call.
Integrands are divided by the rule's weight function first, which leaves
exact polynomials, so any residual measures implementation error rather than
quadrature truncation.  The overlap table is interbasis._overlap_table, the
one overlap route (an exact tensor Gauss rule, capped at n = 100).  Results
come back as CheckReport rows; run_verification_suite() reports the fixed
table of named checks the CLI runs, each a public oracle at fixed arguments,
built once (_suite_reports in genosc._cache).  An integrand past a double
(a Morse a near either end of one) raises NumericError, never an inf or a NaN.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._cache import LEVELS, cached
from .bases import _angular, _axial, _radial_cyl, _radial_level, _radial_sph
from .errors import (DomainError, NumericError, _require_member, check_level_index,
                     check_nonneg_int)
from .interbasis import _overlap_table, w_matrix
from .model import Branch, SystemParams, _exponents, admissible_branches
from .morse import MorseParams, _wavefunctions, normalizable_levels
from .specfun import _base, _dyadic, _ratio_sum, build_quadrature

__all__ = [
    "CheckReport",
    "GramFamily",
    "SUITE_MANIFEST",
    "bi_orthogonality",
    "bi_orthogonality_hypergeometric",
    "gram_matrix",
    "run_verification_suite",
    "w_overlap_oracle",
]

_TOL_SMALL = 1e-10   # levels up to 6
_TOL_LARGE = 1e-8    # levels above 6


@dataclass(frozen=True)
class CheckReport:
    """One verification row: measured vs expected at a fixed tolerance.

    ``passed`` is ``passes(tolerance)``.
    """

    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    relative: bool = False

    def passes(self, tolerance: float) -> bool:
        """|measured - expected| <= tolerance, relative to |expected| when ``relative``
        (where expected is 0.0, only measured == 0.0 passes)."""
        return _within(self.measured, self.expected, tolerance, self.relative)


def _within(measured: float, expected: float, tolerance: float, relative: bool) -> bool:
    gap = abs(measured - expected)
    if relative:
        if not expected:   # no gap is small relative to zero but none at all
            return bool(measured == expected)
        gap /= abs(expected)
    return bool(gap <= tolerance)


def _report(name: str, measured: float, expected: float, tolerance: float,
            relative: bool = False) -> CheckReport:
    measured, expected, tolerance = float(measured), float(expected), float(tolerance)
    return CheckReport(name=name, measured=measured, expected=expected, tolerance=tolerance,
                       passed=_within(measured, expected, tolerance, relative),
                       relative=relative)


def _tolerance(level: int) -> float:
    return _TOL_SMALL if level <= 6 else _TOL_LARGE


def _params_tag(params) -> str:
    if isinstance(params, MorseParams):
        return f"(V0={params.v0:g}, a={params.a:g})"
    return (f"(omega={params.omega:g}, P={params.p_strength:g}, "
            f"Q={params.q_strength:g}, m={params.m})")


def _bi_indices(n, q, q_prime) -> tuple[int, int, int]:
    n, q = check_level_index(n, q, "q")
    return n, q, check_level_index(n, q_prime, "q'")[1]


def _bi_name(route: str, n: int, q: int, q_prime: int, params, branch: Branch) -> str:
    return (f"bi-orthogonality {route} n={n} q={q} q'={q_prime} "
            f"{_params_tag(params)} {branch.name.lower()}")


def _bi_report(route: str, n: int, q: int, q_prime: int, params: SystemParams,
               branch: Branch, measured: float) -> CheckReport:
    """A measured J_{q q'} against its closed form, omega / (2q + c +- b + 1) on the
    diagonal and 0 off it, held to _tolerance(n) omega, as J scales with omega."""
    beta, c = _exponents(params, branch)
    expected = params.omega / (2 * q + c + beta + 1.0) if q == q_prime else 0.0
    return _report(_bi_name(route, n, q, q_prime, params, branch), measured, expected,
                   _tolerance(n) * params.omega)


def bi_orthogonality(n: int, q: int, q_prime: int, params: SystemParams,
                     branch: Branch) -> CheckReport:
    """Plain-dr overlap of two same-level spherical radial factors.

    J_{q q'} = int_0^inf R_{n-q', q'}(r) R_{n-q, q}(r) dr is diagonal at a
    fixed level with value omega / (2q + c +- b + 1).  Measured here with a
    Gauss-Laguerre rule in t = omega r^2 after dividing out the shared
    weight t^(q + q' + c +- b) e^{-t}; the closed form is the expectation, held
    to 1e-10 omega (1e-8 omega past level 6), as J scales with omega.
    """
    n, q, q_prime = _bi_indices(n, q, q_prime)
    _require_member(branch, Branch, "branch")
    beta, c = _exponents(params, branch)
    omega = params.omega
    shared = q + q_prime + c + beta
    # admissible labels keep the combined exponent integrable
    assert shared > -1.0
    rule = build_quadrature("laguerre", n + 2, alpha=shared)
    # one recurrence of the level for both labels; its degrees n - q must be distinct
    qs = [q] if q == q_prime else [q, q_prime]
    vals = _radial_level(n, qs, c, beta, omega, np.sqrt(rule.nodes / omega))
    # t^(shared + 1/2) e^-t times a polynomial: the scaled weights carry all but t^(1/2)
    measured = float(np.einsum("i,i,i->", rule.scaled_weights / np.sqrt(rule.nodes),
                               vals[0], vals[-1])) / (2.0 * math.sqrt(omega))
    return _bi_report("quad", n, q, q_prime, params, branch, measured)


def bi_orthogonality_hypergeometric(n: int, q: int, q_prime: int,
                                    params: SystemParams, branch: Branch) -> float:
    """Second route to J_{q q'}: a terminating 2F1 at unit argument times a reciprocal Gamma.

    The value collapses to the same diagonal as bi_orthogonality: the
    terminating 2F1 vanishes for q > q' and the 1/Gamma factor for q < q',
    so only q = q' survives with omega / (2q + c +- b + 1). The 2F1 is summed exactly
    at the exact gamma = c +- b: 0.0 off the diagonal at every level, a few ulps on it
    at any c, as its Gamma ratios are finite products, never differences of lgammas.
    """
    n, q, q_prime = _bi_indices(n, q, q_prime)
    if q < q_prime:
        return 0.0   # 1/Gamma(q - q' + 1) at a nonpositive integer
    scale, (beta, c) = _dyadic(*_exponents(params, branch))
    g = beta + c   # gamma = c +- b, over scale
    # 2F1(q' - q, q + q' + gamma + 1; 2q' + gamma + 2; 1), 0 for q > q' (Chu-Vandermonde)
    hyp = _ratio_sum(((q_prime - q, 1), _base((q + q_prime + 1) * scale + g, scale)),
                     (_base((2 * q_prime + 2) * scale + g, scale), (1, 1)), q - q_prime + 1)
    if not hyp:
        return 0.0
    # a nonzero 2F1 means q = q', where 1/Gamma(q - q' + 1) = 1, the root's Gamma ratios
    # Gamma(n - q' + 1) / Gamma(n - q + 1) and Gamma(n + q' + gamma + 2) / Gamma(n + q + gamma + 2)
    # are empty products and Gamma(q + q' + gamma + 1) / Gamma(2q' + gamma + 2) is
    # 1 / (2q + gamma + 1), its exact quotient rounded once
    return params.omega * hyp * (scale / ((2 * q + 1) * scale + g))


class GramFamily(enum.Enum):
    """Which one-dimensional basis family a Gram check targets."""

    Theta = "theta"
    RadialSph = "radial-spherical"
    RadialCyl = "radial-cylindrical"
    Axial = "axial"
    Morse = "morse"
    __hash__ = object.__hash__   # members are singletons: a table key hashes them in C


# Each family gives its Gram rule (kind, alpha, beta, node power, scale) and
# rows(x), every degree 0..n_max at the nodes from one level-helper call. Each
# row divides out x^power e^{-x/2} (Laguerre) or (1-x)^(alpha/2) (1+x)^power
# (Jacobi), leaving a polynomial of degree <= n_max: the rule of n_max + 2
# points is exact.

def _gram_theta(n_max, params, branch):
    # x = cos 2 theta: sin theta dtheta carries the extra cos^(1/2) per row. A reduced row
    # is 2^(1/4) p_q (orthonormal Jacobi), so the scale is 2^(-3/2) at any c and b
    beta, c = _exponents(params, branch)
    return (("jacobi", c, beta, 0.25 + 0.5 * beta, 2.0 ** -1.5),
            lambda x: _angular(range(n_max + 1), c, beta, 0.5 * np.arccos(x)))


def _gram_radial_sph(n_max, params, branch):
    # q = 0, one order for every row: one Gauss rule covers the family, and
    # bi_orthogonality exercises the q > 0 normalizations
    beta, c = _exponents(params, branch)
    omega = params.omega
    alpha0 = c + beta + 1.0
    return (("laguerre", alpha0, 0.0, 0.5 * alpha0 - 0.25, 0.5 * omega ** -1.5),
            lambda x: _radial_sph(range(n_max + 1), 0, c, beta, omega, np.sqrt(x / omega)))


def _gram_radial_cyl(n_max, params, branch):
    _, c = _exponents(params, branch)
    omega = params.omega
    return (("laguerre", c, 0.0, 0.5 * c, 0.5 / omega),
            lambda x: _radial_cyl(range(n_max + 1), c, omega, np.sqrt(x / omega)))


def _gram_axial(n_max, params, branch):
    beta, _ = _exponents(params, branch)
    omega = params.omega
    return (("laguerre", beta, 0.0, 0.25 + 0.5 * beta, 0.5 / math.sqrt(omega)),
            lambda x: _axial(range(n_max + 1), beta, omega, np.sqrt(x / omega)))


def _gram_morse(n_max, params, branch):
    # psi_p psi_p' dx = w^(2 lam - p - p' - 2) e^{-w} L_p L_p' dw / a: the rule
    # takes w^(2 lam - 2 n_max - 2), each row keeps w^(n_max - p) L_p
    lam, a, count = params.lam, params.a, len(normalizable_levels(params))
    if n_max >= count:
        raise DomainError(f"only {count} normalizable Morse levels here, "
                          f"cannot Gram up to p={n_max}")
    return (("laguerre", 2.0 * lam - 2.0 * n_max - 2.0, 0.0, lam - n_max - 0.5, 1.0 / a),
            lambda w: _wavefunctions(range(n_max + 1), params, -np.log(w / (2.0 * lam)) / a))


# family -> (parameter type, target multiple of the identity, rule and rows)
_GRAM = {
    GramFamily.Theta: (SystemParams, 0.5, _gram_theta),
    GramFamily.RadialSph: (SystemParams, 1.0, _gram_radial_sph),
    GramFamily.RadialCyl: (SystemParams, 1.0, _gram_radial_cyl),
    GramFamily.Axial: (SystemParams, 0.5, _gram_axial),
    GramFamily.Morse: (MorseParams, 1.0, _gram_morse),
}


def _gram_name(family: GramFamily, n_max: int, params, branch: Branch) -> str:
    branch_tag = "" if family is GramFamily.Morse else f" {branch.name.lower()}"
    return f"gram {family.value} n<={n_max} {_params_tag(params)}{branch_tag}"


def gram_matrix(family: GramFamily, n_max: int, params,
                branch: Branch = Branch.Plus) -> tuple[np.ndarray, CheckReport]:
    """Quadrature Gram matrix of one basis family plus its identity check.

    Returns the matrix, a fresh array, and a CheckReport whose measured value is the
    largest entrywise deviation from the expected multiple of the identity (1/2 for
    the half-line-normalized theta and axial families, 1 otherwise). Every
    family, Morse included, builds one Gauss rule and reads every degree from
    one recurrence; a Morse well has no branch, so branch is ignored there.
    NumericError where the matrix leaves double range (a Morse a near either end of one).
    """
    if not isinstance(family, GramFamily):
        raise DomainError(f"family must be a GramFamily member, got {family!r}")
    n_max = check_nonneg_int(n_max, "n_max")
    params_type, target, family_rule = _GRAM[family]
    if not isinstance(params, params_type):
        raise DomainError(f"{family.value} Gram checks need "
                          f"{params_type.__name__}, got {type(params).__name__}")
    _require_member(branch, Branch, "branch")
    name = _gram_name(family, n_max, params, branch)
    (kind, alpha, beta, power, scale), rows = family_rule(n_max, params, branch)
    if not 0.0 < scale < math.inf:
        raise NumericError(f"{family.value} Gram scale leaves double range at {params}")
    rule = build_quadrature(kind, n_max + 2, alpha=alpha, beta=beta)
    x = rule.nodes
    if kind == "laguerre":   # the scaled weights carry the rule's x^alpha e^-x
        root = x ** (0.5 * alpha - power)
    else:
        root = (1.0 - x) ** (-0.5 * alpha) * (1.0 + x) ** -power
    reduced = rows(x) * root
    # numpy's own loop, not BLAS: the sum order does not follow the thread count
    gram = scale * np.einsum("ip,p,jp->ij", reduced, rule.scaled_weights, reduced)
    deviation = float(np.max(np.abs(gram - target * np.eye(n_max + 1))))
    if not math.isfinite(deviation):   # the sum overflows silently
        raise NumericError(f"{name}: the Gram matrix leaves double range")
    return gram, _report(name, deviation, 0.0, _tolerance(n_max))


def _overlap_name(n: int, params: SystemParams, branch: Branch) -> str:
    return f"overlap vs closed form n={n} {_params_tag(params)} {branch.name.lower()}"


def w_overlap_oracle(n: int, params: SystemParams,
                     branch: Branch) -> tuple[np.ndarray, CheckReport]:
    """Interbasis table recomputed as overlap integrals of the bases.

    The table is interbasis._overlap_table, refused past W_OVERLAP_MAX_LEVEL, and
    with AccuracyError where its weight function (1 - u)^c (1 + u)^(+-b) leaves double
    range at a Jacobi node (from c or b ~ 1024). The report compares it entrywise
    against w_matrix().
    """
    n = check_nonneg_int(n, "level n")
    _require_member(branch, Branch, "branch")
    table = _overlap_table(n, params, branch)
    deviation = float(np.max(np.abs(table - w_matrix(n, params, branch).entries)))
    return table, _report(_overlap_name(n, params, branch), deviation, 0.0, _tolerance(n))


_SUITE_SETS = (
    SystemParams(omega=1.0, p_strength=0.05, q_strength=0.5, m=1),
    SystemParams(omega=1.0, p_strength=2.0, q_strength=3.0, m=0),
    SystemParams(omega=2.0, p_strength=0.1, q_strength=0.0, m=2),
    SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1),
)

_GRAM_LEVEL = 4

_BI_CASES = (
    (_SUITE_SETS[0], Branch.Plus, 4, ((0, 0), (2, 2), (1, 3), (3, 1), (4, 0))),
    (_SUITE_SETS[3], Branch.Minus, 3, ((0, 0), (1, 2))),
)

_HYP_CASES = (
    (_SUITE_SETS[0], Branch.Plus, 4, ((2, 2), (3, 1))),
)

_OVERLAP_CASES = (
    (_SUITE_SETS[0], Branch.Plus, 2),
    (_SUITE_SETS[3], Branch.Plus, 2),
    (_SUITE_SETS[3], Branch.Minus, 2),
    (_SUITE_SETS[1], Branch.Plus, 3),
)

_MORSE_CASES = (
    (MorseParams(v0=2.0, a=1.0), 1),
    (MorseParams(v0=5.12, a=1.0), 2),
)


def _suite() -> tuple[tuple[str, Callable[[], CheckReport]], ...]:
    """The verification suite as (name, check) rows, in report order: each check is a
    public oracle at the row's fixed, valid arguments (a 2F1 row reports
    bi_orthogonality_hypergeometric's value through _bi_report)."""
    def gram(family, n_max, params, branch=Branch.Plus):
        return (_gram_name(family, n_max, params, branch),
                lambda: gram_matrix(family, n_max, params, branch)[1])

    def bi(n, q, qp, params, branch):
        return (_bi_name("quad", n, q, qp, params, branch),
                lambda: bi_orthogonality(n, q, qp, params, branch))

    def hyp(n, q, qp, params, branch):
        return (_bi_name("2F1", n, q, qp, params, branch),
                lambda: _bi_report("2F1", n, q, qp, params, branch,
                                   bi_orthogonality_hypergeometric(n, q, qp, params, branch)))

    def overlap(n, params, branch):
        return _overlap_name(n, params, branch), lambda: w_overlap_oracle(n, params, branch)[1]

    families = (GramFamily.Theta, GramFamily.RadialSph, GramFamily.RadialCyl, GramFamily.Axial)
    return (*(gram(family, _GRAM_LEVEL, params, branch) for params in _SUITE_SETS
              for branch in admissible_branches(params) for family in families),
            *(bi(n, q, qp, params, branch)
              for params, branch, n, pairs in _BI_CASES for q, qp in pairs),
            *(hyp(n, q, qp, params, branch)
              for params, branch, n, pairs in _HYP_CASES for q, qp in pairs),
            *(overlap(n, params, branch) for params, branch, n in _OVERLAP_CASES),
            *(gram(GramFamily.Morse, n_max, mparams) for mparams, n_max in _MORSE_CASES))


_SUITE = _suite()

SUITE_MANIFEST: tuple[str, ...] = tuple(name for name, _ in _SUITE)


@cached(LEVELS)
def _suite_reports() -> tuple[CheckReport, ...]:
    """Every suite row's CheckReport in manifest order: the suite takes no argument, so
    its reports are one table, built by the first run."""
    return tuple(check() for _, check in _SUITE)


def run_verification_suite() -> list[CheckReport]:
    """Every check of the suite table as a fresh list of CheckReport rows.

    The row order and count are deterministic; SUITE_MANIFEST lists the
    names so callers can confirm nothing was skipped. The reports are built
    once per process while they stay cached (genosc._cache).
    """
    return list(_suite_reports())
