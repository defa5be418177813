"""Independent numerical cross-checks for the closed-form machinery.

Every oracle here recomputes a quantity through Gauss quadrature against the
pointwise basis functions, never through the coefficient formulas under
test.  Each reads every degree it needs from one call of the family's level
helper (bases._angular, _radial_sph, _radial_level, _radial_cyl, _axial,
morse._wavefunctions; the public evaluators are their one-row views) and
contracts once.  A Gram family runs as one pass over a list of systems
(_grams): one rule per system, their nodes stacked a row per system, one
recurrence for every system's rows and one contraction, each system's
report equal to its own gram_matrix call bit for bit; the verification
suite runs each family once for all of its systems, and the
bi-orthogonality pairs of one level on one recurrence (_bi_quads).
Integrands are divided by the rule's weight function first, which leaves
exact polynomials, so any residual measures implementation error rather than
quadrature truncation.  The overlap table is interbasis._overlap_table, the
one overlap route (an exact tensor Gauss rule, capped at n = 100).  Results
come back as CheckReport rows; run_verification_suite() executes the fixed
table of named checks the CLI reports on.  An integrand past a double (omega
near either end of one) raises NumericError, never an inf or a NaN.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bases import _angular, _axial, _radial_cyl, _radial_level, _radial_sph
from .errors import (DomainError, NumericError, _as_float, _require_member, check_level_index,
                     check_nonneg_int)
from .interbasis import _overlap_table, w_matrix
from .model import Branch, SystemParams, _exponents, admissible_branches
from .morse import MorseParams, _wavefunctions, normalizable_levels
from .specfun import (_base, _column, _dyadic, _ratio_sum, build_quadrature, gamma_sign_ln,
                      ln_gamma)

__all__ = [
    "CheckReport",
    "GramFamily",
    "SUITE_MANIFEST",
    "bi_orthogonality",
    "bi_orthogonality_hypergeometric",
    "gram_matrix",
    "reciprocal_gamma",
    "run_verification_suite",
    "w_overlap_oracle",
]

_TOL_SMALL = 1e-10   # levels up to 6
_TOL_LARGE = 1e-8    # levels above 6
_DOUBLE_MAX = sys.float_info.max


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


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for any real x or +inf, exactly zero at the poles; NaN and -inf
    raise DomainError (from gamma_sign_ln)."""
    x = _as_float(x)
    if x <= 0.0 and x.is_integer():
        return 0.0
    sign, ln_abs = gamma_sign_ln(x)
    return sign * math.exp(-ln_abs)


def _bi_indices(n, q, q_prime) -> tuple[int, int, int]:
    n, q = check_level_index(n, q, "q")
    return n, q, check_level_index(n, q_prime, "q'")[1]


def _bi_expected(q: int, q_prime: int, params: SystemParams, branch: Branch) -> float:
    """Closed-form J_{q q'}: omega / (2q + c +- b + 1) on the diagonal, else 0."""
    beta, c = _exponents(params, branch)
    return params.omega / (2 * q + c + beta + 1.0) if q == q_prime else 0.0


def _bi_name(route: str, n: int, q: int, q_prime: int, params, branch: Branch) -> str:
    return (f"bi-orthogonality {route} n={n} q={q} q'={q_prime} "
            f"{_params_tag(params)} {branch.name.lower()}")


def bi_orthogonality(n: int, q: int, q_prime: int, params: SystemParams,
                     branch: Branch) -> CheckReport:
    """Plain-dr overlap of two same-level spherical radial factors.

    J_{q q'} = int_0^inf R_{n-q', q'}(r) R_{n-q, q}(r) dr is diagonal at a
    fixed level with value omega / (2q + c +- b + 1).  Measured here with a
    Gauss-Laguerre rule in t = omega r^2 after dividing out the shared
    weight t^(q + q' + c +- b) e^{-t}; the closed form is the expectation.
    NumericError where the overlap leaves double range (omega near 1e300).
    """
    n, q, q_prime = _bi_indices(n, q, q_prime)
    _require_member(branch, Branch, "branch")
    (report,) = _bi_quads([_bi_name("quad", n, q, q_prime, params, branch)], n,
                          [(q, q_prime)], params, branch)
    return report


def _bi_quads(names, n: int, pairs, params: SystemParams, branch: Branch) -> list[CheckReport]:
    """bi_orthogonality of each pair (q, q') of level n at validated indices, reported under
    names in order: one recurrence of the level gives every label's row at the nodes of
    every pair's rule, side by side. A point's rows follow the point set only through the
    recurrence's renormalisation period, which no suite level reaches."""
    beta, c = _exponents(params, branch)
    omega = params.omega
    rules = {}   # combined exponent q + q' + c +- b -> its rule
    for q, q_prime in pairs:
        shared = q + q_prime + c + beta
        # admissible labels keep the combined exponent integrable
        assert shared > -1.0
        if shared not in rules:
            rules[shared] = build_quadrature("laguerre", n + 2, alpha=shared)
    nodes = [rule.nodes for rule in rules.values()]
    qs = sorted({q for pair in pairs for q in pair})   # their degrees n - q are distinct
    vals = _radial_level(n, qs, c, beta, omega,
                         _radius(nodes[0] if len(nodes) == 1 else np.concatenate(nodes), omega))
    # each label's row, a block of n + 2 nodes per rule
    rows = dict(zip(qs, vals.reshape(len(qs), len(rules), n + 2)))
    at = dict(zip(rules, range(len(rules))))
    reports = []
    for name, (q, q_prime) in zip(names, pairs):
        shared = q + q_prime + c + beta
        rule, k = rules[shared], at[shared]
        # t^(shared + 1/2) e^-t times a polynomial: the scaled weights carry all but t^(1/2)
        measured = float(np.einsum("i,i,i->", rule.scaled_weights / np.sqrt(rule.nodes),
                                   rows[q][k], rows[q_prime][k])) / (2.0 * math.sqrt(omega))
        if not math.isfinite(measured):   # the sum overflows silently
            raise NumericError(f"{name}: the overlap leaves double range")
        reports.append(_report(name, measured, _bi_expected(q, q_prime, params, branch),
                               _tolerance(n)))
    return reports


def _radius(x, omega):
    """sqrt(x / omega) at a rule's nodes x (ascending), or at a stack's rows with a tuple of
    one omega per row. NumericError where x / omega passes a double (omega near 0)."""
    stack = type(omega) is tuple
    for top, w in zip(x[:, -1].tolist() if stack else (x[-1],), omega if stack else (omega,)):
        if top > w * _DOUBLE_MAX:
            raise NumericError(f"omega={w:g} puts a quadrature node over omega past a double")
    return np.sqrt(x / _column(omega))


def bi_orthogonality_hypergeometric(n: int, q: int, q_prime: int,
                                    params: SystemParams, branch: Branch) -> float:
    """Second route to J_{q q'}: a terminating 2F1 at unit argument times a reciprocal Gamma.

    The value collapses to the same diagonal as bi_orthogonality: the
    terminating 2F1 vanishes for q > q' and the 1/Gamma factor for q < q',
    so only q = q' survives with omega / (2q + c +- b + 1). The 2F1 is summed exactly
    at the exact gamma = c +- b: 0.0 off the diagonal at every level, a few ulps on it.
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
    gamma_sum = g / scale
    ln_pref = ln_gamma(q + q_prime + gamma_sum + 1.0) - ln_gamma(2 * q_prime + gamma_sum + 2.0)
    ln_ratio = 0.5 * (ln_gamma(n - q_prime + 1.0) + ln_gamma(n + q_prime + gamma_sum + 2.0)
                      - ln_gamma(n - q + 1.0) - ln_gamma(n + q + gamma_sum + 2.0))
    return (params.omega * math.exp(ln_pref + ln_ratio)
            * reciprocal_gamma(q - q_prime + 1.0) * hyp)


class GramFamily(enum.Enum):
    """Which one-dimensional basis family a Gram check targets."""

    Theta = "theta"
    RadialSph = "radial-spherical"
    RadialCyl = "radial-cylindrical"
    Axial = "axial"
    Morse = "morse"


# Each family gives, for a list of systems, the Gram rule of each (kind, alpha, beta, node
# power, scale) and rows(x), every degree 0..n_max of every system at its rule's nodes (x
# holds a row of nodes per system) from one level-helper call, which takes one system's
# floats or a stack's tuples and runs one recurrence for the stack. Each row
# divides out x^power e^{-x/2} (Laguerre) or (1-x)^(alpha/2) (1+x)^power (Jacobi), leaving
# a polynomial of degree <= n_max: the rule of n_max + 2 points is exact.

def _system_stacks(systems):
    """[(beta, c, omega)] of each (params, branch) system, and the three stacked."""
    each = [_exponents(params, branch) + (params.omega,) for params, branch in systems]
    return each, each[0] if len(each) == 1 else tuple(zip(*each))


def _power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, inf past a double (where Python's float power raises)."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _gram_theta(n_max, systems):
    # x = cos 2 theta: sin theta dtheta carries the extra cos^(1/2) per row. A reduced row
    # is 2^(1/4) p_q (orthonormal Jacobi), so the scale is 2^(-3/2) at any c and b
    each, (betas, cs, _) = _system_stacks(systems)
    return ([("jacobi", c, beta, 0.25 + 0.5 * beta, 2.0 ** -1.5) for beta, c, _ in each],
            lambda x: _angular(range(n_max + 1), cs, betas, 0.5 * np.arccos(x)))


def _gram_radial_sph(n_max, systems):
    # q = 0, one order for every row: one Gauss rule covers the family, and
    # bi_orthogonality exercises the q > 0 normalizations
    each, (betas, cs, omegas) = _system_stacks(systems)
    return ([("laguerre", alpha0, 0.0, 0.5 * alpha0 - 0.25, 0.5 * _power_or_inf(omega, -1.5))
             for beta, c, omega in each for alpha0 in (c + beta + 1.0,)],
            lambda x: _radial_sph(range(n_max + 1), 0, cs, betas, omegas, _radius(x, omegas)))


def _gram_radial_cyl(n_max, systems):
    each, (_, cs, omegas) = _system_stacks(systems)
    return ([("laguerre", c, 0.0, 0.5 * c, 0.5 / omega) for _, c, omega in each],
            lambda x: _radial_cyl(range(n_max + 1), cs, omegas, _radius(x, omegas)))


def _gram_axial(n_max, systems):
    each, (betas, _, omegas) = _system_stacks(systems)
    return ([("laguerre", beta, 0.0, 0.25 + 0.5 * beta, 0.5 / math.sqrt(omega))
             for beta, _, omega in each],
            lambda x: _axial(range(n_max + 1), betas, omegas, _radius(x, omegas)))


def _gram_morse(n_max, systems):
    # psi_p psi_p' dx = w^(2 lam - p - p' - 2) e^{-w} L_p L_p' dw / a: the rule
    # takes w^(2 lam - 2 n_max - 2), each row keeps w^(n_max - p) L_p. One well per pass:
    # wells of other depths share no recurrence
    ((params, _),) = systems
    lam, a, count = params.lam, params.a, len(normalizable_levels(params))
    if n_max >= count:
        raise DomainError(f"only {count} normalizable Morse levels here, "
                          f"cannot Gram up to p={n_max}")
    return ([("laguerre", 2.0 * lam - 2.0 * n_max - 2.0, 0.0, lam - n_max - 0.5, 1.0 / a)],
            lambda w: _wavefunctions(range(n_max + 1), params, -np.log(w / (2.0 * lam)) / a))


# family -> (parameter type, target multiple of the identity, rules and rows)
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

    Returns the matrix and a CheckReport whose measured value is the largest
    entrywise deviation from the expected multiple of the identity (1/2 for
    the half-line-normalized theta and axial families, 1 otherwise). Every
    family, Morse included, builds one Gauss rule and reads every degree from
    one recurrence: the family pass of the verification suite, run on one system.
    NumericError where the matrix leaves double range (omega near either end of it).
    """
    if not isinstance(family, GramFamily):
        raise DomainError(f"family must be a GramFamily member, got {family!r}")
    n_max = check_nonneg_int(n_max, "n_max")
    params_type = _GRAM[family][0]
    if not isinstance(params, params_type):
        raise DomainError(f"{family.value} Gram checks need "
                          f"{params_type.__name__}, got {type(params).__name__}")
    _require_member(branch, Branch, "branch")
    gram, (report,) = _grams(family, n_max, [(params, branch)],
                             [_gram_name(family, n_max, params, branch)])
    return gram, report


def _grams(family: GramFamily, n_max: int, systems, names) -> tuple[np.ndarray, list[CheckReport]]:
    """gram_matrix of each of a list of validated (params, branch) systems, reported under
    names in order, and the matrices (one system's, or stacked): one rule per system (every
    rule of n_max + 2 points, its nodes a row of the stack), one row pass and one
    contraction. NumericError where a matrix leaves double range."""
    _, target, family_rule = _GRAM[family]
    rules, rows = family_rule(n_max, systems)
    parts = []   # each system's nodes, weights, root of the weight it divides out, scale
    for name, (kind, alpha, beta, power, scale) in zip(names, rules):
        if not 0.0 < scale < math.inf:   # omega near either end of a double
            raise NumericError(f"{name}: the Gram scale leaves double range")
        quad = build_quadrature(kind, n_max + 2, alpha=alpha, beta=beta)
        x = quad.nodes
        if kind == "laguerre":   # the scaled weights carry the rule's x^alpha e^-x
            root = x ** (0.5 * alpha - power)
        else:
            root = (1.0 - x) ** (-0.5 * alpha) * (1.0 + x) ** -power
        parts.append((x, quad.scaled_weights, root, scale))
    if len(parts) == 1:
        ((x, weights, root, scale),) = parts
    else:   # a row per system
        x, weights, root, scale = map(np.array, zip(*parts))
        scale = scale[:, None, None]
    reduced = rows(x) * root
    # numpy's own loop, not BLAS: the sum order does not follow the thread count
    gram = scale * np.einsum("i...p,...p,j...p->...ij", reduced, weights, reduced)
    off = gram.copy()   # gram - target I, its diagonal a stride of n_max + 2
    off.reshape(off.shape[:-2] + (-1,))[..., ::n_max + 2] -= target
    deviation = np.abs(off).max(axis=(-2, -1)).reshape(-1)
    reports = []
    for name, measured in zip(names, deviation.tolist()):
        if not math.isfinite(measured):   # the sum overflows silently
            raise NumericError(f"{name}: the Gram matrix leaves double range")
        reports.append(_report(name, measured, 0.0, _tolerance(n_max)))
    gram.flags.writeable = False
    return gram, reports


def _overlap_name(n: int, params: SystemParams, branch: Branch) -> str:
    return f"overlap vs closed form n={n} {_params_tag(params)} {branch.name.lower()}"


def w_overlap_oracle(n: int, params: SystemParams,
                     branch: Branch) -> tuple[np.ndarray, CheckReport]:
    """Interbasis table recomputed as overlap integrals of the bases.

    The table is interbasis._overlap_table (w_integral_oracle reads its
    entries), refused past W_OVERLAP_MAX_LEVEL. The report compares it
    entrywise against w_matrix().
    """
    n = check_nonneg_int(n, "level n")
    _require_member(branch, Branch, "branch")
    return _overlap(_overlap_name(n, params, branch), n, params, branch)


def _overlap(name: str, n: int, params: SystemParams,
             branch: Branch) -> tuple[np.ndarray, CheckReport]:
    """w_overlap_oracle at a validated level, reported under name."""
    table = _overlap_table(n, params, branch)
    deviation = float(np.max(np.abs(table - w_matrix(n, params, branch).entries)))
    return table, _report(name, deviation, 0.0, _tolerance(n))


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


def _suite():
    """The verification suite: its row names in report order, and (rows, check) pairs whose
    check returns the CheckReports of those rows (indices into the names) under their
    names, formed once here. The checks run the oracles' bodies on the suite's fixed, valid
    arguments: each Gram family in one pass over all of its systems, and each
    bi-orthogonality case's pairs on one recurrence of their level.
    """
    systems = [(params, branch) for params in _SUITE_SETS for branch in admissible_branches(params)]
    families = (GramFamily.Theta, GramFamily.RadialSph, GramFamily.RadialCyl, GramFamily.Axial)
    names = [_gram_name(family, _GRAM_LEVEL, params, branch)
             for params, branch in systems for family in families]
    checks = [(range(i, len(names), len(families)),
               lambda family=family, group=names[i::len(families)]:
               _grams(family, _GRAM_LEVEL, systems, group)[1])
              for i, family in enumerate(families)]

    def add(group, check):
        checks.append((range(len(names), len(names) + len(group)), check))
        names.extend(group)

    for params, branch, n, pairs in _BI_CASES:
        group = [_bi_name("quad", n, q, qp, params, branch) for q, qp in pairs]
        add(group, lambda group=group, args=(n, pairs, params, branch): _bi_quads(group, *args))
    for params, branch, n, pairs in _HYP_CASES:
        for q, qp in pairs:
            name = _bi_name("2F1", n, q, qp, params, branch)
            add([name], lambda name=name, args=(n, q, qp, params, branch): [_report(
                name, bi_orthogonality_hypergeometric(*args), _bi_expected(*args[1:]),
                _tolerance(args[0]))])
    for params, branch, n in _OVERLAP_CASES:
        name = _overlap_name(n, params, branch)
        add([name], lambda name=name, args=(n, params, branch): [_overlap(name, *args)[1]])
    for mparams, n_max in _MORSE_CASES:
        group = [_gram_name(GramFamily.Morse, n_max, mparams, Branch.Plus)]
        add(group, lambda group=group, args=(n_max, [(mparams, Branch.Plus)]):
            _grams(GramFamily.Morse, *args, group)[1])
    return tuple(names), tuple(checks)


SUITE_MANIFEST, _SUITE = _suite()


def run_verification_suite() -> list[CheckReport]:
    """Run every check of the suite table and return its CheckReport rows.

    The row order and count are deterministic; SUITE_MANIFEST lists the
    names so callers can confirm nothing was skipped.
    """
    reports = [None] * len(SUITE_MANIFEST)
    for rows, check in _SUITE:
        for row, report in zip(rows, check()):
            reports[row] = report
    return reports
