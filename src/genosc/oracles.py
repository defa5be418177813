"""Independent numerical cross-checks for the closed-form machinery.

Every oracle here recomputes a quantity through Gauss quadrature against the
pointwise basis evaluators, never through the coefficient formulas under
test.  Integrands are divided by the rule's weight function first, which
leaves exact polynomials, so any residual measures implementation error
rather than quadrature truncation.  Results come back as CheckReport rows;
run_verification_suite() executes the fixed manifest the CLI reports on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bases import radial_cylindrical, radial_spherical, theta_angular, z_axial
from .errors import DomainError
from .interbasis import w_matrix
from .model import Branch, SystemParams, admissible_branches, require_admissible
from .morse import MorseParams, bound_state_count, morse_wavefunction
from .specfun import build_quadrature, gamma_sign_ln, hyp2f1_unit, ln_gamma

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

# overlap levels above this would need quadratures past the comfortable
# exact-polynomial range, so the oracle refuses rather than degrade
W_OVERLAP_MAX_LEVEL = 12

_TOL_SMALL = 1e-10   # levels up to 6
_TOL_LARGE = 1e-8    # levels 7..12


@dataclass(frozen=True)
class CheckReport:
    """One verification row: measured vs expected at a fixed tolerance.

    ``passed`` is |measured - expected| <= tolerance, taken relative to
    |expected| when ``relative`` is set.
    """

    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    relative: bool = False


def _report(name: str, measured: float, expected: float, tolerance: float,
            relative: bool = False) -> CheckReport:
    gap = abs(measured - expected)
    if relative:
        gap /= abs(expected)
    return CheckReport(name=name, measured=float(measured), expected=float(expected),
                       tolerance=float(tolerance), passed=bool(gap <= tolerance),
                       relative=relative)


def _tolerance(level: int) -> float:
    return _TOL_SMALL if level <= 6 else _TOL_LARGE


def _check_level(n, lo: int = 0) -> int:
    if n != int(n) or n < lo:
        raise DomainError(f"level index must be an integer >= {lo}, got {n}")
    return int(n)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for any real x, exactly zero at the poles."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    sign, ln_abs = gamma_sign_ln(x)
    return sign * math.exp(-ln_abs)


def bi_orthogonality(n: int, q: int, q_prime: int, params: SystemParams,
                     branch: Branch) -> CheckReport:
    """Plain-dr overlap of two same-level spherical radial factors.

    J_{q q'} = int_0^inf R_{n-q', q'}(r) R_{n-q, q}(r) dr is diagonal at a
    fixed level with value omega / (2q + c +- b + 1).  Measured here with a
    Gauss-Laguerre rule in t = omega r^2 after dividing out the shared
    weight t^(q + q' + c +- b) e^{-t}; the closed form is the expectation.
    """
    n = _check_level(n)
    q = _check_level(q)
    q_prime = _check_level(q_prime)
    if q > n or q_prime > n:
        raise DomainError(f"angular indices must stay <= level, got q={q}, "
                          f"q'={q_prime} at n={n}")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    omega = params.omega
    shared = q + q_prime + c + beta
    # admissible labels keep the combined exponent integrable
    assert shared > -1.0
    rule = build_quadrature("laguerre", n + 2, alpha=shared)
    r = np.sqrt(rule.nodes / omega)

    def reduced(qi: int) -> np.ndarray:
        alpha_q = 2 * qi + c + beta + 1.0
        vals = radial_spherical(n - qi, qi, params, branch, r)
        return vals * np.exp(0.5 * rule.nodes) / np.sqrt(rule.nodes) ** (alpha_q - 0.5)

    measured = rule.integrate(reduced(q) * reduced(q_prime)) / (2.0 * math.sqrt(omega))
    expected = omega / (2 * q + c + beta + 1.0) if q == q_prime else 0.0
    name = (f"bi-orthogonality quad n={n} q={q} q'={q_prime} "
            f"{_params_tag(params)} {branch.name.lower()}")
    return _report(name, measured, expected, _tolerance(n))


def bi_orthogonality_hypergeometric(n: int, q: int, q_prime: int,
                                    params: SystemParams, branch: Branch) -> float:
    """Second route to J_{q q'}: Gauss-summed 2F1 times a reciprocal Gamma.

    The value collapses to the same diagonal as bi_orthogonality: the
    terminating 2F1 vanishes for q > q' and the 1/Gamma factor for q < q',
    so only q = q' survives with omega / (2q + c +- b + 1).
    """
    n = _check_level(n)
    q = _check_level(q)
    q_prime = _check_level(q_prime)
    if q > n or q_prime > n:
        raise DomainError(f"angular indices must stay <= level, got q={q}, "
                          f"q'={q_prime} at n={n}")
    b, c, _ = require_admissible(params, branch)
    gamma_sum = c + branch.sign * b
    ln_pref = ln_gamma(q + q_prime + gamma_sum + 1.0) - ln_gamma(2 * q_prime + gamma_sum + 2.0)
    ln_ratio = 0.5 * (ln_gamma(n - q_prime + 1.0) + ln_gamma(n + q_prime + gamma_sum + 2.0)
                      - ln_gamma(n - q + 1.0) - ln_gamma(n + q + gamma_sum + 2.0))
    return (params.omega * math.exp(ln_pref + ln_ratio)
            * reciprocal_gamma(q - q_prime + 1.0)
            * hyp2f1_unit(q_prime - q, q + q_prime + gamma_sum + 1.0,
                          2 * q_prime + gamma_sum + 2.0))


class GramFamily(enum.Enum):
    """Which one-dimensional basis family a Gram check targets."""

    Theta = "theta"
    RadialSph = "radial-spherical"
    RadialCyl = "radial-cylindrical"
    Axial = "axial"
    Morse = "morse"


def _params_tag(params) -> str:
    if isinstance(params, MorseParams):
        return f"(V0={params.v0:g}, a={params.a:g})"
    return (f"(omega={params.omega:g}, P={params.p_strength:g}, "
            f"Q={params.q_strength:g}, m={params.m})")


def _gram_theta(n_max, params, branch):
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    rule = build_quadrature("jacobi", n_max + 2, alpha=c, beta=beta)
    theta = 0.5 * np.arccos(rule.nodes)
    s, ct = np.sin(theta), np.cos(theta)
    rows = [theta_angular(q, params, branch, theta) / (s ** c * ct ** (0.5 + beta))
            for q in range(n_max + 1)]
    scale = 2.0 ** (-c - beta - 2.0)
    return scale * (np.vstack(rows) * rule.weights) @ np.vstack(rows).T, 0.5


def _gram_radial_sph(n_max, params, branch):
    # angular index pinned to q = 0: one Gauss rule then covers the whole
    # family, and the q > 0 normalizations are exercised by bi_orthogonality
    b, c, _ = require_admissible(params, branch)
    alpha0 = c + branch.sign * b + 1.0
    omega = params.omega
    rule = build_quadrature("laguerre", n_max + 2, alpha=alpha0)
    r = np.sqrt(rule.nodes / omega)
    grow = np.exp(0.5 * rule.nodes)
    rows = [radial_spherical(n_r, 0, params, branch, r) * grow
            / np.sqrt(rule.nodes) ** (alpha0 - 0.5)
            for n_r in range(n_max + 1)]
    return (np.vstack(rows) * rule.weights) @ np.vstack(rows).T / (2.0 * omega ** 1.5), 1.0


def _gram_radial_cyl(n_max, params, branch):
    _, c, _ = require_admissible(params, branch)
    omega = params.omega
    rule = build_quadrature("laguerre", n_max + 2, alpha=c)
    rho = np.sqrt(rule.nodes / omega)
    grow = np.exp(0.5 * rule.nodes)
    rows = [radial_cylindrical(n_rho, params, rho) * grow / np.sqrt(rule.nodes) ** c
            for n_rho in range(n_max + 1)]
    return (np.vstack(rows) * rule.weights) @ np.vstack(rows).T / (2.0 * omega), 1.0


def _gram_axial(n_max, params, branch):
    b, _, _ = require_admissible(params, branch)
    beta = branch.sign * b
    omega = params.omega
    rule = build_quadrature("laguerre", n_max + 2, alpha=beta)
    z = np.sqrt(rule.nodes / omega)
    grow = np.exp(0.5 * rule.nodes)
    rows = [z_axial(p, params, branch, z) * grow / np.sqrt(rule.nodes) ** (0.5 + beta)
            for p in range(n_max + 1)]
    return (np.vstack(rows) * rule.weights) @ np.vstack(rows).T / (2.0 * math.sqrt(omega)), 0.5


def _gram_morse(n_max, params):
    if not isinstance(params, MorseParams):
        raise DomainError("Morse Gram checks need MorseParams")
    lam = params.lam
    count = bound_state_count(params)
    if n_max >= count or 2.0 * lam - 2.0 * n_max - 1.0 <= 0.0:
        raise DomainError(f"only {count} normalizable Morse levels here, "
                          f"cannot Gram up to p={n_max}")
    size = n_max + 1
    gram = np.empty((size, size))
    for p in range(size):
        for pp in range(p, size):
            # per-pair rule: the shared weight exponent depends on p + p'
            alpha_pair = 2.0 * lam - p - pp - 2.0
            rule = build_quadrature("laguerre", n_max + 2, alpha=alpha_pair)
            x = -np.log(rule.nodes / (2.0 * lam)) / params.a
            grow = np.exp(0.5 * rule.nodes)

            def reduced(pi: int) -> np.ndarray:
                return (morse_wavefunction(pi, params, x) * grow
                        * rule.nodes ** (pi + 0.5 - lam))

            val = rule.integrate(reduced(p) * reduced(pp)) / params.a
            gram[p, pp] = gram[pp, p] = val
    return gram, 1.0


def gram_matrix(family: GramFamily, n_max: int, params,
                branch: Branch = Branch.Plus) -> tuple[np.ndarray, CheckReport]:
    """Quadrature Gram matrix of one basis family plus its identity check.

    Returns the matrix and a CheckReport whose measured value is the largest
    entrywise deviation from the expected multiple of the identity (1/2 for
    the half-line-normalized theta and axial families, 1 otherwise).
    """
    if not isinstance(family, GramFamily):
        raise DomainError(f"family must be a GramFamily member, got {family!r}")
    n_max = _check_level(n_max)
    if family is GramFamily.Morse:
        gram, target = _gram_morse(n_max, params)
    elif family is GramFamily.Theta:
        gram, target = _gram_theta(n_max, params, branch)
    elif family is GramFamily.RadialSph:
        gram, target = _gram_radial_sph(n_max, params, branch)
    elif family is GramFamily.RadialCyl:
        gram, target = _gram_radial_cyl(n_max, params, branch)
    else:
        gram, target = _gram_axial(n_max, params, branch)
    deviation = float(np.max(np.abs(gram - target * np.eye(n_max + 1))))
    branch_tag = "" if family is GramFamily.Morse else f" {branch.name.lower()}"
    name = f"gram {family.value} n<={n_max} {_params_tag(params)}{branch_tag}"
    report = _report(name, deviation, 0.0, _tolerance(n_max))
    gram.flags.writeable = False
    return gram, report


def w_overlap_oracle(n: int, params: SystemParams,
                     branch: Branch) -> tuple[np.ndarray, CheckReport]:
    """Interbasis table recomputed as overlap integrals of the bases.

    Projecting the cylindrical state onto each angular factor and matching
    the top power of r reduces every entry to a single Jacobi-Gauss sum over
    the angular evaluator, with no Clebsch-Gordan machinery involved.  The
    report compares the table entrywise against w_matrix().
    """
    n = _check_level(n)
    if n > W_OVERLAP_MAX_LEVEL:
        raise DomainError(f"overlap oracle supports levels up to "
                          f"{W_OVERLAP_MAX_LEVEL}, got {n}")
    b, c, _ = require_admissible(params, branch)
    beta = branch.sign * b
    rule = build_quadrature("jacobi", n + 2, alpha=c, beta=beta)
    theta = 0.5 * np.arccos(rule.nodes)
    s, ct = np.sin(theta), np.cos(theta)
    scale = 2.0 ** (-c - beta - 2.0)
    angular = [theta_angular(q, params, branch, theta) for q in range(n + 1)]

    table = np.empty((n + 1, n + 1))
    for p in range(n + 1):
        shape = scale * s ** (2.0 * (n - p) - c) * ct ** (2.0 * p - beta - 0.5)
        ln_row = (-ln_gamma(n - p + 1.0) - ln_gamma(n - p + c + 1.0)
                  - ln_gamma(p + 1.0) - ln_gamma(p + beta + 1.0))
        for q in range(n + 1):
            ln_const = ln_row + ln_gamma(n - q + 1.0) + ln_gamma(n + q + c + beta + 2.0)
            # (-1)^(p+q): the axial (-1)^p prefactor cancels its Laguerre
            # leading sign, the spherical side keeps (-1)^(n-q)
            integral = rule.integrate(shape * angular[q])
            table[p, q] = 2.0 * (-1.0) ** (p + q) * math.exp(0.5 * ln_const) * integral

    closed = w_matrix(n, params, branch).entries
    deviation = float(np.max(np.abs(table - closed)))
    name = f"overlap vs closed form n={n} {_params_tag(params)} {branch.name.lower()}"
    report = _report(name, deviation, 0.0, _tolerance(n))
    table.flags.writeable = False
    return table, report


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


def _suite_jobs():
    jobs = []
    for params in _SUITE_SETS:
        for branch in admissible_branches(params):
            for family in (GramFamily.Theta, GramFamily.RadialSph,
                           GramFamily.RadialCyl, GramFamily.Axial):
                jobs.append((family, _GRAM_LEVEL, params, branch))
    return jobs


def run_verification_suite() -> list[CheckReport]:
    """Execute the fixed oracle manifest and return its CheckReport rows.

    The row order and count are deterministic; SUITE_MANIFEST lists the
    names so callers can confirm nothing was skipped.
    """
    reports: list[CheckReport] = []
    for job in _suite_jobs():
        reports.append(gram_matrix(*job)[1])
    for params, branch, n, pairs in _BI_CASES:
        for q, qp in pairs:
            reports.append(bi_orthogonality(n, q, qp, params, branch))
    for params, branch, n, pairs in _HYP_CASES:
        b, c, _ = require_admissible(params, branch)
        gamma_sum = c + branch.sign * b
        for q, qp in pairs:
            measured = bi_orthogonality_hypergeometric(n, q, qp, params, branch)
            expected = params.omega / (2 * q + gamma_sum + 1.0) if q == qp else 0.0
            name = (f"bi-orthogonality 2F1 n={n} q={q} q'={qp} "
                    f"{_params_tag(params)} {branch.name.lower()}")
            reports.append(_report(name, measured, expected, _tolerance(n)))
    for params, branch, n in _OVERLAP_CASES:
        reports.append(w_overlap_oracle(n, params, branch)[1])
    for mparams, n_max in _MORSE_CASES:
        reports.append(gram_matrix(GramFamily.Morse, n_max, mparams)[1])
    return reports


def _manifest() -> tuple[str, ...]:
    names = []
    for family, n_max, params, branch in _suite_jobs():
        names.append(f"gram {family.value} n<={n_max} {_params_tag(params)} "
                     f"{branch.name.lower()}")
    for params, branch, n, pairs in _BI_CASES:
        for q, qp in pairs:
            names.append(f"bi-orthogonality quad n={n} q={q} q'={qp} "
                         f"{_params_tag(params)} {branch.name.lower()}")
    for params, branch, n, pairs in _HYP_CASES:
        for q, qp in pairs:
            names.append(f"bi-orthogonality 2F1 n={n} q={q} q'={qp} "
                         f"{_params_tag(params)} {branch.name.lower()}")
    for params, branch, n in _OVERLAP_CASES:
        names.append(f"overlap vs closed form n={n} {_params_tag(params)} "
                     f"{branch.name.lower()}")
    for mparams, n_max in _MORSE_CASES:
        names.append(f"gram morse n<={n_max} {_params_tag(mparams)}")
    return tuple(names)


SUITE_MANIFEST: tuple[str, ...] = _manifest()
