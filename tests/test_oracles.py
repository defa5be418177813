"""Quadrature oracles: bi-orthogonality, Gram identities, overlap route."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from genosc import _cache, bases, morse, oracles
from genosc.bases import radial_cylindrical, radial_spherical, theta_angular, z_axial
from genosc.errors import AccuracyError, DomainError
from genosc.interbasis import W_OVERLAP_MAX_LEVEL, w_matrix
from genosc.model import Branch, SystemParams, admissible_branches
from genosc.morse import MorseParams, bound_state_count, morse_wavefunction
from genosc.oracles import (SUITE_MANIFEST, CheckReport, GramFamily, _report,
                            bi_orthogonality, bi_orthogonality_hypergeometric,
                            gram_matrix, run_verification_suite, w_overlap_oracle)
from genosc.specfun import build_quadrature, hermite

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)    # b=1.5
ISO = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=0)      # b=1/2, c=0
CRIT = [SystemParams(omega=1.0, p_strength=0.05, q_strength=0.5, m=1),
        SystemParams(omega=1.0, p_strength=2.0, q_strength=3.0, m=0),
        SystemParams(omega=2.0, p_strength=0.1, q_strength=0.0, m=2)]


def branch_cases(param_sets):
    for params in param_sets:
        for branch in admissible_branches(params):
            yield params, branch


# ---------------------------------------------------------- bi-orthogonality

def test_bi_orthogonality_worked_diagonal():
    rep = bi_orthogonality(0, 0, 0, BOTH, Branch.Plus)
    assert rep.expected == pytest.approx(1.0 / 2.3, rel=1e-15)
    assert rep.measured == pytest.approx(1.0 / 2.3, abs=1e-12)
    assert rep.passed


def test_bi_orthogonality_all_pairs_small_levels():
    for params, branch in branch_cases(CRIT + [BOTH]):
        for n in range(5):
            for q in range(n + 1):
                for qp in range(n + 1):
                    rep = bi_orthogonality(n, q, qp, params, branch)
                    assert rep.passed, (params, branch, n, q, qp, rep.measured)
                    if q != qp:
                        assert abs(rep.measured) <= 1e-10


def test_bi_orthogonality_hypergeometric_route_agrees():
    for params, branch in branch_cases([CRIT[0], BOTH]):
        for n in range(5):
            for q in range(n + 1):
                for qp in range(n + 1):
                    quad = bi_orthogonality(n, q, qp, params, branch)
                    hyp = bi_orthogonality_hypergeometric(n, q, qp, params, branch)
                    assert hyp == pytest.approx(quad.expected, abs=1e-12)


@pytest.mark.parametrize("n", [30, 100, 200])
def test_bi_orthogonality_hypergeometric_is_exactly_zero_off_the_diagonal(n):
    # the terminating 2F1 is summed exactly at gamma = c +- b, so Chu-Vandermonde
    # zeroes every q > q' sum; q < q' is the zero of 1/Gamma. No OverflowError.
    for params, branch in ((BOTH, Branch.Minus), (STEEP, Branch.Plus)):
        for q in range(n + 1):
            for qp in range(n + 1):
                value = bi_orthogonality_hypergeometric(n, q, qp, params, branch)
                if q != qp:
                    assert type(value) is float and np.float64(value).tobytes() == bytes(8), \
                        (n, q, qp, params, branch, value)
    # the diagonal also at large c and b, where a Gamma ratio formed from lgammas would
    # cancel its digits
    big = [SystemParams(1.3, 0.3, q_strength, 1) for q_strength in (1e8, 1e12, 1e150)]
    for params, branch in ((BOTH, Branch.Minus), (STEEP, Branch.Plus),
                           *((params, Branch.Plus) for params in big),
                           (SystemParams(1e150, 1e150, 0.5, 1), Branch.Plus)):
        beta = branch.sign * math.sqrt(params.p_strength + 0.25)
        c = math.sqrt(params.q_strength + params.m ** 2)
        for q in (0, n // 2, n):
            assert bi_orthogonality_hypergeometric(n, q, q, params, branch) == pytest.approx(
                params.omega / (2 * q + c + beta + 1.0), rel=1e-13)


def test_bi_orthogonality_rejects_bad_indices():
    with pytest.raises(DomainError):
        bi_orthogonality(2, 3, 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        bi_orthogonality(2, 0, -1, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        bi_orthogonality_hypergeometric(1, 2, 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        bi_orthogonality(3, 0, 0, STEEP, Branch.Minus)
    # non-numbers and non-finite indices: DomainError, never OverflowError
    # or ValueError from int()
    for bad in (math.inf, math.nan, "x"):
        for args in ((bad, 0, 0), (2, bad, 0), (2, 0, bad)):
            with pytest.raises(DomainError):
                bi_orthogonality(*args, BOTH, Branch.Plus)
            with pytest.raises(DomainError):
                bi_orthogonality_hypergeometric(*args, BOTH, Branch.Plus)


# ------------------------------------------------------------- Gram matrices

def test_gram_families_hit_identity_targets():
    targets = {GramFamily.Theta: 0.5, GramFamily.RadialSph: 1.0,
               GramFamily.RadialCyl: 1.0, GramFamily.Axial: 0.5}
    for params, branch in branch_cases(CRIT + [BOTH]):
        for family, target in targets.items():
            gram, rep = gram_matrix(family, 4, params, branch)
            assert rep.passed, (family, params, branch, rep.measured)
            assert np.max(np.abs(gram - target * np.eye(5))) <= 1e-10


def test_theta_gram_stays_finite_at_large_c_and_b():
    # the scale 2^(-c - b - 2) underflowed to 0 from P = Q = 4e5 (c = b = 632) while the
    # contracted rows overflowed: a NaN deviation and a RuntimeWarning, where Theta is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strength in (2.5e5, 4e5, 1e6):
            for n_max in (2, 6, 12):
                report = gram_matrix(GramFamily.Theta, n_max,
                                     SystemParams(1.0, strength, strength, 0))[1]
                assert report.passed and report.measured <= 1e-12, (strength, n_max)


def test_gram_axial_consistent_with_hermite_half_line():
    # at b = 1/2 on Minus the axial factors are even/odd oscillator states,
    # so an explicit Hermite quadrature Gram must reproduce the same 1/2 I
    params = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=1)
    gram, rep = gram_matrix(GramFamily.Axial, 4, params, Branch.Minus)
    assert rep.passed
    for p in range(5):
        for pp in range(5):
            herm = lambda k, z: (hermite(2 * k, z) * np.exp(-0.5 * z * z)
                                 / math.sqrt(math.sqrt(math.pi) * 2.0 ** (2 * k)
                                             * math.factorial(2 * k)))
            val, _ = integrate.quad(lambda z: herm(p, z) * herm(pp, z), 0.0, 12.0)
            sign = (-1.0) ** (p + pp)
            assert sign * gram[p, pp] == pytest.approx(val, abs=1e-10)


def test_gram_morse_identity_and_guards():
    gram, rep = gram_matrix(GramFamily.Morse, 2, MorseParams(v0=8.6528, a=1.3))
    assert rep.passed
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    # deeper wells, every n_max the family allows up to 30: one rule per Gram
    # keeps the matrix within 1e-12 of the identity
    for lam in (24.0, 40.0, 80.0):
        for a in (0.3, 2.0):
            params = MorseParams(v0=0.5 * (lam * a) ** 2, a=a)
            for n_max in range(min(bound_state_count(params) - 1, 30) + 1):
                gram, rep = gram_matrix(GramFamily.Morse, n_max, params)
                assert rep.passed, (lam, a, n_max)
                assert np.max(np.abs(gram - np.eye(n_max + 1))) <= 1e-12, (lam, a, n_max)
    # a cold Morse Gram builds exactly one Gauss rule
    misses = build_quadrature.cache_info().misses
    gram_matrix(GramFamily.Morse, 7, MorseParams(v0=0.5 * (23.4567 * 0.71) ** 2, a=0.71))
    assert build_quadrature.cache_info().misses == misses + 1
    with pytest.raises(DomainError):
        gram_matrix(GramFamily.Morse, 3, MorseParams(v0=5.12, a=1.0))
    with pytest.raises(DomainError):
        gram_matrix(GramFamily.Morse, 1, BOTH)
    with pytest.raises(DomainError):
        gram_matrix(GramFamily.Theta, 1, MorseParams(v0=8.6528, a=1.3))
    with pytest.raises(DomainError):
        gram_matrix("theta", 2, BOTH)
    for bad in (math.inf, math.nan, "x", -1, 1.5):
        with pytest.raises(DomainError):
            gram_matrix(GramFamily.Theta, bad, BOTH)
        with pytest.raises(DomainError):
            gram_matrix(GramFamily.Morse, bad, MorseParams(v0=8.6528, a=1.3))


@pytest.mark.parametrize("lam", [95.0, 300.0])
def test_gram_morse_past_double_range_weights(lam):
    # the rule's order 2 lam - 2 n_max - 2 runs up to 188 and 598 here; past about
    # 170 its plain weights leave double range, its scaled ones do not
    params = MorseParams(v0=0.5 * lam ** 2, a=1.0)
    for n_max in (0, 4, 12):
        gram, rep = gram_matrix(GramFamily.Morse, n_max, params)
        assert rep.tolerance == (1e-10 if n_max <= 6 else 1e-8)
        assert rep.passed, (lam, n_max, rep.measured)
        assert np.max(np.abs(gram - np.eye(n_max + 1))) <= rep.tolerance


def _ref_gram_rule(family, n_max, params, branch):
    """(kind, alpha, beta, node power, scale, coordinate map, evaluator at degree k)."""
    if family is GramFamily.Morse:
        lam = params.lam
        return ("laguerre", 2.0 * lam - 2.0 * n_max - 2.0, 0.0, lam - n_max - 0.5,
                1.0 / params.a, lambda w: -np.log(w / (2.0 * lam)) / params.a,
                lambda k, x: morse_wavefunction(k, params, x))
    b, c = math.sqrt(params.p_strength + 0.25), math.sqrt(params.q_strength + params.m ** 2)
    beta = branch.sign * b
    half_line = lambda t: np.sqrt(t / params.omega)
    if family is GramFamily.Theta:
        return ("jacobi", c, beta, 0.25 + 0.5 * beta, 2.0 ** (-c - beta - 2.0),
                lambda t: 0.5 * np.arccos(t), lambda k, x: theta_angular(k, params, branch, x))
    if family is GramFamily.RadialSph:
        alpha0 = c + beta + 1.0
        return ("laguerre", alpha0, 0.0, 0.5 * alpha0 - 0.25, 0.5 * params.omega ** -1.5,
                half_line, lambda k, x: radial_spherical(k, 0, params, branch, x))
    if family is GramFamily.RadialCyl:
        return ("laguerre", c, 0.0, 0.5 * c, 0.5 / params.omega,
                half_line, lambda k, x: radial_cylindrical(k, params, x))
    return ("laguerre", beta, 0.0, 0.25 + 0.5 * beta, 0.5 / math.sqrt(params.omega),
            half_line, lambda k, x: z_axial(k, params, branch, x))


def _ref_gram(family, n_max, params, branch):
    """Gram matrix with one public-evaluator call per degree, term by term."""
    kind, alpha, beta, power, scale, coord, row = _ref_gram_rule(family, n_max, params, branch)
    rule = build_quadrature(kind, n_max + 2, alpha=alpha, beta=beta)
    x = rule.nodes
    if kind == "laguerre":
        root = np.exp(0.5 * x) * x ** -power
    else:
        root = (0.5 - 0.5 * x) ** (-0.5 * alpha) * (0.5 + 0.5 * x) ** -power
    rows = [row(k, coord(x)) * root for k in range(n_max + 1)]
    return np.array([[scale * rule.integrate(rows[i] * rows[j]) for j in range(n_max + 1)]
                     for i in range(n_max + 1)])


def _seeded_systems(count, seed):
    rng = np.random.default_rng(seed)
    # P < 0 on every third set keeps the Minus branch admissible
    return [SystemParams(omega=float(rng.uniform(0.2, 4.0)),
                         p_strength=float(rng.uniform(-0.25, 0.0) if i % 3 == 0
                                          else rng.uniform(0.0, 4.0)),
                         q_strength=float(rng.uniform(0.0, 3.0)), m=int(rng.integers(0, 4)))
            for i in range(count)]


def test_gram_matches_per_degree_evaluators():
    systems = _seeded_systems(24, 14)
    assert sum(Branch.Minus in admissible_branches(s) for s in systems) >= 8
    rng = np.random.default_rng(15)
    wells = [MorseParams(v0=0.5 * (lam * a) ** 2, a=a)
             for lam, a in zip(rng.uniform(13.0, 80.0, 24), rng.uniform(0.3, 2.5, 24))]
    for n_max in (0, 1, 4, 12):
        for params, branch in branch_cases(systems):
            for family in (GramFamily.Theta, GramFamily.RadialSph,
                           GramFamily.RadialCyl, GramFamily.Axial):
                gram, _ = gram_matrix(family, n_max, params, branch)
                ref = _ref_gram(family, n_max, params, branch)
                assert np.abs(gram - ref).max() <= 1e-14, (family, n_max, params, branch)
        for params in wells:
            gram, _ = gram_matrix(GramFamily.Morse, n_max, params)
            ref = _ref_gram(GramFamily.Morse, n_max, params, Branch.Plus)
            assert np.abs(gram - ref).max() <= 1e-14, (n_max, params)


# ------------------------------------------------------------ overlap oracle

def _ref_overlap(n, params, branch):
    """The overlap table entry by entry: the same tensor Gauss rule (Laguerre in
    x = omega r^2, Jacobi in u = cos 2 theta), one quadrature sum per (p, q)
    over the public one-label evaluators."""
    b, c = math.sqrt(params.p_strength + 0.25), math.sqrt(params.q_strength + params.m ** 2)
    beta, omega = branch.sign * b, params.omega
    radial = build_quadrature("laguerre", n + 1, alpha=c + beta + 1.0)
    angular = build_quadrature("jacobi", n + 1, alpha=c, beta=beta)
    x, u = radial.nodes, angular.nodes
    r, theta = np.sqrt(x / omega), 0.5 * np.arccos(u)
    rho, z = np.outer(r, np.sin(theta)), np.outer(r, np.cos(theta))
    # 2 r^2 dr sin(theta) dtheta = x^(1/2) dx du / (4 omega^(3/2) cos theta), over
    # the rules' weight functions (the Laguerre one is in its scaled weights)
    weight = np.outer(radial.scaled_weights * np.sqrt(x) / (4.0 * omega ** 1.5),
                      angular.weights / ((1.0 - u) ** c * (1.0 + u) ** beta * np.cos(theta)))
    cyl = [radial_cylindrical(n - p, params, rho) * z_axial(p, params, branch, z)
           for p in range(n + 1)]
    sph = [np.outer(radial_spherical(n - q, q, params, branch, r),
                    theta_angular(q, params, branch, theta)) for q in range(n + 1)]
    table = np.empty((n + 1, n + 1))
    for p in range(n + 1):
        for q in range(n + 1):
            table[p, q] = np.sum(weight * cyl[p] * sph[q])
    return table


def test_overlap_oracle_matches_entrywise_reference():
    for params, branch in branch_cases(_seeded_systems(6, 16) + CRIT + [BOTH]):
        for n in range(13):
            table, rep = w_overlap_oracle(n, params, branch)
            assert np.abs(table - _ref_overlap(n, params, branch)).max() <= 1e-14, \
                (params, branch, n)
            assert rep.measured == np.abs(table - w_matrix(n, params, branch).entries).max()


def test_overlap_oracle_trivial_level():
    table, rep = w_overlap_oracle(0, BOTH, Branch.Plus)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert rep.passed


def test_overlap_oracle_matches_closed_form():
    # high levels: bound fixed before measuring (worst measured 2.3e-14 at n = 60,
    # 4.9e-14 at n = 100); P = 0 and Q = 0 in ISO, Q = 0 in CRIT[2] and BOTH
    for params, branch in branch_cases(CRIT + [BOTH, ISO]):
        for n in (2, 3, 5, 40, 60):
            table, rep = w_overlap_oracle(n, params, branch)
            assert rep.passed, (params, branch, n, rep.measured)
            assert rep.measured <= (1e-10 if n <= 5 else 2e-13), (params, branch, n)
    for params, branch in ((CRIT[0], Branch.Plus), (BOTH, Branch.Minus)):
        assert w_overlap_oracle(100, params, branch)[1].measured <= 2e-13, (params, branch)


def test_overlap_oracle_table_is_orthogonal():
    # n = 60 within the high-level bound: 6.7e-14 measured (ISO minus)
    for params, branch in branch_cases([CRIT[1], BOTH, ISO]):
        for n in (1, 3, 6, 60):
            table, _ = w_overlap_oracle(n, params, branch)
            assert np.max(np.abs(table @ table.T - np.eye(n + 1))) <= \
                (1e-10 if n <= 6 else 2e-13), (params, branch, n)


def test_overlap_oracle_at_omegas_floor_stays_in_double_range():
    # c = 500: the radial weight product alone passes a double at omega = 1e-150, so it
    # once leaked numpy's overflow warning before a NumericError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, report = w_overlap_oracle(3, SystemParams(1e-150, 0.0, 2.5e5, 0), Branch.Plus)
    assert np.isfinite(table).all() and report.passed


def test_overlap_oracle_refuses_a_weight_function_past_double_range():
    # b = 316, c = 2000: the Jacobi rule builds, but (1 - u)^c passes a double at every
    # node; the table once came back all zero behind numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=r"^overlap weight function \(1 - u\)\^c "
                                                r"\(1 \+ u\)\^beta leaves double range at n=3"):
            w_overlap_oracle(3, SystemParams(1.0, 1e5, 4e6, 0), Branch.Plus)


def test_overlap_oracle_level_cap():
    with pytest.raises(DomainError, match="up to 100"):
        w_overlap_oracle(W_OVERLAP_MAX_LEVEL + 1, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        w_overlap_oracle(-1, BOTH, Branch.Plus)


# -------------------------------------------------------- verification suite

def test_suite_runs_green_and_matches_manifest():
    reports = run_verification_suite()
    assert len(reports) == len(SUITE_MANIFEST)
    for report, name in zip(reports, SUITE_MANIFEST):
        assert isinstance(report, CheckReport)
        assert report.name == name
        assert report.passed, report


def test_suite_manifest_is_deterministic():
    assert len(set(SUITE_MANIFEST)) == len(SUITE_MANIFEST)
    first = [r.name for r in run_verification_suite()]
    second = [r.name for r in run_verification_suite()]
    assert first == second == list(SUITE_MANIFEST)


def _public_suite_reports():
    """Every suite row as the public oracle of its arguments reports it, in manifest order
    (a 2F1 row is bi_orthogonality_hypergeometric's value against the closed form)."""
    families = (GramFamily.Theta, GramFamily.RadialSph, GramFamily.RadialCyl, GramFamily.Axial)
    reports = [gram_matrix(family, oracles._GRAM_LEVEL, params, branch)[1]
               for params in oracles._SUITE_SETS for branch in admissible_branches(params)
               for family in families]
    reports += [bi_orthogonality(n, q, qp, params, branch)
                for params, branch, n, pairs in oracles._BI_CASES for q, qp in pairs]
    for params, branch, n, pairs in oracles._HYP_CASES:
        for q, qp in pairs:
            quad = bi_orthogonality(n, q, qp, params, branch)
            reports.append(_report(oracles._bi_name("2F1", n, q, qp, params, branch),
                                   bi_orthogonality_hypergeometric(n, q, qp, params, branch),
                                   quad.expected, quad.tolerance))
    reports += [w_overlap_oracle(n, params, branch)[1]
                for params, branch, n in oracles._OVERLAP_CASES]
    reports += [gram_matrix(GramFamily.Morse, n_max, mparams)[1]
                for mparams, n_max in oracles._MORSE_CASES]
    return reports


def test_suite_rows_are_the_public_oracles_bit_for_bit():
    # every row equals the public oracle's report at its arguments, bit for bit, cold
    # and warm
    reference = run_verification_suite()
    public = _public_suite_reports()
    assert len(public) == len(SUITE_MANIFEST) == 35
    assert [report.name for report in public] == list(SUITE_MANIFEST)
    assert [_report_bits(report) for report in reference] == \
        [_report_bits(report) for report in public]
    _cache.clear()
    assert run_verification_suite() == public   # cold: each rule and set-up built afresh
    assert run_verification_suite() == public   # warm


# every pointwise row builder an oracle's table reaches (the overlap tables' terms too)
_ROW_BUILDERS = ((bases, "laguerre_functions"), (bases, "laguerre_diagonal"),
                 (bases, "_jacobi_rows"), (morse, "laguerre_diagonal"))
_SUITE_ORACLES = ("gram_matrix", "bi_orthogonality", "bi_orthogonality_hypergeometric",
                  "w_overlap_oracle")


def test_a_warm_suite_forms_no_basis_row(monkeypatch, fresh_tables):
    # the suite's reports are one table: a cold suite runs every row builder, a warm one
    # reads the table and runs no oracle and no row builder, and each run is a fresh list
    spied = (*_ROW_BUILDERS, *((oracles, name) for name in _SUITE_ORACLES))
    calls = {}
    for module, name in spied:
        def counted(*args, key=(module, name), fn=getattr(module, name)):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    cold = run_verification_suite()
    assert oracles._suite_reports.cache_info() == (0, 1, 1)
    assert all(calls.get(key) for key in spied), calls
    calls.clear()
    warm = run_verification_suite()
    assert oracles._suite_reports.cache_info() == (1, 1, 1)
    assert calls == {}
    assert warm == cold and warm is not cold
    warm.clear()   # a caller's list is its own
    assert run_verification_suite() == cold
    _cache.clear()
    assert run_verification_suite() == cold
    assert oracles._suite_reports.cache_info() == (0, 1, 1)
    assert all(calls.get(key) for key in spied), calls


def _report_bits(report):
    return (report.name, _bits((report.measured, report.expected, report.tolerance)),
            report.passed)


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def test_a_twin_system_reports_its_own_name_with_the_same_bits():
    # P = -0.0 enters every value as P + 1/4, with the bits of 0.0's; only its name differs
    twin = SystemParams(1.0, -0.0, 0.0, 0)
    plain = gram_matrix(GramFamily.Theta, 3, SystemParams(1.0, 0.0, 0.0, 0))
    signed = gram_matrix(GramFamily.Theta, 3, twin)
    assert "P=-0" in signed[1].name and "P=0," in plain[1].name
    assert _bits((signed[1].measured,)) == _bits((plain[1].measured,))
    assert signed[0].tobytes() == plain[0].tobytes()


@pytest.mark.parametrize("omega", [1e-3, 0.1, 1.0, 1e3, 1e5, 1e6, 1e7])
def test_bi_orthogonality_tolerance_scales_with_omega(omega):
    # J scales as omega, and so does the quadrature's rounding: the gap to the closed
    # form at n = 3 was 1.2e-10 at omega = 1e5, 9.6e-10 at 1e6 and 1.35e-8 at 1e7, a FAIL
    # under a fixed 1e-10; the tolerance is 1e-10 omega
    params = SystemParams(omega, 0.05, 0.5, 1)
    for q, qp in ((1, 1), (1, 2)):
        rep = bi_orthogonality(3, q, qp, params, Branch.Plus)
        assert rep.tolerance == 1e-10 * omega
        assert rep.passed, (omega, q, qp, rep.measured, rep.expected)
        # well inside it: a few ulps of J
        assert abs(rep.measured - rep.expected) <= 1e-13 * omega, (omega, q, qp)


def test_report_pass_logic():
    ok = CheckReport("x", 1.0, 1.0, 1e-12, True)
    assert ok.passed and not ok.relative
    rel = CheckReport("y", 1.1, 1.0, 0.2, True, relative=True)
    assert rel.passes(0.11) and not rel.passes(0.09)
    # a report is built with passes(tolerance)'s verdict, relative or not
    for measured, expected, tolerance in ((1.1, 1.0, 0.11), (1.1, 1.0, 0.09), (3.0, -2.0, 2.4),
                                          (3.0, -2.0, 2.6), (1e-9, 0.0, 1e-10), (0.0, 0.0, 0.0)):
        for relative in (False, True):
            rep = _report("z", measured, expected, tolerance, relative)
            assert rep.passed is rep.passes(tolerance)
            if relative and not expected:   # relative to zero, only zero passes
                assert rep.passed == (measured == 0.0)
            else:
                assert rep.passed == (abs(measured - expected)
                                      / (abs(expected) if relative else 1.0) <= tolerance)
    assert not CheckReport("x", 1e-3, 0.0, 1e-2, True, relative=True).passes(1e-2)
    rep = bi_orthogonality(1, 0, 1, BOTH, Branch.Plus)
    assert rep.expected == 0.0
    assert rep.tolerance == 1e-10
