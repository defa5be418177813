"""Interbasis expansion: continued CG values, W matrices, operator tridiagonals."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational
from sympy.physics.quantum.cg import CG as sympy_cg

import genosc.interbasis as interbasis
from genosc.errors import AccuracyError, DomainError, NumericError
from genosc.interbasis import (CgArgs, cg_continued, m_matrix_cyl,
                               n_matrix_sph, ring_w, w_coefficient, w_column,
                               w_integral_oracle, w_matrix)
from genosc.model import (Branch, CylindricalLabel, SphericalLabel,
                          SystemParams, channel_constants,
                          energy_cylindrical_parts, ring_relabel,
                          separation_constant_A)

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)    # b=1.5
RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)     # b=1/2, delta=1
RING0 = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=1)    # b=1/2, delta=0

BRANCH_CASES = [(BOTH, Branch.Plus), (BOTH, Branch.Minus), (STEEP, Branch.Plus)]


def cg(a, b, alpha, beta, c):
    return cg_continued(CgArgs(a, b, alpha, beta, c, alpha + beta))


def half(x):
    return Rational(int(round(2 * x)), 2)


# ------------------------------------------------------------ continued CG

def test_cg_frozen_table_values():
    assert cg(0.5, 0.5, 0.5, -0.5, 1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert cg(0.5, 0.5, -0.5, 0.5, 0.0) == pytest.approx(-1 / math.sqrt(2), rel=1e-14)
    assert cg(1.0, 1.0, 0.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert cg(1.0, 1.0, 0.0, 0.0, 1.0) == 0.0


def test_cg_matches_sympy_at_table_arguments():
    triples = [(0.5, 0.5, 1.0), (0.5, 0.5, 0.0), (1.0, 0.5, 1.5), (1.0, 0.5, 0.5),
               (1.0, 1.0, 1.0), (1.5, 1.0, 2.5), (1.5, 1.0, 0.5), (2.0, 1.5, 1.5)]
    for a, b, c in triples:
        for ia in range(int(2 * a) + 1):
            alpha = -a + ia
            for ib in range(int(2 * b) + 1):
                beta = -b + ib
                gamma = alpha + beta
                if abs(gamma) > c:
                    continue
                ref = float(sympy_cg(half(a), half(alpha), half(b), half(beta),
                                     half(c), half(gamma)).doit())
                assert cg(a, b, alpha, beta, c) == pytest.approx(
                    ref, rel=1e-12, abs=1e-13), (a, b, alpha, beta, c)


def test_cg_projection_selection_rule():
    assert cg_continued(CgArgs(1.0, 1.0, 1.0, 0.0, 2.0, 0.0)) == 0.0


def test_cg_out_of_range_is_zero():
    # |gamma| > c and c < |a - b| both hit vanishing prefactor poles
    assert cg(1.0, 0.5, 1.0, 0.5, 0.5) == 0.0
    assert cg(2.0, 0.5, 0.0, 0.5, 0.5) == 0.0


def test_cg_nonterminating_pattern_rejected():
    with pytest.raises(DomainError):
        cg(2.25, 0.75, 1.75, -0.25, 2.25)   # a+b-c not an integer


def w_args(n, p, q, c, sb):
    a0 = 0.5 * (n + sb)
    b0 = 0.5 * (n + c)
    return a0, b0, p - 0.5 * (n - sb), 0.5 * (n + c) - p, q + 0.5 * (c + sb)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), p=st.integers(0, 5), q=st.integers(0, 5),
       cc=st.floats(0.3, 3.5), sb=st.floats(-0.45, 1.45))
def test_cg_three_term_recursion_at_continued_arguments(n, p, q, cc, sb):
    p, q = min(p, n), min(q, n)
    a, b, alpha, beta, c = w_args(n, p, q, cc, sb)
    lhs = (-a * (a + 1) - b * (b + 1) + c * (c + 1) - 2 * alpha * beta) \
        * cg(a, b, alpha, beta, c)
    # radicals vanish exactly at p = 0 / p = n, where the shifted pattern
    # leaves the computable family; skip those terms instead of evaluating
    r1 = (a + alpha) * (a - alpha + 1) * (b - beta) * (b + beta + 1)
    r2 = (a - alpha) * (a + alpha + 1) * (b + beta) * (b - beta + 1)
    rhs = 0.0
    if r1 > 0.0:
        rhs += math.sqrt(r1) * cg(a, b, alpha - 1, beta + 1, c)
    if r2 > 0.0:
        rhs += math.sqrt(r2) * cg(a, b, alpha + 1, beta - 1, c)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_cg_symmetries_at_continued_arguments():
    for args in [(1.65, 2.0, -0.35, 1.0, 1.65), (2.15, 1.5, 0.65, 0.5, 2.65),
                 (1.25, 2.0, 0.75, -1.0, 1.25)]:
        a, b, alpha, beta, c = args
        val = cg(*args)
        phase = (-1.0) ** round(a + b - c)
        assert cg(a, b, -alpha, -beta, c) == pytest.approx(phase * val, abs=1e-13)
        assert cg(b, a, beta, alpha, c) == pytest.approx(phase * val, abs=1e-13)
        regge = cg((a + b + alpha + beta) / 2, (a + b - alpha - beta) / 2,
                   (a - b + alpha - beta) / 2, (a - b - alpha + beta) / 2, c)
        assert regge == pytest.approx(val, abs=1e-13)


def racah_sum_mpmath(a, b, alpha, beta, c):
    a, b, alpha, beta, c = (mpmath.mpf(v) for v in (a, b, alpha, beta, c))
    g = alpha + beta
    pref = (2 * c + 1) / mpmath.gamma(a + b + c + 2)
    for v in (a + b - c + 1, a - b + c + 1, -a + b + c + 1, a + alpha + 1,
              a - alpha + 1, b + beta + 1, b - beta + 1, c + g + 1, c - g + 1):
        pref *= mpmath.gamma(v)
    total = mpmath.mpf(0)
    for t in range(int(mpmath.nint(a + b - c)) + 1):
        total += (-1) ** t * mpmath.rgamma(t + 1) * mpmath.rgamma(a + b - c - t + 1) \
            * mpmath.rgamma(a - alpha - t + 1) * mpmath.rgamma(b + beta - t + 1) \
            * mpmath.rgamma(c - b + alpha + t + 1) * mpmath.rgamma(c - a - beta + t + 1)
    return float(mpmath.sqrt(pref) * total)


def test_cg_negative_gamma_arguments_against_mpmath():
    # a - alpha and b + beta are not integers here, so the later terms carry
    # 1/Gamma at negative non-integer arguments, whose sign alternates
    with mpmath.workdps(30):
        for args in [(1.3, 2.1, 1.0, -0.6, 0.4), (1.3, 2.1, 0.7, -0.2, 1.4),
                     (2.45, 1.8, 1.2, -0.9, 1.25)]:
            ref = racah_sum_mpmath(*args)
            assert abs(ref) > 1e-3
            assert cg(*args) == pytest.approx(ref, rel=1e-12), args


# ------------------------------------------------------------ W matrices

def test_w_trivial_level_is_one():
    assert w_coefficient(0, 0, 0, BOTH, Branch.Plus) == pytest.approx(1.0, abs=1e-14)
    assert w_matrix(0, BOTH, Branch.Minus).entries[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_w_matrix_orthogonality():
    for params, branch in BRANCH_CASES:
        for n in range(6):
            ent = w_matrix(n, params, branch).entries
            eye = np.eye(n + 1)
            np.testing.assert_allclose(ent @ ent.T, eye, atol=1e-12)
            np.testing.assert_allclose(ent.T @ ent, eye, atol=1e-12)


def test_w_matches_integral_oracle():
    for params, branch in BRANCH_CASES:
        for n in range(5):
            for p in range(n + 1):
                for q in range(n + 1):
                    assert w_coefficient(n, p, q, params, branch) == pytest.approx(
                        w_integral_oracle(n, p, q, params, branch), abs=1e-12), \
                        (n, p, q, branch)


def test_w_integral_oracle_rule_size():
    # degree n+q needs 2*npts-1 coverage: 4 points suffice at n=3, q=3
    exact = w_integral_oracle(3, 1, 3, BOTH, Branch.Plus, rule_points=4)
    assert exact == pytest.approx(w_coefficient(3, 1, 3, BOTH, Branch.Plus), abs=1e-13)
    with pytest.raises(AccuracyError):
        w_integral_oracle(3, 1, 3, BOTH, Branch.Plus, rule_points=3)


def test_w_recursion_matches_racah_sum():
    for params, branch in BRANCH_CASES:
        for n in range(21):
            ent = w_matrix(n, params, branch).entries
            racah = np.array([[w_coefficient(n, p, q, params, branch)
                               for q in range(n + 1)] for p in range(n + 1)])
            np.testing.assert_allclose(ent, racah, rtol=0.0, atol=1e-12,
                                       err_msg=f"n={n} {branch}")
            assert np.all(ent[0] > 0.0), (n, branch)


def test_w_column_is_w_matrix_column():
    for params, branch in BRANCH_CASES:
        ent = w_matrix(12, params, branch).entries
        for q in range(13):
            np.testing.assert_allclose(w_column(12, q, params, branch), ent[:, q],
                                       rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):
        w_column(3, 4, BOTH, Branch.Plus)


def test_w_column_rescales_past_overflow():
    # at n = 1200 both passes of the top columns would overflow unscaled;
    # w_column checks each column's eigen residual itself
    for q in (1144, 1200):
        col = w_column(1200, q, BOTH, Branch.Plus)
        assert np.isfinite(col).all()
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [60, 150, 300])
def test_w_high_levels_meet_contract_and_match_eigh(n):
    for params, branch in BRANCH_CASES:
        ent = w_matrix(n, params, branch).entries
        m2 = 2.0 * m_matrix_cyl(n, params, branch)
        a_q = np.array([separation_constant_A(q, params, branch) for q in range(n + 1)])
        bound = interbasis._RESIDUAL_FACTOR * (n + 1)
        assert np.abs(ent @ ent.T - np.eye(n + 1)).max() <= bound
        assert np.abs(ent.T @ ent - np.eye(n + 1)).max() <= bound
        scale = max(np.abs(m2).max(), 1.0)
        assert np.abs(ent.T @ m2 @ ent - np.diag(a_q)).max() <= bound * scale
        # LAPACK eigenvectors, aligned in sign on each column's largest entry
        _, vec = np.linalg.eigh(m2)
        pivot = np.argmax(np.abs(vec), axis=0)
        cols = np.arange(n + 1)
        vec *= np.sign(vec[pivot, cols] * ent[pivot, cols])
        assert np.abs(vec - ent).max() <= 1e-12, (n, branch)


def test_w_corrupted_operator_is_numeric_error(monkeypatch):
    clean = interbasis.m_matrix_cyl

    def shifted(n, params, branch):
        mat = clean(n, params, branch)
        mat[n // 2, n // 2] += 1e-3
        return mat

    def poisoned(n, params, branch):
        mat = clean(n, params, branch)
        mat[n // 2, n // 2] = float("nan")
        return mat

    for corrupt in (shifted, poisoned):
        monkeypatch.setattr(interbasis, "m_matrix_cyl", corrupt)
        with pytest.raises(NumericError):
            w_matrix(8, BOTH, Branch.Plus)
        with pytest.raises(NumericError):
            w_column(8, 3, BOTH, Branch.Plus)


def test_w_matrix_transposed():
    mat = w_matrix(3, BOTH, Branch.Plus)
    assert mat.orientation == "cylindrical_to_spherical"
    flipped = mat.transposed()
    assert flipped.orientation == "spherical_to_cylindrical"
    np.testing.assert_array_equal(flipped.entries, mat.entries.T)
    assert not mat.entries.flags.writeable


def test_w_matrix_keeps_row_orthogonality():
    mat = w_matrix(12, BOTH, Branch.Plus)
    for table in (mat, mat.transposed()):
        ent = table.entries
        # numpy's einsum loop, not BLAS, so the bytes do not follow the thread count
        expected = np.abs(np.einsum("ik,jk->ij", ent, ent) - np.eye(13)).max(axis=1)
        np.testing.assert_array_equal(table.ortho_dev, expected)
        # and within a few roundings of the exactly summed products
        rows = ent.tolist()
        exact = [max(abs(math.fsum(a * b for a, b in zip(ri, rj)) - (i == j))
                     for j, rj in enumerate(rows)) for i, ri in enumerate(rows)]
        np.testing.assert_allclose(table.ortho_dev, exact, rtol=0, atol=13 * 2.0 ** -52)
        assert not table.ortho_dev.flags.writeable
        assert table.ortho_dev.max() <= 1e-13


def test_w_index_validation():
    with pytest.raises(DomainError):
        w_coefficient(2, 3, 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        w_coefficient(-1, 0, 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError):
        w_coefficient(2, 0, 0, STEEP, Branch.Minus)   # b > 1/2 forbids Minus


# ------------------------------------------------------------ ring regime

def test_ring_w_single_state_level():
    # N = |m| leaves one l and one n3; completeness forces value one
    assert ring_w(2, 2, 0, 2, 0.9) == pytest.approx(1.0, abs=1e-13)
    assert ring_w(1, -1, 0, 1, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_ring_w_matrix_is_orthogonal():
    # N = 4, |m| = 1: n3 in {1, 3}, l in {2, 4} (odd N - |m|)
    mat = np.array([[ring_w(4, 1, n3, l, 0.7) for l in (2, 4)] for n3 in (1, 3)])
    np.testing.assert_allclose(mat @ mat.T, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(mat.T @ mat, np.eye(2), atol=1e-13)
    # N = 4, |m| = 2: n3 in {0, 2}, l in {2, 4} (even N - |m|)
    mat = np.array([[ring_w(4, 2, n3, l, 1.3) for l in (2, 4)] for n3 in (0, 2)])
    np.testing.assert_allclose(mat @ mat.T, np.eye(2), atol=1e-13)


def test_ring_w_reduces_general_route():
    for params in (RING, RING0):
        _, _, delta = channel_constants(params)
        for branch in (Branch.Plus, Branch.Minus):
            for n in range(5):
                for p in range(n + 1):
                    for q in range(n + 1):
                        sph = ring_relabel(
                            SphericalLabel(n_r=n - q, q=q, m=params.m, branch=branch),
                            params)
                        cyl = ring_relabel(
                            CylindricalLabel(n_rho=n - p, p=p, m=params.m, branch=branch),
                            params)
                        assert w_coefficient(n, p, q, params, branch) == pytest.approx(
                            ring_w(cyl.N, params.m, cyl.n3, sph.l, delta),
                            rel=1e-12, abs=1e-12), (params.m, branch, n, p, q)


def test_ring_w_validation():
    with pytest.raises(DomainError):
        ring_w(4, 1, 1, 3, 0.0)    # N - l odd
    with pytest.raises(DomainError):
        ring_w(4, 1, 0, 2, 0.0)    # n3 parity differs from N - |m|
    with pytest.raises(DomainError):
        ring_w(4, 5, 1, 4, 0.0)    # l < |m|
    with pytest.raises(DomainError):
        ring_w(4, 1, 5, 2, 0.0)    # n3 > N - |m|
    with pytest.raises(DomainError):
        ring_w(4, 1, 1, 2, -0.2)   # delta < 0


# ----------------------------------------------------- operator matrices

def test_m_matrix_worked_value():
    assert m_matrix_cyl(0, BOTH, Branch.Plus)[0, 0] == pytest.approx(2.52, abs=1e-12)


def test_n_matrix_worked_value():
    mat = n_matrix_sph(0, BOTH, Branch.Plus)
    assert mat[0, 0] == pytest.approx(1.3, abs=1e-12)
    ez = energy_cylindrical_parts(0, 0, BOTH, Branch.Plus)[1]
    assert mat[0, 0] == pytest.approx(ez, rel=1e-14)


def test_matrices_symmetric_tridiagonal():
    for mat in (m_matrix_cyl(4, BOTH, Branch.Plus), n_matrix_sph(4, BOTH, Branch.Minus)):
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(np.triu(mat, 2) == 0.0)


def test_m_matrix_similarity_and_spectrum():
    for params, branch in BRANCH_CASES:
        for n in range(6):
            mat = m_matrix_cyl(n, params, branch)
            ent = w_matrix(n, params, branch).entries
            a_q = np.array([separation_constant_A(q, params, branch)
                            for q in range(n + 1)])
            np.testing.assert_allclose(2.0 * mat, ent @ np.diag(a_q) @ ent.T,
                                       atol=1e-11)
            np.testing.assert_allclose(np.linalg.eigvalsh(2.0 * mat), a_q,
                                       rtol=1e-12, atol=1e-11)


def test_n_matrix_similarity_and_spectrum():
    for params, branch in BRANCH_CASES:
        for n in range(6):
            mat = n_matrix_sph(n, params, branch)
            ent = w_matrix(n, params, branch).entries
            e_z = np.array([energy_cylindrical_parts(n - p, p, params, branch)[1]
                            for p in range(n + 1)])
            np.testing.assert_allclose(mat, ent.T @ np.diag(e_z) @ ent, atol=1e-11)
            np.testing.assert_allclose(np.linalg.eigvalsh(mat), e_z,
                                       rtol=1e-12, atol=1e-11)
