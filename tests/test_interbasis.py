"""Interbasis expansion: continued CG values, W matrices, operator tridiagonals."""

import math
import random
import re
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational
from sympy.physics.quantum.cg import CG as sympy_cg

import genosc.interbasis as interbasis
from genosc import spheroidal
from genosc.errors import AccuracyError, DomainError, NumericError
from genosc.interbasis import (m_matrix_cyl, n_matrix_sph, ring_w, w_coefficient,
                               w_integral_oracle, w_matrix)
from genosc.model import (Branch, CylindricalLabel, RingLabel, SphericalLabel,
                          SystemParams, admissible_branches, channel_constants,
                          energy_cylindrical_parts, ring_relabel,
                          separation_constant_A)
from genosc.oracles import w_overlap_oracle
from genosc.spheroidal import Kind, u_coefficients

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)    # b=1.5
RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)     # b=1/2, delta=1
RING0 = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=1)    # b=1/2, delta=0

BRANCH_CASES = [(BOTH, Branch.Plus), (BOTH, Branch.Minus), (STEEP, Branch.Plus)]


def half(x):
    return Rational(int(round(2 * x)), 2)


def w_args(n, p, q, c, sb):
    """(a0, b0, alpha, beta, c0) of W_np^q = (-1)^(n-q) (a0 b0 alpha beta | c0 alpha+beta)."""
    a0 = 0.5 * (n + sb)
    b0 = 0.5 * (n + c)
    return a0, b0, p - 0.5 * (n - sb), 0.5 * (n + c) - p, q + 0.5 * (c + sb)


def signed_b_and_c(params, branch):
    b, c, _ = channel_constants(params)
    return branch.sign * b, c


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


def w_mpmath(n, p, q, params, branch):
    """W_np^q as a Racah sum in mpmath, its arguments formed exactly."""
    sb, c = signed_b_and_c(params, branch)
    return (-1) ** (n - q) * racah_sum_mpmath(*w_args(n, p, q, mpmath.mpf(c), mpmath.mpf(sb)))


def ring_w_mpmath(N, m, n3, l, delta):
    """ring_w's entry as a Racah sum in mpmath, its arguments formed exactly."""
    ma, d = abs(m), mpmath.mpf(delta)
    return racah_sum_mpmath(mpmath.mpf(N + ma) / 4 + d / 2, mpmath.mpf(N - ma - 1) / 4,
                            mpmath.mpf(N + ma - 2 * n3) / 4 + d / 2,
                            mpmath.mpf(2 * n3 - N + ma - 1) / 4, mpmath.mpf(2 * l - 1) / 4 + d / 2)


# P = 3/4 and Q = 0 give b = 1 and c = |m|: every W argument is then a (half-)integer and
# W_np^q is a standard Clebsch-Gordan coefficient
HALF_INT = SystemParams(omega=1.0, p_strength=0.75, q_strength=0.0, m=0)

# ------------------------------------------------------------ continued CG


def test_cg_frozen_table_values():
    # n = 1: (1 p; 1/2 1/2-p | q+1/2 1/2) up to (-1)^(1-q)
    table = w_coefficient(1, np.array([[0], [1]]), np.array([0, 1]), HALF_INT, Branch.Plus)
    np.testing.assert_allclose(table, [[math.sqrt(1 / 3), math.sqrt(2 / 3)],
                                       [-math.sqrt(2 / 3), math.sqrt(1 / 3)]], rtol=1e-14)
    # (2 1; 3/2 -1/2 | 3/2 1/2) = 0: two terms that cancel exactly give 0.0, not -0.0
    assert np.float64(w_coefficient(3, 2, 1, HALF_INT, Branch.Plus)).tobytes() \
        == np.float64(0.0).tobytes()


def test_cg_matches_sympy_at_table_arguments():
    for m in range(4):
        params = SystemParams(omega=1.0, p_strength=0.75, q_strength=0.0, m=m)
        sb, c = signed_b_and_c(params, Branch.Plus)
        assert (sb, c) == (1.0, m)
        for n in range(7):
            k = np.arange(n + 1)
            table = w_coefficient(n, k[:, None], k, params, Branch.Plus)
            for p in range(n + 1):
                for q in range(n + 1):
                    a, b, alpha, beta, c0 = w_args(n, p, q, c, sb)
                    ref = (-1) ** (n - q) * float(sympy_cg(
                        half(a), half(alpha), half(b), half(beta), half(c0),
                        half(alpha + beta)).doit())
                    assert table[p, q] == pytest.approx(ref, rel=1e-12, abs=1e-13), (m, n, p, q)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), p=st.integers(0, 5), q=st.integers(0, 5),
       cc=st.floats(0.3, 3.5), sb=st.floats(-0.45, 1.45))
def test_cg_three_term_recursion_at_continued_arguments(n, p, q, cc, sb):
    # the CG recursion in alpha at fixed a, b, c, gamma is W's in p at fixed n, q
    # (alpha -+ 1 is p -+ 1), and the sign (-1)^(n-q) is common to its three terms
    p, q = min(p, n), min(q, n)
    # |b| below 5.3e-9 reads as the least P, b = 5.3e-9
    params = SystemParams(omega=1.0, p_strength=max(sb * sb - 0.25, math.nextafter(-0.25, 0.0)),
                          q_strength=cc * cc, m=0)
    branch = Branch.Plus if sb >= 0.0 else Branch.Minus
    sb, cc = signed_b_and_c(params, branch)
    a, b, alpha, beta, c = w_args(n, p, q, cc, sb)
    lhs = (-a * (a + 1) - b * (b + 1) + c * (c + 1) - 2 * alpha * beta) \
        * w_coefficient(n, p, q, params, branch)
    # (a + alpha)(a - alpha + 1)(b - beta)(b + beta + 1) and (a - alpha)(a + alpha + 1)
    # (b + beta)(b - beta + 1) in p: they vanish at p = 0 and p = n, where p -+ 1 leaves the level
    rhs = 0.0
    if p > 0:
        rhs += math.sqrt((p + sb) * (n - p + 1) * p * (n + cc - p + 1)) \
            * w_coefficient(n, p - 1, q, params, branch)
    if p < n:
        rhs += math.sqrt((n - p) * (p + sb + 1) * (n + cc - p) * (p + 1)) \
            * w_coefficient(n, p + 1, q, params, branch)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_cg_is_continuous_at_near_integer_arguments():
    # at the least P, b = 5.3e-9: c-b+alpha = p+q-n +- b is that near an integer, and the
    # value must follow b, not jump to the b = 0 value (O(b) off)
    params = SystemParams(omega=1.0, p_strength=math.nextafter(-0.25, 0.0), q_strength=0.0, m=1)
    with mpmath.workdps(30):
        for branch in (Branch.Plus, Branch.Minus):
            for n in (1, 2):
                for p in range(n + 1):
                    for q in range(n + 1):
                        assert w_coefficient(n, p, q, params, branch) == pytest.approx(
                            w_mpmath(n, p, q, params, branch), rel=1e-13, abs=1e-15), \
                            (branch, n, p, q)


def test_cg_symmetries_at_continued_arguments():
    # (a alpha b beta | c gamma) = (-1)^(a+b-c) (b beta a alpha | c gamma): exchanging
    # a0 <-> b0 is exchanging b <-> c with p -> n - p, so
    # W_np^q(b, c) = (-1)^(n-q) W_n(n-p)^q(c, b) on the Plus branch
    for b, c in ((0.3, 1.65), (1.5, 2.15), (2.0, 0.75), (0.0625, 3.5)):
        params = SystemParams(omega=1.0, p_strength=b * b - 0.25, q_strength=c * c, m=0)
        swapped = SystemParams(omega=1.0, p_strength=c * c - 0.25, q_strength=b * b, m=0)
        for n in range(6):
            k = np.arange(n + 1)
            table = w_coefficient(n, k[:, None], k, params, Branch.Plus)
            other = w_coefficient(n, k[::-1, None], k, swapped, Branch.Plus)
            np.testing.assert_allclose(table, np.where((n - k) % 2, -1.0, 1.0) * other,
                                       rtol=0.0, atol=1e-13, err_msg=f"{b} {c} {n}")


# ------------------------------------------------- the exact Racah sum

def ring_level(n, params, branch):
    """(N column, n3 column, l row, delta) of the ring table at level n."""
    cyl = [ring_relabel(CylindricalLabel(n - p, p, params.m, branch), params)
           for p in range(n + 1)]
    sph = [ring_relabel(SphericalLabel(n - q, q, params.m, branch), params)
           for q in range(n + 1)]
    return (np.array([[c.N] for c in cyl]), np.array([[c.n3] for c in cyl]),
            np.array([s.l for s in sph]), sph[0].delta)


def ring_table_cases():
    """Seeded ring levels up to 60: m 0-3 of either sign, both branches, Q = 0
    and Q > 0, each pattern at small and large levels."""
    rng = random.Random(20261018)
    levels = [0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 18, 23, 30, 60]
    levels += [rng.randint(0, 12) for _ in range(24)]
    cases = []
    for i, n in enumerate(levels):
        q_strength = 0.0 if i % 3 == 0 else rng.uniform(0.05, 12.0)
        m = (i % 4) * rng.choice((1, -1))
        branch = (Branch.Plus, Branch.Minus)[(i // 4) % 2]
        cases.append((n, SystemParams(omega=rng.uniform(0.3, 3.0), p_strength=0.0,
                                      q_strength=q_strength, m=m), branch))
    return cases


def test_ring_tables_match_w_matrix():
    # at P = 0 the ring coefficients are the level's W table, relabelled
    for n, params, branch in ring_table_cases():
        N, n3, l, delta = ring_level(n, params, branch)
        table = ring_w(N, params.m, n3, l, delta)
        assert table.shape == (n + 1, n + 1)
        np.testing.assert_allclose(table, w_matrix(n, params, branch).entries, rtol=0.0,
                                   atol=1e-13, err_msg=f"{n} {params} {branch}")
        if n <= 3:   # a scalar call reads its entry of the table
            for p in range(n + 1):
                for q in range(n + 1):
                    value = ring_w(int(N[p, 0]), params.m, int(n3[p, 0]), int(l[q]), delta)
                    assert type(value) is float
                    assert np.float64(value).tobytes() == table[p, q].tobytes()


def test_w_tables_match_w_matrix():
    for params, branch in BRANCH_CASES:
        for n in range(21):
            k = np.arange(n + 1)
            table = w_coefficient(n, k[:, None], k, params, branch)
            np.testing.assert_allclose(table, w_matrix(n, params, branch).entries, rtol=0.0,
                                       atol=1e-13, err_msg=f"n={n} {branch}")
            if n <= 3:
                for p in range(n + 1):
                    for q in range(n + 1):
                        value = w_coefficient(n, p, q, params, branch)
                        assert type(value) is float
                        assert np.float64(value).tobytes() == table[p, q].tobytes()
        # broadcast index arrays across levels give the same entries
        levels = np.array([[3], [7]])
        mixed = w_coefficient(levels, np.array([0, 2, 3]), np.array([[1], [3]]), params, branch)
        assert mixed.tobytes() == np.array(
            [[w_coefficient(3, p, 1, params, branch) for p in (0, 2, 3)],
             [w_coefficient(7, p, 3, params, branch) for p in (0, 2, 3)]]).tobytes()


# b and c whose doubled fractions sum past one unit, on each branch: b = 0.75, c = 2.875 and
# b = 0.375, c = 2.4375 (all exact dyadics)
CARRY_PLUS = SystemParams(omega=1.1, p_strength=0.3125, q_strength=7.265625, m=1)
CARRY_MINUS = SystemParams(omega=0.9, p_strength=-0.109375, q_strength=4.94140625, m=1)
P0 = SystemParams(omega=1.3, p_strength=0.0, q_strength=0.0, m=0)


def assert_scalars_read_table(table, scalar, picks):
    for i, j in picks:
        value = scalar(i, j)
        assert type(value) is float
        assert np.float64(value).tobytes() == table[i, j].tobytes(), (i, j)


def table_picks(rows, cols, seed):
    """The four corners and a dozen seeded entries of a rows x cols table."""
    rng = random.Random(seed)
    return ([(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
            + [(rng.randrange(rows), rng.randrange(cols)) for _ in range(12)])


# a table is set up once for all its entries, so a scalar call must still read its entry
# of the table bit for bit at large levels, P = 0 and Q = 0, and offsets that carry
@pytest.mark.parametrize("n, params, branch", [
    (30, CARRY_PLUS, Branch.Plus), (30, CARRY_MINUS, Branch.Minus), (30, P0, Branch.Minus),
    (30, BOTH, Branch.Minus), (200, CARRY_PLUS, Branch.Plus), (200, P0, Branch.Plus)])
def test_w_coefficient_scalars_read_their_table_entries(n, params, branch):
    k = np.arange(n + 1)
    rows = k if n <= 30 else np.array([0, 1, n // 3, n // 2, n - 1, n])
    table = w_coefficient(n, rows[:, None], k, params, branch)
    assert_scalars_read_table(table, lambda i, q: w_coefficient(n, int(rows[i]), q, params, branch),
                              table_picks(len(rows), n + 1, n))


def test_w_coefficient_exact_zeros_are_positive():
    # the P = 3/4 tables at m <= 3, n <= 8 hold 27 exact zeros; the 16 at odd n - q
    # took the (-1)^(n-q) sign as -0.0
    zeros = []
    for m in range(4):
        params = SystemParams(omega=1.0, p_strength=0.75, q_strength=0.0, m=m)
        for branch in admissible_branches(params):
            for n in range(9):
                k = np.arange(n + 1)
                table = w_coefficient(n, k[:, None], k, params, branch)
                zeros += [(n, int(p), int(q), table[p, q], params, branch)
                          for p, q in zip(*np.nonzero(table == 0.0))]
    assert len(zeros) == 27 and sum((n - q) % 2 for n, _, q, *_ in zeros) == 16
    for n, p, q, entry, params, branch in zeros:
        assert math.copysign(1.0, entry) == 1.0
        assert math.copysign(1.0, w_coefficient(n, p, q, params, branch)) == 1.0


@pytest.mark.parametrize("n, params, branch, delta", [
    (30, RING, Branch.Plus, None), (30, RING0, Branch.Minus, None),
    (60, SystemParams(omega=1.0, p_strength=0.0, q_strength=2.24, m=1), Branch.Plus, None),
    (60, SystemParams(omega=0.7, p_strength=0.0, q_strength=0.0, m=0), Branch.Minus, None),
    (30, RING, Branch.Minus, 5e-324)])
def test_ring_w_scalars_read_their_table_entries(n, params, branch, delta):
    # delta = 0.8 makes 2 delta = 1.6 carry past a unit; 5e-324 puts delta over 2^1074
    N, n3, l, level_delta = ring_level(n, params, branch)
    delta = level_delta if delta is None else delta
    table = ring_w(N, params.m, n3, l, delta)
    assert_scalars_read_table(
        table, lambda p, q: ring_w(int(N[p, 0]), params.m, int(n3[p, 0]), int(l[q]), delta),
        table_picks(n + 1, n + 1, n))


# w_matrix's own recursion is 1.6e-12 off an mpmath Racah sum at n = 800
# ((p, q) = (0, 0), BOTH, Minus), so that level's bound is its, not the sum's
@pytest.mark.parametrize("n, tol", [(60, 1e-13), (200, 1e-12), (800, 3e-12)])
def test_w_coefficient_rows_match_w_matrix_at_high_levels(n, tol):
    p0 = SystemParams(omega=1.3, p_strength=0.0, q_strength=0.0, m=0)
    rows = np.array([0, 1, n // 2, n - 1, n])[:, None]
    k = np.arange(n + 1)
    for params, branch in BRANCH_CASES + [(p0, Branch.Plus), (p0, Branch.Minus)]:
        table = w_coefficient(n, rows, k, params, branch)
        np.testing.assert_allclose(table, w_matrix(n, params, branch).entries[rows[:, 0]],
                                   rtol=0.0, atol=tol, err_msg=f"n={n} {params} {branch}")


# The corners where a W or ring pattern comes closest to a pole of the sum: a prefactor
# Gamma argument, a+b+c or 2c at 1/2 (the Minus branch at P = 0 and q = 0, with c = 0 too;
# ring entries at n3 = 0, and at l = |m| = 0, with delta = 0 or 5e-324), and W and ring
# entries at large Gamma arguments, whose lgamma ulps the tolerance follows (3.3e-12 off at
# Q = 1e6, 2.3e-12 at delta = 1e3)
W_CORNERS = [
    (SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=0), Branch.Minus, 1e-14),
    (SystemParams(omega=1.0, p_strength=0.0, q_strength=0.0, m=1), Branch.Minus, 1e-14),
    (SystemParams(omega=1.0, p_strength=0.0, q_strength=2.5, m=0), Branch.Minus, 1e-14),
    (SystemParams(omega=1.0, p_strength=0.7, q_strength=1e6, m=1), Branch.Plus, 1e-11),
    (SystemParams(omega=1.0, p_strength=0.0, q_strength=1e6, m=0), Branch.Minus, 1e-11)]


def test_racah_corner_patterns_match_mpmath():
    with mpmath.workdps(30):
        for params, branch, tol in W_CORNERS:
            for n in (0, 1, 2, 5, 12):
                k = np.arange(n + 1)
                q = k if params.q_strength == 1e6 else k[:1]
                table = w_coefficient(n, k[:, None], q, params, branch)
                ref = [[w_mpmath(n, p, j, params, branch) for j in q] for p in k]
                np.testing.assert_allclose(table, ref, rtol=tol, atol=tol,
                                           err_msg=f"{params} {branch} n={n}")
        for delta, tol in ((0.0, 1e-14), (5e-324, 1e-14), (1e3, 1e-11)):
            for m, N in ((0, 0), (0, 2), (0, 6), (0, 14), (1, 1), (1, 3), (1, 13)):
                # n3 = 0 against every l, and l = |m| = 0 against every n3
                entries = [(0, l) for l in range(m, N + 1, 2)]
                entries += [(n3, 0) for n3 in range(2, N + 1, 2)] if m == 0 else []
                for n3, l in entries:
                    assert ring_w(N, m, n3, l, delta) == pytest.approx(
                        ring_w_mpmath(N, m, n3, l, delta), rel=tol, abs=tol), (delta, N, m, n3, l)


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
            k = np.arange(n + 1)
            racah = w_coefficient(n, k[:, None], k, params, branch)
            for p in range(n + 1):
                for q in range(n + 1):
                    assert racah[p, q] == pytest.approx(
                        w_integral_oracle(n, p, q, params, branch), abs=1e-12), \
                        (n, p, q, branch)
    # one overlap route: each entry is the oracle table's, bit for bit
    for params, branch in BRANCH_CASES:
        for n in range(13):
            table = w_overlap_oracle(n, params, branch)[0]
            for p in range(n + 1):
                for q in range(n + 1):
                    assert w_integral_oracle(n, p, q, params, branch) == table[p, q], \
                        (n, p, q, branch)


def seeded_w_levels():
    """(n, params, branch): 8 seeded levels to 30 per admissible branch of 30 seeded
    systems, every third at P <= 0, where the Minus branch is admissible too."""
    rng = random.Random(2323)
    for case in range(30):
        p_strength = rng.uniform(-0.25, 0.0) if case % 3 == 0 else rng.uniform(0.0, 5.0)
        params = SystemParams(omega=10.0 ** rng.uniform(-2.0, 2.0),
                              p_strength=max(p_strength, -0.2499),
                              q_strength=rng.choice((0.0, rng.uniform(0.0, 8.0))),
                              m=rng.randint(-3, 3))
        for branch in admissible_branches(params):
            yield from ((n, params, branch) for n in rng.sample(range(31), 8))


def _assert_w_matches_racah(cases):
    for n, params, branch in cases:
        ent = w_matrix(n, params, branch).entries
        k = np.arange(n + 1)
        racah = w_coefficient(n, k[:, None], k, params, branch)
        np.testing.assert_allclose(ent, racah, rtol=0.0, atol=1e-12,
                                   err_msg=f"n={n} {params} {branch}")
        assert np.all(ent[0] > 0.0), (n, params, branch)


def test_w_recursion_matches_racah_sum():
    # every level to 20 of BRANCH_CASES
    _assert_w_matches_racah([(n, params, branch)
                             for params, branch in BRANCH_CASES for n in range(21)])


def test_w_recursion_matches_racah_sum_at_seeded_levels():
    # the seed-2323 systems, both branches, 8 levels <= 30 each (3.5e-14 off at worst)
    seeded = list(seeded_w_levels())
    assert len(seeded) == 320 and sum(branch is Branch.Minus for *_, branch in seeded) == 80
    _assert_w_matches_racah(seeded)


def test_w_column_rescales_past_overflow():
    # at n = 1200 both passes of the top columns would overflow unscaled;
    # _w_table checks each column's eigen residual itself
    ent = interbasis._w_table(1200, BOTH, Branch.Plus).entries
    for q in (1144, 1200):
        col = ent[:, q]
        assert np.isfinite(col).all()
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [60, 150, 300, 600])
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


def test_w_corrupted_operator_is_numeric_error(monkeypatch, fresh_tables):
    # every consumer of M reads its bands from interbasis._m_bands (read-only, shared)
    clean = interbasis._m_bands

    def shifted(n, params, branch):
        diag, off = (band.copy() for band in clean(n, params, branch))
        diag[n // 2] += 1e-3
        return diag, off

    def poisoned(n, params, branch):
        diag, off = (band.copy() for band in clean(n, params, branch))
        diag[n // 2] = float("nan")
        return diag, off

    for corrupt in (shifted, poisoned):
        monkeypatch.setattr(interbasis, "_m_bands", corrupt)
        with pytest.raises(NumericError):
            w_matrix(8, BOTH, Branch.Plus)
        spheroidal._pair_columns.cache_clear()
        with pytest.raises(NumericError):
            u_coefficients(8, 3, BOTH, Branch.Plus, 1.3, Kind.Prolate)


@pytest.mark.parametrize("n", [1, 2, 8, 40])
def test_non_finite_bands_raise_numeric_error(monkeypatch, fresh_tables, n):
    clean = interbasis._m_bands

    def off_nan(diag, off):
        off[n // 2] = np.nan

    def diag_nan(diag, off):
        diag[:] = np.nan

    def diag_inf(diag, off):
        diag[n // 2] = np.inf

    for corrupt in (off_nan, diag_nan, diag_inf):
        def bands(level, params, branch):
            diag, off = (band.copy() for band in clean(level, params, branch))
            corrupt(diag, off)
            return diag, off
        monkeypatch.setattr(interbasis, "_m_bands", bands)
        with pytest.raises(NumericError, match="interbasis recursion gave non-finite entries"):
            w_matrix(n, BOTH, Branch.Plus)


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


def test_racah_sums_refuse_orders_past_their_prefactor_accuracy():
    # the lgamma prefactor loses digits as a + b + c grows: ring_w(N, 1, 0, 1, 0.2) was
    # 1.3e-9 off mpmath at N = 2^20 + 1 and returned 1.0 at 2^52 + 1; each is refused at once
    params = SystemParams(1.3, 0.7, 1.1, 1)
    # offsets past int64 (2 delta = 2e300, c = 1e150) are refused too, array calls included
    for call in (lambda: ring_w(2 ** 52 + 1, 1, 0, 1, 0.2),
                 lambda: ring_w(2 ** 20 + 1, 1, 0, 1, 0.2),
                 lambda: w_coefficient(2 ** 20, 0, 0, params, Branch.Plus),
                 lambda: ring_w(4, 1, 1, 2, 1e300),
                 lambda: ring_w(np.array([4, 6]), 1, 1, 2, 1e300),
                 lambda: w_coefficient(3, 1, np.array([0, 2]), SystemParams(1.3, 0.7, 1e300, 1),
                                       Branch.Plus)):
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="a \\+ b \\+ c"):
            call()
        assert time.perf_counter() - start < 1.0
    # a + b + c = 2^14 + 0.7 is still served, 1.7e-11 off a 60-digit mpmath sum
    assert ring_w(2 ** 15 + 1, 1, 0, 1, 0.2) == pytest.approx(0.10465266742282016, rel=1e-10)


def test_a_table_past_a_cap_raises_before_any_sum(monkeypatch):
    # the first entry (C order) past a cap refuses the whole table before any prefactor or
    # Horner work: level-60 entries ahead of it cost nothing
    calls = []
    monkeypatch.setattr(interbasis, "_horner", lambda *a: calls.append(a))
    monkeypatch.setattr(interbasis, "_ln_prefactor", lambda *a: calls.append(a))
    params = SystemParams(1.3, 0.7, 1.1, 1)
    n = np.array([[60, 2 ** 16], [2 ** 15, 60]])
    # a + b + c = n + q + c + b at the first capped entry, n = 2^16 (q = 0)
    with pytest.raises(AccuracyError, match=r"a \+ b \+ c = 65538\.\d+ past 32768"):
        w_coefficient(n, 0, 0, params, Branch.Plus)
    with pytest.raises(AccuracyError, match="past 32768"):
        w_coefficient(np.append(np.full(3000, 60), 2 ** 15), 30, 30, params, Branch.Plus)
    # the term cap comes first, also when the order cap is passed too
    with pytest.raises(NumericError, match="more than 8192 terms"):
        w_coefficient(np.array([60, 2 ** 40]), np.array([30, 2 ** 39]), np.array([2, 2 ** 39]),
                      params, Branch.Plus)
    with pytest.raises(AccuracyError, match="past 32768"):
        ring_w(np.array([5, 2 ** 16 + 1]), 1, 0, 1, 0.2)
    assert not calls


def test_a_scalar_index_past_2_62_is_refused_as_an_array_entry_is():
    params = SystemParams(1.3, 0.7, 1.1, 1)
    for call, array_call in (
            (lambda: w_coefficient(2 ** 62, 0, 0, params, Branch.Plus),
             lambda: w_coefficient(np.array([2 ** 62]), 0, 0, params, Branch.Plus)),
            (lambda: w_coefficient(5, 2 ** 63, 0, params, Branch.Plus),
             lambda: w_coefficient(5, np.array([2 ** 63], dtype=np.uint64), 0, params,
                                   Branch.Plus)),
            (lambda: ring_w(2 ** 62 + 1, 1, 0, 1, 0.2),
             lambda: ring_w(np.array([2 ** 62 + 1]), 1, 0, 1, 0.2)),
            (lambda: ring_w(3, 1, 0, 2 ** 64, 0.2),
             lambda: ring_w(3, 1, 0, np.array([2 ** 64 - 1], dtype=np.uint64), 0.2))):
        with pytest.raises(DomainError) as scalar:
            call()
        with pytest.raises(DomainError) as array:
            array_call()
        scalar, array = str(scalar.value), str(array.value)
        assert re.fullmatch(r"(level n|p|N|l) must be a nonnegative integer, got \d+", scalar)
        assert array.startswith(scalar.split(", got")[0]) and array.endswith(" at entry (0,)")
    # below the limit a scalar still reaches the sum's own caps
    with pytest.raises(NumericError, match="more than 8192 terms"):
        w_coefficient(2 ** 62 - 4, 2 ** 61 - 2, 2 ** 61 - 2, params, Branch.Plus)


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
                k = np.arange(n + 1)
                N, n3, l, _ = ring_level(n, params, branch)
                assert w_coefficient(n, k[:, None], k, params, branch) == pytest.approx(
                    ring_w(N, params.m, n3, l, delta), rel=1e-12, abs=1e-12), \
                    (params.m, branch, n)


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
    for bad_m in (1.5, math.nan):   # a non-integer m is not read as m = 1
        with pytest.raises(DomainError, match=r"\|m\| must be"):
            ring_w(3, bad_m, 2, 1, 0.2)
        with pytest.raises(DomainError, match=r"\|m\| must be"):
            RingLabel(N=3, m=bad_m, delta=0.2, l=3)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="delta"):
            ring_w(3, 1, 2, 1, bad)
        with pytest.raises(DomainError, match="delta"):
            RingLabel(N=3, m=1, delta=bad, l=1)
    # array calls keep every refusal; the first bad entry is named
    # (N = 4, |m| = 1: n3 in {1, 3}, l in {2, 4})
    n3, l = np.array([[1], [3]]), np.array([2, 4])
    assert ring_w(4, 1, n3, l, 0.7).shape == (2, 2)
    with pytest.raises(DomainError, match=r"N - l even, got N=4, l=3, m=1 at entry \(1, 0\)"):
        ring_w(4, 1, np.array([1, 3]), np.array([[2], [3]]), 0.0)
    with pytest.raises(DomainError, match=r"n3=2, m=1 at entry \(0, 1\)"):
        ring_w(4, 1, np.array([[1, 2]]), l, 0.0)          # n3 parity
    with pytest.raises(DomainError, match=r"l=0, m=2 at entry \(1,\)"):
        ring_w(4, 2, 0, np.array([2, 0]), 0.0)            # l < |m|
    with pytest.raises(DomainError, match=r"n3=5, m=1 at entry \(2,\)"):
        ring_w(4, 1, np.array([1, 3, 5]), 2, 0.0)         # n3 > N - |m|
    with pytest.raises(DomainError, match=r"l=6, m=1 at entry \(0, 1\)"):
        ring_w(np.array([[4], [4]]), 1, 1, np.array([2, 6]), 0.0)   # l > N
    with pytest.raises(DomainError, match=r"n3 must be a nonnegative integer, got 1\.5 at entry \(1,\)"):
        ring_w(4, 1, np.array([1.0, 1.5]), 2, 0.0)
    with pytest.raises(DomainError, match=r"l must be a nonnegative integer, got -2 at entry \(0,\)"):
        ring_w(4, 1, 1, np.array([-2, 2]), 0.0)
    with pytest.raises(DomainError, match=r"N must be a nonnegative integer, got nan"):
        ring_w(np.array([4.0, math.nan]), 1, 1, 2, 0.0)
    with pytest.raises(DomainError, match="dtype"):
        ring_w(4, 1, np.array(["1", "3"]), 2, 0.0)
    # the m and delta checks hold for array calls too
    with pytest.raises(DomainError, match=r"\|m\| must be"):
        ring_w(4, 1.5, n3, l, 0.2)
    for bad in (-0.2, math.nan, math.inf):
        with pytest.raises(DomainError, match="delta"):
            ring_w(4, 1, n3, l, bad)
    # integer-valued floats are indices; an empty array gives an empty table
    assert ring_w(4.0, 1, n3.astype(float), l, 0.7).tobytes() == ring_w(4, 1, n3, l, 0.7).tobytes()
    assert ring_w(4, 1, np.array([], dtype=int), 2, 0.7).shape == (0,)
    # also at |m| past int64, which once overflowed forming N - |m| (OverflowError)
    empty = ring_w(np.array([], dtype=int), 10 ** 30, 0, 1, 0.2)
    assert empty.shape == (0,) and empty.dtype == np.float64
    with pytest.raises(DomainError, match=r"got n=2, p=3, q=0 at entry \(1,\)"):
        w_coefficient(2, np.array([1, 3]), 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError, match=r"q must be a nonnegative integer, got -1"):
        w_coefficient(2, 0, np.array([-1]), BOTH, Branch.Plus)
    # an integer entry at or past 2^62 is refused like a float one, unsigned ones unwrapped
    # (2^64 - 1 once read as -1 and gave [-0.], 2^63 was refused as n=-9223372036854775808)
    with pytest.raises(DomainError, match=r"p must be a nonnegative integer, got "
                                          r"18446744073709551615 at entry \(0,\)"):
        w_coefficient(3, np.array([2 ** 64 - 1], dtype=np.uint64), 0, BOTH, Branch.Plus)
    with pytest.raises(DomainError, match=r"level n must be a nonnegative integer, got "
                                          r"9223372036854775808 at entry \(0,\)"):
        w_coefficient(np.array([2 ** 63], dtype=np.uint64), 0, 0, BOTH, Branch.Plus)
    for bad in (np.array([5, 2 ** 62]), np.array([5, 2 ** 63], dtype=np.uint64),
                np.array([5.0, 2.0 ** 62])):
        with pytest.raises(DomainError, match=re.escape(f"N must be a nonnegative integer, got "
                                                        f"{bad[1].item()!r} at entry (1,)")):
            ring_w(bad, 1, 0, 1, 0.2)


@pytest.mark.parametrize("bad_m", [math.nan, math.inf, "1", 1.5])
def test_ring_m_must_be_an_integer(bad_m):
    # refused before abs() or int() sees it: no TypeError, ValueError or OverflowError
    with pytest.raises(DomainError, match=r"\|m\| must be"):
        ring_w(3, bad_m, 2, 1, 0.2)
    with pytest.raises(DomainError, match=r"\|m\| must be"):
        RingLabel(N=3, m=bad_m, delta=0.2, l=3)


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


def _ref_m_matrix_cyl(n, params, branch):
    # the dense loop the bands replaced, kept as the bit-for-bit reference
    b, c, _ = channel_constants(params)
    sb = branch.sign * b
    mat = np.zeros((n + 1, n + 1))
    for p in range(n + 1):
        mat[p, p] = (0.5 * (c - sb + 0.5) * (c - sb + 1.5)
                     + 2.0 * (p + 1.0) * (n - p)
                     + 2.0 * (p + sb) * (n + c - p + 1.0))
        if p < n:
            off = 2.0 * math.sqrt((p + 1.0) * (p + 1.0 + sb) * (n - p) * (n + c - p))
            mat[p, p + 1] = off
            mat[p + 1, p] = off
    return mat


def _ref_n_matrix_sph(n, params, branch):
    b, c, _ = channel_constants(params)
    sb = branch.sign * b
    omega = params.omega
    e_n = omega * (2.0 * n + c + sb + 2.0)
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = e_n * (sb + 1.0) / (c + sb + 2.0)
    for q in range(1, n + 1):
        base = 2.0 * q + c + sb
        mat[q, q] = (e_n * (2.0 * q * (q + 1.0) + (c + sb) * (2.0 * q + sb + 1.0))
                     / (base * (base + 2.0)))
        off = -2.0 * omega * math.sqrt(
            q * (n - q + 1.0) * (q + c + sb) * (q + sb) * (q + c)
            * (n + q + c + sb + 1.0)
            / (base * base * (base - 1.0) * (base + 1.0)))
        mat[q - 1, q] = off
        mat[q, q - 1] = off
    return mat


def test_operator_matrices_match_dense_loops_bit_for_bit():
    rng = random.Random(1996)
    minus = 0
    for case in range(60):
        # every third set sits at P <= 0, where the Minus branch is admissible
        p_strength = rng.uniform(-0.25, 0.0) if case % 3 == 0 else rng.uniform(0.0, 5.0)
        params = SystemParams(omega=10.0 ** rng.uniform(-2.0, 2.0),
                              p_strength=max(p_strength, -0.2499),
                              q_strength=rng.choice((0.0, rng.uniform(0.0, 8.0))),
                              m=rng.randint(-3, 3))
        for branch in admissible_branches(params):
            minus += branch is Branch.Minus
            for n in (0, 1, 2, 5, 13, 40, 100, 300):
                for built, ref in ((m_matrix_cyl, _ref_m_matrix_cyl),
                                   (n_matrix_sph, _ref_n_matrix_sph)):
                    got, want = built(n, params, branch), ref(n, params, branch)
                    assert got.tobytes() == want.tobytes(), (built.__name__, n, params,
                                                             branch)
    assert minus >= 20


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
        for n in (*range(6), 60, 150, 300):
            mat = n_matrix_sph(n, params, branch)
            ent = w_matrix(n, params, branch).entries
            e_z = np.array([energy_cylindrical_parts(n - p, p, params, branch)[1]
                            for p in range(n + 1)])
            # high levels relative to max|N|: 1.4e-12 measured at n = 300
            atol = 1e-11 if n < 6 else 5e-12 * np.abs(mat).max()
            np.testing.assert_allclose(mat, ent.T @ np.diag(e_z) @ ent, atol=atol)
            np.testing.assert_allclose(np.linalg.eigvalsh(mat), e_z,
                                       rtol=1e-12, atol=1e-11)
