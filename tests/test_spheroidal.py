"""Spheroidal systems: triple-route eigenvalues, limits, synthesis, mapping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from genosc import _cache, interbasis, specfun, spheroidal
from genosc.errors import DomainError, NumericError
from genosc.interbasis import m_matrix_cyl, n_matrix_sph, w_matrix
from genosc.model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                          admissible_branches, channel_constants,
                          energy_cylindrical_parts, energy_level, ring_energy,
                          ring_relabel, ring_separation_constant,
                          separation_constant_A)
from genosc.bases import cylindrical_level, psi_cylindrical, psi_spherical, spherical_level
from genosc.spheroidal import (Kind, Route, SpheroidalPoint, build_tridiag_t,
                               build_tridiag_u, eigensolve, lambda_grid, map_spheroidal_point,
                               psi_spheroidal, t_coefficients, u_coefficients)

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
STEEP = SystemParams(omega=2.0, p_strength=2.0, q_strength=1.5, m=2)    # b=1.5
RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)     # b=1/2, delta=1
SETS = [SystemParams(1.0, 0.05, 0.5, 1), SystemParams(1.0, 2.0, 3.0, 0),
        SystemParams(2.0, 0.1, 0.0, 2), BOTH]
KINDS = (Kind.Prolate, Kind.Oblate)


def branch_cases(n_max, extra=()):
    for params in SETS:
        for branch in admissible_branches(params):
            for n in (*range(n_max + 1), *extra):
                yield params, branch, n


# ------------------------------------------------------------ closed forms

def closed_form_u(n, params, branch, R, kind):
    # recursion coefficients of the cylindrical-side separation system
    b, c, _ = channel_constants(params)
    sb = branch.sign * b
    p = np.arange(n + 1, dtype=float)
    diag = 4.0 * ((p + 1) * (n - p) + (p + sb) * (n + c - p + 1)
                  + 0.25 * (c - sb + 0.5) * (c - sb + 1.5))
    diag += kind.sign * 0.5 * R * R * params.omega * (2.0 * p + sb + 1.0)
    pp = p[:-1]
    off = 4.0 * np.sqrt((pp + 1) * (pp + 1 + sb) * (n - pp) * (n + c - pp))
    return diag, off


def closed_form_t(n, params, branch, R, kind):
    # recursion coefficients of the spherical-side separation system
    b, c, _ = channel_constants(params)
    sb = branch.sign * b
    omega = params.omega
    e_n = energy_level(n, params, branch)
    diag = np.empty(n + 1)
    for q in range(n + 1):
        a_q = separation_constant_A(q, params, branch)
        if q == 0:
            ratio = (sb + 1.0) / (c + sb + 2.0)
        else:
            ratio = ((2 * q * (q + 1) + (c + sb) * (2 * q + sb + 1))
                     / ((2 * q + c + sb) * (2 * q + c + sb + 2)))
        diag[q] = a_q + kind.sign * 0.5 * R * R * e_n * ratio
    off = np.empty(n)
    for q in range(1, n + 1):
        a_nq = math.sqrt(q * (n - q + 1) * (q + c + sb) * (q + sb) * (q + c)
                         * (n + q + c + sb + 1)
                         / ((2 * q + c + sb) ** 2 * (2 * q + c + sb - 1)
                            * (2 * q + c + sb + 1)))
        off[q - 1] = -kind.sign * omega * R * R * a_nq
    return diag, off


def test_builders_match_closed_forms():
    for params, branch, n in branch_cases(5):
        for R in (0.1, 1.0, 10.0):
            for kind in KINDS:
                sys_u = build_tridiag_u(n, params, branch, R, kind)
                du, ou = closed_form_u(n, params, branch, R, kind)
                np.testing.assert_allclose(sys_u.diag, du, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(sys_u.offdiag, ou, rtol=1e-12, atol=1e-12)
                assert np.all(sys_u.offdiag >= 0.0)
                sys_t = build_tridiag_t(n, params, branch, R, kind)
                dt, ot = closed_form_t(n, params, branch, R, kind)
                np.testing.assert_allclose(sys_t.diag, dt, rtol=1e-12, atol=1e-10)
                np.testing.assert_allclose(sys_t.offdiag, ot, rtol=1e-12, atol=1e-12)
                # bit for bit what the public operators and closed forms give
                scale = kind.sign * 0.5 * R * R
                m_mat, n_mat = m_matrix_cyl(n, params, branch), n_matrix_sph(n, params, branch)
                e_z = [energy_cylindrical_parts(n - p, p, params, branch)[1]
                       for p in range(n + 1)]
                a_q = [separation_constant_A(q, params, branch) for q in range(n + 1)]
                for got, want in ((sys_u.diag, 2.0 * np.diag(m_mat) + scale * np.array(e_z)),
                                  (sys_u.offdiag, 2.0 * np.diag(m_mat, 1)),
                                  (sys_t.diag, np.array(a_q) + scale * np.diag(n_mat)),
                                  (sys_t.offdiag, scale * np.diag(n_mat, 1))):
                    assert got.tobytes() == want.tobytes()


def test_oblate_negates_every_r2_term():
    pro_u = build_tridiag_u(4, BOTH, Branch.Minus, 2.0, Kind.Prolate)
    obl_u = build_tridiag_u(4, BOTH, Branch.Minus, 2.0, Kind.Oblate)
    np.testing.assert_array_equal(pro_u.offdiag, obl_u.offdiag)
    base = 2.0 * np.diag(m_matrix_cyl(4, BOTH, Branch.Minus))
    np.testing.assert_allclose(pro_u.diag + obl_u.diag, 2.0 * base, atol=1e-12)
    pro_t = build_tridiag_t(4, BOTH, Branch.Minus, 2.0, Kind.Prolate)
    obl_t = build_tridiag_t(4, BOTH, Branch.Minus, 2.0, Kind.Oblate)
    np.testing.assert_array_equal(pro_t.offdiag, -obl_t.offdiag)


# ------------------------------------------------------- worked eigenvalue

def test_scalar_level_three_routes():
    for R in (0.3, 1.0, 2.5):
        exact = 5.04 + 0.65 * R * R
        for build in (build_tridiag_u, build_tridiag_t):
            sol = eigensolve(build(0, BOTH, Branch.Plus, R, Kind.Prolate))
            assert sol.lam[0] == pytest.approx(exact, abs=1e-12)
            assert sol.vectors[0, 0] == 1.0
        third = np.diag([separation_constant_A(0, BOTH, Branch.Plus)]) \
            + 0.5 * R * R * n_matrix_sph(0, BOTH, Branch.Plus)
        assert np.linalg.eigvalsh(third)[0] == pytest.approx(exact, abs=1e-12)
        obl = eigensolve(build_tridiag_u(0, BOTH, Branch.Plus, R, Kind.Oblate))
        assert obl.lam[0] == pytest.approx(5.04 - 0.65 * R * R, abs=1e-12)


def test_isospectrality_triple_route():
    for params, branch, n in branch_cases(6, (60, 150, 300)):
        a_q = np.diag([separation_constant_A(q, params, branch)
                       for q in range(n + 1)])
        n_mat = n_matrix_sph(n, params, branch)
        for R in (0.1, 1.0, 10.0, 60.0):
            for kind in KINDS:
                lam_u = eigensolve(build_tridiag_u(n, params, branch, R, kind)).lam
                lam_t = eigensolve(build_tridiag_t(n, params, branch, R, kind)).lam
                scale = max(np.abs(lam_u).max(), 1.0)
                np.testing.assert_allclose(lam_u, lam_t, atol=1e-11 * scale)
                lam_3 = np.linalg.eigvalsh(a_q + kind.sign * 0.5 * R * R * n_mat)
                np.testing.assert_allclose(lam_u, lam_3, atol=1e-11 * scale)


def test_eigensolve_against_dense_oracle():
    for build in (build_tridiag_u, build_tridiag_t):
        system = build(5, BOTH, Branch.Plus, 1.7, Kind.Prolate)
        sol = eigensolve(system)
        ref_lam, ref_vec = np.linalg.eigh(system.dense())
        scale = np.abs(ref_lam).max()
        np.testing.assert_allclose(sol.lam, ref_lam, atol=1e-12 * scale)
        np.testing.assert_allclose(np.abs(sol.vectors), np.abs(ref_vec), atol=1e-10)
        gram = sol.vectors.T @ sol.vectors
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


def test_eigensolve_sign_rule():
    # per-system rule: component k of column k nonnegative
    for params, branch, n in branch_cases(5):
        for R in (0.1, 10.0):
            sol = eigensolve(build_tridiag_u(n, params, branch, R, Kind.Prolate))
            for k in range(n + 1):
                if abs(sol.vectors[k, k]) >= 1e-12:
                    assert sol.vectors[k, k] > 0.0
                else:
                    assert sol.vectors[np.argmax(np.abs(sol.vectors[:, k])), k] > 0.0


def test_eigensolve_sign_pass_matches_column_loop_bit_for_bit():
    # the signs read off the diagonal against a per-column _pivot loop, on random
    # bands, diagonal ones (whose columns are unit vectors: the fallback pivot) and
    # nearly diagonal ones
    rng = np.random.default_rng(26)
    for i in range(400):
        n = int(rng.integers(0, 25))
        diag = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-3, 3)
        off = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), np.zeros(n),
               np.full(n, 1e-14))[i % 3]
        system = spheroidal.TridiagonalSystem(diag, off, "spherical", Kind.Prolate, 1.0)
        _, vec = spheroidal._solve(diag, off, "reference")
        for k in range(n + 1):
            if spheroidal._pivot(vec[:, k], k) < 0.0:
                vec[:, k] = -vec[:, k]
        assert eigensolve(system).vectors.tobytes() == vec.tobytes(), i


def test_eigensolve_is_lapack_eigh_of_the_dense_matrix_bit_for_bit():
    # the promise itself, from public numpy only: eigh's eigenvalues, and its vectors
    # with each column negated where its pivot (component k, or the largest-magnitude
    # component where component k is below 1e-12) is negative; seeded systems of both
    # bases and kinds on every admissible branch, R log-uniform in [1e-3, 300]
    rng = np.random.default_rng(47)
    systems = weak = 0
    while systems < 300:
        params = SystemParams(float(np.exp(rng.uniform(-1.2, 1.2))), float(rng.uniform(-0.24, 2.5)),
                              float(rng.uniform(0.0, 3.0)), int(rng.integers(-2, 3)))
        for branch in admissible_branches(params):
            n = int(rng.integers(0, 41))
            radius = float(np.exp(rng.uniform(math.log(1e-3), math.log(300.0))))
            build = (build_tridiag_t, build_tridiag_u)[systems % 2]
            system = build(n, params, branch, radius, KINDS[systems // 2 % 2])
            lam, vec = np.linalg.eigh(system.dense())
            for k in range(n + 1):
                column = vec[:, k]
                pivot = column[k]
                if abs(pivot) < 1e-12:
                    pivot = column[np.argmax(np.abs(column))]
                    weak += 1
                if pivot < 0.0:
                    vec[:, k] = -column
            sol = eigensolve(system)
            assert sol.lam.tobytes() == lam.tobytes(), (params, branch, n, radius)
            assert sol.vectors.tobytes() == vec.tobytes(), (params, branch, n, radius)
            systems += 1
    assert weak   # the fallback pivot is exercised too


def test_eigensolve_large_level():
    sol = eigensolve(build_tridiag_t(80, BOTH, Branch.Plus, 1.0, Kind.Prolate))
    assert np.all(np.diff(sol.lam) > 0.0)
    np.testing.assert_allclose(sol.vectors.T @ sol.vectors, np.eye(81), atol=1e-10)


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_numeric_error(monkeypatch):
    system = build_tridiag_t(3, BOTH, Branch.Plus, 1.0, Kind.Prolate)
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg_error)
    with pytest.raises(NumericError):
        eigensolve(system)
    # the grid solves for eigenvalues only
    monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg_error)
    with pytest.raises(NumericError):
        lambda_grid(3, BOTH, Branch.Plus, Kind.Prolate, [0.5, 1.0])


def test_non_finite_eigenvalues_are_numeric_error():
    system = build_tridiag_t(3, BOTH, Branch.Plus, 1.0, Kind.Prolate)
    diag = system.diag.copy()
    diag[1] = math.inf
    with pytest.raises(NumericError):
        eigensolve(spheroidal.TridiagonalSystem(diag, system.offdiag, system.basis,
                                                system.kind, system.R))


# ----------------------------------------------------- coefficient columns

def test_pair_consistency_t_equals_wt_u():
    for params, branch, n in branch_cases(12, (60, 300)):
        ent = w_matrix(n, params, branch).entries
        # every column up to n = 12; at n = 60 both ends and three between,
        # at n = 300 both ends and the middle
        ks = range(0, n + 1, 1 if n <= 12 else 15 if n == 60 else 150)
        for R in ((0.1, 1.0, 10.0, 60.0) if n < 300 else (1.0, 60.0)):
            for kind in KINDS:
                for k in ks:
                    u = u_coefficients(n, k, params, branch, R, kind)
                    t = t_coefficients(n, k, params, branch, R, kind)
                    np.testing.assert_allclose(ent.T @ u, t, atol=1e-12)
                    if n <= 12:
                        # the pair's sign: the better-pinned component k is >= 0
                        assert (u[k] if abs(u[k]) > abs(t[k]) else t[k]) >= 0.0


def pair_columns_via_eigensolve(n, k, params, branch, R, kind):
    """The pair as built before the state solved its own bands: eigensolve's sign
    pass over every spherical-side column, then the pair rule's override where
    |U^k| > |T^k|. Kept as the bit-for-bit reference of _pair_columns."""
    sol = eigensolve(build_tridiag_t(n, params, branch, R, kind))
    t = sol.vectors[:, k]
    u = np.einsum("pq,q->p", interbasis._w_table(n, params, branch).entries, t)
    if abs(u[k]) > abs(t[k]) and spheroidal._pivot(u, k) < 0.0:
        u, t = -u, -t
    return u, t


def test_pair_solves_each_state_once(monkeypatch, fresh_tables):
    # one _solve per level and R, read by every k, and one W recursion per level,
    # read at every R by both kinds
    solve, recursion = spheroidal._solve, interbasis._recursion_columns
    solves, recursions = [], []

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    def counting_recursion(*args):
        recursions.append(args)
        return recursion(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the pair solves its own bands")

    monkeypatch.setattr(spheroidal, "_solve", counting_solve)
    monkeypatch.setattr(interbasis, "_recursion_columns", counting_recursion)
    for name in ("eigensolve", "build_tridiag_t", "build_tridiag_u"):
        monkeypatch.setattr(spheroidal, name, refused)
    for params, branch, n in branch_cases(5, (30,)):
        _cache.clear()
        recursions.clear()
        for R in (0.1, 1.7, 40.0):
            for kind in KINDS:
                solves.clear()
                pairs = [(u_coefficients(n, k, params, branch, R, kind),
                          t_coefficients(n, k, params, branch, R, kind)) for k in range(n + 1)]
                assert len(solves) == 1
                for k in {0, n // 2, n}:
                    ref_u, ref_t = pair_columns_via_eigensolve(n, k, params, branch, R, kind)
                    u, t = pairs[k]
                    assert (u.tobytes(), t.tobytes()) == (ref_u.tobytes(), ref_t.tobytes())
        assert len(recursions) == 1


def test_pair_matches_eigensolve_construction_bit_for_bit():
    # seeded sweep: n <= 40 plus n = 300, both kinds, both branches (Minus at P <= 0)
    rng = np.random.default_rng(2417)
    cases = []
    for i in range(48):
        p_strength = float(rng.uniform(-0.24, 0.0) if i % 2 else rng.uniform(-0.24, 3.0))
        params = SystemParams(omega=float(np.exp(rng.uniform(-1.0, 1.0))),
                              p_strength=p_strength, q_strength=float(rng.uniform(0.0, 2.0)),
                              m=int(rng.integers(-2, 3)))
        branches = admissible_branches(params)
        n = int(rng.integers(0, 41))
        cases.append((n, int(rng.integers(0, n + 1)), params, branches[i % len(branches)],
                      float(np.exp(rng.uniform(math.log(1e-2), math.log(60.0)))), KINDS[i % 2]))
    for kind in KINDS:
        cases.append((300, 150, BOTH, Branch.Minus, 60.0, kind))
        cases.append((300, 7, SETS[1], Branch.Plus, 0.01, kind))
    assert {c[3] for c in cases} == {Branch.Plus, Branch.Minus}
    spheroidal._pair_columns.cache_clear()
    for n, k, params, branch, R, kind in cases:
        u = u_coefficients(n, k, params, branch, R, kind)
        t = t_coefficients(n, k, params, branch, R, kind)
        ref_u, ref_t = pair_columns_via_eigensolve(n, k, params, branch, R, kind)
        assert u.tobytes() == ref_u.tobytes(), (n, k, params, branch, R, kind)
        assert t.tobytes() == ref_t.tobytes(), (n, k, params, branch, R, kind)


def test_derived_u_meets_the_cylindrical_residual_contract(monkeypatch):
    # U = W T with two columns of W swapped is no eigenvector of the U system
    clean = interbasis.w_matrix

    def swapped(n, params, branch):
        table = clean(n, params, branch)
        return dataclasses.replace(table, entries=table.entries[:, [1, 0, *range(2, n + 1)]])

    monkeypatch.setattr(spheroidal, "w_matrix", swapped)
    spheroidal._pair_columns.cache_clear()
    with pytest.raises(NumericError, match="eigen residual"):
        u_coefficients(4, 1, BOTH, Branch.Plus, 1.3, Kind.Prolate)


def test_limit_endpoints():
    for params, branch, n in branch_cases(4):
        for k in range(n + 1):
            ek = np.zeros(n + 1)
            ek[k] = 1.0
            t0 = t_coefficients(n, k, params, branch, 1e-3, Kind.Prolate)
            assert np.abs(t0 - ek).max() <= 1e-5
            uinf = u_coefficients(n, k, params, branch, 1e3, Kind.Prolate)
            assert np.abs(uinf - ek).max() <= 1e-4
            lam0 = eigensolve(build_tridiag_t(n, params, branch, 1e-3,
                                              Kind.Prolate)).lam[k]
            assert lam0 == pytest.approx(
                separation_constant_A(k, params, branch), abs=1e-4)
            laminf = eigensolve(build_tridiag_t(n, params, branch, 1e3,
                                                Kind.Prolate)).lam[k]
            e_z = energy_cylindrical_parts(0, k, params, branch)[1]
            assert laminf / 1e6 == pytest.approx(0.5 * e_z, rel=1e-2)


def test_solved_state_is_read_only_and_shared():
    u = u_coefficients(3, 1, BOTH, Branch.Plus, 1.23, Kind.Oblate)
    t = t_coefficients(3, 1, BOTH, Branch.Plus, 1.23, Kind.Oblate)
    for arr in (u, t):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert u_coefficients(3, 1, BOTH, Branch.Plus, 1.23, Kind.Oblate) is u


def test_psi_reads_solved_state_from_cache():
    pts = [SpheroidalPoint(0.6, eta, 0.3) for eta in (0.2, 0.5, 0.9)]
    psi_spheroidal(4, 2, 1, BOTH, Branch.Plus, 2.345, Kind.Oblate, pts[0],
                   Route.ViaSpherical)
    before = spheroidal._pair_columns.cache_info()
    for pt in pts:
        for route in Route:
            psi_spheroidal(4, 2, 1, BOTH, Branch.Plus, 2.345, Kind.Oblate, pt, route)
    after = spheroidal._pair_columns.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(pts) * len(Route)


def test_psi_cold_and_warm_state_identical():
    pt = SpheroidalPoint(1.6, 0.35, 1.1)
    args = (3, 1, 1, BOTH, Branch.Plus, 0.87, Kind.Prolate, pt)
    spheroidal._pair_columns.cache_clear()
    cold = [psi_spheroidal(*args, route) for route in Route]
    assert spheroidal._pair_columns.cache_info().currsize == 1
    warm = [psi_spheroidal(*args, route) for route in Route]
    assert cold == warm


def test_state_reads_w_under_its_orthogonality_contract():
    # at Q = 1e40 level 3's W table is 1.87 off orthogonal, and U = W T was once formed
    # from it with exit 0; every reader of the state now refuses as w_matrix does
    params = SystemParams(omega=1.0, p_strength=0.3, q_strength=1e40, m=0)
    message = r"^interbasis table orthogonality 1\.870e\+00 above contract at n=3$"
    for call in (lambda: w_matrix(3, params, Branch.Plus),
                 lambda: u_coefficients(3, 1, params, Branch.Plus, 1.0, Kind.Prolate),
                 lambda: t_coefficients(3, 1, params, Branch.Plus, 1.0, Kind.Oblate)):
        with pytest.raises(NumericError, match=message):
            call()


def test_coefficient_index_validation():
    with pytest.raises(DomainError):
        u_coefficients(2, 3, BOTH, Branch.Plus, 1.0, Kind.Prolate)
    with pytest.raises(DomainError):
        t_coefficients(2, 0, BOTH, Branch.Plus, -1.0, Kind.Prolate)
    with pytest.raises(DomainError):
        build_tridiag_u(2, STEEP, Branch.Minus, 1.0, Kind.Prolate)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="n must be"):
            u_coefficients(bad, 0, BOTH, Branch.Plus, 1.0, Kind.Prolate)
        with pytest.raises(DomainError, match="k must be"):
            t_coefficients(2, bad, BOTH, Branch.Plus, 1.0, Kind.Prolate)
    # one positive-radius check for every R argument and grid entry
    for bad in ("1.5", None, math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(DomainError, match="R must be positive"):
            build_tridiag_t(2, BOTH, Branch.Plus, bad, Kind.Prolate)
        with pytest.raises(DomainError, match="R must be positive"):
            u_coefficients(2, 0, BOTH, Branch.Plus, bad, Kind.Prolate)
        with pytest.raises(DomainError, match="R grid"):
            lambda_grid(2, BOTH, Branch.Plus, Kind.Prolate, [0.5, bad])


# ------------------------------------------------------------ lambda curve

def test_lambda_curve_scalar_affine():
    grid = np.linspace(0.1, 2.0, 8)
    curve = lambda_grid(0, BOTH, Branch.Plus, Kind.Prolate, grid)[:, 0]
    for r_val, lam in zip(grid, curve):
        assert lam == pytest.approx(5.04 + 0.65 * r_val * r_val, abs=1e-12)


def test_lambda_curve_continuity():
    grid = np.linspace(0.05, 4.0, 80)
    for k in (0, 2):
        lam = lambda_grid(3, BOTH, Branch.Plus, Kind.Oblate, grid)[:, k]
        assert np.abs(np.diff(lam)).max() < 1.5


def test_lambda_curve_grid_validation():
    for bad in ([], [-1.0, 1.0], [[1.0, 2.0]], [1.0, math.inf]):
        with pytest.raises(DomainError):
            lambda_grid(1, BOTH, Branch.Plus, Kind.Prolate, bad)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 1, 5, 20, 40])
def test_lambda_grid_matches_per_r_eigensolve(n, kind):
    # rows are LAPACK's eigenvalue-only solve of each R's dense matrix, bit for
    # bit (the reference perfbench/refcheck.py uses), and within the
    # certificate's delta of eigensolve's values, which come with eigenvectors
    grid = np.linspace(0.05, 12.0, 25)
    lam = lambda_grid(n, STEEP, Branch.Plus, kind, grid)
    assert lam.shape == (grid.size, n + 1)
    for row, radius in zip(lam, grid):
        system = build_tridiag_t(n, STEEP, Branch.Plus, float(radius), kind)
        np.testing.assert_array_equal(row, np.linalg.eigvalsh(system.dense()))
        delta = interbasis._residual_bound(n + 1, system.diag, system.offdiag)
        assert np.abs(row - eigensolve(system).lam).max() <= delta


def _brackets(n, params, branch, kind, grid, lam):
    """Whether each lam[:, k] has at most k eigenvalues of its R's system below
    lam_k - delta and at least k + 1 below lam_k + delta."""
    diag, off = spheroidal._t_bands(n, params, branch, kind, grid)
    delta = interbasis._residual_bound(n + 1, diag, off)[:, None]
    counts = spheroidal._sturm_counts(diag, off, np.concatenate((lam - delta, lam + delta), 1))
    k = np.arange(n + 1)
    return (counts[:, :n + 1] <= k) & (counts[:, n + 1:] >= k + 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("params", [BOTH, SETS[2], STEEP], ids=["P<0,Q=0", "Q=0", "Q>0"])
def test_lambda_grid_counts_bracket_every_index(params, kind):
    grid = np.linspace(0.05, 12.0, 200)
    for branch in admissible_branches(params):
        for n in (0, 1, 12, 40, 100):
            lam = lambda_grid(n, params, branch, kind, grid)
            assert _brackets(n, params, branch, kind, grid, lam).all(), (n, branch)
            if n:   # the counts tell the indices apart: descending values fail
                assert not _brackets(n, params, branch, kind, grid, lam[:, ::-1]).all()


def test_lambda_grid_certifies_bands_past_the_square_root_of_overflow():
    # at R = 1e150 the bands reach 1e300, whose squares overflow unscaled
    grid = np.array([1e100, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = lambda_grid(3, BOTH, Branch.Plus, Kind.Prolate, grid)
    assert np.isfinite(lam).all()
    assert _brackets(3, BOTH, Branch.Plus, Kind.Prolate, grid, lam).all()


def test_sturm_counts_treat_a_zero_pivot_as_negative():
    # T = [[1, 1], [1, 1]] has eigenvalues 0 and 2. At x = 1 the first pivot is
    # exactly zero, replaced by -pivmin as in LAPACK dstebz, and the second,
    # (1 - 1 / -pivmin) - 1, is huge and positive: one eigenvalue below 1. At
    # x = 0 and x = 2 the last pivot is zero, so the eigenvalue at x counts.
    diag, off = np.array([[1.0, 1.0]]), np.array([[1.0]])
    counts = spheroidal._sturm_counts(diag, off, np.array([[-0.5, 0.0, 1.0, 2.0, 2.5]]))
    assert counts.tolist() == [[0, 1, 1, 2, 2]]
    # a decoupled matrix: the zero off-diagonal leaves no 0/0
    counts = spheroidal._sturm_counts(np.array([[1.0, 1.0]]), np.array([[0.0]]),
                                      np.array([[0.5, 1.0, 1.5]]))
    assert counts.tolist() == [[0, 2, 2]]


def _perturbed_dense(monkeypatch, stack, row, by=1e-6):
    """Make the dense matrices LAPACK sees for call `stack` of stacked bands (0 the
    first) carry `by` more in d_0 of matrix `row`; the Sturm counts read the bands."""
    dense, calls = specfun._dense, []

    def perturbed(diag, off):
        mat = dense(diag, off)
        if diag.ndim == 2:
            if len(calls) == stack:
                mat[row, 0, 0] += by * max(1.0, abs(mat[row, 0, 0]))
            calls.append(None)
        return mat

    monkeypatch.setattr(specfun, "_dense", perturbed)


def test_lambda_grid_refuses_a_value_its_counts_do_not_bracket(monkeypatch):
    grid = np.linspace(0.1, 2.0, 5)
    _perturbed_dense(monkeypatch, 0, 2)
    with pytest.raises(NumericError, match=r"Sturm count .* n=4, R=1\.05"):
        lambda_grid(4, STEEP, Branch.Plus, Kind.Prolate, grid)
    # in a later chunk the message names that chunk's R
    monkeypatch.setattr(spheroidal, "_GRID_CHUNK_ENTRIES", 2 * 25)
    _perturbed_dense(monkeypatch, 1, 1)
    with pytest.raises(NumericError, match=r"Sturm count .* n=4, R=1\.525"):
        lambda_grid(4, STEEP, Branch.Plus, Kind.Prolate, grid)


def test_lambda_grid_chunks_agree_with_one_stack(monkeypatch):
    grid = np.linspace(0.1, 5.0, 30)
    whole = lambda_grid(6, BOTH, Branch.Minus, Kind.Oblate, grid)
    monkeypatch.setattr(spheroidal, "_GRID_CHUNK_ENTRIES", 4 * 49)
    chunked = lambda_grid(6, BOTH, Branch.Minus, Kind.Oblate, grid)
    np.testing.assert_array_equal(chunked, whole)


def test_every_level_eigenproblem_meets_one_residual_contract(monkeypatch):
    # with a zero contract factor every eigen residual is a miss, whichever
    # solve path formed it
    monkeypatch.setattr(interbasis, "_RESIDUAL_FACTOR", 0.0)
    with pytest.raises(NumericError, match="eigen residual"):
        w_matrix(6, BOTH, Branch.Plus)
    spheroidal._pair_columns.cache_clear()
    with pytest.raises(NumericError, match="eigen residual"):
        u_coefficients(6, 2, BOTH, Branch.Plus, 1.3, Kind.Prolate)
    with pytest.raises(NumericError, match="eigen residual"):
        eigensolve(build_tridiag_t(4, STEEP, Branch.Plus, 1.3, Kind.Prolate))
    # the grid forms no eigenvectors: with delta = 0 no Sturm count can bracket
    with pytest.raises(NumericError, match=r"Sturm count .* n=4, R=0\.7"):
        lambda_grid(4, STEEP, Branch.Plus, Kind.Oblate, [0.7, 1.1, 2.5])


# ---------------------------------------------------------- ring reduction

def test_ring_t_system_matches_delta_form():
    _, _, delta = channel_constants(RING)
    am = abs(RING.m)
    omega = RING.omega
    R = 1.3
    for branch in (Branch.Plus, Branch.Minus):
        for n in range(5):
            sys_t = build_tridiag_t(n, RING, branch, R, Kind.Prolate)
            labels = [ring_relabel(SphericalLabel(n_r=n - q, q=q, m=RING.m,
                                                  branch=branch), RING)
                      for q in range(n + 1)]
            n_big = labels[0].N
            e_n = ring_energy(n_big, delta, omega)
            for q, lbl in enumerate(labels):
                l = lbl.l
                a_l = ring_separation_constant(l, delta)
                ratio = ((2.0 * a_l - 2.0 * (am + delta) ** 2 - 1.0)
                         / ((2 * l + 2 * delta - 1.0) * (2 * l + 2 * delta + 3.0)))
                assert sys_t.diag[q] == pytest.approx(
                    a_l + 0.5 * R * R * e_n * ratio, rel=1e-12)
            for q in range(1, n + 1):
                l = labels[q].l
                lm, lp = l - am, l + am
                a_nl = math.sqrt(lm * (lm - 1) * (lp + 2 * delta)
                                 * (lp + 2 * delta - 1) * (n_big - l + 2)
                                 * (n_big + l + 2 * delta + 1)
                                 / (4.0 * (2 * l + 2 * delta - 1.0) ** 2
                                    * (2 * l + 2 * delta - 3.0)
                                    * (2 * l + 2 * delta + 1.0)))
                assert sys_t.offdiag[q - 1] == pytest.approx(
                    -omega * R * R * a_nl, rel=1e-12)


def test_ring_u_system_matches_delta_form():
    _, _, delta = channel_constants(RING)
    am = abs(RING.m)
    omega = RING.omega
    R = 0.8
    for branch in (Branch.Plus, Branch.Minus):
        odd = 1 if branch is Branch.Plus else 0
        for n in range(5):
            sys_u = build_tridiag_u(n, RING, branch, R, Kind.Prolate)
            n_big = 2 * n + am + odd
            for p in range(n + 1):
                n3 = 2 * p + odd
                expect = ((2 * n3 + 1) * (n_big - n3 + delta + 1)
                          + (am + delta) ** 2 - 1.0
                          + 0.25 * omega * R * R * (2 * n3 + 1))
                assert sys_u.diag[p] == pytest.approx(expect, rel=1e-12)
            for p in range(n):
                n3 = 2 * p + odd
                expect = math.sqrt((n3 + 1) * (n3 + 2) * (n_big - am - n3)
                                   * (n_big + am - n3 + 2 * delta))
                assert sys_u.offdiag[p] == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------- point maps

def test_map_examples():
    cart, sph, cyl = map_spheroidal_point(SpheroidalPoint(2.0, 0.5, 0.0), 2.0,
                                          Kind.Prolate)
    assert cart[0] == pytest.approx(1.5, abs=1e-15)
    assert cart[1] == 0.0
    assert cart[2] == pytest.approx(1.0, abs=1e-15)
    assert sph[0] == pytest.approx(math.hypot(1.5, 1.0), rel=1e-15)
    assert cyl[0] == pytest.approx(1.5, abs=1e-15)
    focus = map_spheroidal_point(SpheroidalPoint(1.0, 1.0, 0.0), 2.0, Kind.Prolate)
    assert focus[0] == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    axis = map_spheroidal_point(SpheroidalPoint(0.0, 1.0, 0.0), 2.0, Kind.Oblate)
    assert axis[0][2] == 0.0


def test_map_consistency_between_triples():
    pt = SpheroidalPoint(1.7, -0.3, 2.1)
    for kind in KINDS:
        cart, sph, cyl = map_spheroidal_point(pt, 1.4, kind)
        x, y, z = cart
        assert math.hypot(x, y) == pytest.approx(cyl[0], rel=1e-14)
        assert z == cyl[2]
        assert sph[0] * math.cos(sph[1]) == pytest.approx(z, abs=1e-14)


def test_point_validation():
    with pytest.raises(DomainError):
        SpheroidalPoint(-0.1, 0.0, 0.0)
    with pytest.raises(DomainError):
        SpheroidalPoint(1.0, 1.2, 0.0)
    with pytest.raises(DomainError):
        SpheroidalPoint(1.0, 0.0, -0.5)
    with pytest.raises(DomainError):
        SpheroidalPoint(1.0, 0.0, 2.0 * math.pi)
    with pytest.raises(DomainError):
        map_spheroidal_point(SpheroidalPoint(0.5, 0.0, 0.0), 1.0, Kind.Prolate)
    with pytest.raises(DomainError):
        SpheroidalPoint(math.inf, 0.0, 0.0)
    with pytest.raises(DomainError):
        SpheroidalPoint(1.0, math.nan, 0.0)


def test_point_batch_validation_names_first_bad_point():
    ok = np.array([1.2, 1.5, 2.0, 3.0])
    with pytest.raises(DomainError, match=r"need xi >= 0, got -0.1 at point 2"):
        SpheroidalPoint(np.array([1.2, 1.5, -0.1, -0.2]), ok * 0.1, ok)
    with pytest.raises(DomainError, match=r"need -1 <= eta <= 1, got 1.2 at point 1"):
        SpheroidalPoint(ok, np.array([0.1, 1.2, 0.3, 0.4]), ok)
    with pytest.raises(DomainError, match=r"phi .* at point 3"):
        SpheroidalPoint(ok, ok * 0.1, np.array([0.0, 1.0, 2.0, 7.0]))
    with pytest.raises(DomainError, match=r"at point \(1, 0\)"):
        SpheroidalPoint(ok.reshape(2, 2), np.array([[0.1, 0.2], [-3.0, 0.4]]),
                        ok.reshape(2, 2))
    with pytest.raises(DomainError, match="equal shapes"):
        SpheroidalPoint(ok, ok[:3] * 0.1, ok)
    with pytest.raises(DomainError, match="real numbers"):
        SpheroidalPoint("a", 0.1, 0.2)
    with pytest.raises(DomainError, match=r"prolate sheet needs xi >= 1, got 0.5 at point 1"):
        map_spheroidal_point(SpheroidalPoint(np.array([1.5, 0.5]), np.zeros(2), np.zeros(2)),
                             1.0, Kind.Prolate)
    pt = SpheroidalPoint([1.2, 1.5], [0.1, 0.2], [0.0, 1.0])
    assert isinstance(pt.xi, np.ndarray) and not pt.xi.flags.writeable
    assert pt == pt and pt != SpheroidalPoint([1.2, 1.5], [0.1, 0.2], [0.0, 1.0])
    assert len({pt, pt}) == 1


def test_map_batch_is_elementwise():
    rng = np.random.default_rng(11)
    xi, eta, phi = rng.uniform(1.0, 3.0, 9), rng.uniform(-1.0, 1.0, 9), rng.uniform(0, 6, 9)
    for kind in KINDS:
        batch = map_spheroidal_point(SpheroidalPoint(xi, eta, phi), 1.3, kind)
        for i in range(xi.size):
            one = map_spheroidal_point(SpheroidalPoint(float(xi[i]), float(eta[i]),
                                                       float(phi[i])), 1.3, kind)
            assert all(type(v) is float for image in one for v in image)
            assert one == tuple(tuple(float(v[i]) for v in image) for image in batch)


# ---------------------------------------------------------------- psi

def test_psi_routes_agree():
    points = {Kind.Prolate: [SpheroidalPoint(1.3, 0.4, 0.0),
                             SpheroidalPoint(2.2, 0.8, 1.7)],
              Kind.Oblate: [SpheroidalPoint(0.7, 0.5, 2.2),
                            SpheroidalPoint(1.9, 0.3, 0.4)]}
    for kind, pts in points.items():
        for k in range(3):
            for pt in pts:
                a = psi_spheroidal(2, k, 1, BOTH, Branch.Plus, 1.8, kind, pt,
                                   Route.ViaSpherical)
                b = psi_spheroidal(2, k, 1, BOTH, Branch.Plus, 1.8, kind, pt,
                                   Route.ViaCylindrical)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_psi_small_r_reduces_to_spherical():
    # invert the map so the lab-frame point stays fixed as R -> 0
    rho0, z0, phi0 = 0.6, 0.5, 0.9
    R = 1e-4
    r_plus = math.hypot(rho0, z0 - 0.5 * R)
    r_minus = math.hypot(rho0, z0 + 0.5 * R)
    pt = SpheroidalPoint((r_plus + r_minus) / R, (r_minus - r_plus) / R, phi0)
    cart, sph, _ = map_spheroidal_point(pt, R, Kind.Prolate)
    assert cart[0] == pytest.approx(rho0 * math.cos(phi0), rel=1e-9)
    assert cart[2] == pytest.approx(z0, rel=1e-9)
    for n, k in [(2, 1), (3, 0)]:
        got = psi_spheroidal(n, k, 1, BOTH, Branch.Plus, R, Kind.Prolate, pt,
                             Route.ViaSpherical)
        ref = psi_spherical(SphericalLabel(n_r=n - k, q=k, m=1, branch=Branch.Plus),
                            BOTH, sph)
        assert abs(ref) > 1e-3
        assert abs(got - ref) <= 1e-5


def test_psi_eta_profile_node_count():
    eta = np.linspace(0.02, 0.98, 300)
    pts = SpheroidalPoint(np.full(eta.shape, 1.4), eta, np.zeros(eta.shape))
    for k in range(4):
        vals = psi_spheroidal(3, k, 1, BOTH, Branch.Plus, 1.5, Kind.Prolate, pts,
                              Route.ViaSpherical).real
        sgn = np.sign(vals)
        assert int(np.sum(sgn[1:] * sgn[:-1] < 0)) == k


def test_psi_domain_errors():
    pt_lower = SpheroidalPoint(1.5, -0.4, 0.0)
    with pytest.raises(DomainError):
        psi_spheroidal(1, 0, 1, BOTH, Branch.Plus, 1.0, Kind.Prolate, pt_lower,
                       Route.ViaSpherical)
    pt = SpheroidalPoint(1.5, 0.4, 0.0)
    with pytest.raises(DomainError):
        psi_spheroidal(1, 0, 2, BOTH, Branch.Plus, 1.0, Kind.Prolate, pt,
                       Route.ViaSpherical)
    with pytest.raises(DomainError):
        psi_spheroidal(1, 0, 1, BOTH, Branch.Plus, 1.0, Kind.Prolate, pt,
                       "spherical")
    with pytest.raises(DomainError, match=r"z > 0 half-domain at point 2"):
        psi_spheroidal(1, 0, 1, BOTH, Branch.Plus, 1.0, Kind.Prolate,
                       SpheroidalPoint([1.5, 1.6, 1.7], [0.4, 0.3, -0.2], [0.0, 0.0, 0.0]),
                       Route.ViaCylindrical)
    # eta = 1 maps onto the z axis: theta = 0 and rho = 0 leave the domain
    # of the spherical and the cylindrical factors
    on_axis = SpheroidalPoint([1.5, 1.6], [0.4, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError, match=r"theta must lie .* at point 1"):
        psi_spheroidal(1, 0, 1, BOTH, Branch.Plus, 1.0, Kind.Prolate, on_axis,
                       Route.ViaSpherical)
    with pytest.raises(DomainError, match=r"rho must lie .* at point 1"):
        psi_spheroidal(1, 0, 1, BOTH, Branch.Plus, 1.0, Kind.Prolate, on_axis,
                       Route.ViaCylindrical)


# -------------------------------------------------------- psi on batches

def reference_psi(n, k, params, branch, R, kind, point, route):
    """The per-term synthesis: sum of coeff * psi_spherical or psi_cylindrical,
    one basis call per term and point."""
    _, sph, cyl = map_spheroidal_point(point, R, kind)
    if route is Route.ViaSpherical:
        coeff = t_coefficients(n, k, params, branch, R, kind)
        return sum(coeff[q] * psi_spherical(
            SphericalLabel(n_r=n - q, q=q, m=params.m, branch=branch), params, sph)
            for q in range(n + 1))
    coeff = u_coefficients(n, k, params, branch, R, kind)
    return sum(coeff[p] * psi_cylindrical(
        CylindricalLabel(n_rho=n - p, p=p, m=params.m, branch=branch), params, cyl)
        for p in range(n + 1))


def random_points(rng, kind, size):
    lo = 1.02 if kind is Kind.Prolate else 0.02
    return (rng.uniform(lo, lo + 2.5, size), rng.uniform(0.03, 0.97, size),
            rng.uniform(0.0, 2.0 * math.pi, size))


@pytest.mark.parametrize("n", [0, 1, 4, 10, 20])
def test_psi_batch_matches_per_term_synthesis(n):
    rng = np.random.default_rng(100 + n)
    for params in (BOTH, STEEP, SETS[0]):
        for branch in admissible_branches(params):
            k = int(rng.integers(0, n + 1))
            for kind in KINDS:
                xi, eta, phi = random_points(rng, kind, 12)
                batch = SpheroidalPoint(xi, eta, phi)
                for route in Route:
                    got = psi_spheroidal(n, k, params.m, params, branch, 1.3, kind, batch,
                                         route)
                    ref = np.array([reference_psi(n, k, params, branch, 1.3, kind,
                                                  SpheroidalPoint(*map(float, pt)), route)
                                    for pt in zip(xi, eta, phi)])
                    scale = max(np.abs(ref).max(), params.omega ** 0.75)
                    assert np.abs(got - ref).max() <= 1e-13 * scale


def test_psi_batch_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(2026)
    c_zero = SystemParams(omega=0.7, p_strength=-0.2, q_strength=0.0, m=0)   # c = 0, b < 1/2
    for params in (BOTH, STEEP, RING, c_zero, SETS[1]):
        for branch in admissible_branches(params):
            for n in (0, 3, 12):
                k = int(rng.integers(0, n + 1))
                for kind in KINDS:
                    xi, eta, phi = random_points(rng, kind, 7)
                    for route in Route:
                        args = (n, k, params.m, params, branch, 0.9, kind)
                        batch = psi_spheroidal(*args, SpheroidalPoint(xi, eta, phi), route)
                        assert batch.shape == (7,) and batch.dtype == complex
                        for i in range(7):
                            one = psi_spheroidal(*args, SpheroidalPoint(
                                float(xi[i]), float(eta[i]), float(phi[i])), route)
                            assert type(one) is complex and one == batch[i]
                        grid = psi_spheroidal(*args, SpheroidalPoint(
                            xi[:6].reshape(2, 3), eta[:6].reshape(2, 3),
                            phi[:6].reshape(2, 3)), route)
                        assert np.array_equal(grid, batch[:6].reshape(2, 3))


def composed_psi(n, k, params, branch, R, kind, point, route):
    """psi_spheroidal as its parts compose it through the public API: the coefficient
    column times the public level evaluator's terms at the mapped point, summed in term
    order, times e^{i m phi} / sqrt(2 pi)."""
    _, (r, theta, phi), (rho, _, z) = map_spheroidal_point(point, R, kind)
    if route is Route.ViaSpherical:
        coeff = t_coefficients(n, k, params, branch, R, kind)
        terms = spherical_level(n, params, branch, r, theta)
    else:
        coeff = u_coefficients(n, k, params, branch, R, kind)
        terms = cylindrical_level(n, params, branch, rho, z)
    amp = coeff[0] * terms[0]
    for c, term in zip(coeff[1:], terms[1:]):
        amp = amp + c * term
    out = amp * np.exp(1j * params.m * np.asarray(phi)) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else complex(out)


def pinned_points(rng, kind, size):
    """Seeded points spread over the state, with some near the z axis (eta near 1, and
    on the prolate sheet xi near 1), one near z = 0 on the oblate sheet, and two in the
    tail, the far one (point 1) past every term's support."""
    xi, eta, phi = random_points(rng, kind, size)
    xi[:3] = (1.0 if kind is Kind.Prolate else 0.0) + 1e-9, 1e100, 30.0
    eta[3:5] = 1.0 - 1e-12, 1.0 - 1e-6
    return xi, eta, phi


@pytest.mark.parametrize("n", [0, 1, 6, 17, 40])
def test_psi_equals_its_public_composition_bit_for_bit(n):
    rng = np.random.default_rng(4200 + n)
    for params in (BOTH, STEEP, RING, SETS[1]):
        for branch in admissible_branches(params):
            k = int(rng.integers(0, n + 1))
            R = float(rng.uniform(0.2, 6.0))
            for kind in KINDS:
                xi, eta, phi = pinned_points(rng, kind, 12)
                args = (n, k, params, branch, R, kind)
                for route in Route:
                    batch = SpheroidalPoint(xi, eta, phi)
                    got = psi_spheroidal(n, k, params.m, params, branch, R, kind, batch, route)
                    assert np.array_equal(got, composed_psi(*args, batch, route))
                    assert got[1] == 0j and np.all(np.isfinite(got))
                    for i in range(0, 12, 2):
                        one = SpheroidalPoint(float(xi[i]), float(eta[i]), float(phi[i]))
                        lone = psi_spheroidal(n, k, params.m, params, branch, R, kind, one,
                                              route)
                        assert type(lone) is complex and lone == composed_psi(*args, one, route)


def test_psi_batch_routes_agree():
    rng = np.random.default_rng(3)
    for kind in KINDS:
        pts = SpheroidalPoint(*random_points(rng, kind, 40))
        for k in range(5):
            a = psi_spheroidal(4, k, 1, BOTH, Branch.Minus, 1.8, kind, pts, Route.ViaSpherical)
            b = psi_spheroidal(4, k, 1, BOTH, Branch.Minus, 1.8, kind, pts,
                               Route.ViaCylindrical)
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def test_psi_spherical_route_stays_finite_at_large_c():
    # c = 2000 at n = 260: the spherical route's Theta_q, P_q times N_q, was NaN at 102 of
    # these 400 points; the two routes now agree within 4e-15
    params = SystemParams(omega=1.0, p_strength=0.3, q_strength=4e6, m=0)
    rng = np.random.default_rng(0)
    xi = rng.uniform(1.01, 3.0, 400)
    pts = SpheroidalPoint(xi, rng.uniform(0.05, 0.99, 400), np.zeros(400))
    a, b = (psi_spheroidal(260, 130, 0, params, Branch.Plus, 60.0, Kind.Prolate, pts, route)
            for route in (Route.ViaSpherical, Route.ViaCylindrical))
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    assert np.abs(a - b).max() <= 1e-14


@pytest.mark.parametrize("route", list(Route))
def test_psi_far_tail_is_zero_or_domain_error_without_warnings(route):
    params = SystemParams(omega=1.1, p_strength=0.7, q_strength=1.3, m=1)
    args = (4, 2, 1, params, Branch.Plus, 1.7, Kind.Prolate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the Gaussians are 0 there, so every term is: psi is exactly 0
        assert psi_spheroidal(*args, SpheroidalPoint(1e100, 0.5, 0.3), route) == 0j
        batch = psi_spheroidal(*args, SpheroidalPoint([1.5, 1e100], [0.5, 0.5], [0.3, 0.3]),
                               route)
        assert batch[0] != 0 and batch[1] == 0
        # rho overflows to inf: the same error on both routes
        with pytest.raises(DomainError, match=r"^synthesis point maps to a non-finite "
                                              r"rho, z or r$"):
            psi_spheroidal(*args, SpheroidalPoint(1e200, 0.5, 0.3), route)
        with pytest.raises(DomainError, match=r"non-finite rho, z or r at point 1$"):
            psi_spheroidal(*args, SpheroidalPoint([1.5, 1e200], [0.5, 0.5], [0.3, 0.3]),
                           route)
