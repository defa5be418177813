"""Acceptance gate: ten cross-route criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is a single test at its stated tolerance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import sph_harm_y

from genosc.bases import spherical_harmonic_limit
from genosc.interbasis import m_matrix_cyl, n_matrix_sph, ring_w, w_matrix
from genosc.model import (Branch, CylindricalLabel, SphericalLabel,
                          SystemParams, admissible_branches,
                          energy_cylindrical_parts, energy_level, ring_energy,
                          ring_relabel, ring_separation_constant,
                          separation_constant_A)
from genosc.morse import (MorseParams, bound_state_count, morse_spectrum,
                          morse_wavefunction, quadrature_norm)
from genosc.oracles import GramFamily, bi_orthogonality, gram_matrix, w_overlap_oracle
from genosc.perturbation import large_r_series, small_r_series
from genosc.spheroidal import (Kind, build_tridiag_t, build_tridiag_u,
                               eigensolve, t_coefficients, u_coefficients)

CRIT_SETS = (SystemParams(omega=1.0, p_strength=0.05, q_strength=0.5, m=1),
             SystemParams(omega=1.0, p_strength=2.0, q_strength=3.0, m=0),
             SystemParams(omega=2.0, p_strength=0.1, q_strength=0.0, m=2))
NEG_P = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}")
        raise
    print(f"[criterion {num:02d}] PASS  {text}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # first touch fills the quadrature caches; keeps the timed criteria
    # measuring compute, matching a warmed long-running session
    gram_matrix(GramFamily.Theta, 2, CRIT_SETS[0], Branch.Plus)
    w_overlap_oracle(2, CRIT_SETS[0], Branch.Plus)
    eigensolve(build_tridiag_t(2, CRIT_SETS[0], Branch.Plus, 1.0, Kind.Prolate))


def branch_cases(param_sets):
    for params in param_sets:
        for branch in admissible_branches(params):
            yield params, branch


def test_criterion_01_orthonormality_suite():
    text = "Gram matrices equal (1/2 or 1) x I to 1e-10 for n <= 6, < 10 s"
    with criterion(1, text):
        start = time.perf_counter()
        targets = ((GramFamily.Theta, 0.5), (GramFamily.RadialSph, 1.0),
                   (GramFamily.RadialCyl, 1.0), (GramFamily.Axial, 0.5))
        for params, branch in branch_cases(CRIT_SETS):
            for family, target in targets:
                gram, _ = gram_matrix(family, 6, params, branch)
                dev = np.max(np.abs(gram - target * np.eye(7)))
                assert dev <= 1e-10, (family, params, branch, dev)
        assert time.perf_counter() - start < 10.0


def test_criterion_02_cg_cross_validation():
    text = "w_matrix == the overlap integral to 1e-10, W orthogonal, n <= 6, < 30 s"
    with criterion(2, text):
        start = time.perf_counter()
        for params, branch in branch_cases(CRIT_SETS):
            for n in range(7):
                table = w_matrix(n, params, branch).entries
                ortho = np.max(np.abs(table @ table.T - np.eye(n + 1)))
                assert ortho <= 1e-10, (params, branch, n, ortho)
                other = w_overlap_oracle(n, params, branch)[0]
                dev = np.max(np.abs(table - other))
                assert dev <= 1e-10, (params, branch, n, dev)
        assert time.perf_counter() - start < 30.0


def test_criterion_03_matrix_element_identities():
    text = "2 m_matrix_cyl = W diag(A_q) W^T; spectrum(2 n_matrix_sph) = {2 E_z(p)}, n <= 5"
    with criterion(3, text):
        for params, branch in branch_cases(CRIT_SETS):
            for n in range(6):
                w = w_matrix(n, params, branch).entries
                a_diag = np.array([separation_constant_A(q, params, branch)
                                   for q in range(n + 1)])
                lhs = 2.0 * m_matrix_cyl(n, params, branch)
                assert np.max(np.abs(lhs - (w * a_diag) @ w.T)) <= 1e-10
                spec = np.linalg.eigvalsh(2.0 * n_matrix_sph(n, params, branch))
                e_z = np.sort([2.0 * energy_cylindrical_parts(0, p, params, branch)[1]
                               for p in range(n + 1)])
                assert np.max(np.abs(spec - e_z)) <= 1e-10


def test_criterion_04_spheroidal_triple_route():
    text = "spec(U) = spec(T) = eig(diag(A) +- (R^2/2) N) to 1e-10; T = W^T U to 1e-9"
    with criterion(4, text):
        for params in CRIT_SETS:
            branch = Branch.Plus
            for n in range(6):
                w = w_matrix(n, params, branch).entries
                a_diag = np.array([separation_constant_A(q, params, branch)
                                   for q in range(n + 1)])
                n_sph = n_matrix_sph(n, params, branch)
                for radius in (0.1, 1.0, 10.0):
                    for kind in (Kind.Prolate, Kind.Oblate):
                        spec_u = np.asarray(eigensolve(
                            build_tridiag_u(n, params, branch, radius, kind)).lam)
                        spec_t = np.asarray(eigensolve(
                            build_tridiag_t(n, params, branch, radius, kind)).lam)
                        dense = np.diag(a_diag) + kind.sign * (radius ** 2 / 2.0) * n_sph
                        ref = np.linalg.eigvalsh(dense)
                        assert np.max(np.abs(spec_u - spec_t)) <= 1e-10
                        assert np.max(np.abs(spec_t - ref)) <= 1e-10
                        assert np.max(np.abs(spec_u - ref)) <= 1e-10
                        for k in range(n + 1):
                            u = u_coefficients(n, k, params, branch, radius, kind)
                            t = t_coefficients(n, k, params, branch, radius, kind)
                            assert np.max(np.abs(w.T @ u - t)) <= 1e-9


def test_criterion_05_limit_endpoints():
    text = ("T(1e-3) -> identity (1e-5), U(1e3) -> identity (1e-4), "
            "lambda endpoints -> A_k and R^2 E_z(k)/2, n <= 6")
    with criterion(5, text):
        for params in CRIT_SETS:
            branch = Branch.Plus
            for n in range(7):
                small = eigensolve(build_tridiag_t(n, params, branch, 1e-3,
                                                   Kind.Prolate))
                large = eigensolve(build_tridiag_u(n, params, branch, 1e3,
                                                   Kind.Prolate))
                for k in range(n + 1):
                    unit = np.zeros(n + 1)
                    unit[k] = 1.0
                    t = t_coefficients(n, k, params, branch, 1e-3, Kind.Prolate)
                    u = u_coefficients(n, k, params, branch, 1e3, Kind.Prolate)
                    assert np.max(np.abs(t - unit)) <= 1e-5
                    assert np.max(np.abs(u - unit)) <= 1e-4
                    a_k = separation_constant_A(k, params, branch)
                    assert abs(small.lam[k] - a_k) <= 1e-4
                    e_z = energy_cylindrical_parts(0, k, params, branch)[1]
                    assert abs(large.lam[k] / 1e6 - e_z / 2.0) <= 1e-2 * abs(e_z / 2.0)


def test_criterion_06_perturbation_convergence():
    text = ("J=2 error exponents: small-R 3.0 +- 0.3 (R = 0.05, 0.1), "
            "large-R -3.0 +- 0.3 (R = 20, 40); n = 0 exact to 1e-12")
    with criterion(6, text):
        params = CRIT_SETS[0]
        branch = Branch.Plus
        omega = params.omega

        def exact(n, k, radius):
            return eigensolve(build_tridiag_t(n, params, branch, radius,
                                              Kind.Prolate)).lam[k]

        for n in range(1, 5):
            for k in range(n + 1):
                series = small_r_series(n, k, params, branch, order=2)
                errs = [abs(series.eigenvalue(r) - exact(n, k, r))
                        for r in (0.05, 0.1)]
                slope = math.log(errs[1] / errs[0]) / math.log(4.0)
                assert abs(slope - 3.0) <= 0.3, ("small", n, k, slope)
                series = large_r_series(n, k, params, branch, order=2)
                errs = [abs(series.eigenvalue(r) - exact(n, k, r)) / (omega * r * r)
                        for r in (20.0, 40.0)]
                slope = math.log(errs[1] / errs[0]) / math.log(4.0)
                assert abs(slope + 3.0) <= 0.3, ("large", n, k, slope)
        small0 = small_r_series(0, 0, params, branch, order=2)
        large0 = large_r_series(0, 0, params, branch, order=2)
        for radius in (0.05, 0.1, 1.0, 20.0, 40.0):
            ref = exact(0, 0, radius)
            assert abs(small0.eigenvalue(radius) - ref) <= 1e-12
            assert abs(large0.eigenvalue(radius) - ref) <= 1e-12


def test_criterion_07_bi_orthogonality():
    text = "quadrature J_qq' = omega/(2q + c +- b + 1) delta to 1e-10, n <= 5"
    with criterion(7, text):
        for params, branch in branch_cases(CRIT_SETS + (NEG_P,)):
            for n in range(6):
                for q in range(n + 1):
                    for qp in range(n + 1):
                        rep = bi_orthogonality(n, q, qp, params, branch)
                        # the report's tolerance scales as J does, with omega; the
                        # criterion's bound stays absolute
                        assert rep.tolerance == 1e-10 * params.omega
                        assert rep.passed and abs(rep.measured - rep.expected) <= 1e-10, (
                            params, branch, n, q, qp, rep.measured)


def test_criterion_08_ring_and_isotropic_reductions():
    text = ("P = 0 formulas reduce to delta-relabeled ring forms (1e-10); "
            "P = Q = 0 angular functions match spherical harmonics on 50 points")
    with criterion(8, text):
        ring_params = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)
        for branch in admissible_branches(ring_params):
            for n in range(5):
                table = w_matrix(n, ring_params, branch).entries
                for idx in range(n + 1):
                    sph = ring_relabel(SphericalLabel(n - idx, idx, 1, branch),
                                       ring_params)
                    cyl = ring_relabel(CylindricalLabel(n - idx, idx, 1, branch),
                                       ring_params)
                    assert sph.N == cyl.N
                    a_gen = separation_constant_A(idx, ring_params, branch)
                    assert abs(a_gen - ring_separation_constant(sph.l, sph.delta)) <= 1e-10
                    e_gen = energy_level(n, ring_params, branch)
                    assert abs(e_gen - ring_energy(sph.N, sph.delta, 1.0)) <= 1e-10
                cyl = [ring_relabel(CylindricalLabel(n - p, p, 1, branch), ring_params)
                       for p in range(n + 1)]
                sph = [ring_relabel(SphericalLabel(n - q, q, 1, branch), ring_params)
                       for q in range(n + 1)]
                # the level's ring table from one call: (N, n3) down, l across
                ring = ring_w(np.array([[c.N] for c in cyl]), 1,
                              np.array([[c.n3] for c in cyl]),
                              np.array([s.l for s in sph]), sph[0].delta)
                assert np.abs(table - ring).max() <= 1e-10
        # isotropic point: fixed overall phase (-1)^max(m, 0) against the
        # Condon-Shortley convention, documented in the bases module
        grid = np.linspace(0.02, math.pi - 0.02, 50)
        for l in range(5):
            for m in range(-l, l + 1):
                ours = np.array([spherical_harmonic_limit(l, m, t, 1.3)
                                 for t in grid])
                ref = (-1.0) ** max(m, 0) * sph_harm_y(l, m, grid, 1.3)
                assert np.max(np.abs(ours - ref)) <= 1e-10, (l, m)


def test_criterion_09_morse_levels_and_states():
    text = ("Morse counts floor(lambda - 1/2) + 1; (V0=2, a=1) spectrum "
            "{-1.125, -0.125} to 1e-12; norms 1e-8; FD residual 1e-5")
    with criterion(9, text):
        for lam in (0.6, 1.0, 2.0, 2.5, 7.3):
            params = MorseParams(v0=0.5 * lam * lam, a=1.0)
            expected = math.floor(lam - 0.5) + 1 if lam > 0.5 else 0
            assert bound_state_count(params) == expected
            assert len(morse_spectrum(params)) == expected
        worked = MorseParams(v0=2.0, a=1.0)
        spectrum = morse_spectrum(worked)
        assert np.max(np.abs(spectrum - np.array([-1.125, -0.125]))) <= 1e-12
        for lam in (2.0, 7.3):
            params = MorseParams(v0=0.5 * lam * lam, a=1.0)
            count = bound_state_count(params)
            levels = [p for p in range(count) if 2.0 * lam - 2.0 * p - 1.0 > 0.0]
            for p in levels:
                assert abs(quadrature_norm(p, params) - 1.0) <= 1e-8
            energies = morse_spectrum(params)
            h = 2e-4
            x = np.linspace(-1.0, 6.0, 150)
            potential = 0.5 * lam * lam * (np.exp(-2.0 * x) - 2.0 * np.exp(-x))
            for p in levels:
                psi = morse_wavefunction(p, params, x)
                lap = (morse_wavefunction(p, params, x + h) - 2.0 * psi
                       + morse_wavefunction(p, params, x - h)) / (h * h)
                residual = -0.5 * lap + potential * psi - energies[p] * psi
                mask = np.abs(psi) > 0.2 * np.max(np.abs(psi))
                rel = np.max(np.abs(residual[mask])) / np.max(np.abs(psi * energies[p]))
                assert rel <= 1e-5, (lam, p, rel)


def test_criterion_10_cli_determinism(tmp_path):
    text = "identical CLI configs produce byte-identical outputs"
    with criterion(10, text):
        from genosc.cli import main

        jobs = [["spectrum", "--P", "0.05", "--Q", "0.5", "--m", "1", "--n", "3"],
                ["interbasis", "--P", "0", "--Q", "3", "--m", "1", "--n", "2"],
                ["spheroidal", "--P", "0.05", "--Q", "0.5", "--m", "1",
                 "--n", "2", "--R-grid", "0.3:1.8:5"],
                ["perturb", "--P", "0.05", "--Q", "0.5", "--m", "1", "--n", "2"],
                ["morse", "--V0", "2", "--a", "1"],
                ["verify"]]
        for fmt in ("json", "csv"):
            for job in jobs:
                path = tmp_path / f"run.{fmt}"
                assert main([*job, "--format", fmt, "--out", str(path)]) == 0
                first = path.read_bytes()
                assert main([*job, "--format", fmt, "--out", str(path)]) == 0
                assert path.read_bytes() == first, (job, fmt)
                assert first
