"""The level-index rule (0 <= k <= n), the label-m rule and the branch rule (Minus
only while b <= 1/2), one wording each at every entry point."""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from genosc.bases import (cylindrical_level, psi_cylindrical, psi_spherical, radial_spherical,
                          spherical_level, theta_angular, z_axial)
from genosc.cli import main
from genosc.errors import DomainError
from genosc.interbasis import m_matrix_cyl, n_matrix_sph, w_coefficient, w_matrix
from genosc.model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                          energy_cylindrical_parts, energy_level, ring_relabel,
                          separation_constant_A)
from genosc.oracles import (GramFamily, bi_orthogonality, bi_orthogonality_hypergeometric,
                            gram_matrix, w_overlap_oracle)
from genosc.perturbation import Regime, large_r_series, small_r_series, wavefunction_correction
from genosc.spheroidal import (Kind, Route, SpheroidalPoint, psi_spheroidal, t_coefficients,
                               u_coefficients)

RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.5, m=1)   # b = 1/2
PLUS = Branch.Plus
POINT = SpheroidalPoint(1.5, 0.5, 0.3)

# (name, call(n, index)) for each entry point; name is the index's own name
ENTRY_POINTS = [
    ("k", lambda n, k: u_coefficients(n, k, RING, PLUS, 1.0, Kind.Prolate)),
    ("k", lambda n, k: t_coefficients(n, k, RING, PLUS, 1.0, Kind.Oblate)),
    ("k", lambda n, k: psi_spheroidal(n, k, 1, RING, PLUS, 1.0, Kind.Prolate, POINT,
                                      Route.ViaSpherical)),
    ("k", lambda n, k: small_r_series(n, k, RING, PLUS)),
    ("k", lambda n, k: large_r_series(n, k, RING, PLUS)),
    ("k", lambda n, k: psi_spheroidal(n, k, 1, RING, PLUS, 1.0, Kind.Oblate, POINT,
                                      Route.ViaCylindrical)),
    ("k", lambda n, k: wavefunction_correction(n, k, 1, RING, PLUS, 1.0, Regime.SmallR)),
    ("k", lambda n, k: wavefunction_correction(n, k, 1, RING, PLUS, 1.0, Regime.LargeR)),
    ("q", lambda n, q: bi_orthogonality(n, q, 0, RING, PLUS)),
    ("q'", lambda n, q: bi_orthogonality(n, 0, q, RING, PLUS)),
    ("q", lambda n, q: bi_orthogonality_hypergeometric(n, q, 0, RING, PLUS)),
    ("q'", lambda n, q: bi_orthogonality_hypergeometric(n, 0, q, RING, PLUS)),
]


def _refusals(name):
    return [(2, 3, f"need 0 <= {name} <= n, got n=2, {name}=3"),
            (2, -1, f"{name} must be a nonnegative integer, got -1"),
            (2, 1.5, f"{name} must be a nonnegative integer, got 1.5"),
            (math.inf, 0, "level n must be a nonnegative integer, got inf"),
            (math.nan, 0, "level n must be a nonnegative integer, got nan")]


@pytest.mark.parametrize("name, call", ENTRY_POINTS)
def test_level_index_rule_has_one_wording(name, call):
    call(2, 2)   # the last index of the level is accepted
    for n, index, message in _refusals(name):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(n, index)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["spheroidal", "perturb"])
@pytest.mark.parametrize("n, k, message", [
    (2, 3, "need 0 <= k <= n, got n=2, k=3"),
    (2, -1, "k must be a nonnegative integer, got -1"),
    (-1, 0, "level n must be a nonnegative integer, got -1")])
def test_cli_level_index_rule_has_one_wording(command, n, k, message):
    code, out, err = _run([command, "--n", str(n), "--k", str(k)])
    assert (code, out, err) == (2, "", f"invalid config: {message}\n")


# the five callers of the label-m rule, each given a label with m = 2 in a system with m = 1
LABEL_M_CALLERS = [
    lambda: psi_spherical(SphericalLabel(1, 1, 2, PLUS), RING, (1.0, 0.5, 0.3)),
    lambda: psi_cylindrical(CylindricalLabel(1, 1, 2, PLUS), RING, (1.0, 0.3, 0.5)),
    lambda: ring_relabel(SphericalLabel(1, 1, 2, PLUS), RING),
    lambda: psi_spheroidal(2, 1, 2, RING, PLUS, 1.0, Kind.Prolate, POINT, Route.ViaSpherical),
    lambda: wavefunction_correction(2, 1, 2, RING, PLUS, 1.0, Regime.SmallR),
]


@pytest.mark.parametrize("call", LABEL_M_CALLERS)
def test_label_m_rule_has_one_wording(call):
    with pytest.raises(DomainError, match=r"^label m = 2 does not match params m = 1$"):
        call()


# every reader of a branch's signed exponent, given the Minus branch at P = 2 (b = 3/2)
STEEP, MINUS = SystemParams(omega=1.0, p_strength=2.0, q_strength=0.5, m=1), Branch.Minus
BRANCH_CONSUMERS = {
    "theta_angular": lambda: theta_angular(1, STEEP, MINUS, 0.5),
    "radial_spherical": lambda: radial_spherical(1, 1, STEEP, MINUS, 1.0),
    "z_axial": lambda: z_axial(1, STEEP, MINUS, 1.0),
    "spherical_level": lambda: spherical_level(2, STEEP, MINUS, 1.0, 0.5),
    "cylindrical_level": lambda: cylindrical_level(2, STEEP, MINUS, 1.0, 0.5),
    "w_coefficient": lambda: w_coefficient(2, 1, 1, STEEP, MINUS),
    "w_matrix": lambda: w_matrix(2, STEEP, MINUS),
    "m_matrix_cyl": lambda: m_matrix_cyl(2, STEEP, MINUS),
    "n_matrix_sph": lambda: n_matrix_sph(2, STEEP, MINUS),
    "w_overlap_oracle": lambda: w_overlap_oracle(2, STEEP, MINUS),
    "small_r_series": lambda: small_r_series(2, 1, STEEP, MINUS),
    "large_r_series": lambda: large_r_series(2, 1, STEEP, MINUS),
    "wavefunction_correction": lambda: wavefunction_correction(2, 1, 1, STEEP, MINUS, 1.0,
                                                               Regime.LargeR),
    "bi_orthogonality": lambda: bi_orthogonality(2, 1, 1, STEEP, MINUS),
    "bi_orthogonality_hypergeometric":
        lambda: bi_orthogonality_hypergeometric(2, 1, 1, STEEP, MINUS),
    "gram_theta": lambda: gram_matrix(GramFamily.Theta, 2, STEEP, MINUS),
    "gram_radial": lambda: gram_matrix(GramFamily.RadialSph, 2, STEEP, MINUS),
    "gram_axial": lambda: gram_matrix(GramFamily.Axial, 2, STEEP, MINUS),
    "separation_constant_A": lambda: separation_constant_A(1, STEEP, MINUS),
    "energy_level": lambda: energy_level(2, STEEP, MINUS),
    "energy_cylindrical_parts": lambda: energy_cylindrical_parts(1, 1, STEEP, MINUS),
}


@pytest.mark.parametrize("call", BRANCH_CONSUMERS.values(), ids=BRANCH_CONSUMERS.keys())
def test_inadmissible_branch_is_refused_with_one_wording(call):
    message = "Minus branch is inadmissible for b = 1.5 > 1/2 (p_strength = 2.0)"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
