"""The level-index rule (0 <= k <= n) and the label-m rule, one wording each at
every entry point."""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from genosc.bases import psi_cylindrical, psi_spherical
from genosc.cli import main
from genosc.errors import DomainError
from genosc.interbasis import w_integral_oracle
from genosc.model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                          ring_relabel)
from genosc.oracles import bi_orthogonality, bi_orthogonality_hypergeometric
from genosc.perturbation import Regime, large_r_series, small_r_series, wavefunction_correction
from genosc.spheroidal import (Kind, Route, SpheroidalPoint, lambda_curve, psi_spheroidal,
                               t_coefficients, u_coefficients)

RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=0.5, m=1)   # b = 1/2
PLUS = Branch.Plus
POINT = SpheroidalPoint(1.5, 0.5, 0.3)

# (name, call(n, index)) for each entry point; name is the index's own name
ENTRY_POINTS = [
    ("k", lambda n, k: u_coefficients(n, k, RING, PLUS, 1.0, Kind.Prolate)),
    ("k", lambda n, k: t_coefficients(n, k, RING, PLUS, 1.0, Kind.Oblate)),
    ("k", lambda n, k: lambda_curve(n, k, RING, PLUS, Kind.Prolate, [0.5, 1.0])),
    ("k", lambda n, k: psi_spheroidal(n, k, 1, RING, PLUS, 1.0, Kind.Prolate, POINT,
                                      Route.ViaSpherical)),
    ("k", lambda n, k: small_r_series(n, k, RING, PLUS)),
    ("k", lambda n, k: large_r_series(n, k, RING, PLUS)),
    ("p", lambda n, p: w_integral_oracle(n, p, 0, RING, PLUS)),
    ("q", lambda n, q: w_integral_oracle(n, 0, q, RING, PLUS)),
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
