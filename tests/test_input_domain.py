"""A deterministic sweep of the input domain's edges.

CLI: every command and every numeric flag at the edges of a double, crossed with small
levels, in both formats; each run exits 0, 2, 3 or 4, with strict stdout on exit 0 and
none otherwise, and no warning. Library: every coordinate argument of the point-taking
functions (and ring_w's, ring_energy's, ring_separation_constant's and theta_ring's delta,
ring_energy's omega and the psi_spherical and psi_cylindrical point itself) at the same
values, at non-numbers, and as one entry of a batch; each call returns a finite result or
raises DomainError or NumericError. A spheroidal kind or a branch passed as anything but
its enum member is refused with DomainError naming it, and so is a parameter set, a
spheroidal point or a tridiagonal system of the wrong type, naming the type received.
"""

import csv
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from genosc import (Branch, CylindricalLabel, Kind, MorseParams, Route, SphericalLabel,
                    SpheroidalPoint, SystemParams, bi_orthogonality_hypergeometric,
                    build_tridiag_u, eigensolve, energy_level, enumerate_level, lambda_curve,
                    lambda_grid, map_spheroidal_point, morse_spectrum, morse_wavefunction,
                    psi_cylindrical, psi_spherical, psi_spheroidal, radial_cylindrical,
                    radial_spherical, ring_energy, ring_relabel, ring_separation_constant, ring_w,
                    small_r_series, spherical_harmonic_limit, sw_to_morse, t_coefficients,
                    theta_angular, theta_ring, u_coefficients, w_coefficient, w_integral_oracle,
                    w_matrix, z_axial)
from genosc.bases import cylindrical_level, spherical_level
from genosc.cli import main
from genosc.errors import DomainError, NumericError
from genosc.oracles import GramFamily, bi_orthogonality, gram_matrix, w_overlap_oracle

EDGES = ("1.7976931348623157e308", "1e308", "1e154", "5e-324", "0", "-0", "-1", "inf", "-inf",
         "nan")
LEVELS = (0, 1, 3, 6)
SYSTEM = ("--omega", "--P", "--Q", "--m")
# each command's numeric flags beside --n; an R-grid value takes each of its three fields
FLAGS = {"spectrum": SYSTEM, "interbasis": SYSTEM,
         "spheroidal": (*SYSTEM, "--k", "--R", "--R-grid={}:2:3", "--R-grid=0.1:{}:3",
                        "--R-grid=0.1:2:{}"),
         "perturb": (*SYSTEM, "--k", "--order"),
         "morse": ("--V0", "--a"), "verify": ()}


def _flag(flag, value):
    return flag.format(value) if "{}" in flag else f"{flag}={value}"


def _argvs(command):
    for fmt in ("json", "csv"):
        tail = [f"--format={fmt}"]
        if command in ("morse", "verify"):
            yield [command, *tail]
            yield from ([command, _flag(flag, v), *tail] for flag in FLAGS[command] for v in EDGES)
            continue
        yield from ([command, f"--n={v}", *tail] for v in EDGES)
        yield from ([command, f"--n={n}", _flag(flag, v), *tail]
                    for flag in FLAGS[command] for v in EDGES for n in LEVELS)


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _strict_csv(text):
    """Every cell that reads as a number is finite."""
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell.rpartition(" = ")[2])
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite CSV cell {cell!r}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses a value its type cannot read
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", FLAGS)
def test_cli_edge_values_exit_cleanly(command):
    bad = []
    for argv in _argvs(command):
        code, out, err = _run(argv)
        try:
            assert code in (0, 2, 3, 4), f"exit {code}"
            if code == 0:
                assert err == "", f"stderr {err!r}"
                if "--format=csv" in argv:
                    _strict_csv(out)
                else:
                    json.loads(out, parse_constant=_refuse_constant)
            else:
                assert out == "", "stdout on failure"
        except (AssertionError, ValueError) as exc:
            bad.append((argv, str(exc)))
    assert not bad, bad


PARAMS = SystemParams(omega=1.0, p_strength=0.3, q_strength=0.5, m=1)
PLUS = Branch.Plus
SPH = SphericalLabel(1, 1, 1, PLUS)
CYL = CylindricalLabel(1, 1, 1, PLUS)
MORSE = MorseParams(v0=5.0, a=1.0)


def _with_omega(omega):
    return SystemParams(omega, PARAMS.p_strength, PARAMS.q_strength, PARAMS.m)


def _values(report):
    """An oracle's reading: its report's measured and expected values."""
    return report.measured, report.expected


def _like(value, valid):
    """valid in the shape of value: the other coordinates of a batch."""
    return np.full(np.shape(value), valid)


def _spheroidal(coord, read):
    """(valid value, call) of one spheroidal coordinate, the others valid: read(point)."""
    valid = {"xi": 1.5, "eta": 0.5, "phi": 0.3}

    def call(value):
        coords = {name: _like(value, v) for name, v in valid.items()}
        return read(SpheroidalPoint(**{**coords, coord: value}))
    return valid[coord], call


# name -> (a valid value, call of that one value); the other arguments are valid
READERS = {
    "theta_angular": (0.7, lambda t: theta_angular(1, PARAMS, PLUS, t)),
    "radial_spherical": (0.7, lambda r: radial_spherical(1, 1, PARAMS, PLUS, r)),
    "radial_cylindrical": (0.7, lambda rho: radial_cylindrical(1, PARAMS, rho)),
    "z_axial": (0.7, lambda z: z_axial(1, PARAMS, PLUS, z)),
    "spherical_level r": (0.7, lambda r: spherical_level(2, PARAMS, PLUS, r, _like(r, 0.7))),
    "spherical_level theta": (0.7, lambda t: spherical_level(2, PARAMS, PLUS, _like(t, 0.7), t)),
    "cylindrical_level rho": (0.7, lambda rho: cylindrical_level(2, PARAMS, PLUS, rho,
                                                                 _like(rho, 0.7))),
    "cylindrical_level z": (0.7, lambda z: cylindrical_level(2, PARAMS, PLUS, _like(z, 0.7), z)),
    "psi_spherical r": (0.7, lambda r: psi_spherical(SPH, PARAMS, (r, 0.7, 0.7))),
    "psi_spherical theta": (0.7, lambda t: psi_spherical(SPH, PARAMS, (0.7, t, 0.7))),
    "psi_spherical phi": (0.7, lambda phi: psi_spherical(SPH, PARAMS, (0.7, 0.7, phi))),
    "psi_cylindrical rho": (0.7, lambda rho: psi_cylindrical(CYL, PARAMS, (rho, 0.7, 0.7))),
    "psi_cylindrical phi": (0.7, lambda phi: psi_cylindrical(CYL, PARAMS, (0.7, phi, 0.7))),
    "psi_cylindrical z": (0.7, lambda z: psi_cylindrical(CYL, PARAMS, (0.7, 0.7, z))),
    "theta_ring theta": (0.7, lambda t: theta_ring(2, 1, 0.3, t)),
    "theta_ring delta": (0.3, lambda d: theta_ring(2, 1, d, 0.7)),
    "spherical_harmonic_limit theta": (0.7, lambda t: spherical_harmonic_limit(2, 1, t, 0.7)),
    "spherical_harmonic_limit phi": (0.7, lambda phi: spherical_harmonic_limit(2, 1, 0.7, phi)),
    "morse_wavefunction": (0.7, lambda x: morse_wavefunction(0, MORSE, x)),
    "lambda_grid": (0.5, lambda R: lambda_grid(1, PARAMS, PLUS, Kind.Prolate, R)),
    "lambda_curve": (0.5, lambda R: lambda_curve(1, 0, PARAMS, PLUS, Kind.Oblate, R)),
    "ring_w delta": (0.3, lambda d: ring_w(2, 0, 0, 2, d)),
    "ring_energy delta": (0.3, lambda d: ring_energy(2, d, 1.0)),
    # at omega = 10 a finite delta near the float maximum overflows the product
    "ring_energy delta at omega 10": (0.3, lambda d: ring_energy(2, d, 10.0)),
    "ring_energy omega": (1.0, lambda w: ring_energy(2, 0.3, w)),
    "ring_separation_constant delta": (0.3, lambda d: ring_separation_constant(0, d)),
    # the value is the whole point: no number, None or pair is a triple
    "psi_spherical point": (0.7, lambda point: psi_spherical(SPH, PARAMS, point)),
    "psi_cylindrical point": (0.7, lambda point: psi_cylindrical(CYL, PARAMS, point)),
    # omega near either end of a double: the factors and the oracles whose integrands
    # carry powers of it
    "radial_cylindrical omega": (1.0, lambda w: radial_cylindrical(1, _with_omega(w), 0.7)),
    "cylindrical_level omega": (1.0, lambda w: cylindrical_level(2, _with_omega(w), PLUS, 0.7,
                                                                 0.7)),
    **{f"gram_matrix {family.value} omega": (
        1.0, lambda w, family=family: _values(gram_matrix(family, 2, _with_omega(w))[1]))
       for family in list(GramFamily)[:4]},
    "bi_orthogonality omega": (1.0, lambda w: _values(bi_orthogonality(3, 1, 1, _with_omega(w),
                                                                       PLUS))),
    "w_overlap_oracle omega": (1.0, lambda w: _values(w_overlap_oracle(3, _with_omega(w),
                                                                       PLUS)[1])),
    **{f"map_spheroidal_point {kind.value} {coord}": _spheroidal(
        coord, lambda point, kind=kind: map_spheroidal_point(point, 1.0, kind))
       for kind in Kind for coord in ("xi", "eta", "phi")},
    **{f"psi_spheroidal {kind.value} {route.value} {coord}": _spheroidal(
        coord, lambda point, kind=kind, route=route: psi_spheroidal(
            2, 1, 1, PARAMS, PLUS, 1.0, kind, point, route))
       for kind in Kind for route in Route for coord in ("xi", "eta", "phi")},
}


def _finite(result):
    if isinstance(result, (list, tuple)):
        return all(map(_finite, result))
    return bool(np.all(np.isfinite(result)))


@pytest.mark.parametrize("name", READERS)
def test_library_edge_values_give_finite_results_or_typed_errors(name):
    valid, call = READERS[name]
    values = [float(v) for v in EDGES] + ["x", None, 1j]
    bad = []
    # each value alone, then as the one bad entry of a batch
    for value in values + [[valid, v] for v in values]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(value)
            except (DomainError, NumericError):
                continue
            except Exception as exc:   # noqa: BLE001 - any other exception is the defect
                bad.append((value, f"{type(exc).__name__}: {exc}"))
                continue
        if not _finite(result):
            bad.append((value, f"non-finite result {result!r}"))
    assert not bad, bad


POINT = SpheroidalPoint(1.5, 0.5, 0.3)
# name -> (call with one enum argument given as its value or name, the refusal's text)
ENUM_MISUSES = {
    "map_spheroidal_point kind": (lambda: map_spheroidal_point(POINT, 1.0, "prolate"),
                                  "unknown spheroidal kind 'prolate'"),
    "lambda_grid kind": (lambda: lambda_grid(1, PARAMS, PLUS, "prolate", [0.5]),
                         "unknown spheroidal kind 'prolate'"),
    "lambda_curve kind": (lambda: lambda_curve(1, 0, PARAMS, PLUS, "oblate", [0.5]),
                          "unknown spheroidal kind 'oblate'"),
    "build_tridiag_u kind": (lambda: build_tridiag_u(1, PARAMS, PLUS, 1.0, "prolate"),
                             "unknown spheroidal kind 'prolate'"),
    "u_coefficients kind": (lambda: u_coefficients(2, 1, PARAMS, PLUS, 1.0, "oblate"),
                            "unknown spheroidal kind 'oblate'"),
    "t_coefficients branch": (lambda: t_coefficients(2, 1, PARAMS, "plus", 1.0, Kind.Prolate),
                              "unknown branch 'plus'"),
    "psi_spheroidal kind": (lambda: psi_spheroidal(2, 1, 1, PARAMS, PLUS, 1.0, "prolate", POINT,
                                                   Route.ViaSpherical),
                            "unknown spheroidal kind 'prolate'"),
    "psi_spheroidal branch": (lambda: psi_spheroidal(2, 1, 1, PARAMS, "plus", 1.0, Kind.Oblate,
                                                     POINT, Route.ViaCylindrical),
                              "unknown branch 'plus'"),
    "theta_angular branch": (lambda: theta_angular(1, PARAMS, "plus", 0.5),
                             "unknown branch 'plus'"),
    "spherical_level branch": (lambda: spherical_level(1, PARAMS, 1, 0.5, 0.5),
                               "unknown branch 1"),
    "energy_level branch": (lambda: energy_level(1, PARAMS, "minus"), "unknown branch 'minus'"),
    "w_matrix branch": (lambda: w_matrix(2, PARAMS, "plus"), "unknown branch 'plus'"),
    "SphericalLabel branch": (lambda: SphericalLabel(1, 0, 1, "plus"), "unknown branch 'plus'"),
    "CylindricalLabel branch": (lambda: CylindricalLabel(1, 0, 1, -1), "unknown branch -1"),
    "gram_matrix branch": (lambda: gram_matrix(GramFamily.Theta, 2, PARAMS, "plus"),
                           "unknown branch 'plus'"),
    "bi_orthogonality branch": (lambda: bi_orthogonality(3, 1, 1, PARAMS, "plus"),
                                "unknown branch 'plus'"),
    "w_overlap_oracle branch": (lambda: w_overlap_oracle(3, PARAMS, "plus"),
                                "unknown branch 'plus'"),
}


@pytest.mark.parametrize("name", ENUM_MISUSES)
def test_a_kind_or_branch_that_is_no_enum_member_is_refused(name):
    call, message = ENUM_MISUSES[name]
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


WELL = MorseParams(5.0, 1.0)
TUPLE_POINT = (1.5, 0.5, 0.3)
_NOT_SYSTEM = {
    "w_matrix": lambda params: w_matrix(2, params, PLUS),
    "w_coefficient": lambda params: w_coefficient(2, 1, 1, params, PLUS),
    "energy_level": lambda params: energy_level(1, params, PLUS),
    "small_r_series": lambda params: small_r_series(2, 1, params, PLUS),
    "u_coefficients": lambda params: u_coefficients(2, 1, params, PLUS, 1.0, Kind.Prolate),
    "lambda_grid": lambda params: lambda_grid(1, params, PLUS, Kind.Prolate, [0.5]),
    "enumerate_level": lambda params: enumerate_level(1, params),
    "ring_relabel": lambda params: ring_relabel(SphericalLabel(1, 0, 1, PLUS), params),
    "psi_spherical": lambda params: psi_spherical(SphericalLabel(1, 0, 1, PLUS), params,
                                                  (0.5, 0.5, 0.1)),
    "w_overlap_oracle": lambda params: w_overlap_oracle(2, params, PLUS),
    "bi_orthogonality": lambda params: bi_orthogonality(3, 1, 1, params, PLUS),
    "bi_orthogonality_hypergeometric":
        lambda params: bi_orthogonality_hypergeometric(3, 1, 1, params, PLUS),
    "w_integral_oracle": lambda params: w_integral_oracle(2, 0, 0, params, PLUS),
}
# name -> (call with one parameter, point or system object of the wrong type, refusal text)
TYPE_MISUSES = {
    **{f"{name} {tag}": (lambda call=call, bad=bad: call(bad),
                         f"params must be a SystemParams, got {type(bad).__name__}")
       for name, call in _NOT_SYSTEM.items() for tag, bad in (("well", WELL), ("None", None))},
    "morse_spectrum system": (lambda: morse_spectrum(PARAMS),
                              "params must be a MorseParams, got SystemParams"),
    "morse_spectrum None": (lambda: morse_spectrum(None),
                            "params must be a MorseParams, got NoneType"),
    "sw_to_morse system": (lambda: sw_to_morse(PARAMS, -1.0),
                           "params must be a MorseParams, got SystemParams"),
    "psi_spheroidal tuple": (lambda: psi_spheroidal(2, 1, 1, PARAMS, PLUS, 1.0, Kind.Prolate,
                                                    TUPLE_POINT, Route.ViaSpherical),
                             "point must be a SpheroidalPoint, got tuple"),
    "map_spheroidal_point tuple": (lambda: map_spheroidal_point(TUPLE_POINT, 1.0, Kind.Oblate),
                                   "point must be a SpheroidalPoint, got tuple"),
    "eigensolve None": (lambda: eigensolve(None),
                        "system must be a TridiagonalSystem, got NoneType"),
    "gram_matrix well": (lambda: gram_matrix(GramFamily.Theta, 2, WELL),
                         "theta Gram checks need SystemParams, got MorseParams"),
    "psi_spherical tuple label": (lambda: psi_spherical((1, 0, 1, PLUS), PARAMS, (0.5, 0.5, 0.1)),
                                  "label must be a SphericalLabel, got tuple"),
    "psi_cylindrical tuple label": (lambda: psi_cylindrical((1, 0, 1, PLUS), PARAMS,
                                                            (0.5, 0.1, 0.5)),
                                    "label must be a CylindricalLabel, got tuple"),
    "ring_relabel None label": (lambda: ring_relabel(None, SystemParams(1.0, 0.0, 0.0, 1)),
                                "cannot ring-relabel NoneType"),
}


@pytest.mark.parametrize("name", TYPE_MISUSES)
def test_an_object_of_the_wrong_type_is_refused_naming_its_type(name):
    call, message = TYPE_MISUSES[name]
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message
