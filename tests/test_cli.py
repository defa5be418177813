"""CLI: config validation, worked rows, determinism, exit codes."""

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genosc
from genosc import cli, interbasis, morse, specfun, spheroidal
from genosc.cli import main
from genosc.errors import NumericError
from genosc.model import (Branch, SystemParams, admissible_branches,
                          energy_cylindrical_parts, energy_level, separation_constant_A)
from genosc.morse import (MorseParams, _wavefunctions, bound_state_count, morse_norms,
                          morse_spectrum, normalizable_levels)
from genosc.oracles import SUITE_MANIFEST
from genosc.specfun import laguerre_diagonal


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


BOTH_FLAGS = ["--P", "-0.16", "--Q", "0", "--m", "1"]


def csv_section(text, name):
    lines = text.splitlines()
    start = lines.index(f"## {name}")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("##"):
            break
        rows.append(line)
    return rows[0].split(","), rows[1:]


def _bits(rows):
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


# ------------------------------------------------------------------ spectrum

def test_spectrum_worked_row():
    code, out, _ = run_cli(["spectrum", *BOTH_FLAGS, "--n", "2", "--format", "csv"])
    assert code == 0
    _, rows = csv_section(out, "levels")
    assert rows[2].split(",")[0] == "2"
    assert float(rows[2].split(",")[1]) == pytest.approx(7.3, abs=1e-14)
    # every cell is the scalar closed form, bit for bit
    for flags, branch in ((BOTH_FLAGS, Branch.Plus), (BOTH_FLAGS, Branch.Minus),
                          (["--omega", "2.5", "--P", "0.3", "--Q", "1.7", "--m", "-2"],
                           Branch.Plus)):
        code, out, _ = run_cli(["spectrum", *flags, "--branch", branch.name.lower(),
                                "--n", "40"])
        assert code == 0
        header, data = json.loads(out)["header"], json.loads(out)["data"]
        params = SystemParams(omega=header["omega"], p_strength=header["P"],
                              q_strength=header["Q"], m=header["m"])
        levels = [[n, energy_level(n, params, branch)] for n in range(41)]
        states = [[n, q, separation_constant_A(q, params, branch),
                   *energy_cylindrical_parts(n - q, q, params, branch)]
                  for n in range(41) for q in range(n + 1)]
        for name, want in (("levels", levels), ("states", states)):
            assert _bits(data[name]["rows"]) == _bits(want), name


def test_spectrum_isotropic_ladder():
    code, out, _ = run_cli(["spectrum", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for n, energy in payload["data"]["levels"]["rows"]:
        # Omega(N + 3/2) with N = 2n + 1 on the default plus branch
        assert energy == pytest.approx(2 * n + 1 + 1.5, abs=1e-14)
    states = payload["data"]["states"]["rows"]
    for n, idx, a_q, e_rho, e_z in states:
        assert e_rho + e_z == pytest.approx(2 * n + 2.5, abs=1e-14)


def test_spectrum_header_echoes_config():
    code, out, _ = run_cli(["spectrum", *BOTH_FLAGS, "--n", "1"])
    payload = json.loads(out)
    header = payload["header"]
    assert header["command"] == "spectrum"
    assert header["P"] == -0.16 and header["m"] == 1
    assert header["branch"] == "plus" and header["n"] == 1


# ---------------------------------------------------------------- interbasis

def test_interbasis_trivial_level():
    code, out, _ = run_cli(["interbasis", *BOTH_FLAGS, "--n", "0", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["data"]["w_matrix"]["rows"]
    assert len(rows) == 1
    assert rows[0][0] == 0
    assert rows[0][1] == pytest.approx(1.0, abs=1e-14)
    assert rows[0][2] <= 1e-14


def test_interbasis_orthogonality_column():
    code, out, _ = run_cli(["interbasis", *BOTH_FLAGS, "--n", "3", "--format", "json"])
    rows = json.loads(out)["data"]["w_matrix"]["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row[-1] <= 1e-12


def test_interbasis_ring_agreement_section():
    code, out, _ = run_cli(["interbasis", "--P", "0", "--Q", "3", "--m", "1",
                            "--n", "2", "--format", "json"])
    data = json.loads(out)["data"]
    assert "ring_agreement" in data
    for *_ignored, diff in data["ring_agreement"]["rows"]:
        assert diff <= 1e-12
    code, out, _ = run_cli(["interbasis", *BOTH_FLAGS, "--n", "2", "--format", "json"])
    assert "ring_agreement" not in json.loads(out)["data"]


def test_interbasis_ring_agreement_stops_past_accurate_range():
    code, out, _ = run_cli(["interbasis", "--P", "0", "--n", "60", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["data"]["ring_agreement"]["rows"]
    assert len(rows) == 61 * 61
    assert max(row[-1] for row in rows) <= 1e-8
    code, out, _ = run_cli(["interbasis", "--P", "0", "--n", "61", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert "ring_agreement" not in data
    assert len(data["w_matrix"]["rows"]) == 62


def test_interbasis_high_level_stays_orthogonal():
    # the Racah-sum table reached max ortho_dev 6.5e4 here and still exited 0
    for branch in ("plus", "minus"):
        code, out, _ = run_cli(["interbasis", *BOTH_FLAGS, "--branch", branch,
                                "--n", "170", "--format", "json"])
        assert code == 0, branch
        rows = json.loads(out)["data"]["w_matrix"]["rows"]
        assert len(rows) == 171
        assert max(row[-1] for row in rows) <= 1e-12, branch


def test_interbasis_contract_miss_exits_4(monkeypatch, fresh_tables):
    # every consumer of M reads its bands from interbasis._m_bands (read-only, shared)
    clean = interbasis._m_bands

    def corrupted(n, params, branch):
        diag, off = (band.copy() for band in clean(n, params, branch))
        diag[0] += 1e-3
        return diag, off

    monkeypatch.setattr(interbasis, "_m_bands", corrupted)
    code, out, err = run_cli(["interbasis", *BOTH_FLAGS, "--n", "6"])
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


# ---------------------------------------------------------------- spheroidal

def test_spheroidal_sections_and_curve():
    code, out, _ = run_cli(["spheroidal", *BOTH_FLAGS, "--n", "2", "--k", "1",
                            "--R", "1.5", "--R-grid", "0.5:2.0:4", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    curve = data["lambda_curve"]["rows"]
    assert len(curve) == 4 and len(curve[0]) == 4
    assert [row[0] for row in curve] == [0.5, 1.0, 1.5, 2.0]
    coeffs = data["coefficients"]["rows"]
    assert len(coeffs) == 3
    assert sum(row[1] ** 2 for row in coeffs) == pytest.approx(1.0, abs=1e-12)
    assert sum(row[2] ** 2 for row in coeffs) == pytest.approx(1.0, abs=1e-12)


def test_spheroidal_kind_changes_data():
    base = ["spheroidal", *BOTH_FLAGS, "--n", "1", "--R-grid", "0.5:1.5:3",
            "--format", "csv"]
    _, pro, _ = run_cli([*base, "--kind", "prolate"])
    _, obl, _ = run_cli([*base, "--kind", "oblate"])
    assert pro != obl


# ------------------------------------------------------------------- perturb

def test_perturb_reports_expected_orders():
    code, out, _ = run_cli(["perturb", *BOTH_FLAGS, "--n", "2", "--k", "0",
                            "--format", "json"])
    assert code == 0
    orders = dict(json.loads(out)["data"]["orders"]["rows"])
    assert orders["small"] == pytest.approx(3.0, abs=0.3)
    assert orders["large"] == pytest.approx(-3.0, abs=0.3)


def test_perturb_exact_column_is_each_probe_systems_eigenvalue():
    # the four probe systems' bands come from one stacked build; every exact cell is
    # still eigensolve(build_tridiag_t(...)).lam[k] at its radius, bit for bit
    rng = random.Random(37)
    checked = 0
    for _ in range(12):
        params = SystemParams(omega=10.0 ** rng.uniform(-1.0, 1.0),
                              p_strength=rng.choice((rng.uniform(-0.25, 0.0),
                                                     rng.uniform(0.0, 3.0))),
                              q_strength=rng.choice((0.0, rng.uniform(0.0, 3.0))),
                              m=rng.randint(0, 3))
        n = rng.randint(0, 14)
        for branch in admissible_branches(params):
            for k in range(n + 1):
                code, out, _ = run_cli(
                    ["perturb", f"--omega={params.omega!r}", f"--P={params.p_strength!r}",
                     f"--Q={params.q_strength!r}", f"--m={params.m}",
                     f"--branch={branch.name.lower()}", f"--n={n}", f"--k={k}",
                     "--format=json"])
                assert code == 0
                rows = json.loads(out)["data"]["comparison"]["rows"]
                assert [row[1] for row in rows] == [*cli._SMALL_PROBES, *cli._LARGE_PROBES]
                for _, R, _, exact, *_ in rows:
                    system = spheroidal.build_tridiag_t(n, params, branch, R,
                                                        spheroidal.Kind.Prolate)
                    assert exact.hex() == spheroidal.eigensolve(system).lam[k].hex()
                checked += branch is Branch.Minus
    assert checked >= 10


def test_perturb_builds_each_series_once_and_solves_each_probe(monkeypatch):
    calls = {}

    def counting(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: calls.setdefault(name, []).append(a)
                            or fn(*a, **kw))

    for name in ("small_r_series", "large_r_series", "_t_bands", "eigensolve"):
        counting(name)
    code, out, _ = run_cli(["perturb", *BOTH_FLAGS, "--n", "5", "--k", "2", "--order", "4"])
    assert (code, bool(out)) == (0, True)
    assert {name: len(args) for name, args in calls.items()} == {
        "small_r_series": 1, "large_r_series": 1, "_t_bands": 1, "eigensolve": 4}


def _refused_omega(value):
    """The refusal of an omega outside the accepted range, as the CLI prints it."""
    return f"invalid config: omega must lie in [1e-150, 1e150], got {float(value)!r}\n"


def test_perturb_overflow_exits_4_without_traceback_or_warning():
    # the first two overflow the large-R series below the order cap (at
    # orders 104 and 114); the last two overflow an error at omega's floor
    for argv in (["perturb", "--n", "60", "--k", "1", "--order", "128"],
                 ["perturb", "--n", "40", "--order", "128"],
                 ["perturb", "--omega=1e-150", "--P", "0.3", "--Q", "0.5", "--m", "1",
                  "--n", "3", "--k", "1", "--order", "3"],
                 ["perturb", "--omega=1e-150", "--Q=1e150", "--n", "1", "--k", "1"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert len(err.splitlines()) == 1, err
        assert err.startswith("numeric failure"), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    # the omegas these failures were once shown at lie outside the accepted range
    for argv, omega in ((["perturb", "--omega=1e-300", "--n", "3", "--k", "1"], "1e-300"),
                        (["perturb", "--omega=5e-324", "--Q=1e150", "--n", "1", "--k", "1"],
                         "5e-324")):
        assert run_cli(argv) == (2, "", _refused_omega(omega)), argv


def test_perturb_series_power_overflow_exits_4_naming_the_series():
    # a power (omega R^2)^j past a double in either regime, then a product c (omega R^2)^-j
    # past a double with every power in range
    for argv, regime, R, x in (
            (["perturb", "--omega", "1e150", "--order", "3"], "small", "0.05", "2.5e+147"),
            (["perturb", "--omega", "1e-150", "--order", "6"], "large", "20", "4e-148"),
            (["perturb", "--omega", "1e-150", "--P", "1e12", "--Q", "0.5", "--m", "1",
              "--n", "1", "--k", "0", "--order", "3"], "large", "20", "4e-148")):
        code, out, err = run_cli(argv)
        assert (code, out) == (4, ""), argv
        assert err == (f"numeric failure: the {regime}-R series overflows at R={R} "
                       f"(omega R^2 = {x})\n"), argv
    # the omegas these overflows were once shown at lie outside the accepted range
    for argv, omega in ((["perturb", "--omega", "1e300"], "1e300"),
                        (["perturb", "--omega", "1e-155", "--P", "0.3", "--Q", "0.5", "--m", "1",
                          "--n", "3", "--k", "1", "--order", "3"], "1e-155")):
        assert run_cli(argv) == (2, "", _refused_omega(omega)), argv


def test_perturb_order_past_the_cap_exits_2():
    for argv in (["perturb", "--order", "400"],
                 ["perturb", "--order", "129"],
                 ["perturb", "--n", "0", "--order", "20000"]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("invalid config: series order must lie in 1..128"), err
    code, out, _ = run_cli(["perturb", "--n", "1", "--order", "128"])
    assert code == 0
    assert out


def test_perturb_trivial_level_is_exact():
    code, out, _ = run_cli(["perturb", *BOTH_FLAGS, "--n", "0", "--k", "0",
                            "--format", "json"])
    data = json.loads(out)["data"]
    for row in data["comparison"]["rows"]:
        assert row[4] <= 1e-11
    for _, order in data["orders"]["rows"]:
        assert order == "exact-to-roundoff"


# --------------------------------------------------------------------- morse

def test_morse_worked_example():
    code, out, _ = run_cli(["morse", "--V0", "2", "--a", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert [row[1] for row in data["levels"]["rows"]] == [-1.125, -0.125]
    for _, norm, dev in data["norms"]["rows"]:
        assert dev <= 1e-10
    grid = data["wavefunctions"]
    assert grid["columns"] == ["x", "psi_0", "psi_1"]
    assert len(grid["rows"]) == 101


def test_morse_norm_contract_miss_exits_4(monkeypatch):
    import genosc.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_norms",
                        lambda ps, params, x: (np.array([1.0, 1.0 + 1e-6]), np.zeros((2, x.size))))
    code, out, err = run_cli(["morse", "--V0", "2", "--a", "1"])
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


def _morse_wells():
    """Seeded wells: lambda log-uniform in [0.6, 80], the threshold wells lambda = k + 1/2
    (at k = 0, V0 = 1/8 and a = 1, the one level sits at the threshold and nothing is
    listed) and the 1000-level well."""
    rng = np.random.default_rng(52)
    wells = [(0.5 * (lam * a) ** 2, a)
             for lam, a in zip(np.exp(rng.uniform(math.log(0.6), math.log(80.0), 40)).tolist(),
                               np.exp(rng.uniform(math.log(0.3), math.log(2.0), 40)).tolist())]
    wells += [(0.5 * (k + 0.5) ** 2, 1.0) for k in (0, 1, 2, 5, 17, 40)]
    return wells + [(500000.0, 1.0)]


def _morse_sections_from_two_passes(params):
    """cmd_morse's sections with the norms from morse_norms and the grid from a separate
    _wavefunctions pass, as (name, columns, rows by bits)."""
    levels = normalizable_levels(params)
    x = np.linspace(-2.0 / params.a, 8.0 / params.a, cli._MORSE_GRID_POINTS)
    norms = morse_norms(params).tolist()
    psi = _wavefunctions(levels, params, x).tolist() if levels else []
    return [("levels", ("p", "energy"), _bits(enumerate(morse_spectrum(params).tolist()))),
            ("norms", ("p", "norm", "abs_dev"),
             _bits((p, norm, abs(norm - 1.0)) for p, norm in zip(levels, norms))),
            ("wavefunctions", ("x", *(f"psi_{p}" for p in levels)),
             _bits(zip(x.tolist(), *psi)))]


def test_morse_sections_match_two_separate_passes():
    # the norm nodes and the grid share one recurrence; each point's values are its own
    for v0, a in _morse_wells():
        cfg = cli.resolve_config(cli._parse_args(["morse", "--V0", repr(v0), "--a", repr(a)]))
        sections, code = cli.cmd_morse(cfg)
        assert code == 0
        assert [(s.name, s.columns, _bits(s.rows)) for s in sections] == \
            _morse_sections_from_two_passes(cfg.morse), (v0, a)


def test_morse_command_runs_one_recurrence(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return laguerre_diagonal(*args, **kwargs)

    monkeypatch.setattr(morse, "laguerre_diagonal", spy)
    monkeypatch.setattr(specfun, "laguerre_diagonal", spy)
    for v0, a in _morse_wells()[::4]:
        calls.clear()
        assert run_cli(["morse", "--V0", repr(v0), "--a", repr(a)])[0] == 0
        levels = normalizable_levels(MorseParams(v0, a))
        assert calls == ([levels] if levels else []), (v0, a)


def test_morse_deep_well_exits_0_with_tight_norms():
    # lambda = 200: L_p^alpha overflows from p ~ 168 here, so psi has to come
    # from the scaled Laguerre-function recurrence
    code, out, _ = run_cli(["morse", "--V0", "20000", "--a", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data["norms"]["rows"]) == 200
    for _, _, dev in data["norms"]["rows"]:
        assert dev <= 1e-12
    assert all(math.isfinite(v) for row in data["wavefunctions"]["rows"] for v in row)


def test_morse_too_many_levels_exits_4_at_once():
    # 1.4e10 levels; listing them one by one never finished. One level past
    # the cap (lambda = cap + 3/4) would norm-check for over a minute
    lam = cli._MORSE_MAX_LEVELS + 0.75
    for v0 in ("1e20", repr(0.5 * lam * lam)):
        start = time.perf_counter()
        code, out, err = run_cli(["morse", "--V0", v0, "--a", "1"])
        assert time.perf_counter() - start < 1.0, v0
        assert code == 4, v0
        assert out == "", v0
        assert "numeric failure" in err, v0
        assert f"more than the {cli._MORSE_MAX_LEVELS}" in err, v0
    assert bound_state_count(MorseParams(0.5 * lam * lam, 1.0)) == cli._MORSE_MAX_LEVELS + 1


def test_morse_below_threshold_is_empty():
    code, out, _ = run_cli(["morse", "--V0", "0.02", "--a", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["levels"]["rows"] == []
    assert data["wavefunctions"]["columns"] == ["x"]


# -------------------------------------------------------------------- verify

def test_verify_default_passes():
    code, out, _ = run_cli(["verify", "--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data["reports"]["rows"]) == len(SUITE_MANIFEST)
    names = [row[0] for row in data["reports"]["rows"]]
    assert names == list(SUITE_MANIFEST)
    assert data["summary"]["rows"][0][2] == 0


def test_verify_strict_profile_fails_nonzero():
    code, out, _ = run_cli(["verify", "--tolerance-profile", "strict",
                            "--format", "json"])
    assert code == 3
    summary = json.loads(out)["data"]["summary"]["rows"][0]
    assert summary[2] > 0


# ------------------------------------------------------------ shared plumbing

def test_identical_configs_are_byte_identical(tmp_path):
    jobs = [["spectrum", *BOTH_FLAGS, "--n", "3"],
            ["interbasis", "--P", "0", "--Q", "3", "--m", "1", "--n", "2"],
            ["spheroidal", *BOTH_FLAGS, "--n", "2", "--R-grid", "0.3:1.8:5"],
            ["perturb", *BOTH_FLAGS, "--n", "1"],
            ["morse", "--V0", "2", "--a", "1"],
            ["verify"]]
    for fmt in ("json", "csv"):
        for job in jobs:
            path = tmp_path / f"run.{fmt}"
            run_cli([*job, "--format", fmt, "--out", str(path)])
            first = path.read_bytes()
            run_cli([*job, "--format", fmt, "--out", str(path)])
            second = path.read_bytes()
            assert first == second, (job, fmt)
            assert first


def test_spheroidal_cold_and_warm_state_byte_identical():
    argv = ["spheroidal", *BOTH_FLAGS, "--n", "6", "--k", "4", "--kind", "oblate",
            "--R", "2.75", "--R-grid", "0.1:4:40", "--format", "json"]
    spheroidal._pair_columns.cache_clear()
    code, cold, _ = run_cli(argv)
    assert code == 0
    misses = spheroidal._pair_columns.cache_info().misses
    code, warm, _ = run_cli(argv)
    assert code == 0
    assert spheroidal._pair_columns.cache_info().misses == misses
    assert cold == warm


def test_repeated_main_calls_match_fresh_parser_runs():
    # main() shares one parser; no flag value may carry over between calls
    import genosc.cli as cli_mod

    calls = [["perturb", "--n", "3", "--k", "2", "--order", "3"],
             ["spectrum", "--n", "1", "--format", "csv"],
             ["perturb", "--n", "4", "--bogus"],
             ["perturb"],
             ["interbasis", "--P", "0.3", "--m", "2"],
             ["spheroidal", "--kind", "oblate", "--k", "1"],
             ["interbasis", "--n", "many"],
             ["spectrum"],
             ["spheroidal"]]

    def run(argv):
        try:
            return run_cli(argv)[:2]
        except SystemExit as exc:   # argparse rejects the flag
            return exc.code, ""

    fresh = []
    for argv in calls:
        cli_mod.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 0, 0, 2, 0, 0]
    assert cli_mod.build_parser() is cli_mod.build_parser()
    for _ in range(2):
        for argv, expected in zip(calls, fresh):
            assert run(argv) == expected, argv


def test_csv_cells_are_17_significant_digits():
    _, out, _ = run_cli(["spectrum", *BOTH_FLAGS, "--n", "2", "--format", "csv"])
    assert "7.2999999999999998" in out
    value = float("7.2999999999999998")
    assert f"{value:.17g}" == "7.2999999999999998"


def test_invalid_configs_exit_2():
    bad = [["spectrum", "--P", "1.0", "--branch", "minus"],
           ["spectrum", "--omega", "-1"],
           ["perturb", "--n", "2", "--k", "5"],
           ["spheroidal", "--R-grid", "2.0:1.0:5"],
           ["spheroidal", "--R-grid", "nope"],
           ["spheroidal", "--R", "-2"],
           ["morse", "--V0", "-3", "--a", "1"],
           ["perturb", "--order", "0"]]
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert "invalid config" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        with redirect_stderr(io.StringIO()):
            main(["spectrum", "--bogus", "1"])
    assert info.value.code == 2


BAD_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["--n", "3"],
    ["spectrum", "--foo"], ["spectrum", "--"], ["spectrum", "--", "--n", "3"],
    ["spectrum", "-n", "2"], ["interbasis", "--n"], ["spectrum", "--format", "xml"],
    ["spectrum", "--n", "x"], ["spectrum", "--n", "2", "--n", "3"],
    ["spectrum", "--n", "2", "extra"], ["spectrum", "-h"], ["verify", "--n", "2"],
    ["verify", "--tolerance-profile", "lax"], ["morse", "--V0"], ["spectrum", "--n=4"],
    ["spectrum", "--form", "csv"], ["spheroidal", "--R-grid", "-1:2:3", "--kind"],
    ["perturb", "--order", "2.5"], ["interbasis", "--P", "-0.1", "--branch", "up"],
]


def _parse_outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace dict or None) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code, args = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
def test_command_parsers_match_top_parser(argv):
    # each command's flags go to its own parser; exit code, stdout, stderr and
    # namespace stay those of the top parser
    want = _parse_outcome(cli.build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == want
    if want[0] is not None:
        assert _parse_outcome(main, argv)[:3] == want[:3]


def _options():
    """(command, option string, action) for every -- option of every command, read
    from build_parser()'s own actions."""
    return [(name, flag, action) for name, command in cli.build_parser().commands.items()
            for action in command._actions for flag in action.option_strings
            if flag.startswith("--")]


def _valid_values(action):
    if action.choices is not None:
        return list(action.choices)
    return {int: ["3", "0"], float: ["0.5", "2"]}.get(action.type, ["0.2:2.5:4", "x.json"])


def _flag_argvs(name, flag, action):
    """(argv, pair) for one option: both spellings of each valid value, a repeated flag,
    values its type or choices refuse, negative values, a missing value. pair is True
    where the table reads the argv exactly when argparse accepts it, False where the
    argv always goes to argparse, None where that depends on argparse's version."""
    if action.nargs == 0:   # --help
        return [([name, flag], False), ([name, f"{flag}=1"], False)]
    values = _valid_values(action)
    cases = [([name, flag, value], True) for value in values]
    cases += [([name, f"{flag}={value}"], True) for value in values]
    cases += [([name, flag, values[0], flag, values[-1]], True),
              ([name, f"{flag}=x", flag, values[0]], True),
              ([name, flag], False), ([name, flag, values[0], flag], False),
              ([name, flag, "-x"], False), ([name, flag, "--"], False),
              ([name, f"{flag}=--"], False), ([name, flag[:-1], values[0]], False)]
    for value in ("bogus", "-2", "-0.25", "2.5", ""):
        cases += [([name, flag, value], True), ([name, f"{flag}={value}"], True)]
    return cases + [([name, flag, "-2.4e-06"], None), ([name, f"{flag}=-2.4e-06"], None)]


def _argparse_reference(argv):
    """build_parser().parse_args(argv), but a list value (argparse strips the "--" of
    --flag=-- and stores []) refused as the command's parser refuses --flag --."""
    args = cli.build_parser().parse_args(argv)
    command = cli.build_parser().commands[argv[0]]
    for action in command._actions:
        if isinstance(getattr(args, action.dest, None), list):
            command.parse_args([action.option_strings[0], "--"])
    return args


def _same_as_argparse(argv):
    """_parse_args(argv) against _argparse_reference(argv), each value by its repr
    (a NaN equals itself, -0.0 differs from 0.0); a refusal through main too. Returns
    whether argparse refused."""
    def outcome(parse):
        code, out, err, args = _parse_outcome(parse, argv)
        return code, out, err, args and sorted((key, repr(v)) for key, v in args.items())

    want = outcome(_argparse_reference)
    assert outcome(cli._parse_args) == want, argv
    if want[0] is not None:
        assert _parse_outcome(main, argv)[:3] == want[:3], argv
    return want[0] is not None


def _table_reads(argv):
    return cli._read_flags(cli.build_parser().commands[argv[0]], argv) is not None


@pytest.mark.parametrize("name, flag, action", _options(),
                         ids=[f"{name} {flag}" for name, flag, _ in _options()])
def test_flag_table_matches_argparse(name, flag, action):
    # the table reads exact pairs whose value passes; argparse reads the rest and words
    # every refusal, so each outcome is argparse's either way
    for argv, pair in _flag_argvs(name, flag, action):
        refused = _same_as_argparse(argv)
        if pair is not None:
            assert _table_reads(argv) == (pair and not refused), argv
    if action.type in (int, float):   # argparse reads "-2" after a flag as a value
        assert _table_reads([name, flag, "-2"]) and _table_reads([name, f"{flag}=-2"])


def _stream_argv(rng, options):
    """An argv shaped like the benchmark's: a command, then --flag=value or --flag value
    pairs, mostly valid, now and then a value or word argparse refuses."""
    name = rng.choice(sorted(options))
    argv = [name]
    for flag, action in rng.sample(options[name], rng.randint(0, len(options[name]))):
        value = rng.choice(_valid_values(action))
        if action.type in (int, float) and rng.random() < 0.5:
            value = (repr(rng.uniform(-0.2, 3.0)) if action.type is float
                     else str(rng.randint(-3, 40)))
        if rng.random() < 0.05:
            value = rng.choice(("-2.4e-06", "x", "-", "--", "1e400", "nan", "-x"))
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--bogus", "-h", "--n", "7")))
    return argv


def test_flag_table_matches_argparse_on_stream_shaped_argvs():
    options = {}
    for name, flag, action in _options():
        if action.nargs is None:
            options.setdefault(name, []).append((flag, action))
    rng = random.Random(51)
    read = refused = 0
    for _ in range(500):
        argv = _stream_argv(rng, options)
        refused += _same_as_argparse(argv)
        read += _table_reads(argv)
    assert read > 300 and refused > 50, (read, refused)


_SINGLE_VALUE_FLAGS = [(name, action.option_strings[0], action.dest)
                       for name, command in cli.build_parser().commands.items()
                       for action in command._actions
                       if isinstance(action, argparse._StoreAction) and action.nargs is None]


@pytest.mark.parametrize("name, flag, dest", _SINGLE_VALUE_FLAGS,
                         ids=[f"{name} {flag}" for name, flag, _ in _SINGLE_VALUE_FLAGS])
def test_flag_with_a_dash_dash_value_is_refused_as_a_missing_value(name, flag, dest):
    # argparse strips the "--" of --flag=-- and stores []; the command refuses it as it
    # refuses --flag --. From Python 3.13 argparse reads "--" as the value itself, which
    # test_flag_table_matches_argparse compares.
    stored = _parse_outcome(cli.build_parser().parse_args, [name, f"{flag}=--"])[3]
    if stored is None or stored[dest] != []:
        pytest.skip("this argparse does not store [] for --flag=--")
    code, out, err, args = _parse_outcome(main, [name, f"{flag}=--"])
    assert (code, out, args) == (2, "", None)
    assert err.endswith(f"genosc {name}: error: argument {flag}: expected one argument\n")
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert _parse_outcome(main, [name, flag, "--"]) == (code, out, err, args)


def test_one_verdict_for_one_w_table():
    # level 3's W table at Q = 1e40 is 1.87 off orthogonal: the spheroidal state that
    # reads it is refused with interbasis's own message, not printed with exit 0
    system = ["--n", "3", "--P", "0.3", "--Q", "1e40"]
    message = "numeric failure: interbasis table orthogonality 1.870e+00 above contract at n=3\n"
    for argv in (["interbasis", *system], ["spheroidal", *system, "--k", "1", "--R", "1"]):
        assert run_cli(argv) == (4, "", message), argv


def test_unwritable_out_exits_2(tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(["spectrum", "--out", str(target)])
        assert code == 2, target
        assert out == "", target
        assert "invalid config" in err, target


def test_allocation_failure_exits_4():
    # 728 TiB each, past the 128 TiB a process maps by default, so numpy
    # refuses at once under any overcommit policy; at n = 1.1e9 the (n+1)^2
    # operator table passes numpy's largest array size, which numpy refuses
    # with ValueError instead of MemoryError
    for argv in (["interbasis", "--n", "10000000"],
                 ["spheroidal", "--R-grid", "0.1:5:100000000000000"],
                 ["interbasis", "--n", "1100000000"],
                 ["spheroidal", "--n", "1100000000"]):
        code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert "numeric failure" in err, argv


def test_huge_interbasis_level_is_refused_before_any_column_array():
    # Under a 2 GiB address-space cap a regression that builds an O(n) array
    # first fails in the child with that array's shape, instead of touching
    # 8 GB inside the test process. The level operators are refused by the
    # shape of their (n+1)^2 table, the spectrum and spheroidal rows by their
    # output table; each run is timed in the child, after start-up.
    script = ("import io, json, resource, sys, time\n"
              "from contextlib import redirect_stderr, redirect_stdout\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from genosc.cli import main\n"
              "report = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    start = time.perf_counter()\n"
              "    with redirect_stdout(out), redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    report.append([code, out.getvalue(), err.getvalue(),\n"
              "                   time.perf_counter() - start])\n"
              "print(json.dumps(report))\n")
    # (argv, what the refusal names). The last two tables fit as floats but
    # not as the rows their commands hold (~120 B and ~270 B a cell measured):
    # sized at 8 B a cell they ran 10-40 s, then failed on a bare MemoryError
    cases = [([cmd, "--n", n], "states table" if cmd == "spectrum"
              else f"({int(n) + 1}, {int(n) + 1})")
             for cmd in ("spectrum", "interbasis", "spheroidal", "perturb")
             for n in ("1000000000", "1100000000")]
    cases += [(["spectrum", "--n", "5000"], "spectrum states table of shape (12507501, 5)"),
              (["spheroidal", "--n", "2", "--R-grid", "0.1:5:3000000"],
               "lambda_curve table of shape (3000000, 4)")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(genosc.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([a for a, _ in cases])],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == len(cases) == 10
    for (argv, named), (code, out, err, seconds) in zip(cases, report):
        assert code == 4, (argv, err)
        assert out == "", argv
        assert err.startswith("numeric failure: ") and err.strip() != "numeric failure:", \
            (argv, err)
        assert "Traceback" not in err, argv
        assert seconds < 5.0, (argv, seconds)
        assert named in err, (argv, err)


def test_stdout_does_not_depend_on_blas_threads():
    # ortho_dev, the Gram and quadrature sums behind verify and the Morse
    # norms could each come from a BLAS product whose summation order follows
    # the thread count; each child sets the count before numpy loads
    script = ("import hashlib, io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from genosc.cli import main\n"
              "for argv in (['interbasis', '--n', '100', '--P', '0.3'],\n"
              "             ['spheroidal', '--n', '100', '--R-grid', '0.1:5:50'],\n"
              "             ['morse', '--V0', '50', '--a', '0.5'],\n"
              "             ['morse', '--V0', '3200', '--a', '1'],\n"
              "             ['verify']):\n"
              "    out = io.StringIO()\n"
              "    with redirect_stdout(out):\n"
              "        code = main(argv)\n"
              "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(genosc.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.splitlines())
    assert [line.split()[0] for line in digests[0]] == ["0"] * 5
    assert digests[0] == digests[1]


def test_numeric_failure_exits_4(monkeypatch):
    import genosc.cli as cli_mod

    def boom(cfg):
        raise NumericError("synthetic loss of accuracy")

    monkeypatch.setitem(cli_mod._COMMANDS, "spectrum", boom)
    code, _, err = run_cli(["spectrum"])
    assert code == 4
    assert "numeric failure" in err


def test_non_finite_output_cell_exits_4(monkeypatch):
    import genosc.cli as cli_mod

    for bad in (float("nan"), np.float64("inf"), -math.inf):
        def bad_row(cfg, bad=bad):
            return [cli_mod.Section("levels", ("n", "energy"), ((0, 1.5), (1, bad)))], 0

        monkeypatch.setitem(cli_mod._COMMANDS, "spectrum", bad_row)
        for fmt in ("json", "csv"):
            code, out, err = run_cli(["spectrum", "--format", fmt])
            assert code == 4, (bad, fmt)
            assert out == "", (bad, fmt)
            assert "numeric failure" in err, (bad, fmt)


def test_lapack_failure_exits_4(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    code, out, err = run_cli(["spheroidal", "--n", "3"])
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


def test_uncertified_lambda_grid_exits_4_naming_n_and_r(monkeypatch):
    # LAPACK is handed a matrix whose d_0 differs from the bands' by 1e-6 at the
    # third R; the Sturm counts on the bands refuse that value
    dense = specfun._dense

    def perturbed(diag, off):
        mat = dense(diag, off)
        if diag.ndim == 2:
            mat[2, 0, 0] += 1e-6 * max(1.0, abs(mat[2, 0, 0]))
        return mat

    monkeypatch.setattr(specfun, "_dense", perturbed)
    code, out, err = run_cli(["spheroidal", "--n", "4", "--R-grid", "0.1:2.0:5"])
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: Sturm count does not bracket lambda_")
    assert "lambda grid at n=4, R=1.05" in err


def test_non_finite_spheroidal_input_writes_no_numbers():
    for argv in (["spheroidal", "--omega", "inf"],
                 ["spheroidal", "--P", "inf", "--n", "1"]):
        code, out, _ = run_cli(argv)
        assert code in (2, 4), argv
        assert out == "", argv


def test_non_finite_system_input_exits_2():
    for command in ("spectrum", "interbasis", "spheroidal", "perturb"):
        for flag in ("--omega", "--P", "--Q"):
            for token in ("inf", "-inf", "nan"):
                argv = [command, f"{flag}={token}", "--n", "1"]
                code, out, err = run_cli(argv)
                assert code == 2, argv
                assert out == "", argv
                assert "invalid config" in err, argv


def test_system_outside_the_accepted_range_exits_2_naming_the_rule():
    # a 156-digit --m is refused before c = sqrt(Q + m^2) could meet an m past a double
    big_m = "1" + "0" * 155
    for flag, value, rule in (
            ("--omega", "1e-151", "omega must lie in [1e-150, 1e150], got 1e-151"),
            ("--omega", "2e150", "omega must lie in [1e-150, 1e150], got 2e+150"),
            ("--P", "2e150", "p_strength must lie in (-1/4, 1e150], got 2e+150"),
            ("--Q", "2e150", "q_strength must lie in [0, 1e150], got 2e+150"),
            ("--m", big_m, f"|m| must lie below 2^62, got {big_m}"),
            ("--m", str(-2 ** 62), f"|m| must lie below 2^62, got {-2 ** 62}")):
        for command in ("spectrum", "interbasis", "spheroidal", "perturb"):
            argv = [command, f"{flag}={value}", "--n", "1"]
            assert run_cli(argv) == (2, "", f"invalid config: {rule}\n"), argv


def test_overflow_exits_4():
    # the interbasis table at the corner of the accepted range misses its contract
    for argv in (["perturb", "--n", "40", "--order", "128"],
                 ["morse", "--V0", "1e300", "--a", "1e-300"],
                 ["interbasis", "--n", "1", "--P=1e150", "--Q=1e150"]):
        code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert "numeric failure" in err, argv
    # the P and Q it once overflowed at lie outside the accepted range
    code, out, err = run_cli(["interbasis", "--n", "1", "--P=1e300",
                              "--Q=1.7976931348623157e+308"])
    assert (code, out) == (2, "")
    assert err == "invalid config: p_strength must lie in (-1/4, 1e150], got 1e+300\n"


def test_spheroidal_grid_overflow_exits_4_without_warning():
    # R^2/2 overflows the operator bands; pytest turns any genosc.spheroidal
    # RuntimeWarning into an error
    for grid in ("1e-300:1e300:3", "0.1:1e154:3"):
        code, out, err = run_cli(["spheroidal", "--R-grid", grid])
        assert code == 4, grid
        assert out == "", grid
        assert err.startswith("numeric failure"), grid


def test_non_finite_r_grid_bound_exits_2_without_warning():
    # np.linspace would warn from numpy itself, which the genosc-only
    # warning filters do not catch
    for grid in ("0.1:inf:3", "0.1:nan:3", "inf:inf:3", "-inf:1:3"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["spheroidal", f"--R-grid={grid}"])
        assert code == 2, grid
        assert out == "", grid
        assert err.startswith("invalid config"), grid
        assert "finite 0 < start < stop" in err, grid


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _system_values(low):
    # mostly in the accepted range (up to inf), plus non-finite and far-off values
    return st.one_of(st.floats(min_value=low), st.sampled_from(
        [math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300]))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["spectrum", "interbasis", "spheroidal", "perturb"]),
       n=st.integers(0, 6), omega=_system_values(0.0), p=_system_values(-0.25),
       q=_system_values(0.0))
@example(command="spheroidal", n=0, omega=1.0, p=0.0, q=1.7976931348605185e308)
def test_fuzz_cli_exit_codes_and_strict_json(command, n, omega, p, q):
    argv = [command, "--n", str(n), f"--omega={omega!r}", f"--P={p!r}", f"--Q={q!r}"]
    code, out, _ = run_cli(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert out == "", argv


def test_console_script_runs():
    # Run the `genosc` target declared in pyproject.toml the way the
    # console-script wrapper generated at install time does, so the test needs
    # no install: the suite runs from a checkout with PYTHONPATH=src.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["genosc"]
    module, attr = target.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'genosc'; sys.exit({attr}())")
    # The child imports the same genosc as this process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(genosc.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", wrapper, "morse", "--V0", "2",
                           "--a", "1", "--format", "csv"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "-1.125" in proc.stdout


def test_python_m_genosc_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(genosc.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "genosc", "morse", "--V0", "2",
                           "--a", "1", "--format", "csv"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "-1.125" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "genosc", "spectrum", "--omega=nan"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
