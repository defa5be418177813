"""CLI: config validation, worked rows, determinism, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genosc
from genosc import interbasis, spheroidal
from genosc.cli import main
from genosc.errors import NumericError
from genosc.oracles import SUITE_MANIFEST


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


# ------------------------------------------------------------------ spectrum

def test_spectrum_worked_row():
    code, out, _ = run_cli(["spectrum", *BOTH_FLAGS, "--n", "2", "--format", "csv"])
    assert code == 0
    _, rows = csv_section(out, "levels")
    assert rows[2].split(",")[0] == "2"
    assert float(rows[2].split(",")[1]) == pytest.approx(7.3, abs=1e-14)


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


def test_interbasis_contract_miss_exits_4(monkeypatch):
    clean = interbasis.m_matrix_cyl

    def corrupted(n, params, branch):
        mat = clean(n, params, branch)
        mat[0, 0] += 1e-3
        return mat

    monkeypatch.setattr(interbasis, "m_matrix_cyl", corrupted)
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


def test_perturb_overflow_exits_4_without_traceback_or_warning():
    # the last two overflow an error and underflow x = omega R^2 to zero
    for argv in (["perturb", "--n", "6", "--k", "1", "--order", "400"],
                 ["perturb", "--n", "5", "--order", "400"],
                 ["perturb", "--omega=1e-300", "--n", "3", "--k", "1"],
                 ["perturb", "--omega=5e-324", "--Q=1e150", "--n", "1", "--k", "1"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert len(err.splitlines()) == 1, err
        assert err.startswith("numeric failure"), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv


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

    monkeypatch.setattr(cli_mod, "quadrature_norm", lambda p, params: 1.0 + 1e-6)
    code, out, err = run_cli(["morse", "--V0", "2", "--a", "1"])
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


def test_morse_deep_well_exits_4_with_empty_stdout():
    # psi overflows inside gen_laguerre from p = 168 here; the run must still
    # end quickly, without numbers
    code, out, err = run_cli(["morse", "--V0", "50000", "--a", "1"])
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


def test_morse_too_many_levels_exits_4_at_once():
    # 1.4e10 levels; listing them one by one never finished
    start = time.perf_counter()
    code, out, err = run_cli(["morse", "--V0", "1e20", "--a", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert "numeric failure" in err


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


def test_unwritable_out_exits_2(tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(["spectrum", "--out", str(target)])
        assert code == 2, target
        assert out == "", target
        assert "invalid config" in err, target


def test_allocation_failure_exits_4():
    # 728 TiB each, past the 128 TiB a process maps by default, so numpy
    # refuses at once under any overcommit policy
    for argv in (["interbasis", "--n", "10000000"],
                 ["spheroidal", "--R-grid", "0.1:5:100000000000000"]):
        code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert "numeric failure" in err, argv


def test_huge_interbasis_level_is_refused_before_any_column_array():
    # Under a 2 GiB address-space cap a regression that builds an O(n) array
    # first fails in the child with that array's shape, instead of touching
    # 8 GB inside the test process.
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from genosc.cli import main\n"
              "sys.exit(main(['interbasis', '--n', '1000000000']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(genosc.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric failure")
    assert "(1000000001, 1000000001)" in proc.stderr


def test_stdout_does_not_depend_on_blas_threads():
    # ortho_dev once came from a BLAS product whose summation order followed
    # the thread count; each child sets the count before numpy loads
    script = ("import hashlib, io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from genosc.cli import main\n"
              "for argv in (['interbasis', '--n', '100', '--P', '0.3'],\n"
              "             ['spheroidal', '--n', '100', '--R-grid', '0.1:5:50'],\n"
              "             ['morse', '--V0', '50', '--a', '0.5']):\n"
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
    assert [line.split()[0] for line in digests[0]] == ["0", "0", "0"]
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


def test_overflow_exits_4():
    for argv in (["perturb", "--order", "400"],
                 ["morse", "--V0", "1e300", "--a", "1e-300"],
                 ["interbasis", "--n", "1", "--P=1e300", "--Q=1.7976931348623157e+308"]):
        code, out, err = run_cli(argv)
        assert code == 4, argv
        assert out == "", argv
        assert "numeric failure" in err, argv


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
