"""Reference checks: every job's output against an independent route.

Tolerances come from the package's own contracts: the eigensolver residual
factor ``genosc.spheroidal._RESIDUAL_FACTOR`` and the oracle tolerances
``genosc.oracles._TOL_SMALL`` / ``_TOL_LARGE`` (by level). Each check returns
a Verdict with the job's worst deviation, normalized by the scale of the
quantity it compares, so ``-log10(dev)`` reads as digits of agreement.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

import genosc.interbasis as gi
import genosc.oracles as go
import genosc.spheroidal as gs
from genosc.model import Branch, SystemParams

_BRANCH = {"plus": Branch.Plus, "minus": Branch.Minus}
_KIND = {"prolate": gs.Kind.Prolate, "oblate": gs.Kind.Oblate}
_NONFINITE_CELLS = {"nan", "-nan", "inf", "-inf", "+inf", "infinity", "-infinity"}
# perturb compares series and exact values at these radii (genosc.cli)
_PERTURB_PROBES = {"small": (0.05, 0.1), "large": (20.0, 40.0)}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    dev: float | None = None


class CheckFailed(Exception):
    """A reference check found output outside its tolerance."""


def _residual_factor() -> float:
    return gs._RESIDUAL_FACTOR


def _level_tol(n: int) -> float:
    return go._TOL_SMALL if n <= 6 else go._TOL_LARGE


# ---------------------------------------------------------------- parsing

class NonFinite(Exception):
    """Output holds a NaN or infinity token."""


def _reject_constant(token):
    raise NonFinite(token)


def _cell(text: str):
    if text.strip().lower() in _NONFINITE_CELLS:
        raise NonFinite(text)
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_output(text: str, fmt: str) -> dict:
    """Sections {name: (columns, rows)} from strict JSON or the CLI's CSV."""
    if fmt == "json":
        data = json.loads(text, parse_constant=_reject_constant)["data"]
        return {name: (sec["columns"], sec["rows"]) for name, sec in data.items()}
    sections, name, columns, rows = {}, None, None, []
    for line in text.splitlines():
        if line.startswith("## "):
            if name is not None:
                sections[name] = (columns, rows)
            name, columns, rows = line[3:], None, []
        elif line.startswith("# ") or name is None:
            continue
        elif columns is None:
            columns = next(csv.reader([line]))
        else:
            rows.append([_cell(c) for c in next(csv.reader([line]))])
    if name is not None:
        sections[name] = (columns, rows)
    return sections


def _flag(argv, name, default):
    """Value of a flag given as `--name value` or `--name=value`."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def system_of(argv) -> tuple[SystemParams, Branch]:
    params = SystemParams(omega=float(_flag(argv, "--omega", "1.0")),
                          p_strength=float(_flag(argv, "--P", "0.0")),
                          q_strength=float(_flag(argv, "--Q", "0.0")),
                          m=int(_flag(argv, "--m", "0")))
    return params, _BRANCH[_flag(argv, "--branch", "plus")]


def _channel(params: SystemParams, branch: Branch) -> tuple[float, float]:
    """(c, sb): c = sqrt(Q + m^2) and the signed b = +-sqrt(P + 1/4)."""
    return (math.sqrt(params.q_strength + params.m ** 2),
            branch.sign * math.sqrt(params.p_strength + 0.25))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class _Dev:
    """Running worst normalized deviation; a breach raises CheckFailed."""

    def __init__(self):
        self.worst = 0.0

    def add(self, dev: float, scale: float, tol: float, what: str) -> None:
        _require(math.isfinite(dev), f"{what}: non-finite deviation")
        norm = dev / scale
        self.worst = max(self.worst, norm)
        _require(norm <= tol, f"{what}: {norm:.3e} > tolerance {tol:.1e}")


# ------------------------------------------------------------ CLI checks

def _scale(system) -> float:
    """The residual contract's scale: largest matrix entry, at least 1."""
    return max(np.abs(system.diag).max(), np.abs(system.offdiag).max(initial=0.0), 1.0)


def _eig_ref(system) -> tuple[np.ndarray, float]:
    """LAPACK eigenvalues of a tridiagonal system and its scale."""
    return np.linalg.eigvalsh(system.dense()), _scale(system)


def _check_spheroidal(argv, sec, dev: _Dev) -> None:
    params, branch = system_of(argv)
    n, k = int(_flag(argv, "--n", "2")), int(_flag(argv, "--k", "0"))
    kind, R = _KIND[_flag(argv, "--kind", "prolate")], float(_flag(argv, "--R", "1.0"))
    start, stop, count = _flag(argv, "--R-grid", "0.2:2.0:10").split(":")
    rf = _residual_factor()
    _, rows = sec["lambda_curve"]
    grid = np.linspace(float(start), float(stop), int(count))
    _require(len(rows) == grid.size, "lambda_curve row count")
    for row, radius in zip(rows, grid):
        _require(row[0] == float(radius), "lambda_curve radius")
        ref, scale = _eig_ref(gs.build_tridiag_t(n, params, branch, row[0], kind))
        lam = np.asarray(row[1:], dtype=float)
        _require(lam.shape == ref.shape, "lambda_curve width")
        dev.add(float(np.abs(lam - ref).max()), scale, rf * (n + 1), "lambda vs eigvalsh")
    _, rows = sec["coefficients"]
    u = np.array([r[1] for r in rows], dtype=float)
    t = np.array([r[2] for r in rows], dtype=float)
    _require(u.size == n + 1 and t.size == n + 1, "coefficient length")
    sys_t = gs.build_tridiag_t(n, params, branch, R, kind)
    sys_u = gs.build_tridiag_u(n, params, branch, R, kind)
    lam_k = _eig_ref(sys_t)[0][k]
    for vec, system, name in ((u, sys_u, "U"), (t, sys_t, "T")):
        resid = np.abs(system.dense() @ vec - lam_k * vec).max()
        dev.add(float(resid), _scale(system), rf * (n + 1), f"{name} eigen-residual")
        dev.add(abs(float(np.linalg.norm(vec)) - 1.0), 1.0, _level_tol(n), f"{name} norm")
    w = gi.w_matrix(n, params, branch).entries
    dev.add(float(np.abs(t - w.T @ u).max()), 1.0, _level_tol(n), "T vs W^T U")


def _check_perturb(argv, sec, dev: _Dev) -> None:
    params, branch = system_of(argv)
    n, k = int(_flag(argv, "--n", "2")), int(_flag(argv, "--k", "0"))
    _, rows = sec["comparison"]
    _require(len(rows) == 4, "comparison row count")
    rf = _residual_factor()
    for regime, radius, series, exact, abs_err, scaled in rows:
        _require(radius in _PERTURB_PROBES[regime], "probe radius")
        ref, scale = _eig_ref(gs.build_tridiag_t(n, params, branch, radius,
                                                 gs.Kind.Prolate))
        dev.add(abs(exact - ref[k]), scale, rf * (n + 1), "exact vs eigvalsh")
        _require(abs_err == abs(series - exact), "abs_error")
        x = params.omega * radius * radius
        _require(scaled == (abs_err / x if regime == "large" else abs_err),
                 "scaled_error")
    for _, order in sec["orders"][1]:
        _require(order == "exact-to-roundoff" or math.isfinite(order), "order")


def _check_interbasis(argv, sec, dev: _Dev) -> None:
    params, branch = system_of(argv)
    n = int(_flag(argv, "--n", "2"))
    tol = _level_tol(n)
    _, rows = sec["w_matrix"]
    w = np.array([r[1:n + 2] for r in rows], dtype=float)
    _require(w.shape == (n + 1, n + 1), "w_matrix shape")
    dev.add(float(np.abs(w @ w.T - np.eye(n + 1)).max()), 1.0, tol, "W orthogonality")
    c, sb = _channel(params, branch)
    base = 2.0 * np.arange(n + 1) + c + sb
    a_q = (base + 0.5) * (base + 1.5)
    m2 = 2.0 * gi.m_matrix_cyl(n, params, branch)
    dev.add(float(np.abs(w.T @ m2 @ w - np.diag(a_q)).max()), float(a_q.max()), tol,
            "W^T (2M) W vs diag(A_q)")
    if params.p_strength == 0.0:
        _, ring = sec["ring_agreement"]
        _require(len(ring) == (n + 1) ** 2, "ring row count")
        for p, q, general, ring_val, _ in ring:
            _require(general == w[p, q], "ring general column")
            dev.add(abs(general - ring_val), 1.0, tol, "ring_w vs W")


def _check_spectrum(argv, sec, dev: _Dev) -> None:
    params, branch = system_of(argv)
    n_top = int(_flag(argv, "--n", "3"))
    c, sb = _channel(params, branch)
    om, rf = params.omega, _residual_factor()

    def rel(value, ref, what):
        dev.add(abs(value - ref), max(abs(ref), 1.0), rf, what)

    levels = sec["levels"][1]
    _require([r[0] for r in levels] == list(range(n_top + 1)), "levels rows")
    for n, energy in levels:
        rel(energy, om * (2 * n + c + sb + 2), "energy level")
    states = sec["states"][1]
    _require(len(states) == (n_top + 1) * (n_top + 2) // 2, "states rows")
    for n, idx, a_q, e_rho, e_z in states:
        base = 2 * idx + c + sb
        rel(a_q, (base + 0.5) * (base + 1.5), "A_q")
        rel(e_rho, om * (2 * (n - idx) + c + 1), "E_rho")
        rel(e_z, om * (2 * idx + sb + 1), "E_z")


def _check_morse(argv, sec, dev: _Dev) -> None:
    v0, a = float(_flag(argv, "--V0", "2.0")), float(_flag(argv, "--a", "1.0"))
    lam = math.sqrt(2.0 * v0) / a
    count = int(math.floor(lam - 0.5)) + 1 if lam > 0.5 else 0
    levels = sec["levels"][1]
    _require([r[0] for r in levels] == list(range(count)), "level count")
    for p, energy in levels:
        ref = -v0 * (1.0 - (p + 0.5) / lam) ** 2
        dev.add(abs(energy - ref), max(abs(ref), 1.0), _residual_factor(), "Morse level")
    normalizable = [p for p in range(count) if 2.0 * lam - 2.0 * p - 1.0 > 0.0]
    norms = sec["norms"][1]
    _require([r[0] for r in norms] == normalizable, "norm rows")
    for p, norm, _ in norms:
        dev.add(abs(norm - 1.0), 1.0, _level_tol(p), f"norm of level {p}")
    columns, rows = sec["wavefunctions"]
    _require(len(columns) == len(normalizable) + 1 and len(rows) > 0, "wavefunctions")


def _check_verify(argv, sec, dev: _Dev) -> None:
    reports = sec["reports"][1]
    total, _, failed, manifest = sec["summary"][1][0]
    _require(failed == 0 and total == manifest == len(go.SUITE_MANIFEST), "suite summary")
    _require([r[0] for r in reports] == list(go.SUITE_MANIFEST), "suite manifest")
    for name, measured, expected, tol, relative, status in reports:
        gap = abs(measured - expected) / (abs(expected) if relative else 1.0)
        dev.add(gap, 1.0, tol, name)
        _require(status == "pass", f"{name} status")


_CLI_CHECKS = {"spheroidal": _check_spheroidal, "perturb": _check_perturb,
               "interbasis": _check_interbasis, "spectrum": _check_spectrum,
               "morse": _check_morse, "verify": _check_verify}


def check_cli(job, code, stdout: str, error: BaseException | None) -> Verdict:
    """Judge one CLI run: exit code, strict output, then the reference."""
    if error is not None:
        return Verdict(False, f"traceback: {type(error).__name__}: {error}")
    if code != 0:
        ok = code in job.expect_exit
        return Verdict(ok, "" if ok else f"exit {code}, expected {job.expect_exit}")
    fmt = _flag(job.argv, "--format", "json")
    try:
        sections = parse_output(stdout, fmt)
    except NonFinite as exc:
        return Verdict(False, f"exit 0 with non-finite token {exc}")
    except (ValueError, KeyError) as exc:
        return Verdict(False, f"unparsable {fmt} output: {exc}")
    if 0 not in job.expect_exit:
        return Verdict(False, f"exit 0, expected {job.expect_exit}")
    dev = _Dev()
    try:
        _CLI_CHECKS[job.command](job.argv, sections, dev)
    except CheckFailed as exc:
        return Verdict(False, f"reference: {exc}", dev.worst)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Verdict(False, f"malformed output: {type(exc).__name__}: {exc}")
    return Verdict(True, "", dev.worst)


# --------------------------------------------------------- library checks

def check_psi(job, values) -> Verdict:
    """Both synthesis routes must agree at every point of the batch.

    The deviation is taken relative to the larger of the batch's largest
    value and omega^(3/4), the natural size of a unit-normalized state, so
    points deep in a node or tail do not inflate roundoff into a failure.
    """
    sph = np.array([v[0] for v in values], dtype=complex)
    cyl = np.array([v[1] for v in values], dtype=complex)
    if not (np.all(np.isfinite(sph)) and np.all(np.isfinite(cyl))):
        return Verdict(False, "non-finite wavefunction value")
    scale = max(float(np.abs(sph).max()), job.call["params"]["omega"] ** 0.75)
    dev = _Dev()
    try:
        dev.add(float(np.abs(sph - cyl).max()), scale, _level_tol(job.call["n"]),
                "spherical vs cylindrical route")
    except CheckFailed as exc:
        return Verdict(False, f"reference: {exc}", dev.worst)
    return Verdict(True, "", dev.worst)


def check_gram(job, result) -> Verdict:
    """Gram matrix against target * I, target 1/2 for half-line families."""
    gram, report = result
    n_max = job.call["n_max"]
    target = 0.5 if job.call["family"] in ("theta", "axial") else 1.0
    dev = _Dev()
    try:
        _require(gram.shape == (n_max + 1, n_max + 1), "gram shape")
        dev.add(float(np.abs(gram - target * np.eye(n_max + 1)).max()), 1.0,
                _level_tol(n_max), "Gram vs identity")
        _require(report.passed, "report verdict")
    except CheckFailed as exc:
        return Verdict(False, f"reference: {exc}", dev.worst)
    return Verdict(True, "", dev.worst)
