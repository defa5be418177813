"""Command-line surface: every computation as a reproducible, scriptable run.

Output is a header block (the fully resolved configuration) followed by named
data sections.  Data sections are pure functions of the configuration, carry
no timestamps, and therefore come out byte-identical across runs.  CSV cells
use 17-significant-digit decimals so every float round-trips exactly.

Both renderers write the fixed schema directly: JSON reproduces the bytes of
json.dumps(sort_keys=True, indent=2) with each row through the C encoder,
and CSV formats a row with one %-string per row type signature.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .interbasis import ring_w, w_matrix
from .model import (Branch, CylindricalLabel, SphericalLabel, SystemParams,
                    energy_cylindrical_parts, energy_level, require_admissible,
                    ring_relabel, separation_constant_A)
from .morse import (MorseParams, bound_state_count, morse_spectrum,
                    morse_wavefunction, quadrature_norm)
from .oracles import SUITE_MANIFEST, run_verification_suite
from .perturbation import large_r_series, small_r_series
from .spheroidal import (Kind, build_tridiag_t, eigensolve, lambda_grid,
                         t_coefficients, u_coefficients)

__all__ = ["JobConfig", "main", "entry"]

_BRANCHES = {"plus": Branch.Plus, "minus": Branch.Minus}
_KINDS = {"prolate": Kind.Prolate, "oblate": Kind.Oblate}

# fixed probe radii for the perturbation comparison: two per regime so an
# empirical convergence order can be reported
_SMALL_PROBES = (0.05, 0.1)
_LARGE_PROBES = (20.0, 40.0)

_MORSE_GRID_POINTS = 101
# |norm - 1| contract; quadrature_norm stays near 1e-12 or below up to lambda = 400
_MORSE_NORM_TOL = 1e-10
# More levels than this are refused before listing: psi already overflows
# from p ~ 170-200 once lambda passes ~200, so such a run could only exit 4.
_MORSE_MAX_LEVELS = 10_000

# The ring cross-route evaluates (n+1)^2 Racah sums, whose alternating terms
# cancel: max abs_diff is ~1e-11 at n = 40, ~1e-9 at n = 60 and ~1e-7 at
# n = 80, so the section is emitted only up to this level.
_RING_MAX_LEVEL = 60


@dataclass(frozen=True)
class Section:
    """One named data block: column names plus homogeneous rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class JobConfig:
    """Fully resolved run description; echoed verbatim into the output header."""

    command: str
    params: SystemParams | None
    branch: Branch
    morse: MorseParams | None
    n: int
    k: int
    order: int
    R: float
    r_grid: tuple[float, float, int] | None
    kind: Kind
    fmt: str
    out: str | None
    tolerance_profile: str

    def echo(self) -> dict:
        cfg = {"command": self.command, "format": self.fmt,
               "out": self.out, "branch": self.branch.name.lower()}
        if self.params is not None:
            cfg.update(omega=self.params.omega, P=self.params.p_strength,
                       Q=self.params.q_strength, m=self.params.m)
        if self.morse is not None:
            cfg.update(V0=self.morse.v0, a=self.morse.a)
        if self.command in ("spectrum", "interbasis", "spheroidal", "perturb"):
            cfg["n"] = self.n
        if self.command in ("spheroidal", "perturb"):
            cfg["k"] = self.k
        if self.command == "spheroidal":
            cfg.update(kind=self.kind.name.lower(), R=self.R,
                       R_grid=":".join(f"{v:g}" for v in self.r_grid))
        if self.command == "perturb":
            cfg["order"] = self.order
        if self.command == "verify":
            cfg["tolerance_profile"] = self.tolerance_profile
        return cfg


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"R-grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"R-grid must be start:stop:count, got {text!r}") from exc
    if not (0.0 < start < stop) or count < 2:
        raise DomainError(f"R-grid needs 0 < start < stop and count >= 2, got {text!r}")
    return start, stop, count


def _grid_values(grid: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(grid[0], grid[1], grid[2])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The genosc argument parser, built on first use and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="genosc",
        description="Generalized 3D oscillator: spectra, interbasis expansions, "
                    "spheroidal separation constants, Morse mapping.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_system(p):
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--P", type=float, default=0.0)
        p.add_argument("--Q", type=float, default=0.0)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--branch", choices=("plus", "minus"), default="plus")

    p = sub.add_parser("spectrum", help="energy levels and separation constants")
    add_system(p)
    p.add_argument("--n", type=int, default=3, help="largest level to list")
    add_output(p)

    p = sub.add_parser("interbasis", help="cylindrical-to-spherical W matrix")
    add_system(p)
    p.add_argument("--n", type=int, default=2, help="level of the matrix")
    add_output(p)

    p = sub.add_parser("spheroidal", help="lambda curves and U/T coefficients")
    add_system(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--kind", choices=("prolate", "oblate"), default="prolate")
    p.add_argument("--R", type=float, default=1.0,
                   help="interfocus distance for the coefficient columns")
    p.add_argument("--R-grid", default="0.2:2.0:10", dest="r_grid",
                   help="start:stop:count grid for the lambda curves")
    add_output(p)

    p = sub.add_parser("perturb", help="series vs exact separation constants")
    add_system(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--order", type=int, default=2, help="truncation order J")
    add_output(p)

    p = sub.add_parser("morse", help="Morse levels, wavefunctions, norms")
    p.add_argument("--V0", type=float, default=2.0, dest="v0")
    p.add_argument("--a", type=float, default=1.0)
    add_output(p)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--tolerance-profile", choices=("default", "strict"),
                   default="default", dest="tolerance_profile")
    add_output(p)
    return parser


def resolve_config(args: argparse.Namespace) -> JobConfig:
    """Validate the parsed flags into a JobConfig before any computation."""
    branch = _BRANCHES[getattr(args, "branch", "plus")]
    params = None
    if hasattr(args, "omega"):
        params = SystemParams(omega=args.omega, p_strength=args.P,
                              q_strength=args.Q, m=args.m)
        require_admissible(params, branch)
    morse = MorseParams(v0=args.v0, a=args.a) if hasattr(args, "v0") else None
    n = getattr(args, "n", 0)
    k = getattr(args, "k", 0)
    order = getattr(args, "order", 2)
    if n != int(n) or n < 0:
        raise DomainError(f"level must be a nonnegative integer, got {n}")
    if k != int(k) or not 0 <= k <= n:
        raise DomainError(f"index k must lie in 0..{n}, got {k}")
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    R = getattr(args, "R", 1.0)
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"R must be positive and finite, got {R}")
    grid = _parse_grid(args.r_grid) if hasattr(args, "r_grid") else None
    return JobConfig(command=args.command, params=params, branch=branch,
                     morse=morse, n=int(n), k=int(k), order=int(order),
                     R=float(R), r_grid=grid,
                     kind=_KINDS[getattr(args, "kind", "prolate")],
                     fmt=args.format, out=args.out,
                     tolerance_profile=getattr(args, "tolerance_profile", "default"))


# ------------------------------------------------------------------ commands

def cmd_spectrum(cfg: JobConfig) -> tuple[list[Section], int]:
    levels = [(n, energy_level(n, cfg.params, cfg.branch)) for n in range(cfg.n + 1)]
    states = []
    for n in range(cfg.n + 1):
        for idx in range(n + 1):
            e_rho, e_z = energy_cylindrical_parts(n - idx, idx, cfg.params, cfg.branch)
            states.append((n, idx, separation_constant_A(idx, cfg.params, cfg.branch),
                           e_rho, e_z))
    return [Section("levels", ("n", "energy"), tuple(levels)),
            Section("states", ("n", "idx", "A_q", "E_rho", "E_z"), tuple(states))], 0


def cmd_interbasis(cfg: JobConfig) -> tuple[list[Section], int]:
    n = cfg.n
    mat = w_matrix(n, cfg.params, cfg.branch)
    table = mat.entries.tolist()
    cols = ("p", *(f"W_q{q}" for q in range(n + 1)), "ortho_dev")
    rows = tuple((p, *entries, dev)
                 for p, (entries, dev) in enumerate(zip(table, mat.ortho_dev.tolist())))
    sections = [Section("w_matrix", cols, rows)]
    if cfg.params.p_strength == 0.0 and n <= _RING_MAX_LEVEL:
        # b = 1/2 exactly: the delta-relabeled ring coefficients must agree
        m, branch = cfg.params.m, cfg.branch
        sph = [ring_relabel(SphericalLabel(n - q, q, m, branch), cfg.params)
               for q in range(n + 1)]
        rows = []
        for p, entries in enumerate(table):
            cyl = ring_relabel(CylindricalLabel(n - p, p, m, branch), cfg.params)
            for q, (general, label) in enumerate(zip(entries, sph)):
                ring = ring_w(cyl.N, m, cyl.n3, label.l, label.delta)
                rows.append((p, q, general, ring, abs(general - ring)))
        sections.append(Section("ring_agreement",
                                ("p", "q", "general", "ring", "abs_diff"),
                                tuple(rows)))
    return sections, 0


def cmd_spheroidal(cfg: JobConfig) -> tuple[list[Section], int]:
    n = cfg.n
    grid = _grid_values(cfg.r_grid)
    lam = lambda_grid(n, cfg.params, cfg.branch, cfg.kind, grid)
    curve_rows = tuple((radius, *row) for radius, row in zip(grid.tolist(), lam.tolist()))
    u = u_coefficients(n, cfg.k, cfg.params, cfg.branch, cfg.R, cfg.kind)
    t = t_coefficients(n, cfg.k, cfg.params, cfg.branch, cfg.R, cfg.kind)
    coeff_rows = tuple(zip(range(n + 1), u.tolist(), t.tolist()))
    return [Section("lambda_curve",
                    ("R", *(f"lambda_{k}" for k in range(n + 1))), curve_rows),
            Section("coefficients", ("idx", "u", "t"), coeff_rows)], 0


def _observed_order(errs: list[float], xs: list[float]):
    if max(errs) < 1e-13 or min(errs) == 0.0:
        return "exact-to-roundoff"
    # extreme omega overflows an error or underflows x to zero
    with np.errstate(all="ignore"):
        err_ratio = np.float64(errs[1]) / errs[0]
        x_ratio = np.float64(xs[1]) / xs[0]
    if not (0.0 < err_ratio < math.inf and 1.0 < x_ratio < math.inf):
        raise NumericError(f"no convergence order from errors {errs[0]:.3g}, "
                           f"{errs[1]:.3g} at x = {xs[0]:.3g}, {xs[1]:.3g}")
    return math.log(err_ratio) / math.log(x_ratio)


def cmd_perturb(cfg: JobConfig) -> tuple[list[Section], int]:
    n, k, omega = cfg.n, cfg.k, cfg.params.omega
    small = small_r_series(n, k, cfg.params, cfg.branch, order=cfg.order)
    large = large_r_series(n, k, cfg.params, cfg.branch, order=cfg.order)
    rows, orders = [], []
    for regime, series, probes in (("small", small, _SMALL_PROBES),
                                   ("large", large, _LARGE_PROBES)):
        errs, xs = [], []
        for radius in probes:
            exact = eigensolve(build_tridiag_t(n, cfg.params, cfg.branch,
                                               radius, Kind.Prolate)).lam[k]
            approx = series.eigenvalue(radius)
            # extreme omega overflows here; the non-finite cells fail at rendering
            with np.errstate(all="ignore"):
                err = abs(approx - exact)
                x = omega * radius * radius
                # the large-R comparison happens on the bounded quantity lambda/x
                scaled = err / x if regime == "large" else err
            rows.append((regime, radius, approx, exact, err, scaled))
            errs.append(scaled)
            xs.append(x)
        orders.append((regime, _observed_order(errs, xs)))
    return [Section("comparison",
                    ("regime", "R", "series", "exact", "abs_error", "scaled_error"),
                    tuple(rows)),
            Section("orders", ("regime", "observed_order"), tuple(orders))], 0


def cmd_morse(cfg: JobConfig) -> tuple[list[Section], int]:
    params = cfg.morse
    count = bound_state_count(params)
    if count > _MORSE_MAX_LEVELS:
        raise NumericError(f"Morse well has {count} levels, more than the "
                           f"{_MORSE_MAX_LEVELS} whose states stay finite")
    energies = morse_spectrum(params)
    level_rows = tuple(enumerate(energies.tolist()))
    # the threshold level (if any) is marginal and has no normalizable state
    lam = params.lam
    normalizable = [p for p in range(len(energies)) if 2.0 * lam - 2.0 * p - 1.0 > 0.0]
    norm_rows = []
    for p in normalizable:
        norm = quadrature_norm(p, params)
        if not abs(norm - 1.0) <= _MORSE_NORM_TOL:
            raise NumericError(f"Morse level {p} has norm {norm!r}, off one by more "
                               f"than {_MORSE_NORM_TOL:g}")
        norm_rows.append((p, norm, abs(norm - 1.0)))
    x = np.linspace(-2.0 / params.a, 8.0 / params.a, _MORSE_GRID_POINTS)
    psi = [morse_wavefunction(p, params, x).tolist() for p in normalizable]
    grid_rows = tuple(zip(x.tolist(), *psi))
    return [Section("levels", ("p", "energy"), level_rows),
            Section("norms", ("p", "norm", "abs_dev"), tuple(norm_rows)),
            Section("wavefunctions",
                    ("x", *(f"psi_{p}" for p in normalizable)), grid_rows)], 0


def cmd_verify(cfg: JobConfig) -> tuple[list[Section], int]:
    reports = run_verification_suite()
    if len(reports) != len(SUITE_MANIFEST):
        raise NumericError("verification suite lost reports against its manifest")
    scale = 1e-6 if cfg.tolerance_profile == "strict" else 1.0
    rows, failures = [], 0
    for rep in reports:
        tol = rep.tolerance * scale
        gap = abs(rep.measured - rep.expected)
        if rep.relative:
            gap /= abs(rep.expected)
        passed = gap <= tol
        failures += not passed
        rows.append((rep.name, rep.measured, rep.expected, tol,
                     int(rep.relative), "pass" if passed else "FAIL"))
    summary = ((len(rows), len(rows) - failures, failures, len(SUITE_MANIFEST)),)
    sections = [Section("reports",
                        ("name", "measured", "expected", "tolerance",
                         "relative", "status"), tuple(rows)),
                Section("summary", ("total", "passed", "failed", "manifest"), summary)]
    return sections, 3 if failures else 0


_COMMANDS = {"spectrum": cmd_spectrum, "interbasis": cmd_interbasis,
             "spheroidal": cmd_spheroidal, "perturb": cmd_perturb,
             "morse": cmd_morse, "verify": cmd_verify}


# ----------------------------------------------------------------- rendering

def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):   # bool too: True -> 1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NumericError(f"refusing to write non-finite value {value}")
        return f"{float(value):.17g}"
    return str(value)


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_format(types: tuple[type, ...]) -> str | None:
    """One %-string for a numeric row signature, matching _cell per value;
    None when a cell is not a number (it goes through _cell/_csv_quote)."""
    codes = []
    for kind in types:
        if issubclass(kind, (int, np.integer)):   # bool too: True -> 1
            codes.append("%d")
        elif issubclass(kind, (float, np.floating)):
            codes.append("%.17g")
        else:
            return None
    return ",".join(codes) + "\n"


def render_csv(cfg: JobConfig, sections: list[Section]) -> str:
    echo = cfg.echo()
    out = [f"# {key} = {echo[key]}\n" for key in sorted(echo)]
    formats: dict[tuple[type, ...], str | None] = {}
    for section in sections:
        out.append(f"## {section.name}\n")
        out.append(",".join(section.columns) + "\n")
        for row in section.rows:
            types = tuple(map(type, row))
            if types not in formats:
                formats[types] = _csv_format(types)
            fmt = formats[types]
            line = fmt % tuple(row) if fmt is not None else None
            # %.17g writes inf/nan, the only cells with an "n"; _cell refuses them
            if line is None or "n" in line:
                line = ",".join(_csv_quote(_cell(v)) for v in row) + "\n"
            out.append(line)
    return "".join(out)


def _plain_number(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


# Row values sit 10 spaces deep (data > section > rows > row) in the
# json.dumps(indent=2) layout. The C encoder runs only without indent, so the
# row layout comes from the item separator and the row brackets are written
# by hand.
_ROW_INDENT = " " * 10
_JSON_ROW = json.JSONEncoder(allow_nan=False, default=_plain_number,
                             separators=(",\n" + _ROW_INDENT, ": "))


def _json_block(items: list[str], indent: str, brackets: str) -> str:
    """Encoded items one per line at indent, as json.dumps(indent=2) nests them."""
    if not items:
        return brackets
    return (brackets[0] + "\n" + indent + (",\n" + indent).join(items)
            + "\n" + indent[:-2] + brackets[1])


def _json_row(row) -> str:
    inner = _JSON_ROW.encode(row)[1:-1]
    return f"[\n{_ROW_INDENT}{inner}\n        ]" if inner else "[]"


def _json_section(section: Section) -> str:
    columns = _json_block([json.dumps(c) for c in section.columns], " " * 8, "[]")
    rows = _json_block([_json_row(row) for row in section.rows], " " * 8, "[]")
    return _json_block([f'"columns": {columns}', f'"rows": {rows}'], " " * 6, "{}")


def render_json(cfg: JobConfig, sections: list[Section]) -> str:
    by_name = {s.name: s for s in sections}   # a repeated name keeps its last section
    try:
        header = json.dumps(cfg.echo(), sort_keys=True, indent=2, allow_nan=False)
        blocks = [f"{json.dumps(name)}: {_json_section(by_name[name])}"
                  for name in sorted(by_name)]
    except ValueError as exc:
        raise NumericError(f"refusing to write non-finite JSON: {exc}") from exc
    data = _json_block(blocks, " " * 4, "{}")
    header = header.replace("\n", "\n  ")
    return _json_block([f'"data": {data}', f'"header": {header}'], "  ", "{}") + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        sections, code = _COMMANDS[cfg.command](cfg)
        text = (render_csv if cfg.fmt == "csv" else render_json)(cfg, sections)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", newline="") as handle:
                handle.write(text)
        return code
    except (DomainError, OSError) as exc:   # OSError: an unwritable --out
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OverflowError, FloatingPointError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
