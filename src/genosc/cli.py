"""Command-line surface: every computation as a reproducible, scriptable run.

Output is a header block (the fully resolved configuration) followed by named
data sections.  Data sections are pure functions of the configuration, carry
no timestamps, and therefore come out byte-identical across runs.  CSV cells
use 17-significant-digit decimals so every float round-trips exactly.

Both renderers write the fixed schema directly, with one encoder call per
output section rather than per row: JSON reproduces the bytes of
json.dumps(sort_keys=True, indent=2) with a section's rows through the C
encoder together (in pieces of about 256 cells), and CSV formats a section
whose rows share one numeric type signature with one %-template (other
sections cell by cell).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (DomainError, NumericError, _require_table, check_level_index,
                     check_positive)
from .interbasis import _require_operator, ring_w, w_matrix
from .model import (Branch, CylindricalLabel, SphericalLabel, SystemParams, _a_q, _e_n,
                    _e_rho, _e_z, require_admissible, ring_relabel)
from .morse import (MorseParams, _norms, bound_state_count, morse_spectrum,
                    normalizable_levels)
from .oracles import SUITE_MANIFEST, run_verification_suite
from .perturbation import SERIES_MAX_ORDER, _check_order, large_r_series, small_r_series
from .spheroidal import (Kind, TridiagonalSystem, _t_bands, eigensolve, lambda_grid,
                         t_coefficients, u_coefficients)

__all__ = ["JobConfig", "main", "entry"]

_BRANCHES = {"plus": Branch.Plus, "minus": Branch.Minus}
_KINDS = {"prolate": Kind.Prolate, "oblate": Kind.Oblate}

# fixed probe radii for the perturbation comparison: two per regime so an
# empirical convergence order can be reported
_SMALL_PROBES = (0.05, 0.1)
_LARGE_PROBES = (20.0, 40.0)

_MORSE_GRID_POINTS = 101
# |norm - 1| contract; morse_norms stays within 1e-13 up to lambda = 1000 (3.3e-14 there)
_MORSE_NORM_TOL = 1e-10
# More levels are refused before listing, which bounds the written table and the norm
# check: the norm table costs O(lambda^2), and 1000 levels take about 0.3 s in-process
# (49 MB peak) on a 2-core Xeon with one BLAS thread
_MORSE_MAX_LEVELS = 1000

# Peak memory per cell of a row table held as Python tuples and rendered as JSON,
# measured: spectrum's states ~125-147 B, spheroidal's lambda_curve ~360 B (--n 0)
_STATES_CELL_BYTES = 160
_CURVE_CELL_BYTES = 384

# The ring cross-route evaluates the level's (n+1)^2 ring coefficients in one exact
# Racah-sum call (abs_diff ~5e-14 at n = 60) of time ~n^3, 12-30 ms at n = 60 on one
# x86-64 core: the cap is an output-schema decision, kept at 60.
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
    try:   # ValueError: not three fields, or a field that is not a number
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise DomainError(f"R-grid must be start:stop:count, got {text!r}") from exc
    if not (0.0 < start < stop < math.inf) or count < 2:
        raise DomainError(f"R-grid needs finite 0 < start < stop and count >= 2, got {text!r}")
    return start, stop, count


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
    p.add_argument("--order", type=int, default=2,
                   help=f"truncation order J in 1..{SERIES_MAX_ORDER}")
    add_output(p)

    p = sub.add_parser("morse", help="Morse levels, wavefunctions, norms")
    p.add_argument("--V0", type=float, default=2.0, dest="v0")
    p.add_argument("--a", type=float, default=1.0)
    add_output(p)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--tolerance-profile", choices=("default", "strict"),
                   default="default", dest="tolerance_profile")
    add_output(p)
    for command in sub.choices.values():
        command.flag_table = _flag_table(command)
    parser.commands = sub.choices   # command name -> its own parser, for _parse_args
    return parser


def _flag_table(command: argparse.ArgumentParser) -> tuple:
    """What _read_flags needs of a command parser, read from its own actions once:
    (option string -> (dest, type function, choices) for each single-value store
    action, dest -> value when no flag is given, the dash-led value rule). The type
    function and a string default's conversion are argparse's own."""
    flags, defaults = {}, {}
    for action in command._actions:
        convert = command._registry_get("type", action.type, action.type)
        if action.default is not argparse.SUPPRESS:
            default = action.default
            defaults[action.dest] = convert(default) if isinstance(default, str) else default
        if isinstance(action, argparse._StoreAction) and action.nargs is None:
            flags.update(dict.fromkeys(action.option_strings,
                                       (action.dest, convert, action.choices)))
    # argparse reads a dash-led word after a flag as its value only if it looks like a
    # negative number and no option string does
    negative = (command._negative_number_matcher.match
                if not command._has_negative_number_optionals else lambda word: None)
    return flags, defaults, tuple(command.prefix_chars), negative


def _read_flags(command: argparse.ArgumentParser, argv: list) -> argparse.Namespace | None:
    """The namespace argparse gives argv when each word after the command is an exact
    --flag value or --flag=value pair of the command's table whose value is not read as
    an option and passes the action's type and choices, a repeated flag keeping its last
    value; None for any other argv, which argparse then reads, refusals included."""
    flags, defaults, dashes, negative = command.flag_table
    values = dict(defaults)
    words = iter(argv[1:])
    for word in words:
        action = flags.get(word)
        if action is None:
            flag, equals, value = word.partition("=")
            action = flags.get(flag) if equals else None
            if action is None:
                return None
        else:
            value = next(words, None)
            if value is None:
                return None
        if value.startswith(dashes) and not negative(value):
            return None
        dest, convert, choices = action
        try:
            value = convert(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):   # argparse words it
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv): an argv of exact flag-value pairs read from the
    command's table (_read_flags), any other by that command's parser alone instead of
    being classified by the top parser first. Namespace, exit code, stdout and stderr are
    those of the top parser: leftover flags are refused by it, with its own message, and
    an argv that does not start with a command goes to it. The one exception is a
    --flag=-- word, whose [] the top parser keeps: the command's parser refuses it with
    the message it gives --flag --."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read_flags(command, argv)
    if args is not None:
        return args
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    if [] in vars(args).values():   # argparse strips the "--" of --flag=-- and stores []
        action = next(a for a in command._actions if getattr(args, a.dest, None) == [])
        command.error(str(argparse.ArgumentError(action, "expected one argument")))
    return args


def resolve_config(args: argparse.Namespace) -> JobConfig:
    """Validate the parsed flags into a JobConfig before any computation."""
    branch = _BRANCHES[getattr(args, "branch", "plus")]
    params = None
    if hasattr(args, "omega"):
        params = SystemParams(omega=args.omega, p_strength=args.P,
                              q_strength=args.Q, m=args.m)
        require_admissible(params, branch)
    morse = MorseParams(v0=args.v0, a=args.a) if hasattr(args, "v0") else None
    n, k = check_level_index(getattr(args, "n", 0), getattr(args, "k", 0))
    order = _check_order(getattr(args, "order", 2))
    R = check_positive(getattr(args, "R", 1.0), "R")
    grid = _parse_grid(args.r_grid) if hasattr(args, "r_grid") else None
    return JobConfig(command=args.command, params=params, branch=branch,
                     morse=morse, n=n, k=k, order=order,
                     R=R, r_grid=grid,
                     kind=_KINDS[getattr(args, "kind", "prolate")],
                     fmt=args.format, out=args.out,
                     tolerance_profile=getattr(args, "tolerance_profile", "default"))


# ------------------------------------------------------------------ commands

def cmd_spectrum(cfg: JobConfig) -> tuple[list[Section], int]:
    top, params, branch = cfg.n, cfg.params, cfg.branch
    _require_table(((top + 1) * (top + 2) // 2, 5), "spectrum states table", _STATES_CELL_BYTES)
    idx = np.arange(top + 1)
    energy, a_q, e_rho, e_z = (form(idx, params, branch).tolist()
                               for form in (_e_n, _a_q, _e_rho, _e_z))
    levels = tuple(zip(range(top + 1), energy))
    states = tuple((n, q, a_q[q], e_rho[n - q], e_z[q])
                   for n in range(top + 1) for q in range(n + 1))
    return [Section("levels", ("n", "energy"), levels),
            Section("states", ("n", "idx", "A_q", "E_rho", "E_z"), states)], 0


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
        cyl = [ring_relabel(CylindricalLabel(n - p, p, m, branch), cfg.params)
               for p in range(n + 1)]
        # one ring_w call for the level: an (N, n3) column against an l row
        ring = ring_w(np.array([[label.N] for label in cyl]), m,
                      np.array([[label.n3] for label in cyl]),
                      np.array([label.l for label in sph]), sph[0].delta).tolist()
        rows = [(p, q, general, value, abs(general - value))
                for p, (entries, ring_row) in enumerate(zip(table, ring))
                for q, (general, value) in enumerate(zip(entries, ring_row))]
        sections.append(Section("ring_agreement",
                                ("p", "q", "general", "ring", "abs_diff"),
                                tuple(rows)))
    return sections, 0


def cmd_spheroidal(cfg: JobConfig) -> tuple[list[Section], int]:
    n = cfg.n
    _require_operator(n)   # first, so a level past any table names its operator
    _require_table((cfg.r_grid[2], n + 2), "spheroidal lambda_curve table", _CURVE_CELL_BYTES)
    grid = np.linspace(*cfg.r_grid)
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
    # at omega's floor an error overflows, and the ratio forms inf / inf = nan
    err_ratio, x_ratio = errs[1] / errs[0], xs[1] / xs[0]
    if not (0.0 < err_ratio < math.inf and 1.0 < x_ratio < math.inf):
        raise NumericError(f"no convergence order from errors {errs[0]:.3g}, "
                           f"{errs[1]:.3g} at x = {xs[0]:.3g}, {xs[1]:.3g}")
    return math.log(err_ratio) / math.log(x_ratio)


def cmd_perturb(cfg: JobConfig) -> tuple[list[Section], int]:
    n, k, omega = cfg.n, cfg.k, cfg.params.omega
    small = small_r_series(n, k, cfg.params, cfg.branch, order=cfg.order)
    large = large_r_series(n, k, cfg.params, cfg.branch, order=cfg.order)
    # the four probe systems' bands in one stacked build, the same products
    # build_tridiag_t forms at each radius: one read-only row per probe
    radii = _SMALL_PROBES + _LARGE_PROBES
    diags, offs = _t_bands(n, cfg.params, cfg.branch, Kind.Prolate, np.array(radii))
    diags.flags.writeable = False
    offs.flags.writeable = False
    systems = {radius: TridiagonalSystem(diag, off, "spherical", Kind.Prolate, radius)
               for radius, diag, off in zip(radii, diags, offs)}
    rows, orders = [], []
    for regime, series, probes in (("small", small, _SMALL_PROBES),
                                   ("large", large, _LARGE_PROBES)):
        values = [(eigensolve(systems[radius]).lam[k].item(), series.eigenvalue(radius))
                  for radius in probes]
        errs, xs = [], []
        for radius, (exact, approx) in zip(probes, values):
            err = abs(approx - exact)
            x = omega * radius * radius
            # the large-R comparison happens on the bounded quantity lambda/x; at omega's
            # floor err / x overflows to inf here, and the non-finite cell fails at rendering
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
                           f"{_MORSE_MAX_LEVELS} that a run can norm-check")
    level_rows = tuple(enumerate(morse_spectrum(params).tolist()))
    # the threshold level (if any) is marginal and has no normalizable state
    normalizable = normalizable_levels(params)
    x = np.linspace(-2.0 / params.a, 8.0 / params.a, _MORSE_GRID_POINTS)
    norms, psi = _norms(normalizable, params, x) if normalizable else (np.empty(0),) * 2
    norm_rows = []
    for p, norm in zip(normalizable, norms.tolist()):
        if not abs(norm - 1.0) <= _MORSE_NORM_TOL:
            raise NumericError(f"Morse level {p} has norm {norm!r}, off one by more "
                               f"than {_MORSE_NORM_TOL:g}")
        norm_rows.append((p, norm, abs(norm - 1.0)))
    psi = psi.tolist()   # the array goes before the rows are built
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
        passed = rep.passes(tol)
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


def _csv_section(rows: tuple[tuple, ...]) -> str | None:
    """Every row through one %-template when each column holds one type (an int,
    a finite float or a string, quoted once), matching _cell and _csv_quote per
    value; else None, and the rows go cell by cell (a non-finite float is
    refused there)."""
    if len(set(map(len, rows))) > 1:
        return None
    codes, columns, quoted = [], [], False
    for column in zip(*rows):
        kinds = set(map(type, column))
        if len(kinds) > 1:
            return None
        kind = kinds.pop()
        if issubclass(kind, (int, np.integer)):   # bool too: True -> 1
            codes.append("%d")
        elif issubclass(kind, (float, np.floating)):
            # cell by cell: a sum of numpy floats near the maximum overflows
            # with a RuntimeWarning
            if not all(map(math.isfinite, column)):
                return None
            codes.append("%.17g")
        elif issubclass(kind, str):
            codes.append("%s")
            column, quoted = tuple(map(_csv_quote, column)), True
        else:
            return None
        columns.append(column)
    cells = chain.from_iterable(zip(*columns) if quoted else rows)
    return ((",".join(codes) + "\n") * len(rows)) % tuple(cells)


def render_csv(cfg: JobConfig, sections: list[Section]) -> str:
    echo = cfg.echo()
    out = [f"# {key} = {echo[key]}\n" for key in sorted(echo)]
    for section in sections:
        out.append(f"## {section.name}\n")
        out.append(",".join(section.columns) + "\n")
        text = _csv_section(section.rows)
        if text is None:
            text = "".join(",".join(_csv_quote(_cell(v)) for v in row) + "\n"
                           for row in section.rows)
        out.append(text)
    return "".join(out)


def _plain_number(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


# Row values sit 10 spaces deep (data > section > rows > row) and column
# names 8 deep in the json.dumps(indent=2) layout. The C encoder runs only
# without indent, so the layout comes from the item separator: a section's rows
# are encoded together, and each break between rows, the only "],\n" + 10
# spaces + "[" in the text (a JSON string holds no raw newline), is then
# widened to the row layout.
_ROW_INDENT = " " * 10
_JSON_ROWS = json.JSONEncoder(allow_nan=False, default=_plain_number,
                              separators=(",\n" + _ROW_INDENT, ": "))
_JSON_COLUMNS = json.JSONEncoder(separators=(",\n" + " " * 8, ": "))
# The header is a flat dict of scalars, never empty: one item a line, 4 deep
_JSON_HEADER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n    ", ": "))
# The encoder holds the text of every cell of a call until it joins them, so a
# section goes to it in pieces of about this many cells; from 256 to 4096 cells
# the render time is the same.
_JSON_PIECE_CELLS = 256
_ROW_BREAK = "],\n" + _ROW_INDENT + "["
_ROW_BREAK_LAID = "\n        ],\n        [\n" + _ROW_INDENT
_EMPTY_ROW_LAID = "[\n" + _ROW_INDENT + "\n        ]"


def _json_section(out: list, section: Section) -> bool:
    """Append a section's object, after its name, to out; True if a row is empty."""
    if section.columns:
        columns = _JSON_COLUMNS.encode(section.columns)[1:-1]
        out.append(f'{{\n      "columns": [\n        {columns}\n      ],\n      "rows": ')
    else:
        out.append('{\n      "columns": [],\n      "rows": ')
    rows = section.rows
    if not rows:
        out.append("[]\n    }")
        return False
    out.append("[\n        [\n" + _ROW_INDENT)
    step = max(1, _JSON_PIECE_CELLS // (len(rows[0]) + 1))
    for i in range(0, len(rows), step):
        if i:
            out.append(_ROW_BREAK_LAID)
        out.append(_JSON_ROWS.encode(rows[i:i + step])[2:-2].replace(_ROW_BREAK,
                                                                      _ROW_BREAK_LAID))
    out.append("\n        ]\n      ]\n    }")
    return not all(rows)


def render_json(cfg: JobConfig, sections: list[Section]) -> str:
    """The document json.dumps(sort_keys=True, indent=2) writes, every piece appended
    to one list and joined once."""
    by_name = {s.name: s for s in sections}   # a repeated name keeps its last section
    out, empty_row = ['{\n  "data": {'], False
    try:
        header = _JSON_HEADER.encode(cfg.echo())[1:-1]
        for i, name in enumerate(sorted(by_name)):
            out.append(("," if i else "") + f"\n    {json.dumps(name)}: ")
            empty_row |= _json_section(out, by_name[name])
    except ValueError as exc:
        raise NumericError(f"refusing to write non-finite JSON: {exc}") from exc
    out.append("\n  }" if by_name else "}")
    out.append(f',\n  "header": {{\n    {header}\n  }}\n}}\n')
    text = "".join(out)
    # an empty row is laid out as its neighbours are, and only it reads this way
    return text.replace(_EMPTY_ROW_LAID, "[]") if empty_row else text


def main(argv=None) -> int:
    args = _parse_args(argv)
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
        # a bare MemoryError has no text; name its type instead
        print(f"numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
