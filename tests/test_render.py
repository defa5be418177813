"""Renderers: byte-identical to the json.dumps/_cell reference, strict output."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genosc.cli as cli
from genosc.errors import NumericError

# ---------------------------------------------------------------- reference
# The renderers as they were before the schema writers: json.dumps with
# indent=2 over plain Python values, and one _cell/_csv_quote per CSV value.


def reference_cell(value) -> str:
    if isinstance(value, (int, np.integer)):   # bool too: True -> 1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NumericError(f"refusing to write non-finite value {value}")
        return f"{float(value):.17g}"
    return str(value)


def reference_csv_quote(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_render_csv(cfg, sections) -> str:
    out = StringIO()
    echo = cfg.echo()
    for key in sorted(echo):
        out.write(f"# {key} = {echo[key]}\n")
    for section in sections:
        out.write(f"## {section.name}\n")
        out.write(",".join(section.columns) + "\n")
        for row in section.rows:
            out.write(",".join(reference_csv_quote(reference_cell(v)) for v in row) + "\n")
    return out.getvalue()


def reference_render_json(cfg, sections) -> str:
    def plain(value):
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        return value

    data = {s.name: {"columns": list(s.columns),
                     "rows": [[plain(v) for v in row] for row in s.rows]}
            for s in sections}
    try:
        text = json.dumps({"header": cfg.echo(), "data": data},
                          sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to write non-finite JSON: {exc}") from exc
    return text + "\n"


REFERENCE = {"json": reference_render_json, "csv": reference_render_csv}


def config(fmt):
    return cli.resolve_config(cli.build_parser().parse_args(["spectrum", "--format", fmt]))


# ---------------------------------------------------------------- CLI matrix

BOTH_FLAGS = ["--P", "-0.16", "--Q", "0", "--m", "1"]
LEVELS = (0, 1, 5, 30, 100)


def _matrix():
    jobs = []
    for n in LEVELS:
        jobs.append(["spectrum", *BOTH_FLAGS, "--n", str(n)])
        jobs.append(["interbasis", *BOTH_FLAGS, "--n", str(n)])
        jobs.append(["interbasis", "--P", "0", "--Q", "3", "--m", "1", "--n", str(n)])
        for kind in ("prolate", "oblate"):
            jobs.append(["spheroidal", *BOTH_FLAGS, "--n", str(n), "--k", str(n // 2),
                         "--kind", kind, "--R", "1.5", "--R-grid", "0.1:5:20"])
        jobs.append(["perturb", *BOTH_FLAGS, "--n", str(n), "--k", str(n // 2)])
    jobs += [["morse", "--V0", "0.02", "--a", "1"],
             ["morse", "--V0", "2", "--a", "1"],
             ["morse", "--V0", "50", "--a", "0.5"],
             ["verify"],
             ["verify", "--tolerance-profile", "strict"]]
    return [[*job, "--format", fmt] for job in jobs for fmt in ("json", "csv")]


def test_cli_output_matches_reference_renderers(monkeypatch):
    seen = []
    for name in ("render_json", "render_csv"):
        def spy(cfg, sections, real=getattr(cli, name)):
            seen.append((cfg, sections))
            return real(cfg, sections)
        monkeypatch.setattr(cli, name, spy)
    runs = {}
    for argv in _matrix():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        cfg, sections = seen.pop()
        runs[" ".join(argv)] = code, [s.name for s in sections]
        assert out.getvalue() == REFERENCE[cfg.fmt](cfg, sections), argv
    assert {code for code, _ in runs.values()} == {0, 3}
    assert runs["verify --tolerance-profile strict --format csv"][0] == 3
    ring = "interbasis --P 0 --Q 3 --m 1 --n 30 --format json"
    assert runs[ring][1] == ["w_matrix", "ring_agreement"]


# ----------------------------------------------------------- property checks

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = st.one_of(
    st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    _FINITE,
    _FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    # text that needs CSV quoting, and non-ASCII that JSON escapes
    st.text(st.sampled_from(list('ab ,"\n\\é☃')), max_size=6),
    # brackets and commas, and the row-break and empty-row text that the JSON
    # renderer rewrites between rows (escaped inside a string)
    st.text(st.sampled_from(list("[], \n")), max_size=8),
    st.sampled_from(["],\n" + " " * 10 + "[", "[\n" + " " * 10 + "\n        ]", "[]", "],["]))
_SECTIONS = st.lists(st.builds(
    cli.Section,
    name=st.sampled_from(["levels", "states", "b", "a b"]),
    columns=st.lists(st.text(st.sampled_from(list("xyz_0")), min_size=1, max_size=3),
                     max_size=4).map(tuple),
    rows=st.lists(st.lists(_CELLS, max_size=5).map(tuple), max_size=4).map(tuple)),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(sections=_SECTIONS, fmt=st.sampled_from(["json", "csv"]))
def test_renderers_match_reference_on_mixed_rows(sections, fmt):
    cfg = config(fmt)
    render = cli.render_json if fmt == "json" else cli.render_csv
    assert render(cfg, sections) == REFERENCE[fmt](cfg, sections)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf"), np.float32("inf")])
def test_non_finite_cells_raise_numeric_error(fmt, bad):
    cfg = config(fmt)
    render = cli.render_json if fmt == "json" else cli.render_csv
    rows = [(0, 1.5, bad), (bad,), (2, "a,b", bad), ("text", np.int64(3), bad, 0.25)]
    for row in rows:
        section = cli.Section("levels", tuple(f"c{i}" for i in range(len(row))),
                              ((1, 2.0, 3.0)[:len(row)], row))
        with pytest.raises(NumericError):
            render(cfg, [section])
        with pytest.raises(NumericError):
            REFERENCE[fmt](cfg, [section])


# floats whose column sums stay finite: a sum that overflows sends the section
# cell by cell, which the mixed-row property above covers
_ONE_TYPE_COLUMNS = (st.integers(), st.booleans(), st.floats(-1e300, 1e300),
                     st.text(st.sampled_from(list('ab n,"\n')), max_size=6))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_type_columns_go_through_one_template(data):
    # verify's reports and perturb's comparison: each column holds one type,
    # strings included, and the section is written by one %-template
    kinds = data.draw(st.lists(st.sampled_from(_ONE_TYPE_COLUMNS), max_size=5))
    rows = tuple(data.draw(st.lists(st.tuples(*kinds), max_size=5)))
    section = cli.Section("reports", tuple(f"c{i}" for i in range(len(kinds))), rows)
    assert cli._csv_section(rows) is not None
    assert cli.render_csv(config("csv"), [section]) == reference_render_csv(config("csv"),
                                                                            [section])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_one_type_columns_with_text_refuse_a_non_finite_float(bad):
    # the string cells hold an "n", so only the float itself can tell
    rows = (("gram n<=4", 1e-16, "pass"), ("bi n=3", bad, "FAIL"))
    with pytest.raises(NumericError):
        cli.render_csv(config("csv"), [cli.Section("reports", ("name", "measured", "status"),
                                                   rows)])


@pytest.mark.parametrize("piece", [1, 7, cli._JSON_PIECE_CELLS])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_large_numeric_and_empty_row_sections_match_reference(monkeypatch, fmt, piece):
    # JSON rows go to the encoder in pieces of about `piece` cells
    monkeypatch.setattr(cli, "_JSON_PIECE_CELLS", piece)
    cfg = config(fmt)
    render = cli.render_json if fmt == "json" else cli.render_csv
    rng = np.random.default_rng(2000)
    values = (rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-300, 300, (2000, 3))).tolist()
    numeric = cli.Section("states", ("n", "a", "b", "c"),
                          tuple((i, *row) for i, row in enumerate(values)))
    empty = cli.Section("levels", ("x",), ((), (1, 2.5), (), (), ("a", 0.5), ()))
    only_empty = cli.Section("b", (), ((), ()))
    text = cli.Section("a b", ("t",), (("],\n" + " " * 10 + "[",), (), ("[]",), ("",), ()))
    for sections in ([numeric], [empty], [only_empty], [text],
                     [numeric, empty, only_empty, text]):
        assert render(cfg, sections) == REFERENCE[fmt](cfg, sections)
