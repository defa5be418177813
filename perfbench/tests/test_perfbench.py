"""Tests of the benchmark itself: seeded streams, reference checks, tracing."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402

CHEAP = {"spectrum", "perturb", "gram", "verify", "err-nonfinite", "err-branch",
         "err-level", "err-grid", "err-domain"}


def _jobs(workload, seed, rounds=2):
    return [j for r in range(rounds) for j in streams.round_jobs(workload, seed, r)]


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_jobs(workload):
    first, second = _jobs(workload, 7), _jobs(workload, 7)
    assert first == second
    assert streams.stream_digest(first) == streams.stream_digest(second)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_other_seed_other_jobs(workload):
    assert streams.stream_digest(_jobs(workload, 7)) != streams.stream_digest(_jobs(workload, 8))


_COST_FLAGS = ("--n", "--order", "--kind", "--format", "--m")


def _cost_design(job):
    """The cost-setting parameters of a job: sizes, kind, format, m, grid length."""
    argv = list(job.argv)
    flags = {f: argv[argv.index(f) + 1] for f in _COST_FLAGS if f in argv}
    if "--R-grid" in argv:
        flags["count"] = argv[argv.index("--R-grid") + 1].split(":")[-1]
    call = {k: v for k, v in job.call.items() if k in ("n", "kind", "family", "n_max")}
    params = job.call.get("params", {})
    return job.cls, flags, call, params.get("m"), len(job.call.get("points", ()))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_cost_design_does_not_depend_on_seed(workload):
    keep = lambda j: not j.cls.startswith("err-")
    first = {j.id: _cost_design(j) for j in _jobs(workload, 7) if keep(j)}
    second = {j.id: _cost_design(j) for j in _jobs(workload, 8) if keep(j)}
    assert first == second


def test_scaled_time_follows_probe():
    job = next(j for j in streams.round_jobs("interbasis", 1, 0) if j.cls == "spectrum")
    record = run.run_job(job, check=False)
    assert record["probe_ms"] > 0.0
    assert run.scaled_ms(record) == pytest.approx(
        record["ms"] * run.PROBE_REF_MS / record["probe_ms"])


def test_rounds_have_fixed_composition():
    counts = [sorted(j.cls for j in streams.round_jobs("interbasis", s, r))
              for s in (1, 2) for r in (0, 5)]
    assert all(c == counts[0] for c in counts)


def test_same_seed_same_output_digests():
    jobs = [j for j in streams.round_jobs("interbasis", 3, 0) if j.cls in CHEAP][:8]
    jobs += [j for j in streams.round_jobs("fields", 3, 0) if j.cls in CHEAP][:6]
    first = [run.run_job(j) for j in jobs]
    second = [run.run_job(j) for j in jobs]
    assert [r["sha256"] for r in first] == [r["sha256"] for r in second]
    assert all(r["ok"] for r in first if not r["cls"].startswith("err-nonfinite"))


def _cli_output(argv):
    job = streams.Job("t", "test", argv[0], tuple(argv))
    _, check, _, _ = run._run_cli(job)
    return check()


def test_clean_outputs_pass():
    for argv in (["spectrum", "--n", "3", "--P", "0.3", "--format", "csv"],
                 ["interbasis", "--n", "4", "--P", "0"],
                 ["spheroidal", "--n", "3", "--k", "1", "--R-grid", "0.2:2:5"],
                 ["perturb", "--n", "3", "--order", "4"],
                 ["morse", "--V0", "3", "--a", "1", "--format", "csv"]):
        verdict = _cli_output(argv)
        assert verdict.ok, (argv, verdict.reason)
        assert verdict.dev < 1e-10


def _corrupt(argv, edit):
    """Run argv, apply edit to the parsed JSON, and check the edited text."""
    import genosc.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert genosc.cli.main(list(argv)) == 0
    payload = json.loads(out.getvalue())
    edit(payload["data"])
    job = streams.Job("t", "test", argv[0], tuple(argv))
    return refcheck.check_cli(job, 0, json.dumps(payload), None)


def test_corrupted_energy_fails():
    def edit(data):
        data["levels"]["rows"][2][1] *= 1.0 + 1e-9
    verdict = _corrupt(["spectrum", "--n", "3"], edit)
    assert not verdict.ok and verdict.reason.startswith("reference")


def test_corrupted_w_entry_fails():
    def edit(data):
        data["w_matrix"]["rows"][1][2] += 1e-7
    verdict = _corrupt(["interbasis", "--n", "5", "--P", "0.4"], edit)
    assert not verdict.ok and "orthogonality" in verdict.reason


def test_corrupted_lambda_fails():
    def edit(data):
        data["lambda_curve"]["rows"][3][2] += 1e-6
    verdict = _corrupt(["spheroidal", "--n", "4", "--R-grid", "0.2:2:6"], edit)
    assert not verdict.ok and "eigvalsh" in verdict.reason


def test_corrupted_coefficient_sign_fails():
    def edit(data):
        data["coefficients"]["rows"] = [[i, u, -t] for i, u, t in
                                        data["coefficients"]["rows"]]
    verdict = _corrupt(["spheroidal", "--n", "4", "--k", "2"], edit)
    assert not verdict.ok and "W^T U" in verdict.reason


def test_nonfinite_token_fails():
    job = streams.Job("t", "test", "spectrum", ("spectrum",))
    verdict = refcheck.check_cli(job, 0, '{"data": {"levels": {"columns": [], '
                                         '"rows": [[0, Infinity]]}}}', None)
    assert not verdict.ok and "non-finite" in verdict.reason


def test_error_job_exit_codes():
    job = streams.Job("t", "err-grid", "spheroidal", ("spheroidal",), expect_exit=(2,))
    assert refcheck.check_cli(job, 2, "", None).ok
    assert not refcheck.check_cli(job, 4, "", None).ok
    assert not refcheck.check_cli(job, None, "", OverflowError("x")).ok


def test_corrupted_psi_fails():
    job = next(j for j in streams.round_jobs("spheroidal", 1, 0) if j.cls == "psi")
    _, check, _, _ = run._run_library(job)
    assert check().ok
    values = [(1.0 + 0j, 1.0 + 1e-6j)] * 3
    assert not refcheck.check_psi(job, values).ok


def _bindings():
    """Every (namespace, key) -> value that binds a traced function."""
    found = {}
    for layer, (home, fnames, *_) in spans.LAYERS.items():
        for fname in fnames:
            original = getattr(sys.modules[home], fname)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("genosc"):
                    continue
                for attr, value in vars(module).items():
                    if value is original:
                        found[(name, attr)] = value
    return found


def test_wrappers_removed_after_traced_run():
    import genosc.cli
    before = _bindings()
    commands = dict(genosc.cli._COMMANDS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert genosc.cli.main is not before[("genosc.cli", "main")]
        assert genosc.cli._COMMANDS["spectrum"] is not commands["spectrum"]
        jobs = [j for j in streams.round_jobs("spheroidal", 2, 0) if j.cls == "perturb"][:2]
        records = [run.run_job(j, tracer) for j in jobs]
    finally:
        tracer.restore()
    assert _bindings() == before
    assert genosc.cli._COMMANDS == commands
    assert all(r["ok"] for r in records)
    rows = list(tracer.rows())
    assert {"job", "cli.parse", "cli.command", "perturbation.series",
            "spheroidal.eigensolve", "cli.render"} <= {r["name"] for r in rows}
    metrics = tracer.layer_metrics(1.0)
    assert metrics["perturbation.series.calls"]["value"] == 4
    assert metrics["spheroidal.eigensolve.useful_ratio"]["value"] <= 1.0
    # the reference checks ran after each job, so nothing outside a job is recorded
    assert [r["job"] for r in rows if r["name"] == "job"] == [j.id for j in jobs]
    for r in rows:
        assert r["start"] <= r["end"]
        if r["parent"] >= 0:
            parent = rows[r["parent"]]
            assert parent["job"] == r["job"] and parent["start"] <= r["start"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    tracer = spans.Tracer()
    layer = tracer.layer_metrics(1.0)
    names = [*layer, "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    units = {k: v["unit"] for k, v in layer.items()}
    assert all(m["unit"] == units.get(m["name"], "ratio") for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(streams.WORKLOADS)
