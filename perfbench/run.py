#!/usr/bin/env python3
"""genosc benchmark: seeded job streams run in-process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload spheroidal --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client runs one job at a time and sends the next when the previous one
has finished, over the first rounds of the workload's stream
(perfbench/streams.py); the number of rounds follows from --seconds. A job
is a ``genosc`` command run through ``genosc.cli.main(argv)`` with stdout
captured, or a library call. Every job is checked against an independent
reference (perfbench/refcheck.py). BLAS runs on one thread and the cyclic
garbage collector is held off while a job is timed.

--trace 0 prints the end-to-end metrics, timed with nothing wrapped. A
fixed probe of interpreted and small-numpy work, free of genosc code, runs
right before and after every job; the job's time is scaled by PROBE_REF_MS
over the mean of the two probe times, so stretches in which the shared host
runs the process slower do not move the timings (see README.md, Noise).
--trace 1 runs the rounds once with timing wrappers on each layer's public
functions (perfbench/spans.py), prints the per-layer metrics, and reruns
the same rounds untraced in a fresh process to report the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Per-job records (with stdout SHA-256) and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy loads: one client, no BLAS threads competing for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import streams  # noqa: E402

SETUP_LAUNCHES = 15
_SETUP_CODE = "import time, genosc.cli; print(repr(time.monotonic()))"

# Summed scaled job time of a round, in seconds, at the commit that
# introduced the benchmark. A run executes a fixed number of rounds derived
# from --seconds, so every run of a seed runs the same jobs and its counts
# repeat exactly; a faster program just finishes sooner.
_NOMINAL_ROUND_S = {"spheroidal": 2.4, "interbasis": 1.9, "fields": 1.55}
# At least this many rounds, so that a run has over 100 jobs for job_ms_p90.
MIN_ROUNDS = 3
# About the median time of the host-speed probe (_probe_s) during runs on the
# 2-core machine the benchmark was built on; scaled times read as times at
# that probe speed.
PROBE_REF_MS = 1.5

E2E_UNITS = {"setup_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
             "jobs_per_s": "1/s", "fail_ratio": "ratio", "accuracy_digits": "digits",
             "peak_rss_mb": "MB"}


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds that take about `seconds` at the commit that introduced the benchmark."""
    return max(MIN_ROUNDS, round(seconds / _NOMINAL_ROUND_S[workload]))


# ------------------------------------------------------------ environment

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy
    from genosc import _kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_active": bool(_kernels.USE_NUMBA), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": _commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def launch_setup() -> dict:
    """Wall time from spawning a fresh interpreter to import genosc.cli done,
    and the same scaled like a job time by probes right before and after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = _probe_s()
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import genosc.cli failed: {proc.stderr.strip()}")
    elapsed = float(proc.stdout.strip()) - start
    after = _probe_s()
    return {"s": elapsed, "scaled_s": elapsed * PROBE_REF_MS / ((before + after) * 0.5e3)}


# ------------------------------------------------------------ running jobs

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(job):
    """Run one command; returns (seconds, check thunk, stdout digest, exit)."""
    import genosc.cli
    import refcheck
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = genosc.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects a flag with exit 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed job, not a crash
            error = exc
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    return elapsed, lambda: refcheck.check_cli(job, code, text, error), _sha(text), code


def _library_args(job):
    from genosc.model import Branch, SystemParams
    from genosc.morse import MorseParams
    p = job.call["params"]
    if "v0" in p:
        return MorseParams(v0=p["v0"], a=p["a"]), Branch.Plus
    branch = Branch.Minus if p["branch"] == "minus" else Branch.Plus
    return SystemParams(omega=p["omega"], p_strength=p["P"], q_strength=p["Q"],
                        m=p["m"]), branch


def _run_library(job):
    """Run one library call; returns (seconds, check thunk, result digest, None)."""
    import genosc.oracles as go
    import genosc.spheroidal as gs
    import refcheck
    from genosc.errors import DomainError, NumericError
    params, branch = _library_args(job)
    c = job.call
    psi = job.command == "psi_spheroidal"
    if psi:
        kind = gs.Kind.Prolate if c["kind"] == "prolate" else gs.Kind.Oblate
        points = [gs.SpheroidalPoint(*pt) for pt in c["points"]]
    else:
        family = go.GramFamily(c["family"])
    start = time.perf_counter()
    try:
        if psi:
            result = [tuple(gs.psi_spheroidal(c["n"], c["k"], params.m, params, branch,
                                              c["R"], kind, pt, route)
                            for route in (gs.Route.ViaSpherical, gs.Route.ViaCylindrical))
                      for pt in points]
        else:
            result = go.gram_matrix(family, c["n_max"], params, branch)
    except (DomainError, NumericError, ArithmeticError, ValueError) as exc:
        elapsed = time.perf_counter() - start
        verdict = refcheck.Verdict(False, f"raised {type(exc).__name__}: {exc}")
        return elapsed, lambda: verdict, _sha(""), None
    elapsed = time.perf_counter() - start
    if psi:
        digest = _sha(repr([(complex(a), complex(b)) for a, b in result]))
        return elapsed, lambda: refcheck.check_psi(job, result), digest, None
    digest = _sha(repr(result[0].tolist()))
    return elapsed, lambda: refcheck.check_gram(job, result), digest, None


_PROBE_MATRIX = None


def _probe_s() -> float:
    """Seconds taken by a fixed mix of interpreted loops, math-library calls,
    small tuples and small-numpy linear algebra that uses no genosc code: the
    speed the shared host gives this process now. The mix was chosen so that
    the time of every job type moves with it at a slope close to 1."""
    global _PROBE_MATRIX
    import numpy as np
    if _PROBE_MATRIX is None:
        _PROBE_MATRIX = np.add.outer(np.arange(12.0), np.arange(12.0)) / 7.0
    a = _PROBE_MATRIX
    start = time.perf_counter()
    x, d = 0.0, {}
    for i in range(1500):
        x += i * 0.5
        d[i & 63] = x
    for i in range(1, 1500):
        x += math.lgamma(i * 0.37) + math.exp(-i * 1e-3)
    out = []
    for i in range(700):
        out.append((i, i * 0.5, i + i * 0.5)[2])
    for _ in range(10):
        np.linalg.eigvalsh(a)
        np.dot(a, a).sum()
    return time.perf_counter() - start


def run_job(job, tracer=None, check=True) -> dict:
    """Run a job (traced when a tracer is given) between two host-speed
    probes, then check it untraced."""
    gc.disable()
    try:
        before = _probe_s()
        if tracer is not None:
            tracer.begin_job(job.id)
        try:
            elapsed, checker, digest, code = (_run_cli if job.is_cli else _run_library)(job)
        finally:
            if tracer is not None:
                tracer.end_job()
        after = _probe_s()
    finally:
        gc.enable()
    record = {"id": job.id, "cls": job.cls, "command": job.command,
              "argv": list(job.argv), "call": job.call, "exit": code,
              "ms": elapsed * 1e3, "probe_ms": (before + after) * 0.5e3, "sha256": digest}
    if check:
        verdict = checker()
        record.update(ok=verdict.ok, reason=verdict.reason, dev=verdict.dev)
    return record


def run_round(workload, seed, r, tracer=None, check=True) -> list[dict]:
    return [dict(run_job(job, tracer, check), round=r)
            for job in streams.round_jobs(workload, seed, r)]


def run_rounds(workload, seed, rounds, tracer=None, check=True) -> list[dict]:
    """Closed loop over the first `rounds` rounds of the stream."""
    return [rec for r in range(rounds)
            for rec in run_round(workload, seed, r, tracer, check)]


# ------------------------------------------------------------ metrics

def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) law of the sample
    quantile, so that no single job decides it."""
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 32
    grid = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def _p90(values: list[float]) -> float:
    return hd_quantile(values, 0.9)


def scaled_ms(record: dict) -> float:
    """Job time at the reference probe speed."""
    return record["ms"] * PROBE_REF_MS / record["probe_ms"]


def e2e_metrics(records: list[dict], setup_s: float) -> dict:
    ms = [scaled_ms(r) for r in records]
    devs = [r["dev"] for r in records if r["dev"] is not None]
    values = {
        "setup_s": setup_s,
        "job_ms_p50": hd_quantile(ms, 0.5),
        "job_ms_p90": _p90(ms),
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "fail_ratio": sum(not r["ok"] for r in records) / len(records),
        "accuracy_digits": min(min(16.0, -math.log10(max(d, 1e-16))) for d in devs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def result_line(records, metrics) -> dict:
    """The contract's last line; only a failure outside the baseline classes
    makes a run incorrect."""
    failed = [r for r in records if not r["ok"]]
    return {"correct": all(r["cls"] in streams.BASELINE_FAILURE_CLASSES for r in failed),
            "attempted": len(records), "failed": len(failed), "metrics": metrics}


def _write_report(args, env, records, rounds, metrics, **extra) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    jobs = [j for r in range(rounds) for j in streams.round_jobs(args.workload, args.seed, r)]
    report = {"env": env, "rounds": rounds, "stream_sha256": streams.stream_digest(jobs),
              "metrics": metrics, **extra, "jobs": records}
    path.write_text(json.dumps(report, indent=1, default=str))
    return path


def _print_metrics(metrics: dict, records: list[dict]) -> None:
    for name, m in metrics.items():
        note = f"  (n={len(records)})" if name.startswith("job_ms") else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    ms = [r["ms"] for r in records]
    probe = [r["probe_ms"] for r in records]
    print(f"{'unscaled job_ms p50 / p90':40s} {hd_quantile(ms, 0.5):.6g} / "
          f"{_p90(ms):.6g} ms; probe median {statistics.median(probe):.6g} ms")
    for r in records:
        if not r["ok"]:
            known = "known" if r["cls"] in streams.BASELINE_FAILURE_CLASSES else "NEW"
            print(f"failed [{known}] {r['id']} {r['cls']}: {r['reason'][:120]}")


# ------------------------------------------------------------ modes

def run_e2e(args) -> dict:
    launch_setup()  # writes the bytecode cache; not counted
    sys.path.insert(0, str(SRC))
    import genosc.cli  # noqa: F401  (import cost is setup, not job time)
    env = environment(args)
    print("env " + json.dumps(env))
    rounds = rounds_for(args.workload, args.seconds)
    records, launches = [], []
    for r in range(rounds):
        records += run_round(args.workload, args.seed, r)
        # SETUP_LAUNCHES launches spread evenly between the rounds, so that
        # setup_s sees the same stretch of the host as the jobs
        due = (r + 1) * SETUP_LAUNCHES // rounds - r * SETUP_LAUNCHES // rounds
        launches += [launch_setup() for _ in range(due)]
    setup_s = statistics.median(x["scaled_s"] for x in launches)
    metrics = e2e_metrics(records, setup_s)
    _print_metrics(metrics, records)
    print(f"{'unscaled setup_s':40s} {statistics.median(x['s'] for x in launches):.6g} s")
    report = _write_report(args, env, records, rounds, metrics, setup_launches=launches)
    print(f"report {report}")
    return result_line(records, metrics)


def run_replay(args) -> dict:
    """Untraced rerun of the traced rounds, in this fresh process."""
    sys.path.insert(0, str(SRC))
    import genosc.cli  # noqa: F401
    records = run_rounds(args.workload, args.seed, args.replay_rounds, check=False)
    return {"program_s": sum(map(scaled_ms, records)) / 1e3, "attempted": len(records)}


def run_traced(args) -> dict:
    sys.path.insert(0, str(SRC))
    import genosc.cli  # noqa: F401
    import genosc.specfun
    import spans
    env = environment(args)
    print("env " + json.dumps(env))
    # half the end-to-end rounds: spans of the hot scalar functions are many
    k = max(MIN_ROUNDS, rounds_for(args.workload, args.seconds) // 2)
    cache = genosc.specfun.build_quadrature
    before = cache.cache_info()
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = run_rounds(args.workload, args.seed, k, tracer=tracer)
    finally:
        tracer.restore()
    after = cache.cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    hit_ratio = (after.hits - before.hits) / lookups if lookups else 1.0
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", "0",
                           "--replay-rounds", str(k)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced replay failed: {proc.stderr.strip()[-400:]}")
    replay = json.loads(proc.stdout.strip().splitlines()[-1])
    traced_s = sum(map(scaled_ms, records)) / 1e3
    metrics = tracer.layer_metrics(hit_ratio)
    metrics["trace.overhead_ratio"] = {"value": traced_s / replay["program_s"],
                                       "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tracer.write(span_path)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"traced rounds {k}, jobs {len(records)}, spans {len(tracer)} -> {span_path}")
    print(f"report {_write_report(args, env, records, k, metrics)}")
    return result_line(records, metrics)


def run_all(args) -> dict:
    """Every workload in its own fresh process; one table, one result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in streams.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} run failed: {proc.stderr.strip()[-400:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
            print(f"{workload:11s} {name:40s} {m['value']:.6g} {m['unit']}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*streams.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-rounds", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "genosc" / "cli.py").is_file():
        print(f"genosc sources not found under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = run_all(args)
    elif args.replay_rounds is not None:
        result = run_replay(args)
    elif args.trace:
        result = run_traced(args)
    else:
        result = run_e2e(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
