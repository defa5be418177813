"""Seeded job streams for the three benchmark workloads.

A stream is an endless sequence of rounds. Every round of a workload holds
the same number of jobs of each type. The cost-setting parameters of a job
(level n, grid length, perturbation order, Morse depth, Gram level,
spheroidal kind, output format, m, whether Q is zero, the variant of a
non-finite or overflow error job) follow a quasi-random design (_Sampler)
that is the same for every seed: each round covers each size range evenly,
so every seed runs the same design and timings, failure count and
worst-case accuracy move with the program, not with the seed. The job
order inside a round and every other parameter (the values of omega, P and
Q, branch, k, radii, points, ...) come from the seed.

Jobs are plain data: a CLI job is an argv list for ``genosc.cli.main``, a
library job names its function and arguments. Nothing here imports genosc.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("spheroidal", "interbasis", "fields")

_BASES = (2, 3, 5, 7, 11, 13)

# Job classes whose failures are known defects of the program at the commit
# that introduced this benchmark. They stay in the stream and count in
# fail_ratio; a failure in any other class makes the run incorrect.
BASELINE_FAILURE_CLASSES = frozenset({
    "interbasis-high",      # Racah-sum W loses orthogonality past n ~ 70
    "morse-deep",           # composite-panel norm drifts from 1 past lam ~ 29
    "morse-threshold",      # ... and for a level within ~0.015 of the threshold
    "err-nonfinite",        # inf/nan flags exit 0 with NaN tokens, 4, or a traceback
    "err-overflow",         # perturb --order 400 / huge Morse lam: traceback
})


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI argv or a library call, with its expectations."""

    id: str
    cls: str
    command: str
    argv: tuple[str, ...] = ()
    call: dict = field(default_factory=dict)
    expect_exit: tuple[int, ...] = (0,)

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


class _Sampler:
    """Quasi-random points for one job type.

    Coordinate 0 (the main size) is stratified inside each round: job i of
    the c jobs of a type lies in slice i of [0, 1), mirrored between the
    lower and upper half, at an offset that moves along the van der Corput
    sequence from round to round. Coordinates 1 to 5 are the Halton
    sequence in bases 3 to 13 over the type's jobs. None depends on the
    seed.
    """

    @staticmethod
    def point(r: int, i: int, c: int) -> list[float]:
        v = _radical_inverse(r + 1, 2)
        if c == 1:
            size = v
        elif i < c // 2:
            size = (i + v) / c
        else:
            size = 1.0 - (c - 1 - i + v) / c
        k = r * c + i + 1
        return [size] + [_radical_inverse(k, b) for b in _BASES[1:]]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi], log-uniform: small values are the common case."""
    return min(hi, int(lo * ((hi + 1) / lo) ** u))


def _num(x: float) -> str:
    return repr(float(x))


def _pick(u: float, options):
    return options[min(len(options) - 1, int(u * len(options)))]


def _system(rng: random.Random, u, zero_p: bool = False) -> dict:
    """SystemParams fields plus an admissible branch: m and whether Q is zero
    from the design point u, the values from the seed."""
    p = 0.0 if zero_p else rng.uniform(-0.2, 3.0)
    q = 0.0 if u[5] < 0.5 else rng.uniform(0.0, 3.0)
    m = _pick(u[4], (0, 1, 2, 3))
    minus_ok = p <= 0.0
    branch = "minus" if minus_ok and rng.random() < 0.5 else "plus"
    return {"omega": _log_uniform(rng.random(), 0.5, 2.0), "P": p, "Q": q,
            "m": m, "branch": branch}


def _system_argv(s: dict) -> list[str]:
    # --flag=value: argparse would read "-2.4e-06" after a separate flag as an option
    return [f"--omega={_num(s['omega'])}", f"--P={_num(s['P'])}", f"--Q={_num(s['Q'])}",
            "--m", str(s["m"]), "--branch", s["branch"]]


def _fmt(u: float) -> list[str]:
    return ["--format", "json" if u < 0.5 else "csv"]


def _kind(u: float) -> str:
    return "prolate" if u < 0.5 else "oblate"


# ----------------------------------------------------------- job factories
# Each factory takes (job id, quasi-random point u, rng) and returns a Job.

def _spheroidal(jid, u, rng, small: bool):
    s = _system(rng, u)
    if small:
        n, count = _log_int(u[0], 4, 12), _log_int(u[1], 20, 200)
    else:
        n, count = _log_int(u[0], 13, 40), _log_int(u[1], 20, 40)
    start, stop = rng.uniform(0.05, 0.5), rng.uniform(2.0, 8.0)
    argv = ["spheroidal", *_system_argv(s), "--n", str(n),
            "--k", str(rng.randint(0, n)),
            "--kind", _kind(u[3]),
            "--R", _num(rng.uniform(0.2, 5.0)),
            "--R-grid", f"{start!r}:{stop!r}:{count}", *_fmt(u[2])]
    return Job(jid, "spheroidal-small" if small else "spheroidal-large",
               "spheroidal", tuple(argv))


def _perturb(jid, u, rng):
    s = _system(rng, u)
    n = _log_int(u[0], 2, 12)
    argv = ["perturb", *_system_argv(s), "--n", str(n), "--k", str(rng.randint(0, n)),
            "--order", str(_log_int(u[1], 2, 12)), *_fmt(u[2])]
    return Job(jid, "perturb", "perturb", tuple(argv))


def _psi_batch(jid, u, rng):
    s = _system(rng, u)
    n = _log_int(u[0], 1, 10)
    kind = _kind(u[3])
    lo = 1.05 if kind == "prolate" else 0.05
    points = [(rng.uniform(lo, lo + 2.0), rng.uniform(0.05, 0.95),
               rng.uniform(0.0, 2.0 * math.pi)) for _ in range(8)]
    call = {"params": s, "n": n, "k": rng.randint(0, n), "R": rng.uniform(0.5, 3.0),
            "kind": kind, "points": points}
    return Job(jid, "psi", "psi_spheroidal", call=call)


_INTERBASIS_LEVELS = {"interbasis": (2, 40), "interbasis-ring": (2, 30),
                      "interbasis-high": (61, 100)}


def _interbasis(jid, u, rng, cls: str):
    # the ring type runs at P = 0, where the CLI adds the ring_w cross-route
    s = _system(rng, u, zero_p=cls == "interbasis-ring")
    n = _log_int(u[0], *_INTERBASIS_LEVELS[cls])
    argv = ["interbasis", *_system_argv(s), "--n", str(n), *_fmt(u[2])]
    return Job(jid, cls, "interbasis", tuple(argv))


def _spectrum(jid, u, rng):
    s = _system(rng, u, zero_p=rng.random() < 0.1)
    argv = ["spectrum", *_system_argv(s), "--n", str(_log_int(u[0], 1, 30)),
            *_fmt(u[2])]
    return Job(jid, "spectrum", "spectrum", tuple(argv))


# A Morse depth lam whose top level sits less than this far above the
# continuum threshold (lam - p - 1/2 small) belongs to the threshold type.
_THRESHOLD_BAND = 0.05


def _morse_job(jid, u, rng, lam: float, cls: str):
    a = _log_uniform(rng.random(), 0.3, 2.0)
    argv = ["morse", "--V0", _num(0.5 * (lam * a) ** 2), "--a", _num(a), *_fmt(u[2])]
    return Job(jid, cls, "morse", tuple(argv))


def _morse(jid, u, rng, deep: bool):
    if deep:
        return _morse_job(jid, u, rng, _log_uniform(u[0], 24.0, 80.0), "morse-deep")
    lam = _log_uniform(u[0], 1.0, 24.0)
    if (lam - 0.5) % 1.0 < _THRESHOLD_BAND:
        lam += _THRESHOLD_BAND
    return _morse_job(jid, u, rng, lam, "morse")


def _morse_threshold(jid, u, rng):
    lam = _log_int(u[0], 1, 20) + 0.5 + _log_uniform(u[1], 1e-3, _THRESHOLD_BAND)
    return _morse_job(jid, u, rng, lam, "morse-threshold")


def _verify(jid, u, rng):
    return Job(jid, "verify", "verify", ("verify", *_fmt(u[2])))


_GRAM_FAMILIES = ("theta", "radial-spherical", "radial-cylindrical", "axial", "morse")


def _gram(jid, u, rng):
    family = _GRAM_FAMILIES[min(4, int(u[1] * 5))]
    n_max = _log_int(u[0], 2, 12)
    if family == "morse":
        # deep enough that levels 0..n_max are all normalizable
        lam = rng.uniform(n_max + 2.0, n_max + 20.0)
        a = _log_uniform(rng.random(), 0.3, 2.0)
        params = {"v0": 0.5 * (lam * a) ** 2, "a": a}
    else:
        params = _system(rng, u)
    return Job(jid, "gram", "gram_matrix",
               call={"family": family, "n_max": n_max, "params": params})


# ------------------------------------------------------------- error jobs
# Invalid input with the exit code the CLI contract promises: 2 for bad
# input, 4 for a numeric failure. Finite input whose result overflows may
# fairly be refused as bad input too, so those accept either code.

# Tokens argparse reads as +inf; NaN only for --Q, because NaN in --omega or
# --P already fails the positivity comparison and is refused with exit 2,
# which would make the class's outcome depend on the token drawn.
_INF_TOKENS = ("inf", "Infinity", "+inf", "1e400")
_NAN_TOKENS = ("nan", "NaN")


def _err_nonfinite(jid, u, commands):
    # how far a non-finite input gets before it fails sets the job's cost,
    # so every choice here is part of the design
    cmd = _pick(u[1], commands)
    flag = _pick(u[2], ("--omega", "--P", "--Q"))
    tokens = _INF_TOKENS + (_NAN_TOKENS if flag == "--Q" else ())
    argv = [cmd, flag, _pick(u[3], tokens), "--n", str(_log_int(u[0], 1, 6))]
    return Job(jid, "err-nonfinite", cmd, tuple(argv), expect_exit=(2,))


def _err_branch(jid, u, rng):
    cmd = rng.choice(("spheroidal", "perturb", "interbasis", "spectrum"))
    argv = [cmd, "--P", _num(rng.uniform(0.1, 3.0)), "--branch", "minus"]
    return Job(jid, "err-branch", cmd, tuple(argv), expect_exit=(2,))


def _err_grid(jid, u, rng):
    grid = rng.choice(("2.0:1.0:10", "0:1:10", "0.1:2.0:1", "0.1:2.0", "a:b:c"))
    return Job(jid, "err-grid", "spheroidal", ("spheroidal", "--R-grid", grid),
               expect_exit=(2,))


def _err_order(jid, u, rng):
    argv = ["perturb", "--n", str(_log_int(u[0], 2, 5)), "--order", "400"]
    return Job(jid, "err-overflow", "perturb", tuple(argv), expect_exit=(2, 4))


def _err_level(jid, u, rng):
    cmd = rng.choice(("interbasis", "spectrum"))
    return Job(jid, "err-level", cmd, (cmd, "--n", str(-rng.randint(1, 5))),
               expect_exit=(2,))


def _err_morse_overflow(jid, u, rng):
    argv = ["morse", "--V0", rng.choice(("1e300", "1e308")),
            "--a", rng.choice(("1e-300", "1e-200"))]
    return Job(jid, "err-overflow", "morse", tuple(argv), expect_exit=(2, 4))


def _err_morse_domain(jid, u, rng):
    flag = rng.choice(("--V0", "--a"))
    return Job(jid, "err-domain", "morse",
               ("morse", flag, rng.choice(("nan", "-1", "0", "-inf"))),
               expect_exit=(2,))


def _err_profile(jid, u, rng):
    return Job(jid, "err-domain", "verify", ("verify", "--tolerance-profile", "lax"),
               expect_exit=(2,))


# ------------------------------------------------------------ round recipes
# (type name, jobs per round, factory). A round's jobs of one type fall one
# in each equal slice of the size range (see _Sampler); the heaviest types
# come once per round and walk their range from round to round. Error jobs
# come in a fixed number per round, so their share is fixed.

_RECIPES = {
    "spheroidal": (
        ("spheroidal-small", 8, lambda j, u, r: _spheroidal(j, u, r, small=True)),
        ("spheroidal-large", 1, lambda j, u, r: _spheroidal(j, u, r, small=False)),
        ("perturb", 16, _perturb),
        ("psi", 4, _psi_batch),
        ("err-spheroidal-nonfinite", 1, lambda j, u, r: _err_nonfinite(j, u, ("spheroidal",))),
        ("err-perturb-nonfinite", 1, lambda j, u, r: _err_nonfinite(j, u, ("perturb",))),
        ("err-order", 1, _err_order),
        ("err-branch", 2, _err_branch),
        ("err-grid", 1, _err_grid),
    ),
    "interbasis": (
        ("interbasis", 16, lambda j, u, r: _interbasis(j, u, r, "interbasis")),
        ("interbasis-ring", 4, lambda j, u, r: _interbasis(j, u, r, "interbasis-ring")),
        ("interbasis-high", 1, lambda j, u, r: _interbasis(j, u, r, "interbasis-high")),
        ("spectrum", 16, _spectrum),
        ("err-interbasis-nonfinite", 2,
         lambda j, u, r: _err_nonfinite(j, u, ("interbasis", "spectrum"))),
        ("err-level", 1, _err_level),
        ("err-branch", 2, _err_branch),
    ),
    "fields": (
        ("morse", 8, lambda j, u, r: _morse(j, u, r, deep=False)),
        ("morse-deep", 1, lambda j, u, r: _morse(j, u, r, deep=True)),
        ("morse-threshold", 1, _morse_threshold),
        ("verify", 4, _verify),
        ("gram", 28, _gram),
        ("err-morse-overflow", 1, _err_morse_overflow),
        ("err-morse-domain", 2, _err_morse_domain),
        ("err-profile", 1, _err_profile),
    ),
}


def round_jobs(workload: str, seed: int, r: int) -> list[Job]:
    """Jobs of round r (0-based) of a workload's stream, in run order."""
    if workload not in _RECIPES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{seed}:{workload}:round{r}")
    jobs = []
    for kind, count, build in _RECIPES[workload]:
        for i in range(count):
            u = _Sampler.point(r, i, count)
            jobs.append(build(f"{workload}-r{r}-{kind}-{i}", u, rng))
    rng.shuffle(jobs)
    return jobs


def stream_digest(jobs: list[Job]) -> str:
    """SHA-256 over the canonical JSON of a job list."""
    text = json.dumps([asdict(j) for j in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
