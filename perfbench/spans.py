"""Per-layer spans recorded from the benchmark's side of the API.

``Tracer.install()`` replaces each public function listed in LAYERS with a
timing wrapper in every ``genosc.*`` module namespace that binds it (plus the
CLI's command table), and ``restore()`` puts the originals back. Spans
(layer, function, start, end, parent, job) are kept in memory and written
out at the end; calls that happen outside a job, such as the reference
checks, pass through unrecorded.

The private ``_kernels`` module is not wrapped: its time lands in the
callers' spans (``tridiag_ql`` in eigensolve and build_quadrature, ``cg_sum``
in w_matrix and ring_w, the polynomial kernels in specfun.poly). The model
module is cheap and folds into cli.command. ``cli.parse`` is the self time
of ``cli.main``: argument parsing, config validation and the output write.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np


def _points_last(args, kwargs):
    """Evaluation points: the size of the last argument (a tuple of coordinate
    arrays counts its largest component)."""
    last = args[-1] if args else next(reversed(kwargs.values()), None)
    if isinstance(last, tuple):
        return max(int(np.size(c)) for c in last)
    return int(np.size(last))


def _points_one(args, kwargs):
    return 1


def _work_eigensolve(args, kwargs):
    system = args[0] if args else kwargs["system"]
    return (system.n + 1) ** 3


def _key_eigensolve(args, kwargs):
    s = args[0] if args else kwargs["system"]
    return (s.basis, s.n, s.R, s.kind, s.diag.tobytes(), s.offdiag.tobytes())


def _work_w_matrix(args, kwargs):
    n = args[0] if args else kwargs["n"]
    return (int(n) + 1) ** 2


def _key_w_matrix(args, kwargs):
    return tuple(args) + tuple(sorted(kwargs.items()))


# layer -> (module, functions, points, work, distinct-key). The layer-to-e2e
# mapping these feed is tabulated in perfbench/README.md.
LAYERS = {
    "spheroidal.eigensolve": ("genosc.spheroidal", ("eigensolve",),
                              None, _work_eigensolve, _key_eigensolve),
    "spheroidal.build_tridiag": ("genosc.spheroidal",
                                 ("build_tridiag_u", "build_tridiag_t"), None, None, None),
    "spheroidal.pair": ("genosc.spheroidal", ("u_coefficients", "t_coefficients"),
                        None, None, None),
    "spheroidal.psi": ("genosc.spheroidal", ("psi_spheroidal",), _points_one, None, None),
    "interbasis.w_matrix": ("genosc.interbasis", ("w_matrix",),
                            None, _work_w_matrix, _key_w_matrix),
    "interbasis.operator": ("genosc.interbasis", ("m_matrix_cyl", "n_matrix_sph"),
                            None, None, None),
    "interbasis.ring_w": ("genosc.interbasis", ("ring_w",), None, None, None),
    "perturbation.series": ("genosc.perturbation", ("small_r_series", "large_r_series"),
                            None, None, None),
    "specfun.build_quadrature": ("genosc.specfun", ("build_quadrature",), None, None, None),
    "specfun.poly": ("genosc.specfun", ("jacobi_p", "gen_laguerre", "gegenbauer",
                                        "hermite", "assoc_legendre"),
                     _points_last, None, None),
    "specfun.ln_gamma": ("genosc.specfun", ("ln_gamma", "gamma_sign_ln"), None, None, None),
    "bases.eval": ("genosc.bases", ("theta_angular", "radial_spherical", "psi_spherical",
                                    "radial_cylindrical", "z_axial", "psi_cylindrical",
                                    "theta_ring", "spherical_harmonic_limit"),
                   _points_last, None, None),
    "morse.wavefunction": ("genosc.morse", ("morse_wavefunction",), _points_last, None, None),
    "morse.norm": ("genosc.morse", ("quadrature_norm", "quadrature_norm_scaled"),
                   None, None, None),
    "oracles.check": ("genosc.oracles", ("gram_matrix", "bi_orthogonality",
                                         "bi_orthogonality_hypergeometric",
                                         "w_overlap_oracle"), None, None, None),
    "oracles.suite": ("genosc.oracles", ("run_verification_suite",), None, None, None),
    "cli.parse": ("genosc.cli", ("main",), None, None, None),
    "cli.command": ("genosc.cli", ("cmd_spectrum", "cmd_interbasis", "cmd_spheroidal",
                                   "cmd_perturb", "cmd_morse", "cmd_verify"),
                    None, None, None),
    "cli.render": ("genosc.cli", ("render_json", "render_csv"), None, None, None),
}

# Metrics reported per layer, in BENCHMARK.json order.
LAYER_METRICS = {
    "spheroidal.eigensolve": ("calls", "self_ms", "work", "useful_ratio"),
    "spheroidal.build_tridiag": ("calls", "self_ms"),
    "spheroidal.pair": ("calls", "self_ms"),
    "spheroidal.psi": ("calls", "points", "self_ms"),
    "interbasis.w_matrix": ("calls", "self_ms", "work", "useful_ratio"),
    "interbasis.operator": ("self_ms",),
    "interbasis.ring_w": ("calls", "self_ms"),
    "perturbation.series": ("calls", "self_ms"),
    "specfun.build_quadrature": ("calls", "self_ms", "cache_hit_ratio"),
    "specfun.poly": ("calls", "points", "self_ms"),
    "specfun.ln_gamma": ("calls", "self_ms"),
    "bases.eval": ("calls", "points", "self_ms"),
    "morse.wavefunction": ("calls", "points", "self_ms"),
    "morse.norm": ("calls", "self_ms"),
    "oracles.check": ("calls", "self_ms"),
    "oracles.suite": ("self_ms",),
    "cli.parse": ("self_ms",),
    "cli.command": ("self_ms",),
    "cli.render": ("self_ms", "bytes"),
}

UNITS = {"calls": "count", "self_ms": "ms", "points": "count", "bytes": "bytes",
         "useful_ratio": "ratio", "cache_hit_ratio": "ratio"}
WORK_UNITS = {"spheroidal.eigensolve": "computed-n3",
              "interbasis.w_matrix": "computed-entries"}


class Tracer:
    """Installs the wrappers, records spans, computes per-layer metrics.

    Spans are stored column-wise in typed arrays; a traced run can record
    close to a million of them.
    """

    def __init__(self):
        self.names = [*LAYERS, "job"]
        self.fnames: list[str] = ["job"]
        self.jobs: list[str] = []
        self.layer = array("H")
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.points = array("q")
        self.work = array("q")
        self.nbytes = array("q")
        self.keys = {name: set() for name in LAYERS}
        self.stack: list[int] = []
        self.job: str | None = None
        self._patched: list = []   # (namespace, name, original)

    def __len__(self) -> int:
        return len(self.layer)

    def _open(self, layer_idx: int, fn_idx: int, points: int, work: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_idx)
        self.fn.append(fn_idx)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_of.append(len(self.jobs) - 1)
        self.points.append(points)
        self.work.append(work)
        self.nbytes.append(0)
        self.stack.append(idx)
        return idx

    # ------------------------------------------------------------ install
    def _wrap(self, layer, fname, fn, points, work, key):
        tracer = self
        layer_idx = self.names.index(layer)
        self.fnames.append(fname)
        fn_idx = len(self.fnames) - 1
        keys = self.keys[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            if key:
                keys.add(key(args, kwargs))
            idx = tracer._open(layer_idx, fn_idx,
                               points(args, kwargs) if points else 0,
                               work(args, kwargs) if work else 0)
            tracer.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
            if isinstance(result, str):
                tracer.nbytes[idx] = len(result.encode())
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "genosc" or name.startswith("genosc."))]
        for layer, (home, fnames, points, work, key) in LAYERS.items():
            for fname in fnames:
                original = getattr(sys.modules[home], fname)
                wrapper = self._wrap(layer, fname, original, points, work, key)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((vars(module), attr, original))
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict) and not attr.startswith("__"):
                            # the CLI dispatches through its _COMMANDS table
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patched.append((value, k, original))
                                    value[k] = wrapper

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def begin_job(self, job_id: str) -> None:
        self.jobs.append(job_id)
        self.job = job_id
        self.stack = []
        idx = self._open(self.names.index("job"), 0, 0, 0)
        self.start[idx] = time.perf_counter()

    def end_job(self) -> None:
        self.end[self.stack[0]] = time.perf_counter()
        self.job, self.stack = None, []

    # ------------------------------------------------------------ report
    def layer_metrics(self, cache_hit_ratio: float) -> dict:
        n = len(self)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        acc = [{"calls": 0, "self_ms": 0.0, "points": 0, "work": 0, "bytes": 0}
               for _ in self.names]
        for i in range(n):
            layer = self.layer[i]
            a = acc[layer]
            a["self_ms"] += (self.end[i] - self.start[i] - child_time[i]) * 1e3
            a["bytes"] += self.nbytes[i]
            a["work"] += self.work[i]
            # calls and points count entries into a layer, not nested calls
            parent = self.parent[i]
            if parent < 0 or self.layer[parent] != layer:
                a["calls"] += 1
                a["points"] += self.points[i]
        out = {}
        for layer, names in LAYER_METRICS.items():
            a = acc[self.names.index(layer)]
            for name in names:
                if name == "useful_ratio":
                    value = len(self.keys[layer]) / a["calls"] if a["calls"] else 1.0
                elif name == "cache_hit_ratio":
                    value = cache_hit_ratio
                else:
                    value = a[name]
                unit = WORK_UNITS[layer] if name == "work" else UNITS[name]
                out[f"{layer}.{name}"] = {"value": value, "unit": unit}
        return out

    COLUMNS = ("name", "fn", "start", "end", "parent", "job", "points", "work", "bytes")

    def _row(self, i: int) -> list:
        return [self.names[self.layer[i]], self.fnames[self.fn[i]], self.start[i],
                self.end[i], self.parent[i], self.jobs[self.job_of[i]],
                self.points[i], self.work[i], self.nbytes[i]]

    def rows(self):
        """Spans as dicts keyed by COLUMNS; parent is a span index, -1 at a job."""
        for i in range(len(self)):
            yield dict(zip(self.COLUMNS, self._row(i)))

    def write(self, path) -> None:
        """Gzip-compressed JSON lines: the column names, then one list per span."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(self.COLUMNS) + "\n")
            for i in range(len(self)):
                handle.write(json.dumps(self._row(i)) + "\n")
