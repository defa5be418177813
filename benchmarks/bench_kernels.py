"""Compare the jitted kernel path against the pure-numpy fallback.

Run as `python benchmarks/bench_kernels.py`. The fallback implementations
always live in genosc._kernels._PY_IMPLS; the module-level names are the
jitted versions whenever numba is active (GENOSC_NO_NUMBA unset). Each
workload is timed best-of-repeat on both paths and cross-checked for
agreement, so this doubles as a consistency test of the dual path.
"""

import math
import timeit

import numpy as np

from genosc import _kernels

REPEAT = 5


def best_of(fn, number=1):
    return min(timeit.repeat(fn, repeat=REPEAT, number=number)) / number


def laguerre_recurrence(npts: int, alpha: float):
    # monic coefficients; bcoef[0] carries the weight integral Gamma(alpha+1)
    k = np.arange(npts, dtype=np.float64)
    acoef = 2.0 * k + alpha + 1.0
    bcoef = k * (k + alpha)
    bcoef[0] = math.gamma(alpha + 1.0)
    return acoef, bcoef


def workloads():
    x_dense = np.linspace(-0.99, 0.99, 4096)
    t_dense = np.linspace(0.01, 60.0, 4096)

    yield ("jacobi_arr n=60 on 4096 pts",
           lambda f: f(60, 1.3, 0.4, x_dense))
    yield ("laguerre_arr n=60 on 4096 pts",
           lambda f: f(60, 2.1, t_dense))
    yield ("hermite_arr n=40 on 4096 pts",
           lambda f: f(40, x_dense * 6.0))

    acoef, bcoef = laguerre_recurrence(140, 0.7)
    off = np.sqrt(bcoef[1:])
    nodes = np.linalg.eigvalsh(np.diag(acoef) + np.diag(off, 1) + np.diag(off, -1))

    def run_weights(f):
        return f(acoef, bcoef, nodes)

    yield ("christoffel_weights 140-pt rule", run_weights)

    def run_cg(f):
        total = 0.0
        for i in range(400):
            total += f(6.0, 4.5, 1.0 + 0.25 * (i % 8), 0.5, 8.0)[0]
        return total

    yield ("cg_sum 400 evaluations", run_cg)


def main() -> None:
    if not _kernels.USE_NUMBA:
        print("numba path inactive (GENOSC_NO_NUMBA set or numba missing); "
              "both columns below run the pure-numpy fallback.")
    rows = []
    for name, work in workloads():
        fast = getattr(_kernels, name.split()[0])
        slow = _kernels._PY_IMPLS[name.split()[0]]
        got_fast = np.asarray(work(fast), dtype=np.float64)
        got_slow = np.asarray(work(slow), dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(got_slow))))
        agree = float(np.max(np.abs(got_fast - got_slow))) / scale
        work(fast)  # ensure compilation happened before timing
        t_fast = best_of(lambda: work(fast))
        t_slow = best_of(lambda: work(slow))
        rows.append((name, t_slow, t_fast, agree))
    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'numpy path':>12}  {'jit path':>12}  "
          f"{'speedup':>8}  {'rel dev':>9}")
    for name, t_slow, t_fast, agree in rows:
        print(f"{name:<{width}}  {t_slow * 1e3:>10.3f}ms  {t_fast * 1e3:>10.3f}ms  "
              f"{t_slow / t_fast:>7.1f}x  {agree:>9.1e}")
        if agree > 1e-12:
            raise SystemExit(f"paths disagree on {name}: {agree}")


if __name__ == "__main__":
    main()
