"""Tables built once per key: the byte-bounded caches of genosc._cache."""

import contextlib
import io
import math
import random
import struct
import sys
import threading

import numpy as np
import pytest

from genosc import _cache, bases, cli, interbasis, oracles, specfun, spheroidal
from genosc.model import Branch, SystemParams, admissible_branches
from genosc.morse import MorseParams
from genosc.oracles import GramFamily, gram_matrix, run_verification_suite
from genosc.spheroidal import (Kind, Route, SpheroidalPoint, psi_spheroidal, t_coefficients,
                               u_coefficients)

BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)   # b=0.3, c=1
SETS = [SystemParams(1.0, 0.05, 0.5, 1), SystemParams(1.0, 2.0, 3.0, 0),
        SystemParams(2.0, 0.1, 0.0, 2), BOTH]

SETUP_TABLES = (specfun._order_norm0, specfun._diagonal_steps, specfun._jacobi_coeffs,
                specfun._gamma_ratio, specfun._gauss_rule)
LEVEL_TABLES = (interbasis._m_bands, interbasis._n_bands, interbasis._w_table,
                interbasis._overlap_table, spheroidal._level_solve, spheroidal._pair_columns,
                oracles._suite_reports)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dataclass_fields__"):
        for item in vars(value).values():
            yield from _arrays(item)


def _deep_bytes(value, seen) -> int:
    """Bytes value holds, each object counted once: a reference for the caches' count."""
    if id(value) in seen or isinstance(value, (type, Branch, Kind)) or callable(value):
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, np.ndarray) and value.base is not None:
        size += _deep_bytes(value.base, seen)
    elif isinstance(value, (tuple, list)):
        size += sum(_deep_bytes(item, seen) for item in value)
    elif hasattr(value, "__dataclass_fields__"):
        size += _deep_bytes(vars(value), seen)
    elif isinstance(value, dict):   # an instance's attributes; their names are shared
        size += sum(_deep_bytes(v, seen) for v in value.values())
    return size


def _bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def _states():
    for params in SETS:
        for branch in admissible_branches(params):
            for n in (0, 3, 9):
                for R in (0.3, 2.5):
                    for kind in (Kind.Prolate, Kind.Oblate):
                        yield n, params, branch, R, kind


def test_one_level_table_per_key_for_every_state_kind_and_command(monkeypatch, fresh_tables):
    # every k at one R reads one solve; both kinds and every R read one W table and one
    # set of M bands; perturb builds its level's N bands once and reads them twice (its
    # small-R series, then one stacked build of its four probe systems)
    solve, recursion = spheroidal._solve, interbasis._recursion_columns
    solves, recursions = [], []
    monkeypatch.setattr(spheroidal, "_solve", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(interbasis, "_recursion_columns",
                        lambda *a: recursions.append(a) or recursion(*a))
    n = 7
    for R in (0.4, 3.0):
        for kind in (Kind.Prolate, Kind.Oblate):
            solves.clear()
            for k in range(n + 1):
                u_coefficients(n, k, BOTH, Branch.Minus, R, kind)
                t_coefficients(n, k, BOTH, Branch.Minus, R, kind)
            assert len(solves) == 1
    assert len(recursions) == 1
    assert interbasis._m_bands.cache_info().misses == 1
    # an n = 300 level's solve and W table (0.7 MB each) stay resident together
    solves.clear()
    recursions.clear()
    for k in range(301):
        u_coefficients(300, k, BOTH, Branch.Plus, 2.0, Kind.Oblate)
    assert (len(solves), len(recursions)) == (1, 1)
    interbasis._n_bands.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["perturb", "--P", "0.3", "--Q", "0.5", "--m", "1", "--n", "6",
                         "--k", "2", "--order", "4"]) == 0
    assert interbasis._n_bands.cache_info() == (1, 1, 1)


def _counting(monkeypatch, module, name):
    """Calls of module.name from here on, one list item each."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_w_matrix_and_every_state_of_a_level_read_one_w_table(monkeypatch, fresh_tables):
    # one recursion for w_matrix and every state of the level at two R and both kinds,
    # whichever comes first; the states never form the table's O(n^3) orthogonality
    recursions = _counting(monkeypatch, interbasis, "_recursion_columns")
    n = 9
    for R in (0.4, 3.0):
        for kind in Kind:
            for k in range(n + 1):
                u_coefficients(n, k, BOTH, Branch.Plus, R, kind)
    assert "ortho_dev" not in vars(interbasis._w_table(n, BOTH, Branch.Plus))
    table = interbasis.w_matrix(n, BOTH, Branch.Plus)
    assert interbasis.w_matrix(n, BOTH, Branch.Plus) is table
    for k in range(n + 1):
        t_coefficients(n, k, BOTH, Branch.Plus, 1.1, Kind.Prolate)
    assert len(recursions) == 1


def test_an_n300_level_keeps_one_w_table_and_one_solve(monkeypatch, fresh_tables):
    # two rounds of w_matrix(300) and all 301 states at one R: the one W table (0.7 MB)
    # and the one solve (0.7 MB) stay resident beside the states
    recursions = _counting(monkeypatch, interbasis, "_recursion_columns")
    solves = _counting(monkeypatch, spheroidal, "_solve")
    for _ in range(2):
        interbasis.w_matrix(300, BOTH, Branch.Plus)
        for k in range(301):
            u_coefficients(300, k, BOTH, Branch.Plus, 2.0, Kind.Oblate)
    assert (len(recursions), len(solves)) == (1, 1)


def test_one_overlap_table_per_level_for_every_entry(fresh_tables):
    # every entry of level 12 read through its own oracle call, then the oracle's table:
    # one O(n^4) build per system, and the entries are the table's own
    n = 12
    for branch in (Branch.Plus, Branch.Minus):
        entries = [[oracles.w_overlap_oracle(n, BOTH, branch)[0][p, q] for q in range(n + 1)]
                   for p in range(n + 1)]
        table, report = oracles.w_overlap_oracle(n, BOTH, branch)
        assert np.array(entries).tobytes() == table.tobytes() and report.passed
    assert interbasis._overlap_table.cache_info() == (2 * (n + 1) ** 2, 2, 2)


def test_one_gamma_ratio_per_theta_gram(monkeypatch, fresh_tables):
    # the Jacobi rule's b_0 and the angular N_0 read one Gamma ratio per fresh (c, beta),
    # which reads the normalisers of c and beta from their cached set-ups (_order_norm0) and
    # runs one _ln_norm0 product, at c + beta + 1; the Gram keeps its bits
    params = SystemParams(1.3, 0.7, 1.1, 1)
    reference = gram_matrix(GramFamily.Theta, 6, params)[0].tobytes()
    _cache.clear()
    calls, ln_norm0 = [], specfun._ln_norm0
    monkeypatch.setattr(specfun, "_ln_norm0", lambda beta: calls.append(beta) or ln_norm0(beta))
    assert gram_matrix(GramFamily.Theta, 6, params)[0].tobytes() == reference
    assert len(calls) == 1
    assert specfun._gamma_ratio.cache_info() == (1, 1, 1)
    assert specfun._order_norm0.cache_info() == (0, 2, 2)


@pytest.mark.parametrize("family", [GramFamily.RadialSph, GramFamily.RadialCyl,
                                    GramFamily.Axial, GramFamily.Morse])
def test_one_laguerre_setup_per_cold_gram(family, fresh_tables):
    # the rule of n_max + 2 points and the rows of n_max degrees share one order's
    # normaliser at every n_max; one keyed by size built it twice at n_max = 7, 8, 15 and
    # 16. A Morse Gram's rows run in laguerre_diagonal, whose order 2 lambda - 1 is a second
    morse = family is GramFamily.Morse
    params = MorseParams(v0=800.0, a=1.0) if morse else SETS[1]
    for n_max in range(2, 17):
        _cache.clear()
        assert gram_matrix(family, n_max, params)[1].passed
        assert specfun._order_norm0.cache_info().misses == 1 + morse, n_max


def test_clear_empties_the_gauss_rules():
    rule = specfun.build_quadrature("laguerre", 9, alpha=0.5)
    assert specfun.build_quadrature("laguerre", 9, alpha=0.5) is rule
    assert specfun.build_quadrature.cache_info().currsize
    _cache.clear()
    assert specfun.build_quadrature.cache_info() == (0, 0, 0)
    fresh = specfun.build_quadrature("laguerre", 9, alpha=0.5)
    assert fresh is not rule and fresh.nodes.tobytes() == rule.nodes.tobytes()


def test_tables_are_bit_identical_cold_and_warm():
    # cold: every table rebuilt for every value; warm: one pass in reverse order that
    # shares every level, solve and set-up it can
    point = SpheroidalPoint(np.array([1.3, 2.2, 1.05]), np.array([0.2, 0.7, 0.95]),
                            np.array([0.1, 2.0, 5.0]))

    def values(n, params, branch, R, kind):
        table = interbasis.w_matrix(n, params, branch)
        out = [table.entries, table.ortho_dev]
        for k in {0, n // 2, n}:
            out += [u_coefficients(n, k, params, branch, R, kind),
                    t_coefficients(n, k, params, branch, R, kind)]
            out += [np.array(psi_spheroidal(n, k, params.m, params, branch, R, kind, point,
                                            route)) for route in Route]
        return [value.tobytes() for value in out]

    cases = list(_states())
    cold = []
    for case in cases:
        _cache.clear()
        cold.append(values(*case))
    _cache.clear()
    cold_suite = [(rep.name, _bits((rep.measured, rep.expected, rep.tolerance)), rep.passed)
                  for rep in run_verification_suite()]
    warm = [values(*case) for case in reversed(cases)][::-1]
    assert cold == warm
    for _ in range(2):
        assert cold_suite == [(rep.name, _bits((rep.measured, rep.expected, rep.tolerance)),
                               rep.passed) for rep in run_verification_suite()]


def test_cached_arrays_are_read_only():
    u_coefficients(5, 2, BOTH, Branch.Plus, 1.1, Kind.Oblate)
    interbasis.w_matrix(5, BOTH, Branch.Plus)
    interbasis.n_matrix_sph(5, BOTH, Branch.Plus)
    run_verification_suite()
    for table in SETUP_TABLES + LEVEL_TABLES:
        assert table.cache_info().currsize, table.__name__
    arrays = [array for cache in _cache.CACHES.values() for value, _ in cache.entries.values()
              for array in _arrays(value)]
    assert len(arrays) > 20
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    # rows of floats are tuples, so they cannot be written either
    # (an order's normaliser is one (r, j) pair, a float and an int)
    assert [type(v) for v in specfun._order_norm0(0.5)] == [float, int]
    rows = specfun._diagonal_steps(9.5, 4)[0]
    assert isinstance(rows, tuple) and len(rows) == 4
    assert all(type(row) is tuple and all(type(v) is float for v in row) for row in rows)


def test_caches_stay_within_their_budgets_at_fresh_orders_and_levels():
    rng = random.Random(26)
    x = np.linspace(0.05, 3.0, 7)
    peak = dict.fromkeys(_cache.CACHES, (0, 0))
    for i in range(2000):
        alpha = rng.uniform(-0.9, 40.0)
        n = rng.randint(0, 60 if i % 50 else 400)
        step = i % 5
        if step == 0:
            specfun.laguerre_functions(range(n + 1), alpha, np.log(x))
        elif step == 1:
            specfun.laguerre_diagonal(range(n + 1), 2.0 * n + alpha, np.log(x))
        elif step == 2:
            bases._angular(range(n + 1), abs(alpha), rng.uniform(-0.5, 3.0), x / 6.0)
        elif step == 3:
            params = SystemParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0),
                                  rng.uniform(0.0, 2.0), rng.randint(-2, 2))
            level = rng.randint(0, 40 if i % 100 else 120)
            u_coefficients(level, rng.randint(0, level), params, Branch.Plus,
                           rng.uniform(0.1, 5.0), Kind.Prolate)
            # forms the cached table's ortho_dev after the table was stored
            interbasis.w_matrix(level, params, Branch.Plus)
        else:
            gram_matrix(GramFamily.Morse, rng.randint(1, 8),
                        MorseParams(v0=0.5 * rng.uniform(12.0, 60.0) ** 2, a=1.0))
            # forms the cached rule's weights after the rule was stored
            specfun.build_quadrature("laguerre", rng.randint(1, 120),
                                     alpha=rng.uniform(-0.9, 40.0)).weights
        for name, cache in _cache.CACHES.items():
            assert cache.nbytes <= cache.budget, (name, i)
            assert len(cache.entries) <= (cache.max_entries or len(cache.entries)), (name, i)
            peak[name] = max(peak[name], (cache.nbytes, len(cache.entries)))
    for name, cache in _cache.CACHES.items():
        # the loop did fill each cache to one of its bounds
        assert peak[name][0] > 0.8 * cache.budget or peak[name][1] == cache.max_entries, name
        sizes = [size for _, size in cache.entries.values()]
        assert cache.nbytes == sum(sizes)
        # each entry's count covers what its key and value hold
        for key, (value, size) in cache.entries.items():
            assert _deep_bytes((key, value), set()) <= size, (name, key[0].__name__)


def test_lru_order_and_oversized_values():
    cache = _cache.ByteLRU(3 * (_cache._ENTRY_BYTES + _cache._ARRAY_BYTES + 80))
    built = []

    @_cache.cached(cache)
    def table(i, size=10):
        built.append(i)
        return np.zeros(size)

    for i in (0, 1, 2, 0, 3):   # 0 is used again before 3 arrives: 1 is dropped
        table(i)
    assert built == [0, 1, 2, 3]
    table(0), table(2), table(3)
    assert built == [0, 1, 2, 3]
    table(1)
    assert built == [0, 1, 2, 3, 1]
    big = table(9, 10 ** 4)   # alone past the budget: returned read-only, not kept
    assert not big.flags.writeable and len(cache.entries) == 3
    assert table.cache_info().currsize == 3 and cache.nbytes <= cache.budget
    table.cache_clear()
    assert not cache.entries and cache.nbytes == 0 and table.cache_info() == (0, 0, 0)


# Twin arguments: equal values of another type or sign, n as a float, an omitted default.
TWIN_PARAMS = [(SystemParams(1, 0, 0, 0), SystemParams(1.0, -0.0, -0.0, 0)),
               (SystemParams(2, 1, 3, 1), SystemParams(2.0, 1.0, 3.0, 1.0))]
LOG_X = np.log([0.02, 0.7, 3.0, 11.0])
THETA = np.array([0.1, 0.6, 1.2])


def _rule_arrays(*args):
    rule = specfun.build_quadrature(*args)
    return rule.nodes, rule.scaled_weights, rule.weights


def _w_arrays(*args):
    table = interbasis.w_matrix(*args)
    return table.entries, table.ortho_dev


def _overlap_entries(*args):
    return oracles.w_overlap_oracle(*args)[0]


def _suite_values():
    return [np.array([rep.measured, rep.expected, rep.tolerance])
            for rep in run_verification_suite()]


def _twin_cases():
    """(table, public call, first twin's arguments, second twin's): each call reaches the
    table through its one validating caller."""
    for a, b in ((1, 1.0), (0.0, -0.0)):
        yield (specfun._order_norm0, specfun.laguerre_functions,
               (range(7), a, LOG_X), (range(7), b, LOG_X))
        yield specfun._gamma_ratio, _rule_arrays, ("jacobi", 6, a, 0.5), ("jacobi", 6.0, b, 0.5)
    for beta, twin, degrees in ((7, 7.0, range(3)), (0.0, -0.0, range(1))):
        yield (specfun._diagonal_steps, specfun.laguerre_diagonal,
               (degrees, beta, LOG_X), (degrees, twin, LOG_X))
    for args in (("laguerre", 6), ("laguerre", 6, 0.0), ("laguerre", 6.0, -0.0),
                 ("legendre", 6, -0.0, 0)):
        yield (specfun._gauss_rule, _rule_arrays, args,
               ("laguerre", 6.0, 0) if args[0] == "laguerre" else ("legendre", 6))
    # the suite takes no argument: its one entry is read back
    yield oracles._suite_reports, _suite_values, (), ()
    for one, other in TWIN_PARAMS:
        for branch in admissible_branches(one):
            yield (specfun._jacobi_coeffs, bases.theta_angular,
                   (6, one, branch, THETA), (6.0, other, branch, THETA))
            for table, call in ((interbasis._m_bands, interbasis.m_matrix_cyl),
                                (interbasis._n_bands, interbasis.n_matrix_sph),
                                (interbasis._w_table, _w_arrays),
                                (interbasis._overlap_table, _overlap_entries)):
                yield table, call, (6, one, branch), (6.0, other, branch)
            for table, call in ((spheroidal._level_solve, t_coefficients),
                                (spheroidal._pair_columns, u_coefficients)):
                yield (table, call, (6, 2, one, branch, 2, Kind.Oblate),
                       (6.0, 2.0, other, branch, 2.0, Kind.Oblate))


def _value_bytes(value) -> bytes:
    return b"".join(np.asarray(array).tobytes() for array in _arrays(value))


def test_twin_arguments_read_one_entry_bit_identical_to_a_cold_build():
    # a cached value never differs from a cold build: build through one twin, empty
    # every other table, read through the other twin (a hit on the first one's entry)
    # and compare with the second twin built cold
    covered = set()
    for table, call, first, second in _twin_cases():
        _cache.clear()
        cold = _value_bytes(call(*second))
        assert cold, table.__name__
        _cache.clear()
        call(*first)
        for other in _cache._TABLES:
            if other is not table:
                other.cache_clear()
        hits = table.cache_info().hits
        assert _value_bytes(call(*second)) == cold, (table.__name__, first, second)
        assert table.cache_info().hits > hits, (table.__name__, first, second)
        covered.add(table)
    assert covered == set(SETUP_TABLES + LEVEL_TABLES)


def test_twin_rules_and_systems_are_one_entry(fresh_tables):
    # the rule is built at its canonical arguments whichever form comes first
    build = specfun.build_quadrature
    rules = [build("laguerre", 6.0, alpha=-0.0), build("laguerre", 6),
             build("laguerre", 6, alpha=0.0)]
    assert rules[0] is rules[1] is rules[2]
    assert build.cache_info() == (2, 1, 1)
    assert type(rules[0].npoints) is int and math.copysign(1.0, rules[0].alpha) == 1.0
    plus, minus = SystemParams(1, 0, 0, 0), SystemParams(1.0, -0.0, -0.0, 0)
    interbasis.m_matrix_cyl(3, plus, Branch.Plus)
    interbasis.m_matrix_cyl(3, minus, Branch.Plus)
    assert interbasis._m_bands.cache_info() == (1, 1, 1)
    # the key is the instance itself: no cached call stores anything on it
    interbasis.w_matrix(3, minus, Branch.Minus)
    u_coefficients(3, 1, plus, Branch.Plus, 1.5, Kind.Prolate)
    for params in (plus, minus):
        assert list(vars(params)) == ["omega", "p_strength", "q_strength", "m"]
        assert [type(v) for v in vars(params).values()] == [float, float, float, int]


def test_cached_lookups_from_threads_match_single_thread_references():
    # 4 threads, 400 rounds each, of keys every thread shares and keys of one thread
    # and round only, through w_matrix, u_coefficients and build_quadrature, with
    # frequent thread switches; each cache's bounds hold under its lock throughout
    shared = [SystemParams(1.0, 0.3, 0.5, 1), SystemParams(1.5, 0.0, 1.0, 0),
              SystemParams(0.8, -0.16, 0.0, 2), SystemParams(1.2, 2.0, 0.2, -1)]

    def round_bytes(thread, i):
        if i % 2:
            params, n = shared[i % 4], 3 + i % 8
        else:
            params, n = SystemParams(1.0 + thread / 8 + i / 8192, 0.3, 0.5, 1), 2 + i % 7
        R = 0.5 + (i % 5) * 0.75
        alpha = 0.5 + i % 3 if i % 2 else thread + i / 1024
        table = interbasis.w_matrix(n, params, Branch.Plus)
        rule = specfun.build_quadrature("laguerre", 4 + i % 9, alpha=alpha)
        return b"".join(array.tobytes() for array in (
            table.entries, table.ortho_dev, rule.nodes, rule.scaled_weights,
            u_coefficients(n, n // 2, params, Branch.Plus, R, Kind.Prolate)))

    threads, rounds = 4, 400
    _cache.clear()
    reference = [[round_bytes(t, i) for i in range(rounds)] for t in range(threads)]
    _cache.clear()
    got, failures = [[] for _ in range(threads)], []

    def run(t):
        try:
            for i in range(rounds):
                got[t].append(round_bytes(t, i))
                for name, cache in _cache.CACHES.items():
                    with cache.lock:
                        within = (cache.nbytes <= cache.budget and len(cache.entries)
                                  <= (cache.max_entries or len(cache.entries)))
                    if not within:
                        failures.append((name, t, i))
        except Exception as exc:   # reported below, with the thread and round
            failures.append((t, len(got[t]), repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(t,)) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert got == reference
