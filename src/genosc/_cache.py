"""Tables built once per key: LRU caches bounded by the bytes they hold.

A table that depends only on its arguments is built on the first call and read
back on every later one. This is the package's one memo; two caches hold them:

- SETUPS: the set-ups of the recurrences behind the bases (specfun's Gamma
  normaliser per Laguerre order, which both Laguerre drivers read, the diagonal
  steps per order and degree, the Jacobi coefficients that the Jacobi rules and
  bases' angular and ring rows share, and the Gamma ratio behind their p_0) and
  specfun's Gauss rules;
- LEVELS: the tables of one oscillator level (interbasis' operator bands, W and
  overlap tables, spheroidal's solve of one R and its solved states); it also
  bounds its number of entries.

A cached function is private and takes positional arguments only, from one
validating caller that hands it canonical values: ints as int, floats as float
(with -0.0 as 0.0 wherever the two would compute different bits), SystemParams
(whose fields are stored as floats and an int) and enum members. Its key is the
function and those arguments themselves, so equal arguments share an entry.

Each cache drops its least recently used entries while it is past a bound: an
entry counts its arrays' data and rows of floats, room in a dataclass for one
cached_property formed later (ortho_dev, weights), and a fixed allowance for its
key and Python objects (_ENTRY_BYTES). A value larger than the budget is
returned but not kept. Arrays in a value are made read-only before it is
returned, cached or not.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict, namedtuple
from functools import wraps

import numpy as np

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")

# An entry counts the bytes of its arrays' data, _ARRAY_BYTES for each array's
# header and _ENTRY_BYTES for the key, the Python objects around the arrays and
# the map's own bookkeeping: above what they hold for every table cached here.
_ARRAY_BYTES = 128
_FLOAT_BYTES = 24
_ENTRY_BYTES = 1024


class ByteLRU:
    """LRU map whose entries hold at most `budget` bytes together, and number at
    most `max_entries` when that is given."""

    def __init__(self, budget: int, max_entries: int | None = None):
        self.budget, self.max_entries = budget, max_entries
        self.nbytes = 0
        self.entries: OrderedDict = OrderedDict()   # key -> (value, bytes)
        self.lock = threading.Lock()

    def store(self, key, value, size: int) -> None:
        """Hold value under key as size bytes unless that alone passes the budget,
        then drop the least recently used entries until the cache is within its bounds."""
        if size > self.budget:
            return
        entries = self.entries
        with self.lock:
            if key in entries:   # stored by another thread meanwhile
                return
            entries[key] = (value, size)
            self.nbytes += size
            most = self.max_entries or len(entries)
            while self.nbytes > self.budget or len(entries) > most:
                self.nbytes -= entries.popitem(last=False)[1][1]

    def discard(self, owner) -> None:
        """Drop the entries whose key starts with owner."""
        with self.lock:
            for key in [k for k in self.entries if k[0] is owner]:
                self.nbytes -= self.entries.pop(key)[1]


# Budgets. SETUPS keeps verify's 58 set-ups and 33 Gauss rules (119 kB) resident beside
# the churn of fresh orders: 256 kB for set-ups and 256 small rules' 1.5 kB each. LEVELS
# holds an n = 300 level's solve and W table (0.7 MB each) beside some of its states; its
# entry bound keeps what levels of fresh parameters leave resident, a few kB each, to 64.
SETUPS = ByteLRU(640 * 1024)
LEVELS = ByteLRU(2 * 1024 * 1024, max_entries=64)
CACHES = {"setups": SETUPS, "levels": LEVELS}
_TABLES = []   # every cached function


def clear() -> None:
    """Empty every cache and reset every cached function's counts."""
    for table in _TABLES:
        table.cache_clear()


def _seal(value) -> int:
    """Make every array in value (a tuple or dataclass is searched) read-only;
    return the bytes those arrays hold, each with the data of the array it views,
    plus those of any rows of floats (see below)."""
    kind = type(value)
    if kind is np.ndarray:
        value.setflags(write=False)
        base = value
        while isinstance(base.base, np.ndarray):
            base = base.base
        return _ARRAY_BYTES + base.nbytes
    if kind is tuple:
        row = value[0] if value else None
        if type(row) is tuple and row and type(row[0]) is float:
            # a set-up's steps: rows of floats, all alike, counted from the first
            return sys.getsizeof(value) + len(value) * (sys.getsizeof(row)
                                                         + len(row) * _FLOAT_BYTES)
        return sum(map(_seal, value))
    if kind is float or kind is int or kind is str:
        return 0
    if hasattr(kind, "__dataclass_fields__"):
        held = vars(value).values()
        # room for a cached_property formed later: a float per row of the largest array
        rows = max([len(v) for v in held if type(v) is np.ndarray and v.ndim], default=0)
        return sum(map(_seal, held)) + _ARRAY_BYTES + 8 * rows
    return 0


def cached(cache: ByteLRU):
    """Decorator: call fn(*args) once per key (fn, *args) and keep the result in cache.
    The wrapper's cache_info() and cache_clear() cover fn's entries."""
    entries, lock = cache.entries, cache.lock

    def decorate(fn):
        counts = [0, 0]   # hits, misses

        @wraps(fn)
        def wrapper(*args):
            key = (fn, *args)
            # every use of entries holds the lock: a key hashes and compares in Python
            # (SystemParams, enum members), so another thread can run in the middle of a
            # lookup, and OrderedDict's move_to_end is not safe against a change meanwhile
            with lock:
                entry = entries.get(key)
                if entry is not None:
                    entries.move_to_end(key)
                counts[entry is None] += 1
            if entry is not None:
                return entry[0]
            value = fn(*args)
            cache.store(key, value, _ENTRY_BYTES + _seal(value))
            return value

        def cache_info() -> CacheInfo:
            with lock:
                held = sum(key[0] is fn for key in entries)
            return CacheInfo(counts[0], counts[1], held)

        def cache_clear() -> None:
            cache.discard(fn)
            counts[:] = [0, 0]

        wrapper.cache_info, wrapper.cache_clear = cache_info, cache_clear
        _TABLES.append(wrapper)
        return wrapper
    return decorate
