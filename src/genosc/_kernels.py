"""Retired module: genosc runs one plain Python/numpy path.

The special-function kernels live in specfun and the Racah sum in
interbasis. Only the flag below is left.
"""

# Read by perfbench/run.py (environment()) and by nothing else; drop it
# together with that read.
USE_NUMBA = False
