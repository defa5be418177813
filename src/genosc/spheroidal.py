"""Spheroidal separation constants and eigencoefficients at a fixed level.

Inside one degenerate oscillator level the spheroidal separation operator
acts as a symmetric tridiagonal matrix on either the cylindrical or the
spherical expansion coefficients. Its eigenvalues lambda_k(R) interpolate
between the spherical constants A_k as R -> 0 and (R^2/2) E_z(k) as
R -> infinity; the eigenvectors are the expansion tables U (cylindrical)
and T (spherical) of the spheroidal states.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._cache import LEVELS, cached
from .bases import _HALF_PI, _cylindrical_terms, _inside, _spherical_terms, _with_phase
from .errors import (DomainError, NumericError, _require_member, _require_type, check_level_index,
                     check_points, check_positive, require_points)
# re-exported: spheroidal._RESIDUAL_FACTOR names the eigensolve contract's factor
from .interbasis import (_RESIDUAL_FACTOR, _check_residual, _m_bands,  # noqa: F401
                         _n_bands, _residual_bound, _w_table)
from .model import (Branch, SystemParams, _a_q, _e_z, _exponents, require_admissible,
                    require_label_m)
from .specfun import _dense, _lapack

_SIGN_PIVOT_TOL = 1e-12


class Kind(enum.Enum):
    """Spheroidal coordinate family; oblate negates every R^2 term."""

    Prolate = "prolate"
    Oblate = "oblate"
    __hash__ = object.__hash__   # members are singletons: a table key hashes them in C

    @property
    def sign(self) -> float:
        return 1.0 if self is Kind.Prolate else -1.0


class Route(enum.Enum):
    """Expansion basis used to synthesize a spheroidal wavefunction."""

    ViaSpherical = "spherical"
    ViaCylindrical = "cylindrical"


@dataclass(frozen=True, eq=False)
class SpheroidalPoint:
    """Point (xi, eta, phi), or a batch of points as three equal-shape arrays.

    Needs finite xi >= 0, -1 <= eta <= 1 and 0 <= phi < 2 pi at every point;
    the prolate sheet additionally needs xi >= 1. Array fields are stored as
    read-only float arrays, scalars as numpy floats. A DomainError about a
    batch names the index of its first bad point. Points compare and hash by
    identity, as arrays cannot be compared to one truth value.
    """

    xi: float | np.ndarray
    eta: float | np.ndarray
    phi: float | np.ndarray

    def __post_init__(self) -> None:
        xi, eta, phi = coords = [check_points(getattr(self, n), n) for n in ("xi", "eta", "phi")]
        if not xi.shape == eta.shape == phi.shape:
            raise DomainError(f"xi, eta and phi need equal shapes, got "
                              f"{xi.shape}, {eta.shape}, {phi.shape}")
        require_points((xi >= 0.0) & np.isfinite(xi), "need xi >= 0", xi)
        require_points((-1.0 <= eta) & (eta <= 1.0), "need -1 <= eta <= 1", eta)
        require_points((0.0 <= phi) & (phi < 2.0 * math.pi), "need 0 <= phi < 2 pi", phi)
        for name, arr in zip(("xi", "eta", "phi"), coords):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr[()])   # a 0-d array as its numpy scalar


@dataclass(frozen=True)
class TridiagonalSystem:
    """Separation operator restricted to one level, in one basis."""

    diag: np.ndarray
    offdiag: np.ndarray
    basis: str
    kind: Kind
    R: float

    @property
    def n(self) -> int:
        """The level: diag's size less one, DomainError for bands _checked_bands refuses."""
        return _checked_bands(self)[0].size - 1

    def dense(self) -> np.ndarray:
        return _dense(*_checked_bands(self))


def _checked_bands(system: TridiagonalSystem) -> tuple[np.ndarray, np.ndarray]:
    """The system's bands as 1-D float64 arrays of n + 1 >= 1 and n entries, read by
    check_points (a float64 array as it is, a list as an array; a string, complex value
    or None refused naming its band); DomainError names the shapes of bands that do not
    make a tridiagonal matrix. Non-finite entries pass, for the eigensolve to refuse."""
    diag, off = check_points(system.diag, "diag"), check_points(system.offdiag, "offdiag")
    if not (diag.ndim == off.ndim == 1 and off.size == diag.size - 1):
        raise DomainError(f"a tridiagonal system needs bands of shapes (n + 1,) and (n,), "
                          f"got diag {diag.shape} and offdiag {off.shape}")
    return diag, off


@dataclass(frozen=True)
class SpheroidalSolution:
    """Ascending eigenvalues with orthonormal, sign-fixed column vectors."""

    n: int
    basis: str
    kind: Kind
    R: float
    lam: np.ndarray
    vectors: np.ndarray


def _u_bands(n: int, params: SystemParams, branch: Branch, kind: Kind,
             R: float) -> tuple[np.ndarray, np.ndarray]:
    """Bands of 2 m_matrix_cyl + sign (R^2/2) diag(E_z(p)) at one R; an
    overflowed entry is left to fail the eigensolve."""
    _require_member(kind, Kind, "spheroidal kind")
    diag, offdiag = _m_bands(n, params, branch)
    with np.errstate(over="ignore"):
        e_z = _e_z(np.arange(n + 1.0), params, branch)
        return 2.0 * diag + kind.sign * 0.5 * R * R * e_z, 2.0 * offdiag


def _t_bands(n: int, params: SystemParams, branch: Branch, kind: Kind,
             radii) -> tuple[np.ndarray, np.ndarray]:
    """Bands of diag(A_q) + sign (R^2/2) n_matrix_sph at one R, or one row per R
    of an array; an overflowed entry is left to fail the eigensolve."""
    _require_member(kind, Kind, "spheroidal kind")
    n_diag, n_off = _n_bands(n, params, branch)
    with np.errstate(over="ignore", invalid="ignore"):
        a_q = _a_q(np.arange(n + 1.0), params, branch)
        scale = np.asarray(kind.sign * 0.5 * radii * radii)[..., None]
        return a_q + scale * n_diag, scale * n_off


def _system(bands, basis: str, n: int, params: SystemParams, branch: Branch, R: float,
            kind: Kind) -> TridiagonalSystem:
    """Validate the arguments, then wrap bands(n, params, branch, kind, R) as a
    read-only system."""
    n, _ = check_level_index(n, 0)
    require_admissible(params, branch)
    R = check_positive(R, "R")
    diag, offdiag = bands(n, params, branch, kind, R)
    diag.flags.writeable = False
    offdiag.flags.writeable = False
    return TridiagonalSystem(diag=diag, offdiag=offdiag, basis=basis, kind=kind, R=R)


def build_tridiag_u(n: int, params: SystemParams, branch: Branch, R: float,
                    kind: Kind) -> TridiagonalSystem:
    """Cylindrical-side system 2 m_matrix_cyl + sign (R^2/2) diag(E_z(p))."""
    return _system(_u_bands, "cylindrical", n, params, branch, R, kind)


def build_tridiag_t(n: int, params: SystemParams, branch: Branch, R: float,
                    kind: Kind) -> TridiagonalSystem:
    """Spherical-side system diag(A_q) + sign (R^2/2) n_matrix_sph."""
    return _system(_t_bands, "spherical", n, params, branch, R, kind)


def _solve(diag: np.ndarray, off: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenpairs (ascending) of the symmetric tridiagonal matrix with
    bands diag/off under the eigen residual contract; label names the problem."""
    lam, vec = _lapack(np.linalg.eigh, diag, off, label)
    _check_residual(diag, off, vec, lam, label)
    return lam, vec


def _pivot(column: np.ndarray, k: int):
    """The component whose sign fixes a column's: component k, or the
    largest-magnitude component when component k is numerically zero."""
    pivot = column[k]
    if abs(pivot) < _SIGN_PIVOT_TOL:
        pivot = column[np.abs(column).argmax()]
    return pivot


def eigensolve(system: TridiagonalSystem) -> SpheroidalSolution:
    """Eigenvalues and sign-fixed orthonormal eigenvectors of the system.

    Solved by LAPACK (numpy.linalg.eigh) on the dense matrix.
    Sign convention: component k of column k nonnegative, falling back to the
    largest-magnitude component when component k is numerically zero.
    DomainError unless system is a TridiagonalSystem whose bands are real numbers of
    n + 1 >= 1 and n entries (see _checked_bands).
    """
    _require_type(system, TridiagonalSystem, "system")
    diag, off = _checked_bands(system)
    n = diag.size - 1
    lam, vec = _solve(diag, off, f"n={n}")
    pivots = vec.diagonal()
    if np.count_nonzero(np.abs(pivots) < _SIGN_PIVOT_TOL):
        pivots = np.array([_pivot(vec[:, k], k) for k in range(n + 1)])
    # every pivot is nonzero, so x * copysign(1, pivot) is x, or -x bit for bit
    vec *= np.copysign(1.0, pivots)
    lam.flags.writeable = False
    vec.flags.writeable = False
    return SpheroidalSolution(n=n, basis=system.basis, kind=system.kind,
                              R=system.R, lam=lam, vectors=vec)


@cached(LEVELS)
def _level_solve(n: int, params: SystemParams, branch: Branch, R: float,
                 kind: Kind) -> tuple[np.ndarray, np.ndarray]:
    """One _solve of the bands build_tridiag_t reads at validated n and R, shared
    by every state k of the level; built once per (n, params, branch, R, kind)."""
    return _solve(*_t_bands(n, params, branch, kind, R), f"n={n}")


@cached(LEVELS)
def _pair_columns(n: int, k: int, params: SystemParams, branch: Branch, R: float,
                  kind: Kind) -> tuple[np.ndarray, np.ndarray]:
    """Solve-once state: columns (U, T) of state k, read-only, with one global
    sign; cached per (n, k, params, branch, R, kind), n, k and R validated.

    T is column k of the level's one solve (_level_solve); U = W T (from
    T = W^T U, W orthogonal) is held to the eigen residual contract of the
    bands build_tridiag_u reads, in O(n). The sign is decided once, for the
    pair: eigensolve's _pivot rule on whichever column has the larger
    |component k|, which stays sharp toward its column's limit end.
    """
    lam, vec = _level_solve(n, params, branch, R, kind)
    t = vec[:, k]
    u = np.einsum("pq,q->p", _w_table(n, params, branch).entries, t)
    _check_residual(*_u_bands(n, params, branch, kind, R), u[:, None], lam[k:k + 1],
                    f"cylindrical coefficients at n={n}, k={k}")
    if _pivot(u if abs(u[k]) > abs(t[k]) else t, k) < 0.0:
        return -u, -t
    return u, t.copy()   # the cache holds the column, not the whole solution


def _solved_pair(n: int, k: int, params: SystemParams, branch: Branch, R: float,
                 kind: Kind) -> tuple[np.ndarray, np.ndarray]:
    """Validate the arguments into a canonical cache key, then read the state."""
    n, k = check_level_index(n, k)
    return _pair_columns(n, k, params, branch, check_positive(R, "R"), kind)


def u_coefficients(n: int, k: int, params: SystemParams, branch: Branch, R: float,
                   kind: Kind) -> np.ndarray:
    """Column k of the cylindrical-side eigensolution: Psi_k = sum_p U^p Psi_cyl(p).

    Formed as U = W T from the state's one spherical-side solve, so that
    T^q = sum_p U^p W_np^q holds with one global sign, and checked against
    the cylindrical-side residual contract. The array is read-only and
    shared between calls.
    """
    return _solved_pair(n, k, params, branch, R, kind)[0]


def t_coefficients(n: int, k: int, params: SystemParams, branch: Branch, R: float,
                   kind: Kind) -> np.ndarray:
    """Column k of the spherical-side eigensolution: Psi_k = sum_q T^q Psi_sph(q).

    Column k of the state's one solve of the bands build_tridiag_t reads,
    with the pair's sign (see _pair_columns); shared with u_coefficients.
    """
    return _solved_pair(n, k, params, branch, R, kind)[1]


# Entries per stacked LAPACK call in lambda_grid (8 MB of matrices), so that
# any grid the CLI accepts is solved in bounded memory.
_GRID_CHUNK_ENTRIES = 1 << 20
# Smallest LDL^T pivot magnitude in a Sturm count, times max(1, max e^2), as in
# LAPACK dstebz; bands with an off-diagonal entry past 2^500 are scaled first.
_PIVMIN = np.finfo(float).tiny
_COUNT_SCALE_AT = 2.0 ** 500


def _radius_grid(R_grid) -> np.ndarray:
    """R_grid as a float array; DomainError unless it is a nonempty 1-D sequence."""
    grid = check_points(R_grid, "R grid")
    if grid.ndim != 1 or not grid.size or not np.all((grid > 0.0) & np.isfinite(grid)):
        raise DomainError("R grid must be a nonempty one-dimensional sequence of "
                          "positive finite numbers")
    return grid


def _sturm_counts(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues below each shift x of the symmetric tridiagonal matrices with
    bands diag (rows, n+1) and off (rows, n), shifts (rows, s): the number of
    negative pivots of the LDL^T factorisation of T - x I (Sylvester inertia;
    Barth, Martin and Wilkinson 1967), formed as in LAPACK dstebz: pivot_j =
    (d_j - e_{j-1}^2 / pivot_{j-1}) - x, and a pivot of magnitude at most pivmin =
    tiny max(1, max e^2) (here over the whole stack) becomes -pivmin, so no step
    divides by zero. Bands past _COUNT_SCALE_AT (large R), whose e^2 could
    overflow, are first scaled with their shifts by a power of two per matrix to
    a largest entry below 1, which keeps every pivot's sign."""
    if np.abs(off).max(initial=0.0) > _COUNT_SCALE_AT:
        top = np.maximum(np.abs(diag).max(axis=-1), np.abs(off).max(axis=-1))
        unit = np.ldexp(1.0, -np.frexp(top)[1])[:, None]
        diag, off, shifts = diag * unit, off * unit, shifts * unit
    e2 = off * off
    pivmin = _PIVMIN * max(1.0, e2.max(initial=0.0))
    d_cols, e2_cols = diag.T[:, :, None], e2.T[:, :, None]   # column j: (rows, 1)
    pivot = d_cols[0] - shifts
    magnitude = np.empty_like(shifts)
    negative = np.empty((diag.shape[-1],) + shifts.shape, dtype=bool)
    for j in range(diag.shape[-1]):
        if j:
            np.divide(e2_cols[j - 1], pivot, out=pivot)
            np.subtract(d_cols[j], pivot, out=pivot)
            np.subtract(pivot, shifts, out=pivot)
        if np.minimum.reduce(np.abs(pivot, out=magnitude), axis=None) <= pivmin:
            pivot[magnitude <= pivmin] = -pivmin
        np.signbit(pivot, out=negative[j])
    return np.count_nonzero(negative, axis=0)


def _certified(diag: np.ndarray, off: np.ndarray, what) -> np.ndarray:
    """Ascending eigenvalues of stacked symmetric tridiagonal bands by LAPACK
    (numpy.linalg.eigvalsh), each certified by Sturm counts: with delta the eigen
    residual contract's bound for its matrix (interbasis._residual_bound), lambda_k
    must have at most k eigenvalues below lambda_k - delta and at least k + 1 below
    lambda_k + delta, so the k-th eigenvalue lies within delta of it. A miss raises
    NumericError naming what(i) for the failing row i; what(None) names the stack."""
    lam = _lapack(np.linalg.eigvalsh, diag, off, what(None))
    size = diag.shape[-1]
    delta = _residual_bound(size, diag, off)[:, None]
    with np.errstate(over="ignore"):   # a shift past a double is +-inf: the bracket holds
        shifts = np.concatenate((lam - delta, lam + delta), axis=-1)
    counts = _sturm_counts(diag, off, shifts)
    k = np.arange(size)
    bracketed = (counts[:, :size] <= k) & (counts[:, size:] > k)
    if not bracketed.all():
        row, k = np.unravel_index(np.argmin(bracketed), bracketed.shape)
        raise NumericError(f"Sturm count does not bracket lambda_{k} within "
                           f"{delta[row, 0]:.3e} for {what(row)}")
    return lam


def lambda_grid(n: int, params: SystemParams, branch: Branch, kind: Kind,
                R_grid) -> np.ndarray:
    """All separation constants lambda_0..lambda_n at every R of a grid.

    Row i holds the ascending eigenvalues of build_tridiag_t(n, ..., R_grid[i],
    kind) = diag(A_q) + sign (R^2/2) n_matrix_sph, from the same bands (N's
    built once per level), by stacked LAPACK eigenvalue-only calls
    (numpy.linalg.eigvalsh): row i equals np.linalg.eigvalsh of that system's
    dense matrix bit for bit. No eigenvectors are formed. Instead every value is
    certified by Sturm counts on the bands: lambda_k is the k-th eigenvalue to
    within delta = _RESIDUAL_FACTOR (n+1) max(max|d|, max|e|, 1), the eigen
    residual contract's bound for that R; a miss raises NumericError naming n
    and R.
    """
    n, _ = check_level_index(n, 0)
    grid = _radius_grid(R_grid)
    diag, off = _t_bands(n, params, branch, kind, grid)
    chunk = max(1, _GRID_CHUNK_ENTRIES // ((n + 1) * (n + 1)))
    lam = np.empty_like(diag)

    def what(i):   # i indexes the chunk starting at lo
        return f"lambda grid at n={n}" + ("" if i is None else f", R={grid[lo + i]:g}")

    for lo in range(0, grid.size, chunk):
        lam[lo:lo + chunk] = _certified(diag[lo:lo + chunk], off[lo:lo + chunk], what)
    return lam


def _image(point: SpheroidalPoint, R: float, kind: Kind):
    """R checked, and (rho, phi, z, r) of the point: arrays of its shape, numpy scalars for
    a scalar point. A huge xi overflows rho and r to inf, for callers to refuse. DomainError
    unless point is a SpheroidalPoint."""
    _require_type(point, SpheroidalPoint, "point")
    R = check_positive(R, "R")
    _require_member(kind, Kind, "spheroidal kind")
    xi, eta, phi = point.xi, point.eta, point.phi
    if kind is Kind.Prolate:
        require_points(xi >= 1.0, "prolate sheet needs xi >= 1", xi)
    with np.errstate(over="ignore"):
        radial2 = xi * xi - 1.0 if kind is Kind.Prolate else xi * xi + 1.0
        rho = 0.5 * R * np.sqrt(radial2 * (1.0 - eta * eta))
        z = 0.5 * R * xi * eta
        r = np.hypot(rho, z)
    return R, (rho, phi, z, r)


def map_spheroidal_point(point: SpheroidalPoint, R: float, kind: Kind):
    """Cartesian, spherical and cylindrical images of a spheroidal point.

    Prolate: rho = (R/2) sqrt((xi^2-1)(1-eta^2)), z = (R/2) xi eta; the
    oblate sheet replaces xi^2-1 by xi^2+1 and admits xi >= 0. Maps a batch
    elementwise into arrays of its shape; a scalar point gets Python floats.
    DomainError where rho, z or r overflows (a huge xi or R).
    """
    _, (rho, phi, z, r) = _image(point, R, kind)
    require_points(r < math.inf, "point maps to a non-finite rho, z or r")   # r = |(rho, z)| >= 0
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    images = (x, y, z), (r, np.arctan2(rho, z), phi), (rho, phi, z)
    if np.ndim(point.xi):
        return images
    return tuple(tuple(float(v) for v in image) for image in images)


def psi_spheroidal(n: int, k: int, m: int, params: SystemParams, branch: Branch,
                   R: float, kind: Kind, point: SpheroidalPoint,
                   route: Route):
    """Spheroidal wavefunction Psi_k = sum_q T^q Psi_sph(q) = sum_p U^p Psi_cyl(p).

    All n+1 terms of the level are evaluated at once over every point (by the term
    builder of bases.spherical_level or bases.cylindrical_level), then contracted
    with the coefficient column and given the phase e^{i m phi} / sqrt(2 pi).
    Returns a complex for a scalar point and a complex array of the point's
    shape for a batch; a batch and one-point calls give identical values.

    Evaluable on the z > 0 half-domain only, where the one-dimensional basis
    factors are defined. A point whose image has a non-finite rho, z or r
    raises DomainError on either route; past the far tail of the Gaussians a
    term is exactly 0. The call is checked once, here: the state is read at the
    checked n, k and R, and the image and phi go on to the builder unparsed.
    """
    n, k = check_level_index(n, k)
    require_label_m(m, params)
    _require_member(route, Route, "synthesis route")
    R, (rho, phi, z, r) = _image(point, R, kind)
    require_points(z > 0.0, "synthesis point must map into the z > 0 half-domain")
    require_points(r < math.inf, "synthesis point maps to a non-finite rho, z or r")
    beta, c = _exponents(params, branch)
    u, t = _pair_columns(n, k, params, branch, R, kind)
    # r >= z > 0, all finite: of the level's rules only theta's and rho's can still fail
    if route is Route.ViaSpherical:
        coeff, theta = t, _inside(np.arctan2(rho, z), "theta", _HALF_PI)
        terms = _spherical_terms(n, beta, c, params.omega, r, theta)
    else:
        coeff, terms = u, _cylindrical_terms(n, beta, c, params.omega, _inside(rho, "rho"), z)
    # summed term by term, so that no point's value depends on the batch size
    amp = coeff[0] * terms[0]
    for weight, term in zip(coeff[1:], terms[1:]):
        amp = amp + weight * term
    return _with_phase(amp, m, phi, checked=True)
