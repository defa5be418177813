"""Quantum generalized three-dimensional oscillator toolkit.

Eigenbases in spherical and cylindrical coordinates, interbasis expansion
coefficients, spheroidal separation constants with perturbation series, and
the bound Morse system realized as the axial degree of freedom.
"""

from .bases import (psi_cylindrical, psi_spherical, radial_cylindrical,
                    radial_spherical, spherical_harmonic_limit, theta_angular,
                    theta_ring, z_axial)
from .errors import AccuracyError, DomainError, NumericError
from .interbasis import (CoefficientMatrix, m_matrix_cyl, n_matrix_sph,
                         ring_w, w_coefficient, w_matrix)
from .model import (Branch, CylindricalLabel, RingLabel, SphericalLabel,
                    SystemParams, admissible_branches, channel_constants,
                    energy_cylindrical_parts, energy_level, enumerate_level,
                    require_admissible, ring_energy, ring_relabel,
                    ring_separation_constant, separation_constant_A)
from .morse import (EffectiveChannel, MorseParams, bound_state_count,
                    morse_norms, morse_spectrum, morse_wavefunction,
                    quadrature_norm, sw_to_morse)
from .oracles import (SUITE_MANIFEST, CheckReport, GramFamily,
                      bi_orthogonality, bi_orthogonality_hypergeometric,
                      gram_matrix, run_verification_suite, w_overlap_oracle)
from .perturbation import (Regime, SeriesExpansion, large_r_series,
                           small_r_series, wavefunction_correction)
from .spheroidal import (Kind, Route, SpheroidalPoint, SpheroidalSolution,
                         TridiagonalSystem, build_tridiag_t, build_tridiag_u,
                         eigensolve, lambda_grid,
                         map_spheroidal_point, psi_spheroidal, t_coefficients,
                         u_coefficients)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "Branch", "CheckReport", "CoefficientMatrix",
    "CylindricalLabel", "DomainError", "EffectiveChannel", "GramFamily",
    "Kind", "MorseParams", "NumericError", "Regime", "RingLabel", "Route",
    "SUITE_MANIFEST", "SeriesExpansion", "SphericalLabel", "SpheroidalPoint",
    "SpheroidalSolution", "SystemParams", "TridiagonalSystem",
    "admissible_branches", "bi_orthogonality",
    "bi_orthogonality_hypergeometric", "bound_state_count",
    "build_tridiag_t", "build_tridiag_u", "channel_constants",
    "energy_cylindrical_parts", "energy_level", "enumerate_level",
    "eigensolve", "gram_matrix", "lambda_grid", "large_r_series",
    "m_matrix_cyl", "map_spheroidal_point", "morse_norms", "morse_spectrum",
    "morse_wavefunction", "n_matrix_sph", "psi_cylindrical", "psi_spherical",
    "psi_spheroidal", "quadrature_norm", "radial_cylindrical",
    "radial_spherical", "require_admissible", "ring_energy", "ring_relabel",
    "ring_separation_constant", "ring_w", "run_verification_suite",
    "separation_constant_A", "small_r_series", "spherical_harmonic_limit",
    "sw_to_morse", "t_coefficients", "theta_angular", "theta_ring",
    "u_coefficients", "w_coefficient", "w_matrix",
    "w_overlap_oracle", "wavefunction_correction", "z_axial",
]
