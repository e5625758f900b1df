"""Desk-scale numerical laboratory for the twisted six-vertex transfer matrix.

Construct the model (R-matrix, twisted monodromy, transfer matrix), solve its
spectral problem both by brute-force diagonalization and by Bethe equations,
and verify the functional equations, determinantal identities, conserved
quantities, and nonlinear ODE/PDE structure carried by that spectrum.
"""

from .model import (ModelParams, ExpSum, r_matrix, verify_ybe,
                    monodromy_blocks, transfer, yba_exchange_residual,
                    sector_indices)
from .spectrum import (DegenerateSpectrum, EigenSystem, sample_sectors,
                       diagonalize_blocks, diagonalize_sector,
                       polynomial_residuals, polynomiality_check,
                       left_vector_from_C)
from .functional import (coefficients_m, extended_matrix,
                         compatibility_residual, nonlinear_eq_n1_residual,
                         nonlinear_eq_n2_residual, f_n, linear_relation_residual,
                         v_matrix, transport, transport_loop, tilde_v_det,
                         tilde_v_spread, theta_generator, theta_conservation,
                         conserved_n1, conserved_n1_closed_form, SingularTransport)
from .bethe import (BetheRoots, bae_residual, bae_relative_residual, solve_bae,
                    eigenvalue_from_roots, RootEigenvalue, CothSum,
                    match_spectrum, canonical_roots, PolePoint)
from .odes import (upsilon_annihilation, riccati_h_residual,
                   riccati_lambda_residual, sigma1_residual, sigma2_residual,
                   riccati2_residual, pde_travelling_wave_residual, potential_v,
                   potential_profile, schrodinger_map_residual,
                   omega0_power_deviation, omega0_sector_deviations)
from .reports import RunConfig, VerificationReport, ConfigError

__version__ = "0.1.0"
