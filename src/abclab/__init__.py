"""Finite-difference laboratory for wave equations with acoustic, dynamical
and neutral boundary conditions, verified against brute-force linear algebra."""

__version__ = "0.1.0"

from .blockops import BlockSystem, assemble_block_generator, initial_state, \
    reduced_generator, restriction_A0
from .dynamics import Trajectory, energy, propagator, robin_comparison, simulate, \
    trajectory_consistency
from .errors import (AbclabError, AssumptionError, ConfigurationError,
                     DimensionError, ModelError, NumericalError, PhysicsError,
                     SpectralParameterError)
from .expressions import eval_coeff_expr, parse_expr
from .mesh import Mesh, build_interval_mesh, build_strip_mesh, inner_product
from .model import (CoefficientSet, ModelOperators, apply_neutral_transform,
                    assemble_biharmonic_operator, assemble_wave_operator,
                    check_assumptions, default_boundary_laplacian,
                    neutral_form_matrix, sample_coefficients)
from .reporting import VerificationReport
from .resolvent import (PencilEvaluator, block_dirichlet, dirichlet_operator,
                        factorization_check, gamma_membership, identity_LD,
                        pencil, pencil_derivative, pencil_via_blocks,
                        resolvent_A0_block, resolvent_Acal)
from .scenario import (ScenarioConfig, build_system, initial_state_from_config,
                       load_config, parse_config, serialize_config)
from .spectral import (SpectrumMatch, SpectrumReport, characteristic_value,
                       compact_resolvent_diagnostic, count_roots_in_box,
                       direct_spectrum, essential_range,
                       essential_spectrum_proxy, gamma_members, log_derivative,
                       match_spectra, pencil_roots, special_case_spectrum)

__all__ = [name for name in dir() if not name.startswith("_")]
