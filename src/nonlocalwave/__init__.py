"""Spectral-Galerkin machinery for second-order non-autonomous evolution
equations with damping and nonlocal initial conditions."""

from .errors import (CertificationError, ConfigurationError, ExpressionError,
                     NonconvergenceError, PropagationError)
from .expressions import Expression, as_expression, parse_expression
from .spectral import (SpatialDomain, SpectralBasis, Trajectory, build_basis,
                       interval, norms, project, rectangle, zero_trajectory)
from .forms import (CoefficientField, FormCertificate, FormSpec,
                    KernelConstants, assemble, assemble_damping,
                    block_operator, certify, certify_operator,
                    coefficient_field, kernel_lipschitz, stiffness_supplier,
                    damping_supplier)
from .propagator import (AxiomReport, BlockOperator, FundamentalSolution,
                         adjoint_check, adjoint_defect, check_axioms,
                         damped_operator, dump_fs, fundamental_solution,
                         load_fs, propagate, reversed_operator,
                         undamped_operator)
from .voc import LinearProblem, direct_integrate, residual, solve
from .fixedpoint import (ConvergenceTable, FixedPointReport, NonlocalKernel,
                         NonlocalProblem, Nonlinearity, SolveConfig,
                         apply_kernel, contraction_solve, galerkin_refine,
                         gronwall_radius, linear_nonlinearity,
                         nonlocal_kernel, pointwise_nonlinearity,
                         relaxed_solve, superpose, validate_growth,
                         with_extra_forcing, zero_nonlinearity)
from .scenarios import (Realization, Scenario, builtin_scenarios, load_scenario,
                        manufactured, manufactured_errors, realize,
                        refinement_sweep, save_scenario, scenario_population,
                        scenario_undamped_neumann, solve_realization)

__version__ = "0.1.0"
