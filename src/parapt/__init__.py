"""Variational time discretization for control-constrained parabolic
optimal control on the unit square.

States are piecewise constant in time, tested against continuous
piecewise-linear functions; controls are never discretized explicitly but
obtained by exact pointwise clamping, which yields second-order accurate
controls and post-processed states on first-order state approximations.
"""

from .adjoint import solve_adjoint
from .control import (AdmissibleSet, ClampedLinearControl, clamp_control,
                      constant_control, control_norms, control_to_rhs_terms)
from .errors import (ConvergenceRow, StudyResult, eoc_table,
                     field_error_norms, run_study)
from .fem import (StructuredTriMesh, build_mesh, interpolate, mass_matrix,
                  stiffness_matrix)
from .optimizer import (DiscreteProblem, FixedPointError, SolveReport,
                        discretize_problem, fixed_point_solve)
from .problems import (ProblemSpec, SeparableTerm, example1, example2,
                       manufactured_smooth, self_test)
from .state import (NonFiniteSweepError, RhsTerm, StepMatrixCache,
                    hat_moments, solve_state)
from .timegrid import (PiecewiseConstantField, PiecewiseLinearField,
                       TimeGrid, dual_linear_projection, graded_grid,
                       make_grid, uniform_grid)

__version__ = "0.1.0"
