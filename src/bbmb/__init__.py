"""Conservative fourth-order compact solver for the BBM-Burgers equation
on a periodic interval, with a verification CLI."""

from .analysis import (ConvergenceRow, a_priori_bounds, boundedness_bound,
                       convergence_table, energy_drift, fit_order, gradient_energy,
                       initial_energy, max_norm_error, max_norm_errors,
                       posterior_spatial_error, posterior_spatial_errors,
                       posterior_temporal_error, posterior_temporal_errors, stability_gap)
from .grid import (Batch, FieldNorms, Grid1D, as_field, backward_diff, central_diff,
                   inner_product, norms, second_diff, skew_advection)
from .linalg import (CyclicBlockTriSystem, ScalarCyclicTriSystem,
                     SingularSystemError, solve_cyclic_block_tridiagonal,
                     solve_dense_oracle, solve_scalar_cyclic)
from .scheme import (RunResult, SchemeParams, SolverFailure, StepperState, StepWorkspace,
                     TruncationResiduals, advance, assemble_first_step,
                     assemble_interior_step, compact_curvature, init_state, march,
                     newton_reaction_terms, run, truncation_residual)

__version__ = "0.1.0"
