"""Conservative fourth-order compact solver for the BBM-Burgers equation
on a periodic interval, with a verification CLI."""

from .analysis import (ConvergenceRow, EnergyLedger, boundedness_bound,
                       convergence_table, energy_pair, fit_order,
                       gradient_energy, initial_energy, max_norm_bound,
                       max_norm_error, posterior_spatial_error,
                       posterior_temporal_error, stability_gap)
from .grid import (FieldNorms, Grid1D, as_field, backward_diff, central_diff,
                   inner_product, norms, second_diff, skew_advection)
from .linalg import (CyclicBlockTriSystem, ScalarCyclicTriSystem,
                     SingularSystemError, solve_cyclic_block_tridiagonal,
                     solve_dense_oracle, solve_scalar_cyclic)
from .scheme import (DivergenceError, RunResult, SchemeParams, SolverFailure,
                     StepperState, TruncationResiduals, advance,
                     assemble_first_step, assemble_interior_step,
                     compact_curvature, init_state, march,
                     newton_reaction_terms, run, skew_advection_rows,
                     truncation_residual)

__version__ = "0.1.0"
