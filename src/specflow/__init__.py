"""Fredholm indices of nonlocal differential operators via spectral flow.

The toolkit represents constant-coefficient nonlocal symbols (matrix
convolution kernels plus Dirac shift terms) with exact transforms on a
strip, counts and tracks characteristic roots by the argument principle,
computes Fredholm indices as crossing numbers along parameter paths, and
cross-validates against dense grid discretizations.  Two applications
are included: stationary shock profiles in nonlocal conservation laws
with localized sources, and eigenvalues bifurcating from the edge of the
essential spectrum.
"""

from .charmatrix import (adjoint_symbol, axis_cutoff, axis_margin, char_eval,
                         delta_eval, det_values, is_hyperbolic)
from .conslaw import (ShockModel, ShockSolution, characteristic_speeds,
                      jump_leading_order, linearization_index,
                      linearization_symbol, shock_profile,
                      zero_speed_constant, zero_speed_selection)
from .edgebif import (EdgeModel, diffusive_check, edge_constant,
                      edge_eigenvalue, edge_scaling, edge_vectors)
from .flow import (Crossing, FlowResult, cocycle_check, crossing_number,
                   find_crossings, fredholm_index, weighted_index)
from .griddisc import (Grid, GridOperator, assemble, assemble_adjoint,
                       index_estimate, nullity, solve_inhomogeneous)
from .kernels import (ExpPolyKernel, GaussianKernel, KernelSpec,
                      SampledKernel, SumKernel, exponential_kernel,
                      gaussian_kernel, one_sided_exponential_kernel,
                      sample_kernel)
from .roots import (Rectangle, RootSet, RootTrajectory, count_roots,
                    locate_roots, track_root)
from .symbols import (OperatorFamily, ShiftTerm, Symbol, combine_symbols,
                      weight_shift)

__version__ = "0.1.0"
