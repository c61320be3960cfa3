"""Numerical solver and verification suite for join-type harmonic sphere maps.

The reduced problem is a singular two-point BVP for the angle profile of a
Hopf-construction map built from a bi-eigenmap with eigenvalues (lambda, mu).
Two independent pipelines solve it: variational gluing of one-sided energy
minimizers (driving the derivative jump at the junction to zero) and
two-sided shooting from the indicial asymptotics.  The analysis layer turns
the small-junction asymptotics into finite trend checks, and the hopf module
turns a computed profile and an orthogonal multiplication into a join map.
"""

from .core import (
    BlowUpError,
    ConvergenceError,
    DomainError,
    Grid,
    HopfParams,
    OutsideProvenRegimeWarning,
    Profile,
    graded_grid,
    indicial_exponents,
)
from .ode import (
    coeff_Q,
    read_profile_csv,
    residual,
    stencil_residual,
    weight_f,
    write_profile_csv,
)
from .closed_forms import (
    blowup_constant,
    blowup_constant_exact,
    identity_solution,
    phi_limit,
    psi_comparison,
    psi_derivative_identity,
    theta_threshold,
)
from .variational import (
    DiscreteEnergy,
    GluedSolution,
    MinimizeResult,
    glue,
    interior_grid,
    minimize_exterior,
    minimize_interior,
)
from .shooting import (
    MatchResult,
    ShootState,
    integrate_from_zero,
    match_shooting,
)
from .analysis import (
    ScanResult,
    SolvabilityCell,
    SolveOutcome,
    auto_comparison_config,
    comparison_check,
    find_solution,
    scan_jump,
    small_s_report,
    solvability_map,
)
from .hopf import (
    OrthogonalMultiplication,
    alpha_hopf_eval,
    complex_multiplication,
    eigenvalue_check,
    multiplication_by_name,
    octonion_multiplication,
    orthmul_eval,
    quaternion_multiplication,
    restricted_multiplication,
)

__version__ = "0.1.0"
