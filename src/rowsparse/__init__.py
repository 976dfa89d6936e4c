"""Determinantal sampling of row-sparse integer matrices and cokernel statistics.

The library samples n x n integer matrices whose rows are k-fold sums of
standard basis vectors, with probability proportional to the squared
determinant of the chosen rows, and computes their cokernel invariants: Smith
normal forms, p-Sylow subgroups, exact surjection moments, and mod-2 corank
defect bounds. A hypertree model over simplicial boundary matrices shares the
same sampler.
"""

from .errors import (
    DegenerateHostError,
    IdentityError,
    InvalidInputError,
    SizeLimitError,
)
from .groups import (
    FiniteAbelianGroup,
    aut_order,
    cl_corank_probability,
    cl_probability,
    p_groups_up_to,
    sur_count_cokernel,
)
from .snf import (
    CokernelClass,
    PGroupType,
    cokernel,
    sylow,
)
from .structured import (
    boundary_matrix,
    gram_closed_form,
    gram_determinant,
    gram_rowwise,
    hypertree_identity,
    row_vector,
)
from .sampling import (
    BasisSumRows,
    BoundaryRows,
    MatrixRows,
    enumerate_distribution,
    sample_hypertree,
    sample_matrix,
    sample_volume,
)
from .moments import (
    TypeVector,
    annihilation_probability,
    curvature_matrix,
    expected_annihilated_exact,
    kl_curvature_check,
    surjection_moment_bruteforce,
    surjection_moment_exact,
)
from .defect import (
    bonferroni_lower,
    column_is_isolated_double,
    corank_tail_floor,
    isolated_double_probability,
    mc_corank_tail,
    subset_family_mass,
)
from .experiment import (
    ExperimentConfig,
    TrialRecord,
    report_moment,
    report_tv,
    run_campaign,
    run_trial,
    verify_suite,
    wilson_interval,
)

__version__ = "0.1.0"
