"""dimfox: exact-arithmetic workbench for dimension and Fox subgroups.

Computes third relative dimension subgroups and second relative Fox
subgroups of finite groups two independent ways (brute-force
augmentation-ideal linear algebra over Z and Z/m, and closed formulas)
and certifies that they agree.
"""

from .abelian import (
    AbelianError,
    FgAb,
    check_torsion_square_kernel,
    check_wedge_kernel_identity,
    connecting_tau,
    exterior_square,
    symmetric_square,
    tau3,
    tensor,
    tor1,
)
from .formulas import (
    EnumerationCapError,
    FormulaContext,
    U_subgroup,
    V_subgroup,
    Z2_subgroup,
    corollary_hypotheses,
    dim3_formula,
    fox0_formula,
    fox1_formula,
    fox2_formula,
    fox2_generator_family,
    remark_lower_bound,
)
from .groupring import (
    ModuleSpan,
    augmentation_ideal,
    dim_subgroup_brute,
    fox_subgroup_brute,
    group_slice,
    nseries_ideal_power,
    span_product,
)
from .groups import (
    ClosureError,
    CoeffRing,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    abelian_quotient,
    build_group,
    commutator_subgroup,
    generated_subgroup,
    join,
    lower_central_series,
    make_counterexample,
    p_torsion_mod,
    power_subgroup,
    validate_nseries,
)
from .verify import (
    CorpusConfig,
    Report,
    run_corpus,
    verify_dim3,
    verify_four_term,
    verify_fox,
    verify_polynomial_sequence,
)

__version__ = "0.1.0"
