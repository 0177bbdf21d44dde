"""Exact-arithmetic characters of affine and principal W-algebra modules.

Root systems and weight lattices for every finite simple type, truncated
q-series with group-ring coefficients, the coset and lattice-theta
character identities verified coefficient-by-coefficient, and the finite
Lie-algebra lemmas (Takiff forms, intertwiner spaces, square-zero
extension classification, singular-vector constraints) checked by exact
linear algebra.
"""

__version__ = "0.1.0"

from .rootsys import (
    RootSystem,
    UsageError,
    Weight,
    alternating_sum,
    build_root_system,
    cartan_matrix,
    langlands_dual,
    weight,
)
from .qseries import (
    GradedCharacter,
    GroupRingContext,
    GroupRingElt,
    InvariantContext,
    RayContext,
    TrivialContext,
    make_context,
    pochhammer_finite,
    pochhammer_inverse,
    rat_str,
    series_equal,
    series_one,
    series_zero,
)
from .characters import (
    FiniteCharacter,
    LevelValue,
    alt2_decompose,
    casimir,
    conformal_top_weight,
    denominator_inverse,
    denominator_series,
    euler_product,
    finite_char,
    lattice_theta,
    level,
    level_one_char,
    sym2_decompose,
    walgebra_module_char,
    weyl_module_char,
)
from .levels import (
    IdentityReport,
    LevelRelation,
    assemble_coset_character,
    conformal_weight,
    conformal_weight_closed,
    coset_rhs_character,
    default_kappa_samples,
    ff_dual_level,
    gluing_levels,
    kernel_partner_level,
    kw_lhs_character,
    verify_gko,
    verify_kw,
)
from .finite_lie import (
    BilinearFormSpace,
    ConstraintPolynomial,
    ExtensionClassification,
    LieStructure,
    QuadExt,
    TwoTriplesModeAlgebra,
    abelian,
    chevalley_structure,
    classify_extension,
    equivariant_hom_dim,
    invariant_forms,
    singular_constraints,
    takiff,
)

__all__ = [name for name in dir() if not name.startswith("_")]
