"""Exact computations with global Mackey functors on symmetric and alternating groups."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    GlobfunError,
    InvalidPermutationError,
    MathCheckError,
    NonIntegralError,
    NotAHomomorphismError,
    NotASubgroupError,
    UnsupportedGroupError,
    UsageError,
)
from .perms import (
    GroupHom,
    Perm,
    PermGroup,
    alternating_group,
    centralizer,
    close_generators,
    conjugate_subgroup,
    double_cosets,
    fused_pairs,
    intersection,
    normalizer,
    product_group,
    parse_group_spec,
    standard_inclusion,
    symmetric_group,
    trivial_subgroup,
    weyl_order,
    young_subgroup,
    young_two_block,
)
from .subgroups import subgroup_classes, table_of_marks
from .characters import (
    CharacterTable,
    ClassFunction,
    char_table_symmetric,
    character_table,
    decompose_into_irreducibles,
    induce_classfunction,
    inner_product,
    mn_character,
    partitions,
    pieri_matrix,
    restrict_classfunction,
)
from .functors import (
    AxiomProbe,
    AxiomReport,
    CorruptedTransfer,
    FreeAbelian,
    GlobalFunctor,
    ZMap,
    standard_probe,
    verify_axioms,
)
from .burnside import BurnsideFunctor
from .repring import RepRingFunctor
from .splitting import (
    AlternatingFusionReport,
    DcfCheck,
    SplittingReport,
    alternating_retractions,
    decompose,
    kernel_basis,
    non_splitting_witness_alternating,
    psi,
    reassemble,
    splitting_report,
    verify_dcf_symmetric,
)
from .burncat import (
    BurnsideCatMorphism,
    RepresentedFunctor,
    canonical_pair,
    morphism_basis,
    product_section,
    section_of_restriction,
)
