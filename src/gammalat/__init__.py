"""Exact integer computations with finite group actions on lattices.

The package works entirely over the integers and rationals: finite groups
as explicit multiplication tables, lattices as unimodular integer matrix
actions, Hermite and Smith normal forms, induced-lattice decompositions,
finite-index equivariant embeddings, cocycle twisting over semidirect
products, and the stabilizer-reduction pipeline that extracts finite
kernel data from those embeddings.
"""

from .checks import PropertyResult, run_property_suite
from .corpus import (
    builtin_group,
    builtin_groups,
    builtin_lattice,
    builtin_lattices,
    builtin_reduction,
    builtin_reductions,
)
from .errors import (
    CharacterMismatch,
    ClosureTooLarge,
    GammalatError,
    GroupMismatch,
    InternalContradiction,
    InvalidCocycle,
    NoInvertibleIntertwiner,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
    NotFiniteIndex,
    NotInRationalSpan,
    NotUnimodular,
    UnknownName,
    WorkspaceError,
)
from .groups import (
    Cocycle,
    CocycleCheck,
    FiniteGroup,
    GroupAction,
    GroupHom,
    SemidirectProduct,
    all_actions,
    all_subgroups,
    automorphisms,
    conjugacy_classes,
    cyclic_subgroup_class_reps,
    enumerate_cocycles,
    fixed_coset_counts,
    group_from_generators,
    left_cosets,
    semidirect_product,
    subgroup_conjugacy_reps,
    trivial_group,
    twisted_section,
    validate_cocycle,
)
from .induction import (
    ArtinSolution,
    OnoResult,
    artin_decompose,
    certify_minimality,
    induced_trivial_character,
    ono_construct,
)
from .intlinalg import (
    FiniteAbelianGroup,
    IntMatrix,
    SnfDecomposition,
    cokernel_structure,
    hermite_normal_form,
    kernel_basis,
    minimal_multiplier,
    multiplier_is_minimal,
    smith_normal_form,
    solve_integer_linear,
)
from .lattices import (
    GammaLattice,
    LatticeEmbedding,
    PermutationCertificate,
    RationalCharacter,
    character,
    direct_sum,
    dual,
    equivariant_finite_index_embedding,
    induced_lattice,
    intertwiner_basis,
    is_permutation_lattice,
    lattice_embedding,
    lattice_from_action,
    restrict_action,
    trivial_lattice,
    twist,
    zero_lattice,
)
from .reduction import (
    FiniteAbelianWithAction,
    ReductionInput,
    ReductionReport,
    existence_m,
    isogeny_kernel,
    reduce_stabilizer,
    reduction_input,
    reverse_isogeny,
)
from .workspace import Workspace, empty_workspace, load_workspace

__all__ = [name for name in dir() if not name.startswith("_")]
