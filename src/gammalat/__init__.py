"""Exact integer computations with finite group actions on lattices.

The package works entirely over the integers: finite groups held by their
Cayley graphs, with the multiplication table derived on first use,
lattices as unimodular integer matrix actions, Hermite and Smith normal
forms, induced-lattice decompositions, finite-index equivariant
embeddings, cocycle twisting over semidirect products, and the
stabilizer-reduction pipeline that extracts finite kernel data from those
embeddings.

Public names are loaded on first use (PEP 562): ``import gammalat`` reads
no submodule, and ``gammalat.reduce_stabilizer`` imports only what the
reduction layer needs.
"""

from importlib import import_module

# Submodule -> the public names it provides here.
_EXPORTS = {
    "checks": (
        "PropertyResult",
        "run_property_suite",
    ),
    "corpus": (
        "builtin_group",
        "builtin_groups",
        "builtin_lattice",
        "builtin_lattices",
        "builtin_reduction",
        "builtin_reductions",
    ),
    "errors": (
        "CharacterMismatch",
        "ClosureTooLarge",
        "ComputationError",
        "GammalatError",
        "GroupMismatch",
        "InputError",
        "InternalContradiction",
        "InvalidCocycle",
        "NoInvertibleIntertwiner",
        "NotAHomomorphism",
        "NotAPermutation",
        "NotASubgroup",
        "NotFiniteIndex",
        "NotInRationalSpan",
        "NotUnimodular",
        "UnknownName",
        "WorkspaceError",
    ),
    "groups": (
        "Cocycle",
        "FiniteGroup",
        "GroupAction",
        "GroupHom",
        "SemidirectProduct",
        "all_actions",
        "all_subgroups",
        "automorphisms",
        "conjugacy_classes",
        "cyclic_subgroup_class_reps",
        "enumerate_cocycles",
        "fixed_coset_counts",
        "group_from_generators",
        "left_cosets",
        "semidirect_product",
        "subgroup_conjugacy_reps",
        "trivial_group",
        "twisted_section",
        "validate_cocycle",
    ),
    "induction": (
        "ArtinSolution",
        "OnoResult",
        "artin_decompose",
        "certify_minimality",
        "induced_trivial_character",
        "ono_construct",
    ),
    "intlinalg": (
        "FiniteAbelianGroup",
        "IntMatrix",
        "SnfDecomposition",
        "cokernel_structure",
        "hermite_normal_form",
        "kernel_basis",
        "minimal_multiplier",
        "multiplier_is_minimal",
        "smith_normal_form",
        "solve_integer_linear",
    ),
    "lattices": (
        "GammaLattice",
        "LatticeEmbedding",
        "PermutationCertificate",
        "RationalCharacter",
        "character",
        "direct_sum",
        "dual",
        "equivariant_finite_index_embedding",
        "induced_lattice",
        "intertwiner_basis",
        "is_permutation_lattice",
        "lattice_embedding",
        "lattice_from_action",
        "restrict_action",
        "trivial_lattice",
        "twist",
        "zero_lattice",
    ),
    "reduction": (
        "ReductionInput",
        "ReductionReport",
        "existence_m",
        "isogeny_kernel",
        "reduce_stabilizer",
        "reduction_input",
        "reverse_isogeny",
    ),
    "workspace": (
        "Workspace",
        "empty_workspace",
        "load_workspace",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
