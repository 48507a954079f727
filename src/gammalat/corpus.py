"""Built-in corpus: small groups, named lattices, reduction fixtures.

The corpus powers the default run of the property checks and the test
suite.  It spans cyclic groups C2, C3, C4, C6, the Klein group V4, and the
nonabelian S3; lattices range over ranks 1 through 4 and include regular,
induced, sign, and irreducible-but-not-permutation examples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import UnknownName
from .groups import (
    FiniteGroup,
    GroupAction,
    group_from_generators,
    semidirect_product,
    trivial_group,
)

if TYPE_CHECKING:
    from .intlinalg import IntMatrix
    from .lattices import GammaLattice
    from .reduction import ReductionInput

__all__ = [
    "group_c2",
    "group_c3",
    "group_c4",
    "group_v4",
    "group_c6",
    "group_s3",
    "builtin_groups",
    "builtin_group",
    "builtin_lattices",
    "builtin_lattice",
    "builtin_reductions",
    "builtin_reduction",
    "twist_sweep_groups",
    "BUILTIN_NAMES",
]

# The built-ins' names by workspace section, known without building them,
# so a workspace reference to one is checked at load.
BUILTIN_NAMES = {
    "groups": ("trivial", "c2", "c3", "c4", "v4", "c6", "s3"),
    "lattices": (
        "c2_trivial",
        "c2_sign",
        "c2_regular",
        "c2_sign_plus_trivial",
        "c3_regular",
        "c3_augmentation",
        "c4_sign",
        "c4_gaussian",
        "c4_regular",
        "v4_character",
        "v4_regular",
        "c6_sign",
        "s3_sign",
        "s3_standard",
        "s3_standard_plus_sign",
        "c4_gaussian_plus_sign",
    ),
    "reductions": ("degenerate", "sign_component", "sign_galois"),
}


@lru_cache(maxsize=None)
def group_c2() -> FiniteGroup:
    return group_from_generators([[1, 0]])


@lru_cache(maxsize=None)
def group_c3() -> FiniteGroup:
    return group_from_generators([[1, 2, 0]])


@lru_cache(maxsize=None)
def group_c4() -> FiniteGroup:
    return group_from_generators([[1, 2, 3, 0]])


@lru_cache(maxsize=None)
def group_v4() -> FiniteGroup:
    return group_from_generators([[1, 0, 3, 2], [2, 3, 0, 1]])


@lru_cache(maxsize=None)
def group_c6() -> FiniteGroup:
    return group_from_generators([[1, 2, 3, 4, 5, 0]])


@lru_cache(maxsize=None)
def group_s3() -> FiniteGroup:
    # Generators: the transposition (0 1) and the 3-cycle (0 1 2).
    return group_from_generators([[1, 0, 2], [1, 2, 0]])


@lru_cache(maxsize=None)
def builtin_groups() -> tuple[tuple[str, FiniteGroup], ...]:
    return (
        ("trivial", trivial_group()),
        ("c2", group_c2()),
        ("c3", group_c3()),
        ("c4", group_c4()),
        ("v4", group_v4()),
        ("c6", group_c6()),
        ("s3", group_s3()),
    )


def builtin_group(name: str) -> FiniteGroup:
    for key, group in builtin_groups():
        if key == name:
            return group
    raise UnknownName(f"no built-in group named {name!r}")


def twist_sweep_groups() -> tuple[tuple[str, FiniteGroup], ...]:
    """The small groups the twisting sweep quantifies over."""
    return (
        ("c2", group_c2()),
        ("c3", group_c3()),
        ("c4", group_c4()),
        ("v4", group_v4()),
    )


def _mat(rows: list[list[int]]) -> IntMatrix:
    from .intlinalg import IntMatrix

    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def builtin_lattices() -> tuple[GammaLattice, ...]:
    from .lattices import direct_sum, induced_lattice, lattice_from_action, trivial_lattice

    c2 = group_c2()
    c3 = group_c3()
    c4 = group_c4()
    v4 = group_v4()
    c6 = group_c6()
    s3 = group_s3()

    c2_trivial = trivial_lattice(c2).with_name("c2_trivial")
    c2_sign = lattice_from_action(c2, 1, [_mat([[-1]])], "c2_sign")
    c2_regular = induced_lattice(c2, (0,)).with_name("c2_regular")
    c3_augmentation = lattice_from_action(c3, 2, [_mat([[0, -1], [1, -1]])], "c3_augmentation")
    c4_sign = lattice_from_action(c4, 1, [_mat([[-1]])], "c4_sign")
    c4_gaussian = lattice_from_action(c4, 2, [_mat([[0, -1], [1, 0]])], "c4_gaussian")
    v4_character = lattice_from_action(v4, 1, [_mat([[-1]]), _mat([[1]])], "v4_character")
    c6_sign = lattice_from_action(c6, 1, [_mat([[-1]])], "c6_sign")
    s3_sign = lattice_from_action(s3, 1, [_mat([[-1]]), _mat([[1]])], "s3_sign")
    # Root-lattice action on the plane x0 + x1 + x2 = 0 with basis
    # e0 - e1, e1 - e2.
    s3_standard = lattice_from_action(
        s3, 2, [_mat([[-1, 1], [0, 1]]), _mat([[0, -1], [1, -1]])], "s3_standard"
    )

    return (
        c2_trivial,
        c2_sign,
        c2_regular,
        direct_sum(c2_sign, c2_trivial, "c2_sign_plus_trivial"),
        induced_lattice(c3, (0,)).with_name("c3_regular"),
        c3_augmentation,
        c4_sign,
        c4_gaussian,
        induced_lattice(c4, (0,)).with_name("c4_regular"),
        v4_character,
        induced_lattice(v4, (0,)).with_name("v4_regular"),
        c6_sign,
        s3_sign,
        s3_standard,
        direct_sum(s3_standard, s3_sign, "s3_standard_plus_sign"),
        direct_sum(c4_gaussian, c4_sign, "c4_gaussian_plus_sign"),
    )


def builtin_lattice(name: str) -> GammaLattice:
    for lattice in builtin_lattices():
        if lattice.name == name:
            return lattice
    raise UnknownName(f"no built-in lattice named {name!r}")


@lru_cache(maxsize=None)
def builtin_reductions() -> tuple[tuple[str, ReductionInput], ...]:
    from .lattices import lattice_from_action, zero_lattice
    from .reduction import reduction_input

    triv = trivial_group()
    c2 = group_c2()

    degenerate_action = GroupAction.trivial(triv, triv)
    degenerate = reduction_input(
        triv,
        triv,
        degenerate_action,
        zero_lattice(semidirect_product(degenerate_action).group),
        zero_lattice(triv),
    )

    # Component group C2, trivial Galois part: the torus character lattice
    # is the sign lattice, d = 1, so m = 2.
    component_action = GroupAction.trivial(triv, c2)
    component_t_hat = lattice_from_action(
        semidirect_product(component_action).group,
        1,
        [_mat([[-1]]), _mat([[1]])],
        "component_sign_torus",
    )
    sign_component = reduction_input(
        c2,
        triv,
        component_action,
        component_t_hat,
        zero_lattice(triv),
        d=1,
    )

    # Trivial component group, Galois quotient C2 acting on the ambient
    # torus by the sign lattice; d defaults to |Gamma| = 2.
    galois_action = GroupAction.trivial(c2, triv)
    sign_galois = reduction_input(
        triv,
        c2,
        galois_action,
        zero_lattice(semidirect_product(galois_action).group),
        builtin_lattice("c2_sign"),
    )

    return (
        ("degenerate", degenerate),
        ("sign_component", sign_component),
        ("sign_galois", sign_galois),
    )


def builtin_reduction(name: str) -> ReductionInput:
    for key, fixture in builtin_reductions():
        if key == name:
            return fixture
    raise UnknownName(f"no built-in reduction fixture named {name!r}")
