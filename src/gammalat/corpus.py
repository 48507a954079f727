"""Built-in corpus: small groups, named lattices, reduction fixtures.

The corpus powers the default run of the property checks and the test
suite.  It spans cyclic groups C2, C3, C4, C6, the Klein group V4, and the
nonabelian S3; lattices range over ranks 1 through 4 and include regular,
induced, sign, and irreducible-but-not-permutation examples.

Each section is one table that writes each built-in once: a group by its
permutation generators, a lattice by how it is built, a reduction fixture
by its builder.  Naming a built-in builds it, and what it references, on
first use; the listings and ``BUILTIN_NAMES`` are read off the tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import UnknownName
from .groups import FiniteGroup, GroupAction, group_from_generators, semidirect_product

if TYPE_CHECKING:
    from .lattices import GammaLattice
    from .reduction import ReductionInput

__all__ = [
    "builtin_groups",
    "builtin_group",
    "builtin_lattices",
    "builtin_lattice",
    "builtin_reductions",
    "builtin_reduction",
    "twist_sweep_groups",
    "BUILTIN_NAMES",
]

# Name -> permutation generators (image arrays).
_GROUPS = {
    "trivial": [[0]],
    "c2": [[1, 0]],
    "c3": [[1, 2, 0]],
    "c4": [[1, 2, 3, 0]],
    "v4": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "c6": [[1, 2, 3, 4, 5, 0]],
    # The transposition (0 1) and the 3-cycle (0 1 2).
    "s3": [[1, 0, 2], [1, 2, 0]],
}

# Name -> one of ("action", group, one matrix per group generator),
# ("regular", group), the lattice Z[G], or ("sum", lattice, lattice).
_LATTICES = {
    "c2_trivial": ("action", "c2", [[[1]]]),
    "c2_sign": ("action", "c2", [[[-1]]]),
    "c2_regular": ("regular", "c2"),
    "c2_sign_plus_trivial": ("sum", "c2_sign", "c2_trivial"),
    "c3_regular": ("regular", "c3"),
    "c3_augmentation": ("action", "c3", [[[0, -1], [1, -1]]]),
    "c4_sign": ("action", "c4", [[[-1]]]),
    "c4_gaussian": ("action", "c4", [[[0, -1], [1, 0]]]),
    "c4_regular": ("regular", "c4"),
    "v4_character": ("action", "v4", [[[-1]], [[1]]]),
    "v4_regular": ("regular", "v4"),
    "c6_sign": ("action", "c6", [[[-1]]]),
    "s3_sign": ("action", "s3", [[[-1]], [[1]]]),
    # Root-lattice action on the plane x0 + x1 + x2 = 0, basis e0 - e1, e1 - e2.
    "s3_standard": ("action", "s3", [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]]),
    "s3_standard_plus_sign": ("sum", "s3_standard", "s3_sign"),
    "c4_gaussian_plus_sign": ("sum", "c4_gaussian", "c4_sign"),
}


def _entry(table: dict, noun: str, name: str):
    if name not in table:
        raise UnknownName(f"no built-in {noun} named {name!r}")
    return table[name]


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    return group_from_generators(_entry(_GROUPS, "group", name))


def builtin_groups() -> tuple[tuple[str, FiniteGroup], ...]:
    return tuple((name, builtin_group(name)) for name in _GROUPS)


def twist_sweep_groups() -> tuple[tuple[str, FiniteGroup], ...]:
    """The built-in groups of order 2 to 4, which the twisting sweep covers."""
    return tuple((name, group) for name, group in builtin_groups() if 1 < group.order <= 4)


@lru_cache(maxsize=None)
def builtin_lattice(name: str) -> GammaLattice:
    from .intlinalg import IntMatrix
    from .lattices import direct_sum, induced_lattice, lattice_from_action

    form, *args = _entry(_LATTICES, "lattice", name)
    if form == "sum":
        return direct_sum(*map(builtin_lattice, args), name)
    group = builtin_group(args[0])
    if form == "regular":
        return induced_lattice(group, (0,)).with_name(name)
    matrices = [IntMatrix.from_rows(rows) for rows in args[1]]
    return lattice_from_action(group, matrices[0].rows, matrices, name)


def builtin_lattices() -> tuple[GammaLattice, ...]:
    return tuple(map(builtin_lattice, _LATTICES))


def _degenerate() -> ReductionInput:
    from .lattices import zero_lattice
    from .reduction import reduction_input

    triv = builtin_group("trivial")
    action = GroupAction.trivial(triv, triv)
    t_hat = zero_lattice(semidirect_product(action).group)
    return reduction_input(triv, triv, action, t_hat, zero_lattice(triv))


def _sign_component() -> ReductionInput:
    """Component group C2, trivial Galois part: the torus character lattice
    is the sign lattice, d = 1, so m = 2."""
    from .intlinalg import IntMatrix
    from .lattices import lattice_from_action, zero_lattice
    from .reduction import reduction_input

    triv, c2 = builtin_group("trivial"), builtin_group("c2")
    action = GroupAction.trivial(triv, c2)
    sign = [IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[1]])]
    t_hat = lattice_from_action(semidirect_product(action).group, 1, sign, "component_sign_torus")
    return reduction_input(c2, triv, action, t_hat, zero_lattice(triv), d=1)


def _sign_galois() -> ReductionInput:
    """Trivial component group, Galois quotient C2 acting on the ambient
    torus by the sign lattice; d defaults to |Gamma| = 2."""
    from .lattices import zero_lattice
    from .reduction import reduction_input

    triv, c2 = builtin_group("trivial"), builtin_group("c2")
    action = GroupAction.trivial(c2, triv)
    t_hat = zero_lattice(semidirect_product(action).group)
    return reduction_input(triv, c2, action, t_hat, builtin_lattice("c2_sign"))


# Name -> builder.  What only a fixture uses is built inside it; no name resolves to it.
_REDUCTIONS = {
    "degenerate": _degenerate,
    "sign_component": _sign_component,
    "sign_galois": _sign_galois,
}


@lru_cache(maxsize=None)
def builtin_reduction(name: str) -> ReductionInput:
    return _entry(_REDUCTIONS, "reduction fixture", name)()


def builtin_reductions() -> tuple[tuple[str, ReductionInput], ...]:
    return tuple((name, builtin_reduction(name)) for name in _REDUCTIONS)


# The built-ins' names by workspace section, known without building them,
# so a workspace reference to one is checked at load.
BUILTIN_NAMES = {
    "groups": tuple(_GROUPS),
    "lattices": tuple(_LATTICES),
    "reductions": tuple(_REDUCTIONS),
}
