"""Induction decomposition of lattice characters and the finite-index
embedding into induced modules.

Every rational character of a finite group becomes, after multiplication by
a minimal positive integer r, an integer combination of characters induced
from trivial characters of cyclic subgroups.  Splitting that combination by
sign produces two permutation lattices M1 and M0 with

    r * character(M) + character(M0) = character(M1),

and an explicit equivariant finite-index embedding M1 -> M^r + M0 realizes
the identity on the nose.  A group's induced-character matrix is factored
once per (group, reps) and cached: r, the combination and the certificate
that r is minimal are all read off that one Smith form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ._value import Value
from .errors import InternalContradiction, NotInRationalSpan
from .groups import FiniteGroup, conjugacy_classes, cyclic_subgroup_class_reps, fixed_coset_counts
from .intlinalg import SnfDecomposition, column_matrix, smith_normal_form
from .lattices import (
    GammaLattice,
    RationalCharacter,
    character,
    direct_sum,
    equivariant_finite_index_embedding,
    induced_lattice,
    power,
    zero_lattice,
)

__all__ = [
    "ArtinSolution",
    "OnoResult",
    "induced_trivial_character",
    "artin_decompose",
    "ono_construct",
    "build_multiplicity_lattice",
    "certify_minimality",
]


def induced_trivial_character(group: FiniteGroup, delta: Sequence[int]) -> RationalCharacter:
    """Character of the coset space Z[G/delta]: fixed cosets per class."""
    counts = fixed_coset_counts(group, tuple(sorted(set(int(x) for x in delta))))
    return RationalCharacter(group, counts)


@lru_cache(maxsize=None)
def _induced_character_snf(group: FiniteGroup, reps: tuple[tuple[int, ...], ...]) -> SnfDecomposition:
    """Smith form of the matrix whose columns are the induced-trivial
    characters of ``reps``, shared by artin_decompose and
    certify_minimality."""
    basis = [induced_trivial_character(group, rep).values for rep in reps]
    return smith_normal_form(column_matrix(basis, len(conjugacy_classes(group))))


class ArtinSolution(Value):
    """Minimal-multiplier decomposition of a lattice character.

    ``r * chi + sum(n[i] * chi_i) = sum(m[i] * chi_i)`` where chi_i runs over
    the induced-trivial characters of the cyclic subgroup representatives
    ``reps`` (canonical order), r >= 1 is minimal, and min(n[i], m[i]) = 0.
    """

    _fields = ("group", "r", "reps", "n", "m")

    def __init__(
        self,
        group: FiniteGroup,
        r: int,
        reps: tuple[tuple[int, ...], ...],
        n: tuple[int, ...],
        m: tuple[int, ...],
    ) -> None:
        if r < 1:
            raise ValueError("multiplier must be positive")
        if not (len(reps) == len(n) == len(m)):
            raise ValueError("multiplicity vectors must match the representative list")
        for a, b in zip(n, m):
            if a < 0 or b < 0 or min(a, b) != 0:
                raise ValueError("multiplicities must be nonnegative with disjoint support")
        self.__dict__.update(group=group, r=r, reps=reps, n=n, m=m)


def artin_decompose(m: GammaLattice) -> ArtinSolution:
    """Decompose the lattice character over induced-trivial characters.

    Computes the minimal r >= 1 with r * chi in the integer span of the
    induced-trivial characters of the cyclic subgroup representatives, then
    splits the canonical coefficient vector by sign.  The rational span
    always contains chi, so failure indicates an internal bug.
    """
    chi = character(m).values
    reps = cyclic_subgroup_class_reps(m.group)
    try:
        r, coeffs = _induced_character_snf(m.group, reps).least_multiple(chi)
    except NotInRationalSpan as exc:
        raise InternalContradiction(
            "lattice character escaped the rational span of the induced-trivial "
            f"characters: {exc}"
        ) from exc
    m_mult = tuple(max(c, 0) for c in coeffs)
    n_mult = tuple(max(-c, 0) for c in coeffs)
    return ArtinSolution(m.group, r, reps, n_mult, m_mult)


def certify_minimality(m: GammaLattice, solution: ArtinSolution) -> bool:
    """Check that solution.r is the least valid multiplier: r * chi is an
    integer combination of the induced-trivial characters of solution.reps
    and (r/p) * chi is not, for each prime p dividing r."""
    chi = character(m).values
    return _induced_character_snf(m.group, solution.reps).is_least_multiple(chi, solution.r)


def build_multiplicity_lattice(
    group: FiniteGroup, reps: Sequence[tuple[int, ...]], mults: Sequence[int]
) -> GammaLattice:
    """Direct sum of coset-space lattices with the given multiplicities."""
    out = zero_lattice(group)
    for rep, mult in zip(reps, mults):
        if mult:
            out = direct_sum(out, power(induced_lattice(group, rep), mult))
    return out


class OnoResult(Value):
    """Outcome of the finite-index embedding construction.

    ``embedding`` maps m1 into power(M, r) + m0 with finite cokernel of
    order ``index``; ``solution`` carries the character decomposition that
    produced the multiplicities.  In the reduction pipeline m1 is the
    quasi-split source Q_hat and the embedding's target is the ambient sum
    S_hat.
    """

    _fields = ("solution", "m0", "m1", "embedding")

    @property
    def r(self) -> int:
        return self.solution.r

    @property
    def index(self) -> int:
        return self.embedding.index


def ono_construct(m: GammaLattice, *, allow_random: bool = True) -> OnoResult:
    """Build M0, M1 from the character decomposition and embed M1.

    The embedding target is power(M, r) + M0; its cokernel order is the
    embedding index.  ``allow_random=False`` restricts the underlying
    intertwiner search to its deterministic box.
    """
    solution = artin_decompose(m)
    m1 = build_multiplicity_lattice(m.group, solution.reps, solution.m)
    m0 = build_multiplicity_lattice(m.group, solution.reps, solution.n)
    target = direct_sum(power(m, solution.r), m0)
    if character(m1) != character(target):
        raise InternalContradiction("character identity failed after multiplicity split")
    embedding = equivariant_finite_index_embedding(m1, target, allow_random=allow_random)
    return OnoResult(solution=solution, m0=m0, m1=m1, embedding=embedding)
