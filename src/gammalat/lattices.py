"""Integer lattices with finite group actions.

A lattice here is a free Z-module of finite rank on which a finite group
acts by unimodular integer matrices; the same type, given invariant
factors, holds a finite module Z^k / diag(d), such as the reduction's
kernel data.  This module builds lattices (from generator matrices, as
induced/permutation lattices, by direct sum, restriction, twisting,
dualizing), computes their rational characters, solves for equivariant
maps, and recognizes permutation lattices.

Equivariant maps are fixed vectors: Hom_G(M, N) is the fixed sublattice
Hom(M, N)^G, a kernel over rank(M) * rank(N) coordinates, which is the
path for a general source M.  Out of a permutation lattice they come from
Frobenius reciprocity instead: such a lattice is a sum of coset lattices
Z[G/Stab(x)], one per orbit of its basis vectors, and Hom_G(Z[G/H], N) is
the fixed sublattice N^H.  So that intertwiner basis is assembled orbit by
orbit from small fixed-vector kernels of the same kind.
The finite-index embedding then picks, among small integer combinations of
that basis, the invertible one minimizing a fixed total order.  The
identity is the least of any invertible matrix, so where source and
target act by the same matrices, it is the answer unsearched.  Every
intertwiner maps each Q-isotypic component of the source into that of the
target, so a candidate's |det| is a constant of the search times a
product of small blocks, one per isotypic component, read off rows of the
target (``isotypic.IsotypicBlocks``), and the box factors: basis matrices
that touch no common block are searched in boxes of their own, and only
the settings that reach each box's least block product are combined and
compared by the whole order.

All searches are deterministic: fixed candidate sets, a total order on
candidates, and a fixed-seed pseudorandom fallback for the one search whose
exhaustive form is too large.  The module-level RANDOM_FALLBACK_COUNT
counts how often that fallback fired, so callers can assert it was never
needed.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from operator import add, index, sub
from typing import Iterable, Optional, Sequence

from ._value import Value
from .errors import (
    CharacterMismatch,
    GroupMismatch,
    InternalContradiction,
    NoInvertibleIntertwiner,
    NotAHomomorphism,
    NotUnimodular,
)
from .groups import (
    Cocycle,
    FiniteGroup,
    GroupHom,
    _generating_subset,
    class_index_map,
    conjugacy_classes,
    first_failure,
    fixed_coset_counts,
    left_cosets,
    same_group,
    semidirect_product,
    subgroup_conjugacy_reps,
    twisted_section,
)
from .intlinalg import (
    FiniteAbelianGroup,
    IntMatrix,
    SnfDecomposition,
    block_diagonal,
    hermite_normal_form,
    kernel_basis,
    pack_row,
    smith_normal_form,
)

__all__ = [
    "GammaLattice",
    "RationalCharacter",
    "LatticeEmbedding",
    "PermutationCertificate",
    "lattice_from_action",
    "character",
    "direct_sum",
    "power",
    "zero_lattice",
    "trivial_lattice",
    "induced_lattice",
    "restrict_action",
    "twist",
    "dual",
    "is_permutation_lattice",
    "intertwiner_basis",
    "equivariant_finite_index_embedding",
    "lattice_embedding",
    "RANDOM_FALLBACK_COUNT",
]

# Incremented once per equivariant-embedding search that had to fall back
# to the seeded pseudorandom phase.  Reset by callers that need to assert
# the deterministic box search sufficed.
RANDOM_FALLBACK_COUNT = 0

# The budget counts the whole box, (2b+1)^k points, which fixes the bound
# and so the answer; the search itself visits sum_C (2b+1)^|C| points, one
# box per component C of the basis (``isotypic.IsotypicBlocks.minimum``).
_SHELL_BOUNDS = (1, 2, 3, 12, 24)
_SHELL_BUDGET = 20000
_RANDOM_ATTEMPTS = 512
_RANDOM_COEFF_BOUND = 3
_ORBIT_SEARCH_BUDGET = 200000


class GammaLattice(Value):
    """A finite group acting by integer matrices on Z^rank (a lattice,
    ``factors`` None) or on Z^rank / diag(factors) (a finite module, whose
    matrices have row i read and stored modulo ``factors[i]``).

    ``generators[k]`` is the action of ``group.generator_ids[k]``; the
    action ``matrices[g]`` of each element id g is derived from them on
    demand, along the group's breadth-first words, and ``matrices_of``
    derives only the elements asked for.  ``validate`` checks the
    homomorphism law.  ``character``, ``intertwiner_basis``,
    ``is_permutation_lattice``, ``dual`` and the sums take lattices only.
    ``name`` is a display label and takes no part in equality.
    """

    _fields = ("group", "rank", "generators", "factors")

    def __init__(
        self,
        group: FiniteGroup,
        rank: int,
        generators: tuple[IntMatrix, ...],
        factors: Optional[tuple[int, ...]] = None,
        name: Optional[str] = None,
    ) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(generators) != len(group.generator_ids):
            raise ValueError("need one action matrix per group generator")
        for m in generators:
            if m.rows != rank or m.cols != rank:
                raise ValueError("action matrix has the wrong shape")
        self.__dict__.update(group=group, rank=rank, factors=factors, name=name)
        if factors is not None:
            if len(factors) != rank:
                raise ValueError("need one invariant factor per coordinate")
            FiniteAbelianGroup(factors)  # each factor >= 2, a divisibility chain
            generators = tuple(map(self._reduce, generators))
        self.__dict__.update(generators=generators)

    def _reduce(self, m: IntMatrix) -> IntMatrix:
        """Row i of ``m`` modulo ``factors[i]``; ``m`` itself for a lattice."""
        if self.factors is None:
            return m
        rows = [[x % d for x in row] for row, d in zip(m.entries, self.factors)]
        return IntMatrix.from_rows(rows, cols=self.rank)

    @cached_property
    def _element_matrices(self) -> dict[int, IntMatrix]:
        return {0: IntMatrix.identity(self.rank)}

    @cached_property
    def matrices(self) -> tuple[IntMatrix, ...]:
        order = self.group.order
        mats = self.matrices_of(range(order))
        return tuple(mats[g] for g in range(order))

    def matrices_of(self, elements: Iterable[int]) -> dict[int, IntMatrix]:
        """The action of each listed element id (among others), multiplied
        out only along the breadth-first words that lead to them.  The
        products are kept, so each element is multiplied out once per
        lattice."""
        mats = self._element_matrices
        parent = {g: p for g, p, _ in self.group.bfs_words}
        needed = set()
        for g in elements:
            while g not in mats and g not in needed:
                needed.add(g)
                g = parent[g]
        for g, p, k in self.group.bfs_words:
            if g in needed:
                mats[g] = self._reduce(mats[p].mul(self.generators[k]))
        return mats

    @property
    def structure(self) -> FiniteAbelianGroup:
        """The finite module's group, Z^rank / diag(factors)."""
        return FiniteAbelianGroup(self.factors)

    @property
    def order(self) -> int:
        return self.structure.order

    def validate(self) -> None:
        """The action is a homomorphism, M(gh) = M(g)M(h) modulo the
        factors, with the first failing pair as the witness.  Then each
        generator must act as given, which can fail where a generator id
        repeats or is the identity.
        """
        mats, reduce = self.matrices, self._reduce
        bad = first_failure(self.group, lambda g, h, gh: mats[gh] == reduce(mats[g].mul(mats[h])))
        if bad is not None:
            raise NotAHomomorphism(f"action fails to multiply at pair {bad}")
        for k, gid in enumerate(self.group.generator_ids):
            if mats[gid] != self.generators[k]:
                raise NotAHomomorphism(f"generator matrix {k} conflicts with the extension")

    def with_name(self, name: str) -> "GammaLattice":
        return GammaLattice(self.group, self.rank, self.generators, self.factors, name)


class RationalCharacter(Value):
    """Character of M (x) Q: one value per conjugacy class, in the group's
    canonical class order.

    The values are integers, since every character here is a trace of
    integer matrices or a count of fixed cosets.
    """

    _fields = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Sequence[int]) -> None:
        values = tuple(map(index, values))
        if len(values) != len(conjugacy_classes(group)):
            raise ValueError("need one value per conjugacy class")
        self.__dict__.update(group=group, values=values)

    def __add__(self, other: "RationalCharacter") -> "RationalCharacter":
        if not same_group(self.group, other.group):
            raise GroupMismatch("cannot add characters over different groups")
        return RationalCharacter(self.group, tuple(map(add, self.values, other.values)))

    def scale(self, k: int) -> "RationalCharacter":
        return RationalCharacter(self.group, tuple(k * v for v in self.values))

    def value_at(self, g: int) -> int:
        return self.values[class_index_map(self.group)[g]]


def lattice_from_action(
    group: FiniteGroup,
    rank: int,
    generator_matrices: Sequence[IntMatrix],
    name: Optional[str] = None,
) -> GammaLattice:
    """Extend matrices given on the group's generators to a full lattice.

    One rank x rank matrix per ``group.generator_ids`` entry, in order.
    The extension follows the breadth-first words of the group; the result
    must be a homomorphism (``GammaLattice.validate``; NotAHomomorphism with
    a witness pair or the conflicting generator) and every generator matrix
    must be unimodular (NotUnimodular).
    """
    gens = list(generator_matrices)
    if len(gens) != len(group.generator_ids):
        raise NotAHomomorphism("need one matrix per group generator")
    for k, m in enumerate(gens):
        if m.rows != rank or m.cols != rank:
            raise NotAHomomorphism(f"generator matrix {k} is not {rank}x{rank}")
        det = m.det()
        if abs(det) != 1:
            raise NotUnimodular(f"generator matrix {k} has determinant {det}")
    lattice = GammaLattice(group, rank, tuple(gens), name=name)
    lattice.validate()
    return lattice


@lru_cache(maxsize=None)
def character(m: GammaLattice) -> RationalCharacter:
    """Trace class function of the lattice action: the trace of each
    conjugacy class's first member, multiplied out only along the
    breadth-first words that lead to those members."""
    reps = [cls[0] for cls in conjugacy_classes(m.group)]
    mats = m.matrices_of(reps)
    return RationalCharacter(m.group, tuple(mats[g].trace() for g in reps))


def direct_sum(m: GammaLattice, n: GammaLattice, name: Optional[str] = None) -> GammaLattice:
    if not same_group(m.group, n.group):
        raise GroupMismatch("direct summands must share the group")
    gens = tuple(map(block_diagonal, zip(m.generators, n.generators)))
    return GammaLattice(m.group, m.rank + n.rank, gens, name=name)


def power(m: GammaLattice, r: int) -> GammaLattice:
    if r < 0:
        raise ValueError("power must be nonnegative")
    gens = tuple(block_diagonal([a] * r) for a in m.generators)
    return GammaLattice(m.group, m.rank * r, gens)


def zero_lattice(group: FiniteGroup) -> GammaLattice:
    return trivial_lattice(group, 0)


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GammaLattice:
    gens = (IntMatrix.identity(rank),) * len(group.generator_ids)
    return GammaLattice(group, rank, gens)


def induced_lattice(group: FiniteGroup, delta: Sequence[int]) -> GammaLattice:
    """The permutation lattice on the left cosets of the subgroup ``delta``.

    Basis vectors correspond to cosets in canonical order (ascending minimal
    representative); every action matrix is a permutation matrix.
    """
    return _induced_cached(group, tuple(sorted(set(int(x) for x in delta))))


@lru_cache(maxsize=None)
def _induced_cached(group: FiniteGroup, delta: tuple[int, ...]) -> GammaLattice:
    cosets = left_cosets(group, delta)
    rank = len(cosets)
    coset_of = {}
    for idx, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = idx
    gens = []
    for g in group.generator_ids:
        rows = [[0] * rank for _ in range(rank)]
        for j, coset in enumerate(cosets):
            rows[coset_of[group.mul(g, coset[0])]][j] = 1
        gens.append(IntMatrix.from_rows(rows, cols=rank))
    return GammaLattice(group, rank, tuple(gens))


def restrict_action(m: GammaLattice, hom: GroupHom) -> GammaLattice:
    """Pull the action back along a verified homomorphism into m's group."""
    if not same_group(hom.target, m.group):
        raise GroupMismatch("homomorphism target is not the lattice's group")
    images = tuple(map(hom.apply, hom.source.generator_ids))
    mats = m.matrices_of(images)
    return GammaLattice(hom.source, m.rank, tuple(mats[g] for g in images))


def twist(m: GammaLattice, x: Cocycle) -> GammaLattice:
    """Twist a lattice over ``semidirect_product(x.base)`` by a cocycle.

    The result lives over the acting group of ``x.base`` and is exactly the
    restriction along the twisted section.  Raises GroupMismatch for a
    lattice over any other group.
    """
    if not same_group(m.group, semidirect_product(x.base).group):
        raise GroupMismatch("lattice is not defined over the cocycle's semidirect product")
    return restrict_action(m, twisted_section(x))


def dual(m: GammaLattice) -> GammaLattice:
    """Contragredient lattice: g acts by the transpose of the inverse."""
    inverses = m.group.generator_inverses
    mats = m.matrices_of(inverses)
    gens = tuple(mats[a].transpose() for a in inverses)
    return GammaLattice(m.group, m.rank, gens)


class LatticeEmbedding(Value):
    """Equivariant injective integer map between lattices over one group.

    ``matrix`` is target.rank x source.rank and commutes with both actions.
    ``snf`` is its Smith form, computed once by ``lattice_embedding``; every
    later answer about the map reads it instead of a Smith form of its own.
    ``cokernel`` is the torsion of target/image, the elementary divisors
    > 1; ``cokernel_free_rank`` its free rank (zero exactly when the ranks
    agree).  Two embeddings are equal when source, target and matrix are.
    """

    _fields = ("source", "target", "matrix")

    def __init__(
        self, source: GammaLattice, target: GammaLattice, matrix: IntMatrix, snf: SnfDecomposition
    ) -> None:
        self.__dict__.update(source=source, target=target, matrix=matrix, snf=snf)

    @property
    def cokernel(self) -> FiniteAbelianGroup:
        return self.snf.cokernel[0]

    @property
    def cokernel_free_rank(self) -> int:
        return self.target.rank - self.source.rank

    @property
    def index(self) -> int:
        """Order of the cokernel; only meaningful for equal ranks."""
        if self.cokernel_free_rank != 0:
            raise ValueError("cokernel is infinite")
        return self.cokernel.order


def lattice_embedding(
    source: GammaLattice, target: GammaLattice, matrix: IntMatrix
) -> LatticeEmbedding:
    """Validated constructor: checks shape, equivariance on the generators
    (which implies it on every element), and injectivity, then keeps the
    Smith form of ``matrix``.

    That one Smith form gives both: the map is injective exactly when it
    has ``source.rank`` elementary divisors, and the divisors > 1 are the
    cokernel's invariant factors.
    """
    if not same_group(source.group, target.group):
        raise GroupMismatch("embedding endpoints must share the group")
    if matrix.rows != target.rank or matrix.cols != source.rank:
        raise ValueError("embedding matrix has the wrong shape")
    for gid, a, b in zip(source.group.generator_ids, source.generators, target.generators):
        if matrix.mul(a) != b.mul(matrix):
            raise InternalContradiction(f"embedding is not equivariant at element {gid}")
    snf = smith_normal_form(matrix)
    if len(snf.elementary_divisors) != source.rank:
        raise InternalContradiction("embedding matrix is not injective")
    return LatticeEmbedding(source, target, matrix, snf)


def intertwiner_basis(m: GammaLattice, n: GammaLattice) -> tuple[IntMatrix, ...]:
    """Z-basis of Hom_G(m, n): all integer E with E * act_m(g) = act_n(g) * E.

    Hom_G(m, n) is the fixed sublattice Hom(m, n)^G, where g sends E to
    n(g) * E * m(g)^-1.  When every generator of ``m`` acts by a
    permutation matrix, ``m`` is the sum over the orbits of its basis
    vectors of the coset lattices Z[G/Stab(x)], x the smallest point of the
    orbit.  Frobenius reciprocity gives Hom_G(Z[G/Stab(x)], n) = n^Stab(x),
    so each Z-basis vector v of that fixed sublattice yields one
    intertwiner, whose column g*x is n(g) * v and whose other columns are
    zero.  Any other ``m`` takes the fixed sublattice of Hom(m, n) itself:
    on E flattened row-major, the generator s acts by the Kronecker product
    of n(s) and dual(m)(s) = m(s^-1)^T, and vectors fixed by the generators
    are fixed by the group.

    Both describe the same saturated Z-lattice, and the flattened solutions
    are canonicalized by their Hermite form, so the basis is unique and
    independent of the path taken.
    """
    if not same_group(m.group, n.group):
        raise GroupMismatch("intertwiners need a common group")
    nvars = n.rank * m.rank
    if nvars == 0:
        return ()
    if all(a.is_permutation_matrix() for a in m.generators):
        solutions = _permutation_intertwiners(m, n)
    else:
        hom_action = [
            IntMatrix(nvars, nvars, tuple(tuple(x * y for x in p for y in q) for p in a.entries for q in b.entries))
            for a, b in zip(n.generators, dual(m).generators)
        ]
        solutions = _fixed_sublattice(nvars, hom_action)
    if not solutions:
        return ()
    h, _ = hermite_normal_form(IntMatrix(len(solutions), nvars, tuple(solutions)))
    return tuple(
        IntMatrix(n.rank, m.rank, tuple(row[i * m.rank : (i + 1) * m.rank] for i in range(n.rank)))
        for row in h.entries
        if any(row)
    )


def _permutation_intertwiners(m: GammaLattice, n: GammaLattice) -> list[tuple[int, ...]]:
    """Flattened Z-basis of Hom_G(m, n) for m acting by permutation matrices,
    one block per orbit of m's basis vectors (Frobenius reciprocity).

    Column y of the intertwiner from v in n^Stab(x) is n(g) * v for any g
    with g*x = y, since v is fixed by Stab(x).  So each orbit is walked
    over the generators from x, and each new column is n(s) times the
    column it was reached from, applied through the nonzero entries of n(s).
    """
    # moves[k][j] = s_k * j: column j of a permutation matrix has its 1 in row s_k * j.
    moves = []
    for a in m.generators:
        img = [0] * m.rank
        for i, row in enumerate(a.entries):
            img[row.index(1)] = i
        moves.append(img)
    # images[g][j] = g * j, along the breadth-first words g = parent * s_k.
    images = [list(range(m.rank))] * m.group.order
    for g, parent, k in m.group.bfs_words:
        images[g] = [images[parent][j] for j in moves[k]]
    actions = [[[(j, a) for j, a in enumerate(row) if a] for row in b.entries] for b in n.generators]
    fixed_by_stabilizer: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    placed = [False] * m.rank
    out = []
    for x in range(m.rank):
        if placed[x]:
            continue
        # The orbit of x as a tree: each point after x with the point and
        # generator it is first reached from.
        tree = [(x, x, -1)]
        placed[x] = True
        for y, _, _ in tree:
            for k, img in enumerate(moves):
                if not placed[img[y]]:
                    placed[img[y]] = True
                    tree.append((img[y], y, k))
        stab = tuple(g for g, img in enumerate(images) if g and img[x] == x)
        if stab not in fixed_by_stabilizer:
            gens = _generating_subset(m.group, stab)
            mats = n.matrices_of(gens)
            fixed_by_stabilizer[stab] = _fixed_sublattice(n.rank, [mats[g] for g in gens])
        for v in fixed_by_stabilizer[stab]:
            columns = {x: v}
            for y, parent, k in tree[1:]:
                w = columns[parent]
                columns[y] = [sum(a * w[j] for j, a in row) for row in actions[k]]
            flat = [0] * (n.rank * m.rank)
            for y, column in columns.items():
                for i, c in enumerate(column):
                    flat[i * m.rank + y] = c
            out.append(tuple(flat))
    return out


def _fixed_sublattice(rank: int, matrices: Sequence[IntMatrix]) -> tuple[tuple[int, ...], ...]:
    """Z-basis of the vectors of Z^rank fixed by every listed matrix: the
    integer kernel of the stacked A - I."""
    if not matrices:
        return IntMatrix.identity(rank).entries
    rows = tuple(
        tuple(x - (1 if i == j else 0) for j, x in enumerate(row))
        for a in matrices
        for i, row in enumerate(a.entries)
    )
    return kernel_basis(IntMatrix(len(rows), rank, rows))


def _smaller_key(flat: list[int], n: int, best: Optional[tuple], paired: bool, det: int) -> Optional[tuple]:
    """The smaller of ``best`` and the key of the n x n candidate ``flat``,
    whose |det| is ``det`` times the search's positive constant C
    (``isotypic``), and nonzero.

    The key is (|det| / C, sum of absolute entries, -trace, flattened
    entries), so within one search it orders candidates as |det| would;
    callers build ``flat`` only when ``det`` does not exceed the best so
    far.  With ``paired`` the candidate stands for both E and -E, which
    share |det| and the entry sum, and the key is that of whichever is
    smaller: the positive trace, or on a zero trace the negative first
    nonzero entry.
    """
    trace = sum(flat[i * (n + 1)] for i in range(n))
    sign = 1
    if paired and (trace or -next(x for x in flat if x)) < 0:
        sign = -1
    key = (abs(det), sum(map(abs, flat)), -sign * trace, tuple(sign * x for x in flat))
    return key if best is None or key < best else best


def _box_bound(k: int) -> int:
    """The largest b of _SHELL_BOUNDS whose box [-b, b]^k has at most
    _SHELL_BUDGET points, or 0 if none has."""
    return max((b for b in _SHELL_BOUNDS if (2 * b + 1) ** k <= _SHELL_BUDGET), default=0)


def equivariant_finite_index_embedding(
    m1: GammaLattice, m2: GammaLattice, *, allow_random: bool = True
) -> LatticeEmbedding:
    """An invertible integer intertwiner m1 -> m2, canonically chosen.

    Preconditions: equal characters (hence equal ranks).  The candidates are
    the nonzero integer combinations of the intertwiner basis whose
    coefficients lie in the largest box [-b, b]^k, b from _SHELL_BOUNDS, of
    at most _SHELL_BUDGET points; the search keeps the invertible candidate
    that minimizes (|det|, sum of absolute entries, -trace, flattened
    entries).  That is a total order, and E and -E share their key, so the
    choice depends neither on the order of enumeration nor on which of
    each pair +-E is evaluated.

    The order has a floor: an invertible integer matrix has |det| >= 1, a
    nonzero entry in every row (so an entry sum >= n) and a trace at most
    its entry sum, with equality throughout only for the identity.  So
    where m1 and m2 have the same generator matrices (rank 0 among them),
    the identity intertwines them and is the answer, before any basis is
    built, whatever the box.

    Every intertwiner maps each Q-isotypic component of m1 into that of
    m2, so a candidate's |det| is a constant of the pair times a product
    of small blocks read off rows of the target, one per component
    (``isotypic.IsotypicBlocks``), which the key compares in its place.
    The basis matrices split into the connected components of "touch a
    common block", each component's box is walked on its own, and the
    whole key is compared only over the product of the settings that
    reach each box's least block product; the candidates, and so the
    answer, are those of the whole box.  If even the smallest box exceeds
    the budget, or no candidate is invertible, a fixed-seed pseudorandom
    phase takes over (disabled by ``allow_random=False``, in which case
    exhaustion raises NoInvertibleIntertwiner).  It takes a draw's block
    product first and builds its entries only when that does not exceed
    the best so far.
    """
    global RANDOM_FALLBACK_COUNT
    if not same_group(m1.group, m2.group):
        raise GroupMismatch("embedding endpoints must share the group")
    if character(m1) != character(m2):
        raise CharacterMismatch("lattices have different characters")
    if m1.generators == m2.generators:
        return lattice_embedding(m1, m2, IntMatrix.identity(m1.rank))
    basis = intertwiner_basis(m1, m2)
    k = len(basis)
    if k == 0:
        raise NoInvertibleIntertwiner("intertwiner space is zero")
    n = m1.rank

    from .isotypic import IsotypicBlocks

    isotypic = IsotypicBlocks(m1, m2, basis)
    bound = _box_bound(k)
    best = isotypic.minimum(bound) if bound else None
    if best is None:
        if bound and not allow_random:
            raise NoInvertibleIntertwiner("deterministic search exhausted without an invertible map")
        if not allow_random:
            raise NoInvertibleIntertwiner(
                "search space too large for deterministic enumeration and the "
                "pseudorandom fallback is disabled"
            )
        RANDOM_FALLBACK_COUNT += 1
        rng = random.Random(0)
        widths, moves = isotypic.packed(_RANDOM_COEFF_BOUND)
        for _ in range(_RANDOM_ATTEMPTS):
            coeffs = [rng.randint(-_RANDOM_COEFF_BOUND, _RANDOM_COEFF_BOUND) for _ in range(k)]
            rows = [0] * n
            for c, packed in zip(coeffs, moves):
                if c:
                    for r, x in packed:
                        rows[r] += c * x
            det = isotypic.det(rows, widths)
            if det and (best is None or det <= best[0]):
                flat = [0] * (n * n)
                for c, nz in zip(coeffs, isotypic.nonzeros):
                    if c:
                        for idx, val in nz:
                            flat[idx] += c * val
                best = _smaller_key(flat, n, best, paired=False, det=det)
        if best is None:
            raise NoInvertibleIntertwiner("pseudorandom search found no invertible intertwiner")
    flat = best[3]
    matrix = IntMatrix.from_rows([flat[i * n : (i + 1) * n] for i in range(n)], cols=n)
    return lattice_embedding(m1, m2, matrix)


class PermutationCertificate(Value):
    """Outcome of permutation-lattice recognition.

    ``status`` is "YES" (with a basis permuted by the action), "NO" (with a
    character-theoretic certificate in ``reason``), or "UNKNOWN" (bounded
    search exhausted without a certificate either way).
    """

    _fields = ("status", "basis", "reason")


@lru_cache(maxsize=None)
def _subgroup_characters(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Fixed-coset-count characters of all subgroup conjugacy classes."""
    return tuple(fixed_coset_counts(group, rep) for rep in subgroup_conjugacy_reps(group))


def _nonnegative_decomposition_exists(target: tuple[int, ...], chars: Sequence[tuple[int, ...]]) -> bool:
    """Is target a nonnegative integer combination of the given characters?

    Exhaustive depth-first search; every character is nonnegative with a
    positive identity value, so coefficients are bounded and the search
    terminates.  Used as a NO-certificate: permutation characters always
    decompose this way.
    """
    chars = [c for c in chars if any(c)]

    def walk(rem: tuple[int, ...], idx: int) -> bool:
        if not any(rem):
            return True
        if idx == len(chars):
            return False
        c = chars[idx]
        cap = min(rem[j] // c[j] for j in range(len(rem)) if c[j] > 0)
        for use in range(cap, -1, -1):
            nxt = tuple(rem[j] - use * c[j] for j in range(len(rem)))
            if all(x >= 0 for x in nxt) and walk(nxt, idx + 1):
                return True
        return False

    return walk(target, 0)


def is_permutation_lattice(m: GammaLattice, coord_bound: int = 2) -> PermutationCertificate:
    """Decide whether the lattice has a Z-basis permuted by the action.

    Fast path: the action matrices are already permutation matrices.
    NO-certificates come from the character: a negative value, or failure
    to be a nonnegative integer combination of the fixed-point characters
    of subgroups.  Otherwise a bounded search enumerates orbits of candidate
    basis vectors with coordinates in [-coord_bound, coord_bound] and looks
    for a unimodular orbit union.  Search exhaustion is never treated as a
    NO: the bound can simply be too small, so the answer is UNKNOWN.

    The box is walked in product order.  Each vector is held as one integer
    whose digits are its coordinates (``pack_row``, coordinate 0 on top),
    at a width that fits every image of a box vector, so an image g*v is
    one integer addition: of a partial sum of g's packed columns over the
    first half of v's coordinates and one over the rest, both precomputed.
    These integers compare as their vectors do in product order, so each
    orbit is taken at its least member, the first the walk meets.  Two
    masks test every coordinate of an image against the box at once, and
    only the orbits that stay in the box are unpacked.  Those orbits are
    combined depth first, in order, and the first unimodular union wins.  A
    choice is descended into only while it can still be completed, which
    two exact tests decide: the chosen vectors must be primitive (rank equal
    to their count, every Smith invariant 1), since a set that is not lies
    in no Z-basis; and the orbits' permutation characters must not exceed
    the character anywhere, since those of a permuted basis add up to it.
    Pruning only choices that have no completion leaves the first basis
    met, and hence the answer, unchanged.
    """
    if coord_bound < 1:
        raise ValueError("coord_bound must be positive")
    if m.rank == 0:
        return PermutationCertificate("YES", (), "zero lattice is the empty permutation lattice")
    if all(a.is_permutation_matrix() for a in m.generators):
        return PermutationCertificate(
            "YES", IntMatrix.identity(m.rank).entries, "action matrices are permutation matrices"
        )
    chi = character(m).values
    for idx, value in enumerate(chi):
        if value < 0:
            return PermutationCertificate(
                "NO",
                None,
                f"character value {value} on class {idx} is negative; permutation "
                "characters count fixed points and are nonnegative",
            )
    if not _nonnegative_decomposition_exists(chi, _subgroup_characters(m.group)):
        return PermutationCertificate(
            "NO",
            None,
            "character is not a nonnegative integer combination of coset-space "
            "characters, which every permutation lattice's character is",
        )

    if (2 * coord_bound + 1) ** m.rank > _ORBIT_SEARCH_BUDGET:
        return PermutationCertificate(
            "UNKNOWN",
            None,
            f"candidate box (2*{coord_bound}+1)^{m.rank} exceeds the enumeration budget",
        )
    rank = m.rank
    coords = range(-coord_bound, coord_bound + 1)
    # Every coordinate of an image of a box vector lies in [-reach, reach],
    # and reach is attained at a corner of the box, so some image leaves the
    # box exactly when reach > K.  At this width, adding offset = K + G to
    # every digit, G = 2^(width-2) > reach + K + 1, leaves each digit in
    # (0, 2G) with no carry between digits.  A digit then has bit width-2
    # set exactly when its coordinate is at least -K, and, after span =
    # 2K + 1 is taken off every digit, clear exactly when it is at most K.
    reach = coord_bound * max(sum(map(abs, row)) for mm in m.matrices for row in mm.entries)
    width = (reach + coord_bound + 1).bit_length() + 2
    half = 1 << (width - 2)
    ones = pack_row([1] * rank, width)
    high = half * ones
    offset = (coord_bound + half) * ones
    span = (2 * coord_bound + 1) * ones
    # Two tables of about (2K+1)^(rank/2) partial sums per element keep
    # memory far below one entry per box point; the head sums carry offset.
    split = rank // 2

    def partial_sums(start: int, columns: list[int]) -> list[int]:
        """start + sum_j c_j * columns[j] for every c in coords^len(columns),
        in product order (last coordinate fastest)."""
        sums = [start]
        for col in columns:
            sums = [s + c * col for s in sums for c in coords]
        return sums

    head_sums = []
    tail_sums = []
    for mm in m.matrices:
        # Coordinate 0 is the top digit, so vectors of the box, offset,
        # compare as integers in product order.
        packed = [pack_row(col[::-1], width) for col in mm.transpose().entries]
        head_sums.append(partial_sums(offset, packed[:split]))
        tail_sums.append(partial_sums(0, packed[split:]))
    mask = (1 << width) - 1
    shifts = range(width * (rank - 1), -1, -width)

    def unpack(q: int) -> tuple[int, ...]:
        return tuple(((q >> shift) & mask) - coord_bound - half for shift in shifts)

    # An orbit's permutation character at g counts the points g fixes:
    # |orbit| * |g^G meet Stab(v)| / |g^G|, from the stabilizer met on the way.
    class_of = class_index_map(m.group)
    class_sizes = [len(cls) for cls in conjugacy_classes(m.group)]
    orbits: list[tuple[tuple[int, ...], ...]] = []
    orbit_chars: list[tuple[int, ...]] = []
    for heads in zip(*head_sums):
        # rows[g][t] is the image under g of the vector with this head and
        # tail t; element 0 is the identity, so rows[0] holds the vectors.
        rows = [[head + x for x in ts] for head, ts in zip(heads, tail_sums)]
        for images in zip(*rows):
            vec = images[0]
            # An orbit that stays in the box is taken at its least member,
            # the first the walk meets; the zero vector is in no basis.
            if vec != min(images) or vec == offset:
                continue
            fixed = [0] * len(class_sizes)
            for g, q in enumerate(images):
                if q & high != high or (q - span) & high:
                    break
                if q == vec:
                    fixed[class_of[g]] += 1
            else:
                orbit = set(images)
                orbits.append(tuple(map(unpack, sorted(orbit))))
                orbit_chars.append(tuple(len(orbit) * f // size for f, size in zip(fixed, class_sizes)))

    chosen: list[tuple[int, ...]] = []

    def search(idx: int, rest: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], ...]]:
        if len(chosen) == rank:
            return tuple(chosen)
        for i in range(idx, len(orbits)):
            left = tuple(map(sub, rest, orbit_chars[i]))
            if min(left) < 0:
                continue
            chosen.extend(orbits[i])
            divisors = smith_normal_form(IntMatrix.from_rows(chosen)).elementary_divisors
            if divisors == (1,) * len(chosen):
                found = search(i + 1, left)
                if found is not None:
                    return found
            del chosen[-len(orbits[i]):]
        return None

    found = search(0, chi)
    if found is not None:
        return PermutationCertificate("YES", found, "basis found by bounded orbit search")
    detail = "no permuted basis with coordinates within the bound"
    if reach > coord_bound:
        detail += " (some candidate orbits left the box)"
    return PermutationCertificate(
        "UNKNOWN",
        None,
        detail + "; exhaustion of a bounded search is not a certificate of absence",
    )
