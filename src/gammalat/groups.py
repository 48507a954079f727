"""Explicit finite groups.

Groups are held by their Cayley graphs over element ids ``0..order-1``, with
0 the identity: one right-multiplication array per generator.  A group
derives its order and breadth-first words when built, the rest when asked,
and keeps no multiplication table.  Only this module knows how elements
multiply: along a Cayley edge from the graph, otherwise along the second
factor's breadth-first word, or along its row where many products share
that factor.  Construction from permutation generators
numbers elements breadth-first from the identity, multiplying on the right
by the generators in input order, which makes every derived object
(conjugacy classes, coset lists, reports) canonical.

Also here: group actions by automorphisms, given on the generators,
semidirect products, 1-cocycles for the twisting construction, and the
twisted sections they induce.
Semidirect products are memoized like the derived data: one per action.
Every law check (associativity, the homomorphism, automorphism and cocycle
laws, and the lattice law in ``lattices``) runs through ``first_failure``,
which hands each law the product it needs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import permutations, product
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from ._value import Value
from .errors import (
    ClosureTooLarge,
    InvalidCocycle,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
)

__all__ = [
    "FiniteGroup",
    "first_failure",
    "GroupAction",
    "GroupHom",
    "SemidirectProduct",
    "Cocycle",
    "group_from_generators",
    "conjugacy_classes",
    "class_index_map",
    "cyclic_subgroup_class_reps",
    "rational_classes",
    "rational_class_products",
    "subgroup_closure",
    "is_subgroup",
    "all_subgroups",
    "subgroup_conjugacy_reps",
    "left_cosets",
    "fixed_coset_counts",
    "semidirect_product",
    "validate_cocycle",
    "twisted_section",
    "enumerate_cocycles",
    "automorphisms",
    "all_actions",
    "same_group",
    "trivial_group",
]

DEFAULT_MAX_ORDER = 10080


class FiniteGroup(Value):
    """Finite group held by its Cayley graph: ``right[k][a]`` is the id of
    a * s_k for the k-th generator s_k.

    Element ids run from 0 to order-1 and 0 is the identity.  ``labels``
    are optional display strings, one per element.  The constructor checks
    that each array permutes the ids and that a breadth-first walk from 0
    reaches every element, and derives ``order``, ``generator_ids`` (the
    ids ``right[k][0]``) and ``bfs_words``: one ``(g, parent, k)`` triple
    per non-identity element, g = parent * s_k, in the walk's queue order.
    So generator data (matrices, automorphisms) extends along it in one
    pass, as do ``left(a)``, the row a * b for every b, and ``inv_table``.
    No multiplication table is kept: ``mul(a, b)`` walks b's word from a,
    one ``right`` lookup per letter, read off each element's parent, and
    ``times(g)`` serves many products by g, so memory grows like
    |G| * generators.  Two groups are equal when graph and labels are; the
    hash is computed once, since every memoized function hashes it.
    """

    _fields = ("right", "labels")

    def __init__(
        self,
        right: tuple[tuple[int, ...], ...],
        labels: Optional[tuple[str, ...]] = None,
    ) -> None:
        if not right:
            raise ValueError("a group needs at least one generator")
        n = len(right[0])
        if n < 1:
            raise ValueError("group order must be positive")
        ids = set(range(n))
        for k, r in enumerate(right):
            if len(r) != n or set(r) != ids:
                raise ValueError(f"generator {k} does not permute 0..{n - 1}")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every element")
        words: list[tuple[int, int, int]] = []
        seen = [False] * n
        seen[0] = True
        queue = [0]
        for g in queue:
            for k, r in enumerate(right):
                h = r[g]
                if not seen[h]:
                    seen[h] = True
                    words.append((h, g, k))
                    queue.append(h)
        if len(queue) != n:
            raise ValueError("the generators do not generate the group")
        self.__dict__.update(
            right=right,
            labels=labels,
            order=n,
            generator_ids=tuple(r[0] for r in right),
            bfs_words=tuple(words),
            _hash=hash((right, labels)),
        )

    def __hash__(self) -> int:
        return self._hash

    def left(self, a: int) -> tuple[int, ...]:
        """The row a * b for every b, one lookup per element: b was reached
        as p * s_k, so a * b = (a * p) * s_k."""
        right, row = self.right, [a] * self.order
        for b, p, k in self.bfs_words:
            row[b] = right[k][row[p]]
        return tuple(row)

    @cached_property
    def _parents(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(p, right[k]) for each b = p * s_k, and (0, ()) for the identity."""
        steps: list[tuple[int, tuple[int, ...]]] = [(0, ())] * self.order
        for b, p, k in self.bfs_words:
            steps[b] = (p, self.right[k])
        return tuple(steps)

    def _word(self, b: int) -> list[tuple[int, ...]]:
        """b's breadth-first word, as the ``right`` arrays that walk e to b."""
        word, parents = [], self._parents
        while b:
            b, r = parents[b]
            word.append(r)
        return word[::-1]

    @cached_property
    def generator_inverses(self) -> tuple[int, ...]:
        """s_k^-1 for each generator: the a with a * s_k = e."""
        return tuple(r.index(0) for r in self.right)

    @cached_property
    def inv_table(self) -> tuple[int, ...]:
        """g^-1 for each g: g = p * s_k gives g^-1 = s_k^-1 * p^-1."""
        rows = tuple(map(self.left, self.generator_inverses))
        inv = [0] * self.order
        for g, p, k in self.bfs_words:
            inv[g] = rows[k][inv[p]]
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        for r in self._word(b):
            a = r[a]
        return a

    def times(self, g: int) -> Callable[[int], int]:
        """x -> x * g, for many x.  Calls walk g's word until the walks have
        taken |G| lookups in all; then g's row, x * g = (g^-1 * x^-1)^-1, is
        built once in about 2|G| and read.  So n products cost at most about
        twice the cheaper of n walks and one row, however long g's word is."""
        word, row, budget = self._word(g), [], [self.order]

        def step(x: int) -> int:
            if not row:
                budget[0] -= len(word)
                if budget[0] >= 0:
                    for r in word:
                        x = r[x]
                    return x
                back, inv = self.left(self.inv(g)), self.inv_table
                row.extend(inv[back[y]] for y in inv)
            return row[x]

        return step

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conjugate(self, g: int, by: int) -> int:
        """``by * g * by^-1``."""
        return self.mul(self.mul(by, g), self.inv(by))

    def element_order(self, g: int) -> int:
        return len(_cyclic(self, g))

    def label(self, g: int) -> str:
        if self.labels is not None:
            return self.labels[g]
        return str(g)

    def is_abelian(self) -> bool:
        """ab = ba for all a and b, which holds exactly when the generators
        commute: s_j * s_k = s_k * s_j, read off the graph."""
        pairs = list(zip(self.generator_ids, self.right))
        return all(rk[sj] == rj[sk] for sj, rj in pairs for sk, rk in pairs)

    def validate(self) -> None:
        """Associativity, (ab)c = a(bc), on top of the constructor checks,
        with a's products read off its row ``left(a)``, built once per a."""
        row = lru_cache(maxsize=1)(self.left)
        bad = first_failure(self, lambda a, b, c, bc: self.mul(row(a)[b], c) == row(a)[bc], arity=3)
        if bad is not None:
            raise ValueError(f"associativity fails at {bad}")


def first_failure(group: FiniteGroup, law: Callable[..., bool], arity: int = 2) -> Optional[tuple]:
    """The first ``arity``-tuple t of element ids, in ascending order, at
    which ``law(*t, p)`` fails, where p is the product of t's last two
    entries; None if there is none.  Only the edges of the Cayley graph,
    the tuples whose last entry is a generator s_k, are checked, with p
    read off the graph as ``right[k][t[-2]]``, unless one fails: then all
    tuples are scanned, with p from ``group.mul``.

    The edges suffice, on an associative product.  If f(gs) = f(g)f(s) for every
    g and generator s, then f(g(h's)) = f((gh')s) = f(gh')f(s) =
    f(g)f(h')f(s) = f(g)f(h's), so the law holds for all h by induction on
    word length (``FiniteGroup`` checks that the generators generate).  The
    base case f(e) = 1 holds by construction (row 0 of an action, matrix 0
    of a lattice, the ``images[0]`` test of a ``GroupHom``) or from the
    edge at g = e when f(s) is invertible.  Associativity: (ab)(c's) =
    ((ab)c')s = (a(bc'))s = a((bc')s) = a(b(c's)).  The cocycle law is the
    homomorphism law of g -> (x_g, g) into the semidirect product.
    """
    ids, edges = range(group.order), list(zip(group.generator_ids, group.right))
    if all(law(*t, s, r[t[-1]]) for t in product(ids, repeat=arity - 1) for s, r in edges):
        return None
    return next(t for t in product(ids, repeat=arity) if not law(*t, group.mul(t[-2], t[-1])))


def _multiplier(group: FiniteGroup) -> Callable[[int, int], int]:
    """(a, b) -> a * b through one ``times(b)`` per second factor b met, so
    the products that share b cost at most about twice the cheaper of
    walking b's word for each and building b's row once.  A row is built
    only after its walks have spent |G| lookups, so the rows kept never
    outgrow the work already done."""
    steps: dict[int, Callable[[int], int]] = {}

    def mul(a: int, b: int) -> int:
        step = steps.get(b)
        if step is None:
            step = steps[b] = group.times(b)
        return step(a)

    return mul


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Structural identity: equal Cayley graphs, so equal products and
    generator ids, since generator-held data (lattice matrices,
    action images) is matched by position."""
    return a is b or a.right == b.right


def _check_permutation(perm: Sequence[int], npoints: int, which: int) -> tuple[int, ...]:
    arr = tuple(int(x) for x in perm)
    if len(arr) != npoints:
        raise NotAPermutation(f"generator {which} has length {len(arr)}, expected {npoints}")
    seen = [False] * npoints
    for x in arr:
        if not 0 <= x < npoints or seen[x]:
            raise NotAPermutation(f"generator {which} is not a bijection on 0..{npoints - 1}")
        seen[x] = True
    return arr


_GENERATOR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def group_from_generators(
    perms: Sequence[Sequence[int]],
    *,
    generator_letters: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Close a list of permutations (image arrays) into a FiniteGroup.

    Elements are numbered breadth-first from the identity, multiplying known
    elements on the right by the generators in input order.  Composition is
    ``(a*b)[i] = a[b[i]]`` (apply b, then a).  The group keeps the
    closure's right-multiplication steps, its Cayley graph, and no
    permutations.  Raises NotAPermutation on malformed input and
    ClosureTooLarge past DEFAULT_MAX_ORDER elements.
    """
    if not perms:
        raise NotAPermutation("empty generator list")
    npoints = len(perms[0])
    gens = [_check_permutation(p, npoints, i) for i, p in enumerate(perms)]
    if generator_letters is None:
        letters = [
            _GENERATOR_LETTERS[i] if i < len(_GENERATOR_LETTERS) else f"g{i}" for i in range(len(gens))
        ]
    else:
        letters = [str(s) for s in generator_letters]
        if len(letters) != len(gens):
            raise ValueError("generator_letters must match the generator count")

    identity = tuple(range(npoints))
    index: dict[tuple[int, ...], int] = {identity: 0}
    elems: list[tuple[int, ...]] = [identity]
    words: list[str] = ["e"]
    # right[k][a] is the id of a * gens[k].
    right: list[list[int]] = [[] for _ in gens]
    cursor = 0
    while cursor < len(elems):
        current = elems[cursor]
        for gi, g in enumerate(gens):
            nxt = tuple(current[g[i]] for i in range(npoints))
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(elems)
                elems.append(nxt)
                words.append(letters[gi] if cursor == 0 else words[cursor] + letters[gi])
                if len(elems) > DEFAULT_MAX_ORDER:
                    raise ClosureTooLarge(f"closure exceeded {DEFAULT_MAX_ORDER} elements")
            right[gi].append(j)
        cursor += 1

    return FiniteGroup(tuple(map(tuple, right)), tuple(words))


def trivial_group() -> FiniteGroup:
    """The one-element group."""
    return group_from_generators([[0]])


@lru_cache(maxsize=None)
def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes, each a sorted id tuple, each found as the
    ``_conjugacy_orbit`` of one element, walked along the generators.

    Classes are ordered by (class size, minimal element id); the identity
    class is therefore always first.
    """
    seen = [False] * group.order
    classes = []
    for g in range(group.order):
        if not seen[g]:
            cls = sorted(x for (x,) in _conjugacy_orbit(group, frozenset({g})))
            for x in cls:
                seen[x] = True
            classes.append(tuple(cls))
    classes.sort(key=lambda cls: (len(cls), cls[0]))
    return tuple(classes)


@lru_cache(maxsize=None)
def class_index_map(group: FiniteGroup) -> tuple[int, ...]:
    """Element id -> index of its conjugacy class in canonical order."""
    out = [0] * group.order
    for idx, cls in enumerate(conjugacy_classes(group)):
        for g in cls:
            out[g] = idx
    return tuple(out)


def subgroup_closure(group: FiniteGroup, seed: Sequence[int]) -> frozenset[int]:
    """Subgroup generated by ``seed``."""
    return _closure([0], [group.times(int(g)) for g in seed])


def _closure(start: Iterable, steps: Sequence[Callable]) -> frozenset:
    """What ``start`` reaches by the ``steps``: for steps x -> x * s, from
    e the subgroup the s generate, from y the coset y<s>."""
    seen = set(start)
    queue = list(seen)
    for x in queue:
        for step in steps:
            y = step(x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


@lru_cache(maxsize=None)
def _powers(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(p, j) for each element x = p[j], p the powers e, g, g^2, ... of the
    first g whose powers include x.  No generator of a listed <g> lies in an
    earlier one, so the lists hold at most |G| * max(m / phi(m)) ids."""
    index: list[Optional[tuple[tuple[int, ...], int]]] = [None] * group.order
    for g in range(group.order):
        if index[g] is None:
            powers, x, step = [0], g, group.times(g)
            while x:
                powers.append(x)
                x = step(x)
            listed = tuple(powers)
            for j, x in enumerate(listed):
                if index[x] is None:
                    index[x] = (listed, j)
    return tuple(index)


def _cyclic(group: FiniteGroup, g: int) -> frozenset[int]:
    """<g> = <p[gcd(j, |p|)]>, read off ``_powers``."""
    powers, j = _powers(group)[g]
    return frozenset(powers[:: gcd(j, len(powers))])


def _generating_subset(group: FiniteGroup, elements: Sequence[int]) -> list[int]:
    """The elements, in order, that do not lie in the subgroup generated by
    those kept before them; together they generate what all the listed
    elements generate."""
    kept: list[int] = []
    closure = frozenset((0,))
    for g in elements:
        if g not in closure:
            kept.append(g)
            closure = subgroup_closure(group, kept)
    return kept


def is_subgroup(group: FiniteGroup, ids: Sequence[int]) -> bool:
    """Whether the ids form a subgroup: whether they are what a generating
    subset of them generates, which takes no |ids|^2 products."""
    s = set(int(x) for x in ids)
    if 0 not in s or any(not 0 <= x < group.order for x in s):
        return False
    return subgroup_closure(group, _generating_subset(group, sorted(s))) == s


def _conjugacy_orbit(group: FiniteGroup, sub: frozenset[int]) -> frozenset[frozenset[int]]:
    """Every conjugate of ``sub``, reached by conjugating by the generators'
    inverses, x -> s^-1 * x * s: |orbit| * (number of generators)
    conjugations instead of one per group element, and no table."""
    gens = [(group.left(s_inv), r) for s_inv, r in zip(group.generator_inverses, group.right)]
    return _closure([sub], [lambda h, row=row, r=r: frozenset([r[row[x]] for x in h]) for row, r in gens])


def _smallest_member(orbit: Iterable[frozenset[int]]) -> tuple[int, ...]:
    return min(tuple(sorted(s)) for s in orbit)


@lru_cache(maxsize=None)
def cyclic_subgroup_class_reps(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """One cyclic subgroup per conjugacy class of cyclic subgroups.

    Each representative is the lexicographically smallest member of its
    class (as a sorted id tuple); the list is ordered by (subgroup order,
    element tuple), so the trivial subgroup comes first.
    """
    return _class_reps(group, {_cyclic(group, g) for g in range(group.order)})


@lru_cache(maxsize=None)
def rational_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The rational classes: for each representative of
    ``cyclic_subgroup_class_reps``, in that order, the ascending ids of the
    elements whose cyclic subgroup is conjugate to it.  Each is a union of
    conjugacy classes, and the identity's comes first."""
    reps = cyclic_subgroup_class_reps(group)
    index = {sub: i for i, rep in enumerate(reps) for sub in _conjugacy_orbit(group, frozenset(rep))}
    classes: list[list[int]] = [[] for _ in reps]
    for g in range(group.order):
        classes[index[_cyclic(group, g)]].append(g)
    return tuple(map(tuple, classes))


@lru_cache(maxsize=None)
def rational_class_products(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """a[i][t][j], the number of x in rational class i with x^-1 * g_t in
    class j, g_t the least id of class t: the sums z_i of the rational
    classes multiply as z_i z_j = sum_t a[i][t][j] z_t.  One ``times``
    row per class."""
    classes = rational_classes(group)
    r = len(classes)
    of = [0] * group.order
    for i, members in enumerate(classes):
        for x in members:
            of[x] = i
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    inv = group.inv_table
    for t, members in enumerate(classes):
        step = group.times(members[0])
        for x in range(group.order):
            a[of[x]][t][of[step(inv[x])]] += 1
    return tuple(tuple(map(tuple, rows)) for rows in a)


@lru_cache(maxsize=None)
def _subgroup_classes(group: FiniteGroup) -> tuple[frozenset[frozenset[int]], ...]:
    """The conjugacy classes of subgroups, each as the set of its members,
    by the cyclic extension method: only one member of each class found
    is extended, starting from the cyclic subgroups.

    A member H is kept with generators s, whose steps x -> x * s serve
    every extension of H.  Extending H by g outside it gives <H, g> =
    <H, hgh'> for h and h' in H, so one g per double coset HgH is enough:
    the cosets yH with y = hg, h in H, are marked covered.  A result in a
    class already found is dropped; otherwise it is extended in turn.

    Every class is reached.  A subgroup K > 1 is cyclic or has a maximal
    subgroup M > 1, and K = <M, g> for any g in K outside M.  By induction
    some conjugate P = M^x was extended, and <P, g^x> = K^x.
    """
    trivial = frozenset({0})
    classes = [frozenset({trivial})]
    known = {trivial}
    work: list[tuple[frozenset[int], list[int]]] = []

    def reach(sub: frozenset[int], gens: list[int]) -> None:
        if sub not in known:
            orbit = _conjugacy_orbit(group, sub)
            known.update(orbit)
            classes.append(orbit)
            work.append((sub, gens))

    for g in range(1, group.order):
        reach(_cyclic(group, g), [g])
    while work:
        sub, gens = work.pop()
        steps = [group.times(s) for s in gens]
        covered = [x in sub for x in range(group.order)]
        for g in range(1, group.order):
            if covered[g]:
                continue
            step = group.times(g)
            for y in map(step, sub):
                if not covered[y]:
                    for z in _closure([y], steps):
                        covered[z] = True
            reach(_closure([0], [*steps, step]), [*gens, g])
    return tuple(classes)


@lru_cache(maxsize=None)
def all_subgroups(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Every subgroup, as sorted id tuples ordered by (order, tuple): the
    members of the conjugacy classes that ``subgroup_conjugacy_reps``
    finds."""
    subs = (tuple(sorted(s)) for orbit in _subgroup_classes(group) for s in orbit)
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


@lru_cache(maxsize=None)
def subgroup_conjugacy_reps(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """One subgroup per conjugacy class: the smallest member of the class
    as a sorted id tuple, ordered by (order, element tuple).

    The classes come from the cyclic extension method, which extends one
    member per class rather than every subgroup (Neubueser 1960; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    """
    reps = [_smallest_member(orbit) for orbit in _subgroup_classes(group)]
    return tuple(sorted(reps, key=lambda r: (len(r), r)))


def _class_reps(group: FiniteGroup, subgroups: Iterable[frozenset[int]]) -> tuple[tuple[int, ...], ...]:
    """The smallest member (as a sorted id tuple) of each conjugacy class
    met in ``subgroups``, ordered by (order, element tuple).  The result
    does not depend on the order of ``subgroups``."""
    assigned: set[frozenset[int]] = set()
    reps = []
    for sub in subgroups:
        if sub in assigned:
            continue
        orbit = _conjugacy_orbit(group, sub)
        assigned |= orbit
        reps.append(_smallest_member(orbit))
    reps.sort(key=lambda r: (len(r), r))
    return tuple(reps)


@lru_cache(maxsize=None)
def left_cosets(group: FiniteGroup, delta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Left cosets of the subgroup ``delta``, ordered by minimal representative."""
    if not is_subgroup(group, delta):
        raise NotASubgroup(f"{delta} is not a subgroup")
    steps = [group.times(d) for d in sorted(set(delta))]
    seen = [False] * group.order
    cosets = []
    for g in range(group.order):
        if seen[g]:
            continue
        coset = tuple(sorted(step(g) for step in steps))
        for x in coset:
            seen[x] = True
        cosets.append(coset)
    return tuple(cosets)


def fixed_coset_counts(group: FiniteGroup, delta: tuple[int, ...]) -> tuple[int, ...]:
    """Per conjugacy class: how many left cosets of ``delta`` the class fixes.

    The count is evaluated at the class representative of minimal id; it is
    constant on classes because coset permutation actions are.
    """
    cosets = left_cosets(group, delta)
    coset_of = {}
    for idx, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = idx
    steps = [group.times(coset[0]) for coset in cosets]
    counts = []
    for cls in conjugacy_classes(group):
        g = cls[0]
        fixed = 0
        for idx, step in enumerate(steps):
            if coset_of[step(g)] == idx:
                fixed += 1
        counts.append(fixed)
    return tuple(counts)


class GroupHom(Value):
    """Group homomorphism given by its full image table; validated eagerly."""

    _fields = ("source", "target", "images")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images: tuple[int, ...]) -> None:
        if len(images) != source.order:
            raise NotAHomomorphism("image table has the wrong length")
        for x in images:
            if not 0 <= x < target.order:
                raise NotAHomomorphism(f"image {x} out of range")
        if images[0] != 0:
            raise NotAHomomorphism("identity does not map to identity")
        mul = _multiplier(target)
        bad = first_failure(source, lambda a, b, ab: images[ab] == mul(images[a], images[b]))
        if bad is not None:
            raise NotAHomomorphism(f"multiplicativity fails at {bad}")
        self.__dict__.update(source=source, target=target, images=images)

    def apply(self, g: int) -> int:
        return self.images[g]


class GroupAction(Value):
    """Action of ``actor`` on ``target`` by automorphisms, held as a
    ``GammaLattice`` holds its matrices: ``images[k]`` is the automorphism
    by which ``actor.generator_ids[k]`` acts.

    The constructor checks that each image is a bijection and an
    automorphism, extends the images along the actor's breadth-first words
    to ``table`` (``table[g][f]`` is the image of f under g), then checks
    table[gh] = table[g] o table[h] and that each generator acts as given,
    which fails where a generator id repeats or is the identity.  Each
    error names its witness.
    """

    _fields = ("actor", "target", "images")

    def __init__(
        self, actor: FiniteGroup, target: FiniteGroup, images: Sequence[Sequence[int]]
    ) -> None:
        mul = _multiplier(target)
        if len(images) != len(actor.generator_ids):
            raise NotAHomomorphism("need one automorphism per actor generator")
        images = tuple(_check_permutation(p, target.order, k) for k, p in enumerate(images))
        for gid, row in zip(actor.generator_ids, images):
            bad = first_failure(target, lambda a, b, ab: row[ab] == mul(row[a], row[b]))
            if bad is not None:
                raise NotAHomomorphism(f"actor element {gid} does not act by an automorphism at {bad}")
        table = [tuple(range(target.order))] * actor.order
        for g, parent, k in actor.bfs_words:
            table[g] = tuple(map(table[parent].__getitem__, images[k]))
        bad = first_failure(actor, lambda g, h, gh: table[gh] == tuple(map(table[g].__getitem__, table[h])))
        if bad is not None:
            raise NotAHomomorphism(f"action is not a homomorphism at {bad}")
        for k, gid in enumerate(actor.generator_ids):
            if table[gid] != images[k]:
                raise NotAHomomorphism(f"generator {k} image conflicts with the extension")
        self.__dict__.update(actor=actor, target=target, images=images, table=tuple(table))

    def act(self, g: int, f: int) -> int:
        return self.table[g][f]

    def is_trivial(self) -> bool:
        idrow = tuple(range(self.target.order))
        return all(img == idrow for img in self.images)

    @staticmethod
    def trivial(actor: FiniteGroup, target: FiniteGroup) -> "GroupAction":
        idrow = tuple(range(target.order))
        return GroupAction(actor, target, (idrow,) * len(actor.generator_ids))


class SemidirectProduct(Value):
    """Semidirect product ``F x| Gamma`` for an action of Gamma on F.

    Element ``(f, g)`` gets id ``f * |Gamma| + g``; multiplication is
    ``(f1, g1)(f2, g2) = (f1 * act(g1, f2), g1 * g2)``.  ``embed_f`` and
    ``section`` are the canonical injections of F and Gamma, ``projection``
    the quotient map onto Gamma.
    """

    _fields = ("group", "action", "embed_f", "section", "projection")

    def pair_id(self, f: int, g: int) -> int:
        return f * self.action.actor.order + g


@lru_cache(maxsize=None)
def semidirect_product(action: GroupAction) -> SemidirectProduct:
    """The semidirect product of an action, checked when it was built.

    Memoized per action: equal actions get the one product object, so its
    group passes ``same_group`` by identity.  Raises ClosureTooLarge past
    DEFAULT_MAX_ORDER elements, before the Cayley graph is built.  The
    graph has F's generators (s, 1) first, then Gamma's (1, t):
    (f, g)(s, 1) = (f * act(g, s), g) and (f, g)(1, t) = (f, g * t).
    Products and the inverses, (f, g)^-1 = (act(g^-1, f^-1), g^-1), come
    from the graph like any group's.
    """
    f_grp = action.target
    g_grp = action.actor
    nf, ng = f_grp.order, g_grp.order
    n = nf * ng
    if n > DEFAULT_MAX_ORDER:
        raise ClosureTooLarge(f"semidirect product of order {n} exceeds {DEFAULT_MAX_ORDER} elements")

    def pid(f: int, g: int) -> int:
        return f * ng + g

    mul, table = _multiplier(f_grp), action.table
    pairs = [divmod(a, ng) for a in range(n)]
    right = tuple(tuple(pid(mul(f, table[g][s]), g) for f, g in pairs) for s in f_grp.generator_ids)
    right += tuple(tuple(pid(f, r[g]) for f, g in pairs) for r in g_grp.right)
    labels = None
    if f_grp.labels is not None and g_grp.labels is not None:
        labels = tuple(
            f"({f_grp.labels[a // ng]},{g_grp.labels[a % ng]})" for a in range(n)
        )
    group = FiniteGroup(right, labels)
    return SemidirectProduct(
        group=group,
        action=action,
        embed_f=tuple(pid(f, 0) for f in range(nf)),
        section=tuple(pid(0, g) for g in range(ng)),
        projection=tuple(a % ng for a in range(n)),
    )


class Cocycle(Value):
    """1-cocycle for a group action: a map ``g -> x_g`` into the target.

    The defining law is ``x_(g*h) = x_g * act(g, x_h)``; use
    ``validate_cocycle`` to check it.
    """

    _fields = ("base", "values")

    def __init__(self, base: GroupAction, values: tuple[int, ...]) -> None:
        if len(values) != base.actor.order:
            raise ValueError("cocycle must assign a value to every actor element")
        for x in values:
            if not 0 <= x < base.target.order:
                raise ValueError(f"cocycle value {x} out of range")
        self.__dict__.update(base=base, values=values)


def validate_cocycle(x: Cocycle) -> Optional[tuple[int, int]]:
    """The first pair (g, h), in ascending order, at which the cocycle law
    x_(gh) = x_g * act(g, x_h) fails; None if it holds."""
    values, table, mul = x.values, x.base.table, _multiplier(x.base.target)
    return first_failure(x.base.actor, lambda g, h, gh: values[gh] == mul(values[g], table[g][values[h]]))


def twisted_section(x: Cocycle) -> GroupHom:
    """The homomorphic section ``g -> (x_g, g)`` of the projection of
    ``semidirect_product(x.base)``.

    Raises InvalidCocycle when the cocycle law fails.
    """
    bad = validate_cocycle(x)
    if bad is not None:
        raise InvalidCocycle(f"cocycle law fails at pair {bad}")
    product = semidirect_product(x.base)
    gamma = x.base.actor
    images = tuple(product.pair_id(x.values[g], g) for g in range(gamma.order))
    return GroupHom(gamma, product.group, images)


def enumerate_cocycles(action: GroupAction) -> tuple[Cocycle, ...]:
    """All valid cocycles for ``action``, in lexicographic value order."""
    gamma = action.actor
    f_grp = action.target
    out = []
    for tail in product(range(f_grp.order), repeat=gamma.order - 1):
        candidate = Cocycle(action, (0,) + tail)
        if validate_cocycle(candidate) is None:
            out.append(candidate)
    return tuple(out)


@lru_cache(maxsize=None)
def automorphisms(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All automorphisms as image tuples, lexicographically sorted.

    Brute force over permutations fixing the identity, keeping those with
    phi(ab) = phi(a)phi(b); intended for the small groups used in twisting
    sweeps (order <= 8).
    """
    if group.order > 8:
        raise ValueError("automorphism enumeration is limited to order <= 8")
    mul = _multiplier(group)
    out = []
    for rest in permutations(range(1, group.order)):
        phi = (0,) + rest
        if first_failure(group, lambda a, b, ab: phi[ab] == mul(phi[a], phi[b])) is None:
            out.append(phi)
    return tuple(sorted(out))


def all_actions(actor: FiniteGroup, target: FiniteGroup) -> tuple[GroupAction, ...]:
    """Every action of ``actor`` on ``target`` by automorphisms.

    Enumerates automorphism choices for each actor generator and keeps the
    assignments that define actions.  Each generator acts as chosen, so
    distinct choices give distinct tables; sorting by table makes the order
    canonical.
    """
    auts = automorphisms(target)
    actions = []
    for choice in product(range(len(auts)), repeat=len(actor.generator_ids)):
        try:
            action = GroupAction(actor, target, tuple(auts[i] for i in choice))
        except NotAHomomorphism:
            continue
        actions.append(action)
    actions.sort(key=lambda a: a.table)
    return tuple(actions)
