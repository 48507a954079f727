"""Small, independent group and matrix helpers for the benchmark.

The benchmark builds its inputs and checks the program's answers without
importing the program.  Where an answer refers to group elements by id,
these helpers number elements the way gammalat documents it: breadth-first
from the identity, multiplying known elements on the right by the
generators in input order, with composition ``(a*b)[i] = a[b[i]]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

Perm = tuple[int, ...]
Matrix = list[list[int]]


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """Apply b, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert(a: Sequence[int]) -> Perm:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def sign(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parity += length - 1
    return -1 if parity % 2 else 1


class PermGroup:
    """A permutation group with gammalat's element numbering.

    ``words[k]`` is ``(parent, generator index)`` with
    ``elements[k] = elements[parent] * gens[generator index]``.
    """

    def __init__(self, gens: Sequence[Sequence[int]]):
        self.gens = [tuple(g) for g in gens]
        n = len(self.gens[0])
        identity = tuple(range(n))
        self.index = {identity: 0}
        self.elements: list[Perm] = [identity]
        self.words: list = [None]
        cursor = 0
        while cursor < len(self.elements):
            current = self.elements[cursor]
            for gi, g in enumerate(self.gens):
                nxt = compose(current, g)
                if nxt not in self.index:
                    self.index[nxt] = len(self.elements)
                    self.elements.append(nxt)
                    self.words.append((cursor, gi))
            cursor += 1
        self.order = len(self.elements)
        self.generator_ids = [self.index[g] for g in self.gens]

    def mul(self, a: int, b: int) -> int:
        return self.index[compose(self.elements[a], self.elements[b])]

    def extend(self, gen_values: Sequence, combine) -> list:
        """Extend per-generator data along the words: value(parent*g) =
        combine(value(parent), value(g))."""
        out: list = [None] * self.order
        for k in range(self.order):
            if self.words[k] is None:
                continue
            parent, gi = self.words[k]
            base = out[parent]
            out[k] = gen_values[gi] if base is None else combine(base, gen_values[gi])
        return out


class TableGroup:
    """A finite group given by a multiplication table (ids 0..n-1, 0 = e)."""

    def __init__(self, mul_table: Sequence[Sequence[int]], generator_ids: Sequence[int]):
        self.table = [list(row) for row in mul_table]
        self.order = len(self.table)
        self.generator_ids = list(generator_ids)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def semidirect(f_grp: PermGroup, g_grp: PermGroup, act: list[list[int]]) -> TableGroup:
    """F x| Gamma with gammalat's ids: (f, g) -> f * |Gamma| + g and
    (f1, g1)(f2, g2) = (f1 * act[g1][f2], g1 * g2)."""
    nf, ng = f_grp.order, g_grp.order
    table = []
    for a in range(nf * ng):
        f1, g1 = divmod(a, ng)
        table.append(
            [
                f_grp.mul(f1, act[g1][f2]) * ng + g_grp.mul(g1, g2)
                for f2, g2 in (divmod(b, ng) for b in range(nf * ng))
            ]
        )
    gens = [f * ng for f in f_grp.generator_ids] + list(g_grp.generator_ids)
    return TableGroup(table, gens)


def action_table(g_grp: PermGroup, f_grp: PermGroup, gen_images: Sequence[Sequence[int]]) -> list[list[int]]:
    """Extend automorphisms of F given on Gamma's generators to all of Gamma."""
    table = g_grp.extend([tuple(img) for img in gen_images], compose)
    table[0] = tuple(range(f_grp.order))
    return [list(row) for row in table]


def subgroup_closure(group, seed: Sequence[int]) -> tuple[int, ...]:
    seen = {0}
    queue = [0]
    while queue:
        g = queue.pop()
        for s in seed:
            h = group.mul(g, s)
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return tuple(sorted(seen))


def left_cosets(group, sub: Sequence[int]) -> list[tuple[int, ...]]:
    """Left cosets ordered by minimal representative (gammalat's basis order)."""
    seen = [False] * group.order
    cosets = []
    for g in range(group.order):
        if seen[g]:
            continue
        coset = tuple(sorted(group.mul(g, d) for d in sub))
        for x in coset:
            seen[x] = True
        cosets.append(coset)
    return cosets


def coset_matrix(group, cosets: Sequence[tuple[int, ...]], g: int) -> Matrix:
    """Permutation matrix of g on the coset basis: column j -> coset of g*c_j."""
    coset_of = {x: idx for idx, coset in enumerate(cosets) for x in coset}
    n = len(cosets)
    rows = [[0] * n for _ in range(n)]
    for j, coset in enumerate(cosets):
        rows[coset_of[group.mul(g, coset[0])]][j] = 1
    return rows


# -- integer matrices as lists of rows ------------------------------------


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def matvec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def trace(a: Matrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def det(rows: Matrix) -> int:
    """Exact determinant by rational elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert out.denominator == 1
    return int(out)


def shear(n: int, rng, steps: int) -> tuple[Matrix, Matrix]:
    """A random unimodular S and its inverse: a product of ``steps``
    elementary shears I + c*E_ij with c = +-1."""
    s = identity(n)
    s_inv = identity(n)
    if n < 2:
        return s, s_inv
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        e = identity(n)
        e[i][j] = c
        e_inv = identity(n)
        e_inv[i][j] = -c
        s = matmul(s, e)
        s_inv = matmul(e_inv, s_inv)
    return s, s_inv


def conjugate(a: Matrix, s: Matrix, s_inv: Matrix) -> Matrix:
    """s^-1 * a * s: the action in the basis given by the columns of s."""
    return matmul(matmul(s_inv, a), s)


def relabel(perms: Sequence[Sequence[int]], rng) -> list[Perm]:
    """Conjugate permutations by a random relabelling of the points."""
    n = len(perms[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    sigma_inv = invert(sigma)
    return [compose(compose(sigma, p), sigma_inv) for p in perms]


def generating_pair(n: int, order: int, rng, *, even: bool = False) -> list[Perm]:
    """A random pair of permutations of n points generating a group of the
    given order (S_n, or A_n with ``even``)."""
    pool = [p for p in permutations(range(n)) if not even or sign(p) == 1]
    while True:
        a, b = rng.choice(pool), rng.choice(pool)
        if PermGroup([a, b]).order == order:
            return [a, b]
