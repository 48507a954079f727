"""Embedding-search determinants split along the Q-isotypic components.

A rational class sum z_i, the sum of rho(x) over the elements x of the i-th
rational class (``groups.rational_classes``), is central in Q[G] and fixed
by every Galois automorphism, so on each Q-isotypic component it acts by an
integer scalar lambda_i(W), |lambda_i(W)| <= |class i|.  The sums span a
split commutative algebra A = Q^r, r the number of rational classes and of
Q-irreducibles, whose idempotents e_W project onto the isotypic
components.  Every intertwiner E commutes with them, so it maps the
W-component of M1 into that of M2 (Schur's lemma; Serre, Linear
Representations of Finite Groups, 2.6; Curtis and Reiner, Methods of
Representation Theory I, 1981, section 10).  With P1 and P2 the saturated
Z-bases of those components, E P1 = P2 diag(X_W), each X_W an integer
matrix linear in E, and det E = det P2 * prod det X_W / det P1.

X_W depends only on the basis members that touch it, so the members split
into the connected components of "touch a common block", and |det E| =
|det P2 / det P1| * prod_C f_C(c_C), f_C the product of the |det X_W| of
component C's blocks.  ``IsotypicBlocks.minimum`` searches a box that way.

``lattices.equivariant_finite_index_embedding`` imports this module once a
search has a basis to search, so no other command compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product
from operator import add, itemgetter, mul
from typing import Optional, Sequence

from .groups import FiniteGroup, rational_class_products, rational_classes
from .intlinalg import (
    IntMatrix,
    bareiss_det,
    column_matrix,
    det_width,
    kernel_basis,
    pack_row,
    packed_det,
    smith_normal_form,
)
from .lattices import GammaLattice, _smaller_key

__all__ = ["IsotypicBlocks"]


@lru_cache(maxsize=None)
def _central_idempotents(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], int], ...]:
    """For each Q-irreducible W: an integer vector v and s with sum_i v_i z_i
    = s * e_W.

    In the basis z_t, multiplication by z_i is the matrix a_i of
    ``groups.rational_class_products``, and the coordinate vectors of the
    e_W are the joint eigenvectors of the a_i.  So the space is split by
    the eigenvalues of a_1, then of a_2, and so on, each found among the
    integers of absolute value at most |class i| by a Gram determinant and
    taken as a kernel, until every part is a line.  Then v^2 = s v gives
    s = sum_i v_i lambda_i(W).
    """
    classes, a = rational_classes(group), rational_class_products(group)
    r = len(classes)
    parts = [IntMatrix.identity(r).entries]
    for i in range(1, r):
        finer = []
        for part in parts:
            if len(part) == 1:
                finer.append(part)
                continue
            images = [[sum(map(mul, row, v)) for row in a[i]] for v in part]
            for lam in range(-len(classes[i]), len(classes[i]) + 1):
                cols = [[y - lam * x for x, y in zip(v, img)] for v, img in zip(part, images)]
                if not bareiss_det([[sum(map(mul, p, q)) for q in cols] for p in cols]):
                    kernel = kernel_basis(column_matrix(cols, r))
                    finer.append(tuple(tuple(sum(map(mul, y, col)) for col in zip(*part)) for y in kernel))
        parts = finer
    out = []
    for (v,) in parts:
        t = next(j for j, x in enumerate(v) if x)
        s = sum(vi * sum(map(mul, a[i][t], v)) // v[t] for i, vi in enumerate(v))
        out.append((v, s))
    return tuple(out)


def _order_sign(seq: Sequence[int]) -> int:
    """The sign of the permutation listed by ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions & 1 else 1


def _support_components(m: GammaLattice) -> list[list[int]]:
    """The coordinates of ``m`` split into the connected components of the
    generators' supports, so that every element acts block-diagonally;
    each ascending, ordered by their least coordinate."""
    owner = list(range(m.rank))
    members = {i: [i] for i in range(m.rank)}
    for a in m.generators:
        for i, row in enumerate(a.entries):
            for j, x in enumerate(row):
                keep, drop = owner[i], owner[j]
                if x and keep != drop:
                    if len(members[keep]) < len(members[drop]):
                        keep, drop = drop, keep
                    for y in members.pop(drop):
                        owner[y] = keep
                        members[keep].append(y)
    return sorted(sorted(block) for block in members.values())


@lru_cache(maxsize=None)
def _isotypic_bases(c: GammaLattice) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each Q-irreducible W, in ``_central_idempotents`` order, a
    Z-basis of the W-component of ``c``: the kernel of s - rho(v), which
    is saturated, or () where the trace of rho(v), s times the component's
    rank, says it is zero."""
    d = c.rank
    mats = c.matrices_of(range(c.group.order))
    sums = []
    for members in rational_classes(c.group):
        total = [0] * (d * d)
        for x in members:
            total = list(map(add, total, chain.from_iterable(mats[x].entries)))
        sums.append(total)
    out = []
    for v, s in _central_idempotents(c.group):
        image = [sum(map(mul, v, entries)) for entries in zip(*sums)]
        if not sum(image[:: d + 1]):
            out.append(())
            continue
        rows = tuple(tuple((s if i == j else 0) - image[i * d + j] for j in range(d)) for i in range(d))
        out.append(kernel_basis(IntMatrix(d, d, rows)))
    return tuple(out)


@lru_cache(maxsize=None)
def _scaled_frame_inverse(frame: tuple[tuple[int, ...], ...]) -> tuple[int, IntMatrix]:
    """(e, e * P^-1) for P the square matrix with columns ``frame``, e its
    largest elementary divisor, so the inverse is integral."""
    snf = smith_normal_form(column_matrix(frame, len(frame)))
    e = snf.elementary_divisors[-1]
    return e, snf.scaled_inverse(e)


def _isotypic_frame(
    m: GammaLattice, inverse: bool
) -> tuple[list[int], list[list[list[tuple[int, int]]]], list[list[int]], int]:
    """The Z-bases of m's isotypic components, component by component.

    Returns the size of each W's block, and for each W and coordinate
    the (block position, value) pairs of P_W's row there, or with
    ``inverse`` of e * P^-1's column there, with the divisor e of each
    block row; and det P, P's columns grouped by W, then by component.
    """
    n, group = m.rank, m.group
    count = len(_central_idempotents(group))
    sizes = [0] * count
    entries: list[list[list[tuple[int, int]]]] = [[[] for _ in range(n)] for _ in range(count)]
    divisors: list[list[int]] = [[] for _ in range(count)]
    det, placed = 1, []
    gens = [a.entries for a in m.generators]
    components = _support_components(m)
    for coords in components:
        d = len(coords)
        sub = tuple(IntMatrix(d, d, tuple(tuple(a[i][j] for j in coords) for i in coords)) for a in gens)
        bases = _isotypic_bases(GammaLattice(group, d, sub))
        frame = tuple(col for basis in bases for col in basis)
        det *= bareiss_det(frame)
        if inverse:
            e, inv = _scaled_frame_inverse(frame)
            cols = iter(inv.entries)
        for w, basis in enumerate(bases):
            for col in basis:
                q = sizes[w]
                sizes[w] += 1
                placed.append((w, q))
                if inverse:
                    col = next(cols)
                    divisors[w].append(e)
                for local, x in enumerate(col):
                    if x:
                        entries[w][coords[local]].append((q, x))
    starts = list(accumulate(sizes, initial=0))
    det *= _order_sign([i for coords in components for i in coords])
    det *= _order_sign([starts[w] + q for w, q in placed])
    return sizes, entries, divisors, det


class IsotypicBlocks:
    """The candidates sum_j c_j B_j of one search, each held as its blocks
    X_W(c) = sum_j c_j X_{j,W} (see the module docstring), smallest first.

    ``cells`` lists, per basis member, its nonzero block rows as (block,
    row index, row) triples; ``det`` reads a candidate's determinant off
    the packed rows of its blocks, the rows of all blocks in turn, and
    ``minimum`` searches a box of candidates.
    """

    def __init__(self, m1: GammaLattice, m2: GammaLattice, nonzeros: list[list[tuple[int, int]]]) -> None:
        n = m1.rank
        self.n, self.nonzeros = n, nonzeros
        sizes, source, _, det1 = _isotypic_frame(m1, inverse=False)
        _, target, divisors, det2 = _isotypic_frame(m2, inverse=True)
        order = sorted((w for w, size in enumerate(sizes) if size), key=lambda w: (sizes[w], w))
        self.sizes = [sizes[w] for w in order]
        self.ratio = (det2, det1)
        self.cells = []
        for nz in nonzeros:
            blocks = [[[0] * sizes[w] for _ in range(sizes[w])] for w in order]
            for idx, val in nz:
                i, j = divmod(idx, n)
                for w, block in zip(order, blocks):
                    right = source[w][j]
                    for p, x in target[w][i]:
                        row, f = block[p], val * x
                        for q, y in right:
                            row[q] += f * y
            self.cells.append(
                [
                    (b, p, [x // divisors[w][p] for x in row])
                    for b, (w, block) in enumerate(zip(order, blocks))
                    for p, row in enumerate(block)
                    if any(row)
                ]
            )

    def packed(self, bound: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """The digit width of each block of every candidate with
        coefficients in [-bound, bound], fixed from the entrywise bound
        bound * sum_j |X_{j,W}|, and each member's block rows packed at it
        (``pack_row``) as (row, packed row) pairs, the rows of all blocks
        numbered in turn."""
        totals = [[[0] * size for _ in range(size)] for size in self.sizes]
        for cells in self.cells:
            for b, p, row in cells:
                totals[b][p] = [t + bound * abs(x) for t, x in zip(totals[b][p], row)]
        widths = list(map(det_width, totals))
        starts = list(accumulate(self.sizes, initial=0))
        moves = [[(starts[b] + p, pack_row(row, widths[b])) for b, p, row in cells] for cells in self.cells]
        return widths, moves

    def det(self, rows: list[int], widths: Sequence[int]) -> int:
        """The determinant of the candidate whose block rows, packed at
        ``widths``, are ``rows``; a zero block ends the product early."""
        num, den = self.ratio
        start = 0
        for size, width in zip(self.sizes, widths):
            block = packed_det(rows[start : start + size], width)
            if not block:
                return 0
            num *= block
            start += size
        return num // den

    def components(self) -> list[tuple[list[int], list[int]]]:
        """The basis members split into the connected components of "touch
        a common block", as (members, blocks) pairs, both ascending,
        ordered by their least member."""
        found: list[tuple[set[int], list[int]]] = []
        for j, cells in enumerate(self.cells):
            blocks, members = {b for b, _, _ in cells}, [j]
            for comp in [c for c in found if c[0] & blocks]:
                found.remove(comp)
                blocks |= comp[0]
                members += comp[1]
            found.append((blocks, members))
        return sorted((sorted(members), sorted(blocks)) for blocks, members in found)

    def minimum(self, bound: int) -> Optional[tuple]:
        """The least key (``lattices._smaller_key``, E standing for +-E)
        over the candidates with coefficients in [-bound, bound]^k, not all
        zero; None if every one is singular.

        A component set to zero has a zero block, so an invertible
        candidate sets every component to a nonzero setting with f_C >= 1
        (see the module docstring).  So the least |det| is |det P2 / det P1|
        times each component's least f_C, reached exactly on the product of
        the components' least settings, and only there are the other terms
        of the key compared.  E and -E share their key, so the first
        component keeps one of each pair +-c of its settings, the others
        both.
        """
        comps = self.components()
        if sum(len(blocks) for _, blocks in comps) < len(self.sizes):
            return None
        widths, moves = self.packed(bound)
        num, den = self.ratio
        det, parts = abs(num), []
        for i, (members, blocks) in enumerate(comps):
            f, settings = self._least_settings(members, blocks, bound, widths, moves)
            if not settings:
                return None
            if i:
                settings += [tuple(-c for c in s) for s in settings]
            det *= f
            part = []
            for coeffs in settings:
                flat = [0] * (self.n * self.n)
                for c, j in zip(coeffs, members):
                    for idx, val in self.nonzeros[j]:
                        flat[idx] += c * val
                part.append(flat)
            parts.append(part)
        det //= abs(den)
        best = None
        for chosen in product(*parts):
            best = _smaller_key(list(map(sum, zip(*chosen))), self.n, best, paired=True, det=det)
        return best

    def _least_settings(
        self,
        members: list[int],
        blocks: list[int],
        bound: int,
        widths: list[int],
        moves: list[list[tuple[int, int]]],
    ) -> tuple[int, list[tuple[int, ...]]]:
        """The least nonzero product of |det X_W| over ``blocks`` on the box
        [-bound, bound]^members, and every setting with a positive leading
        coefficient that reaches it (none if all are singular).

        The box is walked in reflected Gray-code order, each step adding or
        subtracting one member's packed block rows (``packed``).  Each
        block's |det| is kept by the coefficients of the members that touch
        it, and a setting is dropped once the product over its blocks so
        far, smallest first, is zero or exceeds the least so far.
        """
        starts = list(accumulate(self.sizes, initial=0))
        plan = []
        for b in blocks:
            support = [i for i, j in enumerate(members) if any(c[0] == b for c in self.cells[j])]
            plan.append((starts[b], starts[b + 1], widths[b], itemgetter(*support), {}))
        rows = [0] * starts[-1]
        for j in members:
            for r, x in moves[j]:
                rows[r] -= bound * x
        coeffs, steps = [-bound] * len(members), [1] * len(members)
        least, found = 0, []
        while True:
            if next(filter(None, coeffs), 0) > 0:
                f = 1
                for lo, hi, width, support, dets in plan:
                    key = support(coeffs)
                    d = dets.get(key)
                    if d is None:
                        d = dets[key] = abs(packed_det(rows[lo:hi], width))
                    f *= d
                    if not f or least and f > least:
                        break
                else:
                    if f != least:
                        least, found = f, []
                    found.append(tuple(coeffs))
            for i, c in enumerate(coeffs):
                if -bound <= c + steps[i] <= bound:
                    break
                steps[i] = -steps[i]
            else:
                return least, found
            coeffs[i] += steps[i]
            for r, x in moves[members[i]]:
                rows[r] += steps[i] * x
