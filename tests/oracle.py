"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
library: rational Gaussian elimination instead of Bareiss, column echelon
via repeated gcd steps instead of row Hermite form, breadth-first coset
enumeration instead of Smith normal form, and brute-force search instead
of lattice solving.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence


def det_fraction(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by plain rational Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def column_echelon(vectors: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Echelon basis of the span of integer column vectors via gcd steps.

    Returns vectors whose leading nonzero rows strictly increase; each has
    a positive leading entry.
    """
    cols = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for row in range(n):
        nz = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        while len(nz) > 1:
            nz.sort(key=lambda c: abs(c[row]))
            a, b = nz[0], nz[1]
            q = b[row] // a[row]
            for i in range(n):
                b[i] -= q * a[i]
            if not any(b):
                nz.remove(b)
            elif b[row] == 0:
                nz.remove(b)
                rest.append(b)
        if nz:
            pivot = nz[0]
            if pivot[row] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
        cols = rest
    return basis


def in_column_span(v: Sequence[int], vectors: Sequence[Sequence[int]], n: int) -> bool:
    """Integer membership of v in the span of the given column vectors."""
    basis = column_echelon(vectors, n)
    work = list(v)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if work[p] % b[p] != 0:
            return False
        q = work[p] // b[p]
        for i in range(n):
            work[i] -= q * b[i]
    return not any(work)


def coset_count(
    vectors: Sequence[Sequence[int]], n: int, cap: int = 1024
) -> Optional[int]:
    """Count Z^n modulo the column span by breadth-first enumeration.

    Returns None when the quotient is infinite or has more than cap
    elements.  Representatives are canonicalized by floor reduction
    against the echelon basis, so the walk visits each coset once.
    """
    if n == 0:
        return 1
    basis = column_echelon(vectors, n)
    if len(basis) < n:
        return None

    def canon(vec: Sequence[int]) -> tuple[int, ...]:
        work = list(vec)
        for b in basis:
            p = next(i for i, x in enumerate(b) if x != 0)
            q = work[p] // b[p]
            if q:
                for i in range(n):
                    work[i] -= q * b[i]
        return tuple(work)

    zero = canon([0] * n)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for i in range(n):
            for step in (1, -1):
                nxt = list(cur)
                nxt[i] += step
                rep = canon(nxt)
                if rep not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(rep)
                    frontier.append(rep)
    return len(seen)


def matrix_columns(entries: Sequence[Sequence[int]]) -> list[list[int]]:
    if not entries:
        return []
    return [[row[j] for row in entries] for j in range(len(entries[0]))]


def brute_minimal_multiplier(
    chi: Sequence[int],
    induced: Sequence[Sequence[int]],
    bound: int = 6,
    r_max: int = 8,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest r with r*chi an integer combination of the induced rows,
    found by exhaustive search over coefficients in [-bound, bound]."""
    k = len(induced)
    width = len(chi)
    for r in range(1, r_max + 1):
        target = [r * x for x in chi]
        for combo in iter_product(range(-bound, bound + 1), repeat=k):
            if all(
                sum(c * row[j] for c, row in zip(combo, induced)) == target[j]
                for j in range(width)
            ):
                return r, combo
    return None


def permutation_fixed_points(perm_matrix_entries: Sequence[Sequence[int]]) -> int:
    return sum(row[i] for i, row in enumerate(perm_matrix_entries))


# -- Reference intertwiner basis and embedding search -------------------------
#
# The constraint-system intertwiner basis and the product-order shell search
# as they stood before the library switched to Frobenius reciprocity and
# Gray-code shells.  They call the library's normal forms, so they pin the
# library's canonical choices rather than re-derive them.

_SHELL_BOUNDS = (1, 2, 3, 6, 12, 24)
_SHELL_BUDGET = 20000
_RANDOM_ATTEMPTS = 512
_RANDOM_COEFF_BOUND = 3


def reference_intertwiner_basis(m, n):
    """HNF-canonical Z-basis of Hom_G(m, n), from the integer kernel of the
    full constraint system E * m(g) = n(g) * E over the generators."""
    from gammalat.intlinalg import IntMatrix, hermite_normal_form, kernel_basis

    nvars = n.rank * m.rank
    if nvars == 0:
        return ()
    rows = []
    for gid in m.group.generator_ids:
        a = m.matrices[gid].entries
        b = n.matrices[gid].entries
        for i in range(n.rank):
            for j in range(m.rank):
                row = [0] * nvars
                for q in range(m.rank):
                    row[i * m.rank + q] += a[q][j]
                for p in range(n.rank):
                    row[p * m.rank + j] -= b[i][p]
                rows.append(row)
    kern = kernel_basis(IntMatrix.from_rows(rows, cols=nvars))
    if not kern:
        return ()
    h, _ = hermite_normal_form(IntMatrix.from_rows(kern, cols=nvars))
    return tuple(
        IntMatrix.from_rows(
            [list(row[i * m.rank : (i + 1) * m.rank]) for i in range(n.rank)], cols=m.rank
        )
        for row in h.entries
        if any(row)
    )


def _reference_det(rows: list[list[int]]) -> int:
    """Bareiss determinant on a copy of the rows (rational elimination in
    det_fraction is too slow for whole shells)."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _reference_key(rows: list[list[int]]) -> Optional[tuple]:
    det = _reference_det(rows)
    if det == 0:
        return None
    trace = sum(rows[i][i] for i in range(len(rows)))
    total = sum(abs(x) for row in rows for x in row)
    return (abs(det), total, -trace, tuple(x for row in rows for x in row))


def reference_embedding_matrix(basis, n: int) -> Optional[list[list[int]]]:
    """The n x n combination of ``basis`` that minimizes (|det|, sum of
    absolute entries, -trace, flattened entries), found by visiting every
    coefficient vector of each shell in product order, then the seeded
    pseudorandom draws if no shell fits the budget or yields an invertible
    matrix.  None if nothing invertible turns up."""
    import random

    rows_of = [[list(row) for row in b.entries] for b in basis]
    k = len(rows_of)

    def combine(coeffs):
        out = [[0] * n for _ in range(n)]
        for c, mat in zip(coeffs, rows_of):
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * mat[i][j]
        return out

    best = None
    prev_bound = 0
    for bound in _SHELL_BOUNDS:
        if (2 * bound + 1) ** k > _SHELL_BUDGET:
            break
        for coeffs in iter_product(range(-bound, bound + 1), repeat=k):
            if max(abs(c) for c in coeffs) <= prev_bound:
                continue
            key = _reference_key(combine(coeffs))
            if key is not None and (best is None or key < best):
                best = key
        prev_bound = bound
    if best is None:
        rng = random.Random(0)
        for _ in range(_RANDOM_ATTEMPTS):
            coeffs = [rng.randint(-_RANDOM_COEFF_BOUND, _RANDOM_COEFF_BOUND) for _ in range(k)]
            key = _reference_key(combine(coeffs))
            if key is not None and (best is None or key < best):
                best = key
    if best is None:
        return None
    return [list(best[3][i * n : (i + 1) * n]) for i in range(n)]


# -- Reference subgroup lattice and permutation-basis search ------------------
#
# The subgroup enumeration and the orbit search of permutation-lattice
# recognition as they stood before the library extended only one subgroup
# per conjugacy class, by coset representatives, pruned imprimitive orbit
# choices and built box images from packed partial column sums.


def left_table(group) -> tuple[tuple[int, ...], ...]:
    """The multiplication table, one ``left`` row per element, built once
    per reference call rather than multiplying through ``group.mul``."""
    return tuple(map(group.left, range(group.order)))


def reference_all_subgroups(group) -> tuple[tuple[int, ...], ...]:
    """Every subgroup, as sorted id tuples ordered by (order, tuple), by
    closing each subgroup found together with every element outside it."""
    mt = left_table(group)

    def closure(seed):
        seen = {0}
        queue = [0]
        gens = [int(g) for g in seed]
        while queue:
            g = queue.pop()
            for s in gens:
                h = mt[g][s]
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
        return frozenset(seen)

    found = {frozenset({0})}
    work = [frozenset({0})]
    while work:
        sub = work.pop()
        for g in range(1, group.order):
            if g in sub:
                continue
            bigger = closure(list(sub) + [g])
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s)))


def reference_conjugacy_classes(group) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted id tuples, ordered by (size, least id),
    by conjugating each element by every element of the group."""
    mt = left_table(group)
    inv = [row.index(0) for row in mt]
    seen = set()
    classes = []
    for g in range(group.order):
        if g not in seen:
            cls = {mt[mt[x][g]][inv[x]] for x in range(group.order)}
            seen |= cls
            classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes, key=lambda cls: (len(cls), cls[0])))


def reference_class_reps(group, subgroups) -> tuple[tuple[int, ...], ...]:
    """The smallest member (as a sorted id tuple) of each conjugacy class
    met in ``subgroups`` (sorted id tuples), ordered by (order, tuple), by
    conjugating each subgroup by every element."""
    mt = left_table(group)
    inv = [row.index(0) for row in mt]
    assigned = set()
    reps = []
    for sub in subgroups:
        if sub in assigned:
            continue
        orbit = {tuple(sorted(mt[mt[x][g]][inv[x]] for g in sub)) for x in range(group.order)}
        assigned |= orbit
        reps.append(min(orbit))
    return tuple(sorted(reps, key=lambda r: (len(r), r)))


def reference_permutation_search(m, coord_bound: int):
    """The first unimodular union of orbits met by the unpruned search.

    Enumerates the candidate box in product order with one full mat-vec per
    image, keeps the orbits that stay in the box, and walks orbit subsets
    depth first until their sizes add up to the rank; returns the basis
    vectors, or None when no subset is unimodular."""
    from gammalat.intlinalg import bareiss_det

    rank = m.rank
    lo, hi = -coord_bound, coord_bound
    action_rows = [mm.entries for mm in m.matrices]
    orbits = []
    seen = set()
    for vec in iter_product(range(lo, hi + 1), repeat=rank):
        if vec in seen or not any(vec):
            continue
        orbit = set()
        stays = True
        for rows in action_rows:
            img = tuple(sum(rows[i][j] * vec[j] for j in range(rank)) for i in range(rank))
            if any(x < lo or x > hi for x in img):
                stays = False
            else:
                orbit.add(img)
        seen |= orbit
        seen.add(vec)
        if stays:
            orbits.append(tuple(sorted(orbit)))

    chosen = []

    def search(idx, size):
        if size == rank:
            vectors = tuple(v for orb in chosen for v in orb)
            if abs(bareiss_det([list(col) for col in zip(*vectors)])) == 1:
                return vectors
            return None
        for i in range(idx, len(orbits)):
            if size + len(orbits[i]) > rank:
                continue
            chosen.append(orbits[i])
            found = search(i + 1, size + len(orbits[i]))
            if found is not None:
                return found
            chosen.pop()
        return None

    return search(0, 0)


# -- Reference group closure and law checks -----------------------------------
#
# The multiplication table by composing every pair of permutations, and law
# checks over every tuple of elements, as they stood before the library read
# the table off its closure and checked laws on generator edges only.


def reference_group_tables(perms):
    """(mul_table, inv_table, generator_ids, labels) of the closure of the
    image arrays ``perms``, numbered breadth-first with right
    multiplication by the generators, (a*b)[i] = a[b[i]]."""
    npoints = len(perms[0])
    gens = [tuple(p) for p in perms]
    letters = "abcdefghijklmnopqrstuvwxyz"
    identity = tuple(range(npoints))
    index = {identity: 0}
    elems = [identity]
    words = ["e"]
    for cursor, current in enumerate(elems):
        for gi, g in enumerate(gens):
            nxt = tuple(current[g[i]] for i in range(npoints))
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                words.append(letters[gi] if cursor == 0 else words[cursor] + letters[gi])
    mul_table = tuple(
        tuple(index[tuple(ea[eb[i]] for i in range(npoints))] for eb in elems) for ea in elems
    )
    inv_table = []
    for e in elems:
        inv = [0] * npoints
        for i, img in enumerate(e):
            inv[img] = i
        inv_table.append(index[tuple(inv)])
    return mul_table, tuple(inv_table), tuple(index[g] for g in gens), tuple(words)


def full_scan_failure(order: int, law, arity: int = 2) -> Optional[tuple[int, ...]]:
    """The first ``arity``-tuple of ids in 0..order-1, in ascending order,
    at which ``law`` fails, scanning every tuple; None when there is none."""
    for t in iter_product(range(order), repeat=arity):
        if not law(*t):
            return t
    return None


def reference_homomorphism_witness(lattice) -> Optional[str]:
    """The message naming the first pair (g, h), in id order, with
    M(gh) != M(g)M(h); None when there is none."""
    group, mats = lattice.group, lattice.matrices
    mt = left_table(group)
    bad = full_scan_failure(group.order, lambda g, h: mats[mt[g][h]] == mats[g].mul(mats[h]))
    return None if bad is None else "action fails to multiply at pair ({}, {})".format(*bad)


def _rational_inverse(rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan over Q."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def reference_kernel_matrices(iso, m: int) -> list[list[list[int]]]:
    """The action on the kernel data of m times ``iso``, element by element:
    u * N(g) * u^-1 for every g, with u the left Smith transform of
    iso.matrix and N the target's action, restricted to the coordinates
    whose scaled divisor m * d_i exceeds 1, row i reduced modulo m * d_i."""
    u = iso.snf.u.entries
    u_inv = _rational_inverse(u)
    n = len(u)
    scaled = [m * d for d in iso.snf.elementary_divisors]
    keep = [i for i in range(n) if scaled[i] > 1]
    out = []
    for a in iso.target.matrices:
        conj = [
            [sum(u[i][p] * a.entries[p][q] * u_inv[q][j] for p in range(n) for q in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert all(x.denominator == 1 for row in conj for x in row)
        out.append([[int(conj[i][j]) % scaled[i] for j in keep] for i in keep])
    return out
