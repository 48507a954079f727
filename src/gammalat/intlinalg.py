"""Exact integer linear algebra.

Hermite and Smith normal forms with their unimodular transforms.  A Smith
form keeps its matrix and answers every question about it: kernel,
cokernel structure, integer solving, least multiples in the column span
and scaled inverses.  So one factorization serves a matrix asked many
times, and each of the free functions below factors its matrix once.
Everything runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  All outputs are canonical: the same input always
produces the identical object, so downstream reports are reproducible
byte for byte.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from ._value import Value
from .errors import NotInRationalSpan

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "FiniteAbelianGroup",
    "hermite_normal_form",
    "smith_normal_form",
    "cokernel_structure",
    "minimal_multiplier",
    "multiplier_is_minimal",
    "solve_integer_linear",
    "kernel_basis",
    "column_matrix",
    "block_diagonal",
    "bareiss_det",
    "det_width",
    "pack_row",
    "packed_det",
]


class IntMatrix(Value):
    """Immutable integer matrix stored as a tuple of row tuples."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return IntMatrix(len(data), width, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_permutation_matrix(self) -> bool:
        """True if every row and column holds exactly one 1 and zeros elsewhere."""
        if not self.is_square():
            return False
        seen_cols = [False] * self.cols
        for row in self.entries:
            hits = [j for j, x in enumerate(row) if x != 0]
            if len(hits) != 1 or row[hits[0]] != 1:
                return False
            if seen_cols[hits[0]]:
                return False
            seen_cols[hits[0]] = True
        return True

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.entries
        out = []
        for row in self.entries:
            new_row = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    ork = ot[k]
                    for j in range(other.cols):
                        new_row[j] += a * ork[j]
            out.append(tuple(new_row))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in row) for row in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def times_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace requires a square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        return bareiss_det(self.entries)


def det_width(rows: Iterable[Sequence[int]]) -> int:
    """The digit width w for packing ``rows`` (see ``pack_row``): the least
    w with 2^(w-1) above Hadamard's bound, the product of the norms of the
    nonzero rows.

    Every minor of the rows, and of any matrix whose entries are bounded
    entrywise by theirs in absolute value, is at most that bound.
    """
    square = 1
    for row in rows:
        norm = sum(x * x for x in row)
        if norm:
            square *= norm
    return (square.bit_length() + 1) // 2 + 1


def pack_row(row: Sequence[int], width: int) -> int:
    """``row`` as one integer, entry j the signed digit of weight
    2^(width*j).  Packing is linear, so packed rows add and scale as the
    rows do."""
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


def packed_det(rows: Sequence[int], width: int) -> int:
    """Determinant of the square matrix whose rows are packed at ``width``
    (``pack_row``), by fraction-free (Bareiss) elimination; ``width`` must
    come from ``det_width`` of the matrix or of an entrywise bound on it.

    Every entry of every step is a minor of the matrix, so each digit lies
    in [-2^(width-1), 2^(width-1)) and the leading one is read off the low
    bits.  A step is one ``((row*pivot - lead*top) // prev) >> width`` per
    row: every digit of the difference is divisible by ``prev``, so the
    division is exact digit by digit, and the leading digit is zero, so the
    shift drops it.  The rows are read, never modified.
    """
    n = len(rows)
    if n == 0:
        return 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    work = list(rows)
    sign = 1
    prev = 1
    for _ in range(n - 1):
        leads = [((x + half) & mask) - half for x in work]
        if not leads[0]:
            i = next((i for i, c in enumerate(leads) if c), 0)
            if not i:
                return 0
            work[0], work[i] = work[i], work[0]
            leads[0], leads[i] = leads[i], leads[0]
            sign = -sign
        top = work[0]
        pivot = leads[0]
        work = [((x * pivot - c * top) // prev) >> width for x, c in zip(work[1:], leads[1:])]
        prev = pivot
    return sign * work[0]


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square list of rows: ``packed_det`` of the rows
    packed at their own ``det_width``."""
    width = det_width(rows)
    return packed_det([pack_row(row, width) for row in rows], width)


def block_diagonal(blocks: Iterable[IntMatrix]) -> IntMatrix:
    """Direct sum of matrices along the diagonal; empty input gives the 0x0 matrix."""
    blocks = list(blocks)
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = 0
    c0 = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
        r0 += b.rows
        c0 += b.cols
    return IntMatrix(total_r, total_c, tuple(tuple(row) for row in out))


class FiniteAbelianGroup(Value):
    """Finite abelian group in invariant-factor form.

    ``invariant_factors`` are the cyclic orders > 1 with each dividing the
    next; the trivial group is the empty tuple.
    """

    _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]) -> None:
        for d in invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {a}, {b} violate the divisibility chain")
        self.__dict__.update(invariant_factors=invariant_factors)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def describe(self) -> str:
        """``Z/a x Z/b ...`` over the invariant factors, or ``trivial``."""
        if self.is_trivial():
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


class SnfDecomposition(Value):
    """Smith normal form ``u * a * v = d`` of the kept matrix ``a``, with
    ``u`` and ``v`` unimodular, and every answer about ``a`` read off it.

    ``elementary_divisors`` are the nonzero diagonal entries of ``d``
    (including any 1s), positive and each dividing the next; there are
    rank(a) of them.  No answer factors ``a`` again, and the Hermite form
    of the kernel, which makes every solution canonical, is built once, by
    the first solve that needs it.
    """

    _fields = ("a", "u", "d", "v", "elementary_divisors")

    @property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the integer kernel ``{x : a*x = 0}`` (a saturated
        lattice): the columns of ``v`` past the rank."""
        return tuple(self.v.column(j) for j in range(len(self.elementary_divisors), self.a.cols))

    @property
    def cokernel(self) -> tuple[FiniteAbelianGroup, int]:
        """Structure of ``Z^rows / (column span of a)`` as ``(torsion,
        free_rank)``: the elementary divisors > 1, and ``rows - rank``."""
        torsion = FiniteAbelianGroup(tuple(d for d in self.elementary_divisors if d > 1))
        return torsion, self.a.rows - len(self.elementary_divisors)

    @cached_property
    def _kernel_hermite(self) -> tuple[tuple[int, ...], ...]:
        """The rows of the kernel basis's Hermite form, each with a pivot."""
        kern = self.kernel
        if not kern:
            return ()
        return hermite_normal_form(IntMatrix.from_rows(kern, cols=self.a.cols))[0].entries

    def least_multiple(self, b: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Least ``r >= 1`` with ``r*b`` in the column span of ``a``, and the
        canonical ``x`` with ``a*x = r*b``.

        The system becomes ``d*y = r*u*b``: a component of ``w = u*b`` past
        the rank must vanish, and component ``i`` below it needs ``d_i /
        gcd(d_i, w_i)`` to divide ``r``.  The valid multipliers form an
        ideal of Z, so the least one is the lcm of these steps.  ``x = v*y``
        is reduced modulo the Hermite form of the kernel, along its pivots,
        so equal inputs give the identical witness.  Raises
        NotInRationalSpan if no multiple of ``b`` lies in the span.
        """
        b = tuple(int(val) for val in b)
        if len(b) != self.a.rows:
            raise ValueError("right-hand side length mismatch")
        w = self.u.times_vector(b)
        divisors = self.elementary_divisors
        for i in range(len(divisors), self.a.rows):
            if w[i] != 0:
                raise NotInRationalSpan(f"component {i} obstructs rational solvability")
        r = 1
        for d, wi in zip(divisors, w):
            step = d // gcd(d, wi)
            r = r * step // gcd(r, step)
        y = [r * wi // d for d, wi in zip(divisors, w)] + [0] * (self.a.cols - len(divisors))
        x = self.v.times_vector(y)
        for row in self._kernel_hermite:
            pivot = next(j for j, val in enumerate(row) if val)
            q = x[pivot] // row[pivot]
            if q:
                x = tuple(xj - q * hj for xj, hj in zip(x, row))
        if self.a.times_vector(x) != tuple(r * val for val in b):
            raise AssertionError("back-substitution verification failed")
        return r, x

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The canonical integer solution of ``a*x = b`` (see
        ``least_multiple``), or None if none exists."""
        try:
            r, x = self.least_multiple(b)
        except NotInRationalSpan:
            return None
        return x if r == 1 else None

    def is_least_multiple(self, b: Sequence[int], r: int) -> bool:
        """True when ``r*b`` is in the column span of ``a`` and ``(r/p)*b``
        is not, for every prime ``p`` dividing ``r``.

        That certifies that no smaller multiplier exists: the valid
        multipliers form an ideal, so a valid ``r' < r`` would make the
        proper divisor ``gcd(r, r')`` valid, and with it some ``r/p``.
        """
        if r < 1:
            raise ValueError("multiplier must be positive")
        if self.solve([r * x for x in b]) is None:
            return False
        rest, p = r, 2
        while rest > 1:
            if rest % p == 0:
                if self.solve([r // p * x for x in b]) is not None:
                    return False
                while rest % p == 0:
                    rest //= p
            p += 1
        return True

    def scaled_inverse(self, e: int) -> IntMatrix:
        """The integer matrix ``e * a^-1`` of a square nonsingular ``a``.

        Requires every elementary divisor to divide ``e`` (equivalently
        ``e`` annihilates the cokernel), which makes the result integral:
        ``e*a^-1 = v * (e*d^-1) * u``.
        """
        if not self.a.is_square():
            raise ValueError("scaled inverse requires a square matrix")
        n = self.a.rows
        divisors = self.elementary_divisors
        if len(divisors) != n:
            raise ValueError("matrix is singular")
        for d in divisors:
            if e % d != 0:
                raise ValueError(f"divisor {d} does not divide the scale {e}")
        middle = IntMatrix(
            n, n, tuple(tuple(e // divisors[i] if i == j else 0 for j in range(n)) for i in range(n))
        )
        return self.v.mul(middle).mul(self.u)


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        mdst = m[dst]
        msrc = m[src]
        for j in range(len(mdst)):
            mdst[j] -= q * msrc[j]


def _addmul_col(m: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        for row in m:
            row[dst] -= q * row[src]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-x for x in m[i]]


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` with ``u * a = h``, ``u`` unimodular, ``h`` in row
    echelon form with positive pivots and every entry above a pivot reduced
    into ``[0, pivot)``.  Zero rows sink to the bottom.  Pivot selection
    (smallest absolute value, then smallest row index) is fixed, so the
    result is canonical.
    """
    h = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]
    pr = 0
    for col in range(a.cols):
        if pr >= a.rows:
            break
        while True:
            nz = [i for i in range(pr, a.rows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != pr:
                _swap_rows(h, pr, i0)
                _swap_rows(u, pr, i0)
            if h[pr][col] < 0:
                _negate_row(h, pr)
                _negate_row(u, pr)
            p = h[pr][col]
            clean = True
            for i in range(pr + 1, a.rows):
                if h[i][col] != 0:
                    q = h[i][col] // p
                    _addmul_row(h, i, pr, q)
                    _addmul_row(u, i, pr, q)
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if pr < a.rows and h[pr][col] != 0:
            p = h[pr][col]
            for i in range(pr):
                q = h[i][col] // p
                _addmul_row(h, i, pr, q)
                _addmul_row(u, i, pr, q)
            pr += 1
    hm = IntMatrix(a.rows, a.cols, tuple(tuple(row) for row in h))
    um = IntMatrix(a.rows, a.rows, tuple(tuple(row) for row in u))
    return hm, um


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms.

    The diagonal is normalized to nonnegative entries forming a divisibility
    chain, nonzero entries first.  Pivot selection is fixed (smallest
    absolute value, then smallest position), so ``u``, ``d``, ``v`` are
    canonical for a given input.
    """
    r, c = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    t = 0
    while t < min(r, c):
        pivot = None
        key = None
        for i in range(t, r):
            mi = m[i]
            for j in range(t, c):
                x = mi[j]
                if x != 0:
                    k2 = (abs(x), i, j)
                    if key is None or k2 < key:
                        key = k2
                        pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            _swap_rows(m, t, i0)
            _swap_rows(u, t, i0)
        if j0 != t:
            _swap_cols(m, t, j0)
            _swap_cols(v, t, j0)
        while True:
            # Clear the column below the pivot by Euclidean steps.
            for i in range(t + 1, r):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    _addmul_row(m, i, t, q)
                    _addmul_row(u, i, t, q)
            below = [i for i in range(t + 1, r) if m[i][t] != 0]
            if below:
                i0 = min(below, key=lambda i: (abs(m[i][t]), i))
                _swap_rows(m, t, i0)
                _swap_rows(u, t, i0)
                continue
            # Clear the row to the right of the pivot.
            for j in range(t + 1, c):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    _addmul_col(m, j, t, q)
                    _addmul_col(v, j, t, q)
            right = [j for j in range(t + 1, c) if m[t][j] != 0]
            if right:
                j0 = min(right, key=lambda j: (abs(m[t][j]), j))
                _swap_cols(m, t, j0)
                _swap_cols(v, t, j0)
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # offending row into row t and keep reducing.
            p = m[t][t]
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(c):
                m[t][j] += m[offender][j]
            for j in range(r):
                u[t][j] += u[offender][j]
        if m[t][t] < 0:
            _negate_row(m, t)
            _negate_row(u, t)
        t += 1
    divisors = tuple(m[i][i] for i in range(min(r, c)) if m[i][i] != 0)
    dm = IntMatrix(r, c, tuple(tuple(row) for row in m))
    um = IntMatrix(r, r, tuple(tuple(row) for row in u))
    vm = IntMatrix(c, c, tuple(tuple(row) for row in v))
    return SnfDecomposition(a, um, dm, vm, divisors)


def cokernel_structure(a: IntMatrix) -> tuple[FiniteAbelianGroup, int]:
    """``smith_normal_form(a).cokernel``: the torsion and free rank of
    ``Z^rows / (column span of a)``."""
    return smith_normal_form(a).cokernel


def kernel_basis(a: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """``smith_normal_form(a).kernel``: a basis of ``{x : a*x = 0}``."""
    return smith_normal_form(a).kernel


def solve_integer_linear(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """``smith_normal_form(a).solve(b)``: the canonical integer solution of
    ``a*x = b``, or None if none exists."""
    return smith_normal_form(a).solve(b)


def column_matrix(columns: Sequence[Sequence[int]], length: int) -> IntMatrix:
    """The ``length`` x len(columns) matrix whose columns are ``columns``."""
    if any(len(w) != length for w in columns):
        raise ValueError("column length mismatch")
    return IntMatrix.from_rows(columns, cols=length).transpose()


def minimal_multiplier(
    v: Sequence[int], basis: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...]]:
    """Smallest ``r >= 1`` with ``r*v`` in the integer span of ``basis``.

    Returns ``(r, coeffs)`` with ``r*v = sum(coeffs[j] * basis[j])``.
    ``coeffs`` is canonical (reduced modulo the kernel of the basis matrix).
    Raises NotInRationalSpan if no multiple of ``v`` lies in the span.
    """
    return smith_normal_form(column_matrix(basis, len(v))).least_multiple(v)


def multiplier_is_minimal(v: Sequence[int], basis: Sequence[Sequence[int]], r: int) -> bool:
    """True when ``r`` is the least multiplier of ``v`` into the integer
    span of ``basis``, certified on one Smith form
    (``SnfDecomposition.is_least_multiple``)."""
    return smith_normal_form(column_matrix(basis, len(v))).is_least_multiple(v, r)
