"""Integer matrix layer: normal forms, cokernels, solvers."""

import random

import pytest

import gammalat.intlinalg as intlinalg
from gammalat.corpus import builtin_lattices
from gammalat.errors import NotInRationalSpan
from gammalat.groups import cyclic_subgroup_class_reps
from gammalat.induction import induced_trivial_character
from gammalat.intlinalg import (
    FiniteAbelianGroup,
    IntMatrix,
    bareiss_det,
    block_diagonal,
    cokernel_structure,
    hermite_normal_form,
    det_width,
    kernel_basis,
    minimal_multiplier,
    multiplier_is_minimal,
    pack_row,
    packed_det,
    smith_normal_form,
    solve_integer_linear,
)
from gammalat.lattices import character
from oracle import (
    brute_minimal_multiplier,
    column_echelon,
    coset_count,
    det_fraction,
    in_column_span,
    matrix_columns,
)


def rand_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def test_matrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.trace() == 5
    assert a.det() == -2
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert a.times_vector([1, 0]) == (1, 3)
    assert a.column(1) == (2, 4)
    assert IntMatrix.identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert IntMatrix.identity(0).det() == 1
    assert not a.is_permutation_matrix()
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).is_permutation_matrix()


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        a.det()


def test_det_against_rational_elimination():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        assert a.det() == det_fraction(a.entries)


def test_packed_det_against_rational_elimination():
    """The packed elimination on random matrices of order 0 to 9: sparse
    ones whose leading entries vanish (row swaps), zero rows, repeated
    rows, and entries up to 10^6.  A width from a looser entrywise bound
    gives the same determinant."""
    rng = random.Random(16)
    for _ in range(600):
        n = rng.randint(0, 9)
        bound = rng.choice([1, 3, 100, 10**6])
        density = rng.choice([0.3, 0.7, 1.0])
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1:
            edit = rng.randrange(4)
            if edit == 1:
                rows[rng.randrange(n)] = [0] * n
            elif edit == 2:
                rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
            elif edit == 3:
                rows[0][0] = 0
        det = det_fraction(rows)
        assert bareiss_det(rows) == det, rows
        loose = det_width([[bound] * n] * n)
        assert packed_det([pack_row(row, loose) for row in rows], loose) == det, rows


def _hadamard(order: int) -> list[list[int]]:
    rows = [[1]]
    while len(rows) < order:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


def test_packed_det_at_hadamards_bound():
    """Hadamard matrices meet Hadamard's bound, |det| = n^(n/2), the tight
    edge of the width rule; so do their row swaps and negations.  Bordered
    by an identity block, which leaves the bound alone, their determinant
    is an inner minor of the elimination, whose digit is read off."""
    rng = random.Random(8)
    for order in (1, 2, 4, 8):
        h = _hadamard(order)
        det = int(det_fraction(h))
        assert abs(det) == order ** (order // 2)
        for trial in range(21):
            rows = [list(r) for r in h]
            sign = 1
            if trial:
                i, j = rng.randrange(order), rng.randrange(order)
                if i != j:
                    rows[i], rows[j] = rows[j], rows[i]
                    sign = -sign
                for r in rng.sample(range(order), rng.randint(0, order)):
                    rows[r] = [-x for x in rows[r]]
                    sign = -sign
            assert bareiss_det(rows) == sign * det
            bordered = block_diagonal([IntMatrix.from_rows(rows), IntMatrix.identity(2)])
            assert bareiss_det(bordered.entries) == sign * det


def test_hermite_small_cases():
    h, u = hermite_normal_form(IntMatrix.from_rows([[0, 1], [1, 0]]))
    assert h.entries == ((1, 0), (0, 1))
    assert u.mul(IntMatrix.from_rows([[0, 1], [1, 0]])) == h
    h, _ = hermite_normal_form(IntMatrix.from_rows([[2, 4], [4, 8]]))
    assert h.entries == ((2, 4), (0, 0))


def test_hermite_randomized():
    rng = random.Random(202)
    for _ in range(100):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = rand_matrix(rng, rows, cols)
        h, u = hermite_normal_form(a)
        assert abs(u.det()) == 1
        assert u.mul(a) == h
        # Nonzero rows first, with strictly increasing positive pivots and
        # every entry above a pivot in [0, pivot).
        pivots = [next((j for j, x in enumerate(row) if x), None) for row in h.entries]
        nonzero = [p for p in pivots if p is not None]
        assert pivots == nonzero + [None] * (rows - len(nonzero))
        assert all(p < q for p, q in zip(nonzero, nonzero[1:]))
        for i, p in enumerate(nonzero):
            assert h.entries[i][p] > 0
            assert all(0 <= h.entries[k][p] < h.entries[i][p] for k in range(i))
        assert hermite_normal_form(a) == (h, u)


def test_smith_known_values():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.elementary_divisors == (1, 6)
    snf = smith_normal_form(IntMatrix.from_rows([[4, 6], [6, 9]]))
    assert snf.elementary_divisors == (1,)
    snf = smith_normal_form(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert snf.elementary_divisors == ()


def test_smith_randomized():
    rng = random.Random(303)
    for _ in range(100):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = rand_matrix(rng, rows, cols)
        snf = smith_normal_form(a)
        assert abs(snf.u.det()) == 1
        assert abs(snf.v.det()) == 1
        assert snf.u.mul(a).mul(snf.v) == snf.d
        assert all(x == 0 for i, row in enumerate(snf.d.entries) for j, x in enumerate(row) if i != j)
        divs = snf.elementary_divisors
        assert all(d > 0 for d in divs)
        assert all(b % d == 0 for d, b in zip(divs, divs[1:]))
        assert len(divs) == len(column_echelon(matrix_columns(a.entries), rows))
        assert smith_normal_form(a) == snf


def test_smith_form_of_a_multiple_keeps_the_transforms():
    # Kernel data of m times an embedding reads the embedding's own Smith
    # form with every divisor times m; this holds because scaling changes
    # neither the pivot choices nor any Euclidean quotient.
    rng = random.Random(313)
    for _ in range(100):
        a = rand_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        snf = smith_normal_form(a)
        for m in (2, 3, 6):
            scaled = smith_normal_form(a.scale(m))
            assert (scaled.u, scaled.d, scaled.v) == (snf.u, snf.d.scale(m), snf.v)
            assert scaled.elementary_divisors == tuple(m * d for d in snf.elementary_divisors)


def test_cokernel_known_values():
    torsion, free = cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert torsion.invariant_factors == (6,)
    assert free == 0
    torsion, free = cokernel_structure(IntMatrix.from_rows([[2], [0]]))
    assert torsion.invariant_factors == (2,)
    assert free == 1
    torsion, free = cokernel_structure(IntMatrix.identity(4))
    assert torsion.is_trivial() and free == 0


def test_cokernel_order_against_coset_walk():
    rng = random.Random(404)
    checked = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, bound=4)
        torsion, free = cokernel_structure(a)
        cols = matrix_columns(a.entries)
        walked = coset_count(cols, n, cap=600)
        if free > 0:
            assert walked is None
        elif torsion.order <= 512:
            assert walked == torsion.order
            checked += 1
    assert checked >= 20


def test_block_diagonal_cokernel_multiplies():
    """Free ranks add and torsion orders multiply, on a fixed pair and on
    40 seeded random pairs."""
    rng = random.Random(909)
    pairs = [(IntMatrix.from_rows([[2, 0], [0, 2]]), IntMatrix.from_rows([[3]]))]
    pairs += [
        tuple(rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=5) for _ in range(2))
        for _ in range(40)
    ]
    for a, b in pairs:
        ta, fa = cokernel_structure(a)
        tb, fb = cokernel_structure(b)
        tc, fc = cokernel_structure(block_diagonal([a, b]))
        assert tc.order == ta.order * tb.order
        assert fc == fa + fb
    assert cokernel_structure(block_diagonal(pairs[0]))[0].order == 12


def test_finite_abelian_group_accessors():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert not g.is_trivial()
    assert FiniteAbelianGroup(()).exponent == 1
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))


def test_kernel_basis_members_annihilate():
    rng = random.Random(505)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, bound=5)
        basis = kernel_basis(a)
        assert len(basis) == cols - len(column_echelon(matrix_columns(a.entries), rows))
        for v in basis:
            assert a.times_vector(v) == tuple(0 for _ in range(rows))


def test_solve_integer_linear_solvable_and_not():
    a = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert solve_integer_linear(a, [3, 0]) is None
    assert solve_integer_linear(a, [4, -2]) == (2, -1)
    rng = random.Random(606)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, bound=6)
        x0 = [rng.randint(-5, 5) for _ in range(cols)]
        b = a.times_vector(x0)
        x = solve_integer_linear(a, b)
        assert x is not None
        assert a.times_vector(x) == b
        assert solve_integer_linear(a, b) == x
        # agreement with the independent membership test
        assert in_column_span(b, matrix_columns(a.entries), rows)


def test_minimal_multiplier_known():
    r, coeffs = minimal_multiplier([1, 1], [[2, 0], [0, 2]])
    assert r == 2
    assert coeffs == (1, 1)
    r, _ = minimal_multiplier([0, 0], [[1, 0]])
    assert r == 1
    assert minimal_multiplier([0, 0], []) == (1, ())
    with pytest.raises(NotInRationalSpan):
        minimal_multiplier([0, 1], [])


def test_minimal_multiplier_randomized_is_minimal():
    rng = random.Random(707)
    cases = 0
    while cases < 50:
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        try:
            r, coeffs = minimal_multiplier(v, basis)
        except NotInRationalSpan:
            continue
        cases += 1
        combo = [sum(c * basis[j][i] for j, c in enumerate(coeffs)) for i in range(n)]
        assert combo == [r * x for x in v]
        assert multiplier_is_minimal(v, basis, r)
        bmat = IntMatrix.from_rows([[w[i] for w in basis] for i in range(n)], cols=k)
        for smaller in range(1, r):
            assert solve_integer_linear(bmat, [smaller * x for x in v]) is None


def test_scaled_inverse_and_unimodular_inverse():
    a = IntMatrix.from_rows([[1, -1], [1, 1]])
    b = smith_normal_form(a).scaled_inverse(2)
    assert b.entries == ((1, 1), (-1, 1))
    assert a.mul(b) == IntMatrix.identity(2).scale(2)
    u = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert u.mul(smith_normal_form(u).scaled_inverse(1)) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2]])).scaled_inverse(1)
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 0]])).scaled_inverse(1)


def test_one_decomposition_answers_like_a_fresh_one_per_right_hand_side():
    """Solves on one kept decomposition, several of one shape queried in
    turn, equal those on a fresh factorization per right-hand side; a stale
    kernel Hermite form would show as a different canonical witness."""
    rng = random.Random(808)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        kept = [smith_normal_form(rand_matrix(rng, rows, cols, bound=4)) for _ in range(3)]
        for _ in range(15):
            for snf in kept:
                fresh = smith_normal_form(snf.a)
                b = [rng.randint(-6, 6) for _ in range(rows)]
                if rng.random() < 0.5:
                    b = list(snf.a.times_vector([rng.randint(-3, 3) for _ in range(cols)]))
                assert snf.solve(b) == fresh.solve(b)
                try:
                    expected = fresh.least_multiple(b)
                except NotInRationalSpan:
                    with pytest.raises(NotInRationalSpan):
                        snf.least_multiple(b)
                    continue
                assert snf.least_multiple(b) == expected
        for snf in kept:
            assert snf.kernel == kernel_basis(snf.a)
            assert snf.cokernel == cokernel_structure(snf.a)


def test_multiplier_is_minimal_factors_once(monkeypatch):
    calls = []
    original = intlinalg.smith_normal_form

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    assert multiplier_is_minimal([1], [[6]], 6)
    assert len(calls) == 1


def test_multiplier_is_minimal_needs_a_valid_multiplier():
    """The least multiplier of 1 into 2Z is 2; 1 and 3 are not valid, so
    neither is certified, although each has no valid r/p below it."""
    assert multiplier_is_minimal([1], [[2]], 2)
    assert not multiplier_is_minimal([1], [[2]], 1)
    assert not multiplier_is_minimal([1], [[2]], 3)
    assert not multiplier_is_minimal([0, 1], [[1, 0]], 1)


def _assert_only_minimal_multiplier_passes(v, basis, r):
    """``r`` is the minimal multiplier of ``v``; every valid multiplier is a
    multiple of it, and only ``r`` itself may pass ``multiplier_is_minimal``."""
    assert multiplier_is_minimal(v, basis, r)
    for k in range(2, 8):
        assert not multiplier_is_minimal(v, basis, k * r)


def test_multiplier_is_minimal_on_corpus_characters_against_brute_force():
    for lat in builtin_lattices():
        chi = character(lat).values
        induced = [
            induced_trivial_character(lat.group, rep).values
            for rep in cyclic_subgroup_class_reps(lat.group)
        ]
        brute = brute_minimal_multiplier(chi, induced)
        assert brute is not None
        _assert_only_minimal_multiplier_passes(chi, induced, brute[0])


def test_multiplier_is_minimal_on_random_systems():
    """Random systems, with the minimal multiplier confirmed by direct
    membership tests; the second family has multipliers well past 30."""
    rng = random.Random(4242)
    large = 0
    for bound, cases in ((4, 60), (25, 40)):
        done = 0
        while done < cases:
            n = rng.randint(1, 3)
            k = rng.randint(1, n)
            basis = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            v = [rng.randint(-bound, bound) for _ in range(n)]
            try:
                r, _ = minimal_multiplier(v, basis)
            except NotInRationalSpan:
                continue
            done += 1
            large += r > 30
            # the first multiple of v in the span, by direct membership tests
            assert next(s for s in range(1, r + 1) if in_column_span([s * x for x in v], basis, n)) == r
            if bound == 4 and k <= 2 and r <= 8:
                # no smaller multiplier with coefficients in [-6, 6] either
                assert brute_minimal_multiplier(v, basis, bound=6, r_max=r - 1) is None
            _assert_only_minimal_multiplier_passes(v, basis, r)
    assert large >= 10
