"""Lattices with group action: characters, twists, recognition, embeddings."""

import random
from fractions import Fraction
from itertools import chain
from itertools import product as iter_product

import pytest

import gammalat.lattices as lattices_mod
from gammalat.corpus import builtin_group, builtin_lattice, builtin_lattices
from gammalat.errors import (
    CharacterMismatch,
    GroupMismatch,
    NotAHomomorphism,
    NotUnimodular,
)
from gammalat.groups import (
    GroupAction,
    GroupHom,
    all_actions,
    all_subgroups,
    conjugacy_classes,
    enumerate_cocycles,
    group_from_generators,
    same_group,
    semidirect_product,
    subgroup_closure,
    trivial_group,
    twisted_section,
)
from gammalat.induction import artin_decompose, build_multiplicity_lattice
from gammalat.intlinalg import IntMatrix, bareiss_det
from gammalat.isotypic import IsotypicBlocks
from gammalat.lattices import (
    GammaLattice,
    RationalCharacter,
    character,
    direct_sum,
    dual,
    equivariant_finite_index_embedding,
    induced_lattice,
    intertwiner_basis,
    is_permutation_lattice,
    lattice_embedding,
    lattice_from_action,
    power,
    restrict_action,
    trivial_lattice,
    twist,
    zero_lattice,
)
from gammalat.lattices import _generating_subset
from oracle import (
    det_fraction,
    left_table,
    permutation_fixed_points,
    reference_embedding_matrix,
    reference_homomorphism_witness,
    reference_intertwiner_basis,
    reference_permutation_search,
)


def test_corpus_lattices_validate():
    lats = builtin_lattices()
    assert len(lats) == 16
    for lat in lats:
        lat.validate()


def test_lattice_from_action_rejects_non_unimodular():
    c2 = builtin_group("c2")
    with pytest.raises(NotUnimodular):
        lattice_from_action(c2, 1, [IntMatrix.from_rows([[2]])])


def test_character_values():
    assert character(builtin_lattice("s3_standard")).values == (2, -1, 0)
    assert character(builtin_lattice("c2_sign")).values == (1, -1)
    assert character(builtin_lattice("v4_character")).values == (1, -1, 1, -1)
    assert character(builtin_lattice("c4_gaussian")).values == (2, 0, -2, 0)
    reg = character(builtin_lattice("c3_regular")).values
    assert reg == (3, 0, 0)


def test_character_class_function_laws():
    for lat in builtin_lattices():
        chi = character(lat)
        assert chi.values[0] == lat.rank
        assert all(type(v) is int for v in chi.values)
        for g in range(lat.group.order):
            assert chi.value_at(g) == lat.matrices[g].trace()


def test_character_arithmetic():
    a = character(builtin_lattice("c2_sign"))
    b = character(builtin_lattice("c2_trivial"))
    assert (a + b).values == (2, 0)
    assert a.scale(3).values == (3, -3)
    with pytest.raises(GroupMismatch):
        a + character(builtin_lattice("c3_regular"))


def test_direct_sum_power_zero_trivial():
    c2 = builtin_group("c2")
    s = direct_sum(builtin_lattice("c2_sign"), builtin_lattice("c2_trivial"))
    assert s.rank == 2
    assert character(s).values == (2, 0)
    p = power(builtin_lattice("c2_sign"), 3)
    assert p.rank == 3
    assert character(p).values == (3, -3)
    assert zero_lattice(c2).rank == 0
    assert trivial_lattice(c2, 2).matrices[1] == IntMatrix.identity(2)
    assert power(builtin_lattice("c2_sign"), 0).rank == 0
    with pytest.raises(GroupMismatch):
        direct_sum(builtin_lattice("c2_sign"), builtin_lattice("c3_regular"))


def test_same_group_compares_generator_ids():
    """C2 and C2 acting on the trivial group have one table, but the
    product's generators are (identity, a): generator matrices, matched by
    position, mean different things over the two groups."""
    c2 = builtin_group("c2")
    prod = semidirect_product(GroupAction.trivial(c2, trivial_group())).group
    assert left_table(prod) == left_table(c2) and prod.generator_ids != c2.generator_ids
    assert not same_group(c2, prod)
    one, minus = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])
    sign = lattice_from_action(prod, 1, [one, minus])
    assert character(sign).values == (1, -1)
    with pytest.raises(GroupMismatch):
        direct_sum(builtin_lattice("c2_sign"), sign)
    for source in (trivial_lattice(c2), builtin_lattice("c2_sign")):
        with pytest.raises(GroupMismatch):
            lattice_embedding(source, sign, one)
    assert character(direct_sum(sign, sign)).values == (2, -2)
    assert lattice_embedding(sign, sign, one).index == 1


def test_induced_lattice_counts_fixed_cosets():
    s3 = builtin_group("s3")
    lat = induced_lattice(s3, (0, 1))
    assert lat.rank == 3
    for g in range(6):
        assert lat.matrices[g].is_permutation_matrix()
    assert character(lat).values == (3, 0, 1)
    for g in range(6):
        assert permutation_fixed_points(
            [list(row) for row in lat.matrices[g].entries]
        ) == character(lat).value_at(g)


def test_dual_involution_and_character():
    for lat in builtin_lattices():
        assert dual(dual(lat)) == lat
        assert character(dual(lat)).values == character(lat).values
        inverse_transposes = [lat.matrices[lat.group.inv(s)].transpose() for s in lat.group.generator_ids]
        assert list(dual(lat).generators) == inverse_transposes


def test_dual_over_s7_reads_the_cayley_graph():
    """The generators' inverses come from the Cayley graph and only their
    matrices are multiplied out, so the dual walks no word of S7."""
    perms = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    s7 = group_from_generators(perms)
    # S7 permuting the coordinates of Z^7; permutation matrices are orthogonal.
    gens = tuple(IntMatrix.from_rows([[int(p[j] == i) for j in range(7)] for i in range(7)]) for p in perms)
    assert dual(GammaLattice(s7, 7, gens)).generators == gens
    assert "_parents" not in vars(s7)


def test_sign_lattice_over_s6_and_its_character_read_the_cayley_graph():
    """A lattice's law is checked on the Cayley edges and its character
    conjugates along the generators, so neither walks a word of S6."""
    s6 = group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
    minus = IntMatrix.from_rows([[-1]])
    values = character(lattice_from_action(s6, 1, [minus, minus])).values
    # Eleven cycle types; the five with an odd number of even cycles are odd.
    assert len(values) == 11 and values.count(-1) == 5 and values.count(1) == 6
    assert "_parents" not in vars(s6)


def test_restrict_action():
    s3 = builtin_group("s3")
    c2 = builtin_group("c2")
    std = builtin_lattice("s3_standard")
    inc = GroupHom(c2, s3, (0, 1))
    res = restrict_action(std, inc)
    assert res.group.order == 2
    assert res.matrices[1] == std.matrices[1]
    assert res.matrices[1].entries == ((-1, 1), (0, 1))


def test_twist_multiplies_out_only_the_sections_images():
    """Restricting reads the images of the source's generators through
    ``matrices_of``, so twisting an unvalidated induced lattice over a
    semidirect product leaves its ``matrices`` underived, and the twist is
    still the restriction of the multiplied-out action."""
    c2, c4 = builtin_group("c2"), builtin_group("c4")
    inversion = next(a for a in all_actions(c2, c4) if not a.is_trivial())
    prod = semidirect_product(inversion)
    lat = induced_lattice(prod.group, (0,)).with_name("fresh")
    twists = [twist(lat, x) for x in enumerate_cocycles(inversion)]
    assert "matrices" not in vars(lat) and len(twists) > 1
    for x, tw in zip(enumerate_cocycles(inversion), twists):
        section = twisted_section(x)
        assert tw.generators == tuple(lat.matrices[section.apply(h)] for h in c2.generator_ids)


def test_intertwiner_basis_dimensions():
    c2 = builtin_group("c2")
    reg = builtin_lattice("c2_regular")
    target = direct_sum(builtin_lattice("c2_sign"), builtin_lattice("c2_trivial"))
    basis = intertwiner_basis(reg, target)
    assert len(basis) == 2
    for e in basis:
        for g in range(2):
            assert e.mul(reg.matrices[g]) == target.matrices[g].mul(e)
    # no intertwiners in either direction between sign and trivial
    assert intertwiner_basis(builtin_lattice("c2_sign"), builtin_lattice("c2_trivial")) == ()


def _s4_standard():
    """S4 on the sum-zero sublattice of Z^4, basis e_i - e_(i+1)."""
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    mats = []
    for p in gens:
        # p sends e_j to e_p[j]; coordinates in the basis are prefix sums.
        images = [[(p[j] == i) - (p[j + 1] == i) for j in range(3)] for i in range(4)]
        mats.append(
            IntMatrix.from_rows(
                [[sum(images[r][j] for r in range(i + 1)) for j in range(3)] for i in range(3)]
            )
        )
    return lattice_from_action(group_from_generators(gens), 3, mats, "s4_standard")


def test_character_reads_the_full_table_traces(monkeypatch):
    """character multiplies only along the words to each class's first
    member, and every member of the class has that trace in the full
    ``matrices`` table, on every corpus lattice and S4's standard one."""
    muls = []
    mul = IntMatrix.mul
    monkeypatch.setattr(IntMatrix, "mul", lambda a, b: muls.append(1) or mul(a, b))
    for lat in [*builtin_lattices(), _s4_standard()]:
        fresh = GammaLattice(lat.group, lat.rank, lat.generators)
        muls.clear()
        values = character.__wrapped__(fresh).values
        assert "matrices" not in vars(fresh)
        assert len(muls) <= lat.group.order - 1
        for cls, value in zip(conjugacy_classes(lat.group), values):
            assert {lat.matrices[g].trace() for g in cls} == {value}, lat.name
    # S4's five class representatives take 4 products where the full
    # table takes 23.
    assert len(muls) == 4


def _ono_pair(lat):
    """The (M1, M^r + M0) pair whose embedding ``ono`` searches for."""
    sol = artin_decompose(lat)
    m1 = build_multiplicity_lattice(lat.group, sol.reps, sol.m)
    m0 = build_multiplicity_lattice(lat.group, sol.reps, sol.n)
    return m1, direct_sum(power(lat, sol.r), m0)


def test_validate_names_the_pair_scan_witness():
    """Checking generators only still reports the first failing pair."""
    good = builtin_lattice("s3_standard")
    mats = good.matrices
    # Generator tuples that break a relation of S3: generator k set to the
    # matrix of another element.
    for k, y in ((0, 2), (0, 5), (1, 3)):
        gens = list(good.generators)
        gens[k] = mats[y]
        bad = GammaLattice(good.group, good.rank, tuple(gens))
        expected = reference_homomorphism_witness(bad)
        assert expected is not None
        with pytest.raises(NotAHomomorphism) as info:
            bad.validate()
        assert str(info.value) == expected
    # The same for every generator of every corpus lattice and of S4's
    # standard lattice, set to each element's matrix in turn.
    broken = 0
    for lat in [*builtin_lattices(), _s4_standard()]:
        for k, y in iter_product(range(len(lat.generators)), range(lat.group.order)):
            gens = list(lat.generators)
            gens[k] = lat.matrices[y]
            other = GammaLattice(lat.group, lat.rank, tuple(gens))
            expected = reference_homomorphism_witness(other)
            if expected is None:
                other.validate()
                continue
            broken += 1
            with pytest.raises(NotAHomomorphism) as info:
                other.validate()
            assert str(info.value) == expected
    assert broken > 0
    # The generator of C2 extended by words, but squaring to something else.
    with pytest.raises(NotAHomomorphism) as info:
        lattice_from_action(builtin_group("c2"), 2, [IntMatrix.from_rows([[0, 1], [1, 1]])])
    assert str(info.value) == "action fails to multiply at pair (1, 1)"
    assert reference_homomorphism_witness(good) is None


def test_finite_module_factors_form_a_divisibility_chain():
    c2 = builtin_group("c2")
    for factors in ((1,), (-4,), (0,), (2, 3)):
        gens = (IntMatrix.identity(len(factors)),)
        with pytest.raises(ValueError, match="invariant factor"):
            GammaLattice(c2, len(factors), gens, factors)


def test_finite_module_validates_modulo_its_factors():
    """C2 acting on Z/4 by 3 is an action (9 = 1 mod 4); C3 acting by 3 is
    not (27 = 3 mod 4)."""
    three = IntMatrix.from_rows([[3]])
    GammaLattice(builtin_group("c2"), 1, (three,), (4,)).validate()
    with pytest.raises(NotAHomomorphism):
        GammaLattice(builtin_group("c3"), 1, (three,), (4,)).validate()
    # Generators are stored reduced, and so is every derived matrix.
    module = GammaLattice(builtin_group("c2"), 1, (IntMatrix.from_rows([[-5]]),), (4,))
    assert module.generators[0] == three
    assert module.matrices == (IntMatrix.identity(1), three)
    assert (module.structure.invariant_factors, module.order) == ((4,), 4)


def _sign_lattice(owner):
    """Z^n over C2^3, coordinate i acted on by the owner[i]-th of its eight
    sign characters: the isotypic blocks are the coordinates of each owner,
    and the intertwiners are the matrices supported on those blocks."""
    group = group_from_generators([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)])
    n = len(owner)
    signs = [[(-1) ** (w >> t & 1) for w in owner] for t in range(3)]
    gens = [IntMatrix.from_rows([[x * (i == j) for j in range(n)] for i, x in enumerate(row)]) for row in signs]
    return lattice_from_action(group, n, gens)


def _nonzeros(basis, n):
    return [
        [(i * n + j, x) for i, row in enumerate(b.entries) for j, x in enumerate(row) if x]
        for b in basis
    ]


def test_isotypic_block_det_matches_bareiss():
    """A matrix supported on the isotypic blocks of a sign lattice, with its
    coordinates owned at random, has the determinant of the block product
    (``IsotypicBlocks.det``): the identity the box search factors along."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        owner = [rng.randrange(8) for _ in range(n)]
        rows = [[rng.randint(-3, 3) if owner[i] == owner[j] else 0 for j in range(n)] for i in range(n)]
        lat = _sign_lattice(owner)
        isotypic = IsotypicBlocks(lat, lat, _nonzeros([IntMatrix.from_rows(rows, cols=n)], n))
        assert sorted(isotypic.sizes) == sorted(owner.count(w) for w in set(owner))
        widths, (moves,) = isotypic.packed(1)
        packed = [0] * n
        for cell, x in moves:
            packed[cell] += x
        assert isotypic.det(packed, widths) == bareiss_det(rows)


def _isotypic_basis(rng, shape, lead="random"):
    """Intertwiners of a sign lattice (``_sign_lattice``) in components:
    ``shape`` lists (block sizes, members) per component, an int for one
    block; coordinates and basis order are shuffled.  A component's first
    member touches all its blocks, each triangular with a unit diagonal,
    and the others a random nonempty subset of them, at random.
    On the leading component's first block (that of basis index 0) the
    members have rank 1 with lead="rank1", and rows proportional to their
    first with lead="singular"."""
    sizes = [(s,) if isinstance(s, int) else s for s, _ in shape]
    n = sum(map(sum, sizes))
    order = list(range(n))
    rng.shuffle(order)
    owner, blocks, start = [0] * n, [], 0
    for w, size in enumerate(chain(*sizes)):
        blocks.append(order[start : start + size])
        for i in blocks[-1]:
            owner[i] = w
        start += size
    mats = []
    for c, ((_, members), own) in enumerate(zip(shape, sizes)):
        mine, blocks = blocks[: len(own)], blocks[len(own) :]
        for t in range(members):
            touched = mine if t == 0 else [rows for rows in mine if rng.random() < 0.5] or [rng.choice(mine)]
            entries = [[0] * n for _ in range(n)]
            for rows in touched:
                first = c == 0 and rows is mine[0]
                if first and lead == "rank1":
                    u = [rng.choice([-1, 1, 2]) for _ in rows]
                    v = [rng.randint(-2, 2) for _ in rows]
                    v[rng.randrange(len(rows))] = 1
                    for ui, i in zip(u, rows):
                        for vj, j in zip(v, rows):
                            entries[i][j] = ui * vj
                    continue
                for a, i in enumerate(rows):
                    for b, j in enumerate(rows):
                        entries[i][j] = rng.choice([-2, -1, 0, 0, 1, 1, 2]) if t or b > a else 0
                    entries[i][rng.choice(rows) if t else i] = rng.choice([-1, 1])
                if first and lead == "singular":
                    for k, i in enumerate(rows[1:], start=2):
                        entries[i] = [k * x for x in entries[rows[0]]]
            mats.append((c, IntMatrix.from_rows(entries, cols=n)))
    lead_members = [m for c, m in mats if c == 0]
    rest = [m for c, m in mats if c]
    rng.shuffle(rest)
    return lead_members[:1] + rest + lead_members[1:], _sign_lattice(owner)


def _box_bound(k):
    bounds, budget = lattices_mod._SHELL_BOUNDS, lattices_mod._SHELL_BUDGET
    return max((b for b in bounds if (2 * b + 1) ** k <= budget), default=0)


def _component_shapes(isotypic):
    """(basis matrices, block sizes) of each component of the search."""
    comps = isotypic.components()
    return sorted((len(members), sorted(isotypic.sizes[b] for b in blocks)) for members, blocks in comps)


def test_block_search_matches_reference():
    """The component search finds exactly the matrix the product-order
    reference search finds, with 2 to 4 components of one or more isotypic
    blocks over ranks 2 to 7; where a component is structurally singular,
    both find nothing."""
    rng = random.Random(5)
    cases = [
        ([(1, 1), (1, 1)], "random"),
        ([(2, 1), (1, 2)], "random"),
        ([(2, 2), (2, 2)], "random"),
        ([(1, 1), (1, 1), (2, 2)], "random"),
        ([(1, 1), (1, 1), (1, 1), (1, 1)], "random"),
        ([(1, 1), (2, 1), (3, 2)], "random"),
        ([(2, 2), (2, 1), (2, 2)], "random"),
        ([(2, 2), (1, 1)], "rank1"),
        ([(3, 2), (2, 2)], "rank1"),
        ([(2, 2), (2, 1)], "singular"),
        ([((1, 2), 3), ((1, 1), 2)], "random"),
        ([((2, 1), 2), (1, 1), ((1, 1), 2)], "random"),
    ]
    found = 0
    for shape, lead in cases:
        basis, lat = _isotypic_basis(rng, shape, lead)
        n = lat.rank
        isotypic = IsotypicBlocks(lat, lat, _nonzeros(basis, n))
        sizes = [(s,) if isinstance(s, int) else s for s, _ in shape]
        assert _component_shapes(isotypic) == sorted((m, sorted(own)) for (_, m), own in zip(shape, sizes))
        expected = reference_embedding_matrix(basis, n)
        found += expected is not None
        best = isotypic.minimum(_box_bound(len(basis)))
        if best is None:
            assert expected is None, (shape, lead)
        else:
            assert [list(best[3][i * n : (i + 1) * n]) for i in range(n)] == expected, (shape, lead)
    # The two structurally singular leading blocks find nothing; the
    # comparison is not vacuous for the others.
    assert found >= len(cases) - 3


def test_component_settings_reach_the_least_block_product():
    """Each component's walk returns the least nonzero |det| of its part of
    the candidate (its rows and columns) over its own box, and exactly the
    settings with a positive leading coefficient that reach it."""
    rng = random.Random(16)
    shapes = (
        ([(2, 1), (1, 2)], 3),
        ([(2, 2), (2, 2)], 2),
        ([(1, 1), (3, 2)], 2),
        ([((1, 2), 3), ((1, 1), 2)], 3),
    )
    checked = 0
    for shape, bound in shapes:
        basis, lat = _isotypic_basis(rng, shape)
        assert any(x < 0 for b in basis for row in b.entries for x in row)
        n = lat.rank
        isotypic = IsotypicBlocks(lat, lat, _nonzeros(basis, n))
        widths, moves = isotypic.packed(bound)
        for members, blocks in isotypic.components():
            coords = sorted({i for j in members for i in range(n) if any(basis[j].entries[i])})
            least, settings = None, []
            for coeffs in iter_product(range(-bound, bound + 1), repeat=len(members)):
                if next(filter(None, coeffs), 0) <= 0:
                    continue
                rows = [basis[j].entries for j in members]
                part = [[sum(c * b[i][t] for c, b in zip(coeffs, rows)) for t in coords] for i in coords]
                det = abs(bareiss_det(part))
                if det and (least is None or det <= least):
                    settings = settings if det == least else []
                    least = det
                    settings.append(coeffs)
            assert settings
            walked, reached = isotypic._least_settings(members, blocks, bound, widths, moves)
            assert (walked, sorted(reached)) == (least, settings)
            checked += 1
    assert checked == 8


def test_a_singular_component_leaves_the_box_empty():
    """A basis whose leading component is singular at every setting, beside
    one with invertible settings, has no invertible candidate, and neither
    has a basis that leaves an isotypic block untouched; the reference
    search, draws included, finds none either."""
    rng = random.Random(7)
    basis, lat = _isotypic_basis(rng, [(2, 2), ((1, 2), 2)], "singular")
    n = lat.rank
    isotypic = IsotypicBlocks(lat, lat, _nonzeros(basis, n))
    bound = _box_bound(len(basis))
    widths, moves = isotypic.packed(bound)
    comps = isotypic.components()
    found = [isotypic._least_settings(m, blocks, bound, widths, moves)[1] for m, blocks in comps]
    assert list(map(bool, found)) == [False, True]
    assert isotypic.minimum(bound) is None
    assert reference_embedding_matrix(basis, n) is None
    # Two blocks, one touched by no basis matrix.
    lat = _sign_lattice([0, 1, 0])
    basis = [IntMatrix.from_rows([[1, 0, 2], [0, 0, 0], [1, 0, 1]])]
    isotypic = IsotypicBlocks(lat, lat, _nonzeros(basis, 3))
    assert len(isotypic.sizes) == 2 and isotypic.minimum(24) is None
    assert reference_embedding_matrix(basis, 3) is None


def _s4_sign():
    """S4 on Z by the sign; both generators of ``_s4_standard`` are odd."""
    return lattice_from_action(_s4_standard().group, 1, [IntMatrix.from_rows([[-1]])] * 2, "s4_sign")


def test_isotypic_blocks_give_the_candidates_determinant():
    """Split along the isotypic components, a candidate's determinant is
    det P2 * prod det X_W / det P1.  On the Ono pairs of every corpus
    lattice (the Q-irreducibles of C3, C4 and C6 include some that are not
    absolutely irreducible) and of the S4 sign and standard lattices, it
    equals the Bareiss determinant of the assembled candidate, on single
    basis matrices and seeded combinations, singular ones included."""
    rng = random.Random(33)
    singular = invertible = 0
    for lat in [*builtin_lattices(), _s4_sign(), _s4_standard()]:
        m1, m2 = _ono_pair(lat)
        nonzeros, n, _ = _search_box(m1, m2)
        k = len(nonzeros)
        isotypic = IsotypicBlocks(m1, m2, nonzeros)
        assert sum(isotypic.sizes) == n and isotypic.sizes == sorted(isotypic.sizes)
        widths, moves = isotypic.packed(3)
        draws = [[int(i == j) for j in range(k)] for i in range(k)]
        draws += [[rng.randint(-3, 3) for _ in range(k)] for _ in range(20)]
        for coeffs in draws:
            rows, flat = [0] * n, [0] * (n * n)
            for c, packed, nz in zip(coeffs, moves, nonzeros):
                for cell, x in packed:
                    rows[cell] += c * x
                for idx, val in nz:
                    flat[idx] += c * val
            det = bareiss_det([flat[i * n : (i + 1) * n] for i in range(n)])
            assert isotypic.det(rows, widths) == det, (lat.name, coeffs)
            singular += not det
            invertible += bool(det)
        if lat.name == "s4_sign":
            assert isotypic.sizes == [2, 2, 4, 6, 6]
        if lat.name == "s4_standard":
            assert isotypic.sizes == [1, 2, 3, 6]
    assert singular > 100 and invertible > 100


def test_s4_searches_match_the_reference_search():
    """S4 sign has k = 20 basis matrices, past every box, so its answer
    comes from the seeded draws; S4 standard's (k = 7) from the bound-1
    box, searched in components of 4 and 3 basis matrices.  Both equal the
    reference search."""
    for lat, draws in ((_s4_sign(), 1), (_s4_standard(), 0)):
        m1, m2 = _ono_pair(lat)
        nonzeros, n, bound = _search_box(m1, m2)
        assert (bound == 0) == bool(draws)
        if bound:
            assert _component_shapes(IsotypicBlocks(m1, m2, nonzeros)) == [(3, [1, 2, 3]), (4, [6])]
        before = lattices_mod.RANDOM_FALLBACK_COUNT
        chosen = [list(row) for row in equivariant_finite_index_embedding(m1, m2).matrix.entries]
        assert lattices_mod.RANDOM_FALLBACK_COUNT - before == draws
        assert chosen == reference_embedding_matrix(intertwiner_basis(m1, m2), n)


def test_s3_standard_ties_are_decided_by_the_whole_key():
    """s3_standard's box splits into components of 4 and 2 basis matrices,
    52 and 2 of whose settings, one of each +-pair, reach their least block
    product.  So 52 * 2 * 2 pairs +-E tie at the least |det|, and the rest
    of the key tells them apart as the reference search does over the
    whole box."""
    m1, m2 = _ono_pair(builtin_lattice("s3_standard"))
    nonzeros, n, bound = _search_box(m1, m2)
    isotypic = IsotypicBlocks(m1, m2, nonzeros)
    widths, moves = isotypic.packed(bound)
    ties = [len(isotypic._least_settings(m, blocks, bound, widths, moves)[1]) for m, blocks in isotypic.components()]
    assert [len(m) for m, _ in isotypic.components()] == [4, 2] and ties == [52, 2]
    best = isotypic.minimum(bound)
    expected = reference_embedding_matrix(intertwiner_basis(m1, m2), n)
    assert [list(best[3][i * n : (i + 1) * n]) for i in range(n)] == expected


def test_intertwiners_and_embedding_match_reference():
    """The orbit-by-orbit basis and the Gray-code box search give exactly
    what the full constraint system and the product-order search give."""
    pairs = [_ono_pair(lat) for lat in [*builtin_lattices(), _s4_standard()]]
    pairs.append((builtin_lattice("c3_augmentation"), builtin_lattice("c3_augmentation")))
    for m1, m2 in pairs:
        basis = intertwiner_basis(m1, m2)
        assert basis == reference_intertwiner_basis(m1, m2)
        chosen = [list(row) for row in equivariant_finite_index_embedding(m1, m2).matrix.entries]
        assert chosen == reference_embedding_matrix(basis, m1.rank)
    sign, trivial = builtin_lattice("c2_sign"), builtin_lattice("c2_trivial")
    assert intertwiner_basis(sign, trivial) == reference_intertwiner_basis(sign, trivial) == ()


def test_every_intertwiner_basis_of_builtin_pairs_matches_reference():
    """Hom_G(M, N) as the fixed sublattice of Hom(M, N) equals the kernel of
    the constraint system E * M(g) = N(g) * E, on every ordered pair of
    builtin lattices over one group and of the S4 standard, sign and
    trivial lattices; the sources include non-permutation lattices whose
    generators are not orthogonal, where dual(M)(g) differs from M(g)."""
    s4 = _s4_standard()
    sign = lattice_from_action(s4.group, 1, [IntMatrix.from_rows([[-1]])] * 2)
    s4_lattices = (s4, sign, trivial_lattice(s4.group))
    lats = builtin_lattices()
    pairs = [(m, n) for m in lats for n in lats if same_group(m.group, n.group)]
    pairs += list(iter_product(s4_lattices, repeat=2))
    skewed = 0
    for m, n in pairs:
        assert intertwiner_basis(m, n) == reference_intertwiner_basis(m, n)
        skewed += any(a != b for a, b in zip(m.generators, dual(m).generators))
    assert len(pairs) > 50 and skewed > 10


def test_every_shell_bound_is_chosen_for_some_basis_size():
    """Each listed bound is the largest whose box fits the budget for some
    basis size k: 24 for k <= 2, 12 for k = 3, 3 for k = 4 and 5, 2 for
    k = 6, 1 for k = 7 to 9 and none beyond."""
    bounds, budget = lattices_mod._SHELL_BOUNDS, lattices_mod._SHELL_BUDGET
    chosen = [max((b for b in bounds if (2 * b + 1) ** k <= budget), default=0) for k in range(1, 12)]
    assert chosen == [24, 24, 12, 3, 3, 2, 1, 1, 1, 0, 0]
    assert set(bounds) <= set(chosen)


def _identity_pairs():
    """Every corpus search whose source is its target: the Ono pairs of the
    trivial and regular lattices, and c3_augmentation onto itself."""
    names = ("c2_trivial", "c2_regular", "c3_regular", "c4_regular", "v4_regular")
    pairs = [_ono_pair(builtin_lattice(name)) for name in names]
    pairs.append((builtin_lattice("c3_augmentation"), builtin_lattice("c3_augmentation")))
    for m1, m2 in pairs:
        assert m1.generators == m2.generators
    return pairs


def _search_box(m1, m2):
    """The nonzeros of the intertwiner basis and the box the search walks."""
    basis = intertwiner_basis(m1, m2)
    n = m1.rank
    nonzeros = [
        [(i * n + j, x) for i, row in enumerate(b.entries) for j, x in enumerate(row) if x]
        for b in basis
    ]
    bounds = lattices_mod._SHELL_BOUNDS
    bound = max((b for b in bounds if (2 * b + 1) ** len(basis) <= lattices_mod._SHELL_BUDGET), default=0)
    return nonzeros, n, bound


def test_identity_floor_answers_without_the_walk(monkeypatch):
    """Where the source is the target, the identity's key (|det| 1, entry
    sum n, trace n) is the least there is, so the search returns it before
    it builds a basis or walks a box."""

    def walk(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(lattices_mod, "intertwiner_basis", walk)
    monkeypatch.setattr(IsotypicBlocks, "minimum", walk)
    for m1, m2 in _identity_pairs():
        emb = equivariant_finite_index_embedding(m1, m2)
        assert emb.matrix == IntMatrix.identity(m1.rank)
        assert emb.index == 1


def test_box_walk_reaches_the_identity_floor():
    """The component search over the same box finds the identity's key on
    these bases too."""
    for m1, m2 in _identity_pairs():
        nonzeros, n, bound = _search_box(m1, m2)
        assert bound > 0
        identity = tuple(int(i == j) for i in range(n) for j in range(n))
        assert IsotypicBlocks(m1, m2, nonzeros).minimum(bound) == (1, n, -n, identity)


def test_identity_floor_needs_no_box():
    """With no box (k = 16 basis matrices for a rank-4 trivial action), the
    source equal to the target still gets the identity, with or without the
    seeded pseudorandom phase, which does not run."""
    m = trivial_lattice(builtin_group("c2"), 4)
    nonzeros, _, bound = _search_box(m, m)
    assert (len(nonzeros), bound) == (16, 0)
    before = lattices_mod.RANDOM_FALLBACK_COUNT
    for allow_random in (True, False):
        emb = equivariant_finite_index_embedding(m, m, allow_random=allow_random)
        assert emb.matrix == IntMatrix.identity(4)
    assert lattices_mod.RANDOM_FALLBACK_COUNT == before


def test_generating_subset_generates_the_subgroup():
    for name in ("s3", "c6", "v4"):
        group = builtin_group(name)
        for sub in all_subgroups(group):
            kept = _generating_subset(group, sub[1:])
            assert subgroup_closure(group, kept) == frozenset(sub)
            for i, g in enumerate(kept):
                assert g not in subgroup_closure(group, kept[:i])


def test_canonical_embedding_sign_case():
    reg = builtin_lattice("c2_regular")
    target = direct_sum(builtin_lattice("c2_sign"), builtin_lattice("c2_trivial"))
    emb = equivariant_finite_index_embedding(reg, target)
    assert emb.matrix.entries == ((1, -1), (1, 1))
    assert emb.index == 2
    assert emb.cokernel.invariant_factors == (2,)
    assert abs(det_fraction(emb.matrix.entries)) == emb.index


def test_embedding_requires_rational_character_match():
    with pytest.raises(CharacterMismatch):
        equivariant_finite_index_embedding(
            builtin_lattice("c2_sign"), builtin_lattice("c2_trivial")
        )


def test_embedding_zero_rank():
    c2 = builtin_group("c2")
    emb = equivariant_finite_index_embedding(zero_lattice(c2), zero_lattice(c2))
    assert emb.index == 1
    assert emb.matrix.rows == 0


def test_lattice_embedding_validates_equivariance():
    reg = builtin_lattice("c2_regular")
    target = direct_sum(builtin_lattice("c2_sign"), builtin_lattice("c2_trivial"))
    emb = lattice_embedding(reg, target, IntMatrix.from_rows([[1, -1], [1, 1]]))
    assert emb.index == 2
    from gammalat.errors import InternalContradiction

    with pytest.raises(InternalContradiction):
        lattice_embedding(reg, target, IntMatrix.from_rows([[1, 0], [0, 1]]))


def test_infinite_cokernel_has_no_index():
    c2 = builtin_group("c2")
    one = trivial_lattice(c2, 1)
    two = trivial_lattice(c2, 2)
    emb = lattice_embedding(one, two, IntMatrix.from_rows([[1], [0]]))
    assert emb.cokernel_free_rank == 1
    with pytest.raises(ValueError):
        emb.index


def test_permutation_recognition_statuses():
    assert is_permutation_lattice(builtin_lattice("c2_regular")).status == "YES"
    cert = is_permutation_lattice(builtin_lattice("c2_sign"))
    assert cert.status == "NO"
    assert "character" in cert.reason
    cert = is_permutation_lattice(builtin_lattice("c2_sign_plus_trivial"))
    assert cert.status == "UNKNOWN"
    cert = is_permutation_lattice(builtin_lattice("s3_standard"))
    assert cert.status == "NO"


def test_permutation_recognition_finds_non_obvious_basis():
    c2 = builtin_group("c2")
    lat = lattice_from_action(c2, 2, [IntMatrix.from_rows([[-1, 0], [-1, 1]])])
    cert = is_permutation_lattice(lat)
    assert cert.status == "YES"
    assert set(cert.basis) == {(-1, -1), (1, 0)}
    # the action must permute the certified basis
    imgs = {lat.matrices[1].times_vector(v) for v in cert.basis}
    assert imgs == set(cert.basis)


def _sheared(lat):
    """The same lattice in the basis of the upper unitriangular all-ones
    matrix S: g acts by S^-1 * lat(g) * S."""
    n = lat.rank
    s = IntMatrix.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
    s_inv = IntMatrix.from_rows([[(j == i) - (j == i + 1) for j in range(n)] for i in range(n)])
    mats = [s_inv.mul(lat.matrices[g]).mul(s) for g in lat.group.generator_ids]
    return lattice_from_action(lat.group, n, mats)


def test_pruned_permutation_search_matches_reference():
    """The pruned orbit search returns the certificate of the unpruned one:
    every coset lattice Z[G/H] of rank 2 to 4 over S3, D4, A4 and C2 x C4,
    sheared so that no generator acts by a permutation matrix, at bounds 2
    and 3; and the non-permutation lattice c2_sign_plus_trivial."""
    groups = [
        group_from_generators([[1, 0, 2], [1, 2, 0]]),
        group_from_generators([[1, 2, 3, 0], [3, 2, 1, 0]]),
        group_from_generators([[1, 2, 0, 3], [0, 2, 3, 1]]),
        group_from_generators([[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]),
    ]
    lattices = [builtin_lattice("c2_sign_plus_trivial")]
    for group in groups:
        for sub in all_subgroups(group):
            if 2 <= group.order // len(sub) <= 4:
                lattices.append(_sheared(induced_lattice(group, sub)))
    assert len(lattices) == 24
    for lat in lattices:
        assert not all(lat.matrices[g].is_permutation_matrix() for g in lat.group.generator_ids)
        for bound in (2, 3):
            _assert_search_matches_reference(lat, bound)


def _assert_search_matches_reference(lat, bound):
    expected = reference_permutation_search(lat, bound)
    cert = is_permutation_lattice(lat, bound)
    assert cert.status == ("UNKNOWN" if expected is None else "YES")
    assert cert.basis == expected
    return cert


def _signed(lat, signs):
    """The same lattice in the basis e_i -> signs[i] * e_i.  Its matrices
    are signed permutation matrices, which map the box onto itself, so the
    box test must pass every image."""
    d = IntMatrix.from_rows([[x if i == j else 0 for j in range(len(signs))] for i, x in enumerate(signs)])
    return lattice_from_action(lat.group, lat.rank, [d.mul(lat.matrices[g]).mul(d) for g in lat.group.generator_ids])


def _image_coordinates(lat, bound):
    box = iter_product(range(-bound, bound + 1), repeat=lat.rank)
    return {x for v in box for mm in lat.matrices for x in mm.times_vector(v)}


def test_packed_walk_on_odd_ranks():
    """Ranks 3 and 5 split the packed coordinates into halves of unequal
    length.  Rank 1 never reaches the walk: a 1 x 1 action is by +-1, so
    it is by permutation matrices or has a negative character value."""
    s3 = group_from_generators([[1, 0, 2], [1, 2, 0]])
    c5 = group_from_generators([[1, 2, 3, 4, 0]])
    rank3 = _signed(induced_lattice(s3, (0, 1)), (1, -1, 1))
    rank5 = _signed(induced_lattice(c5, (0,)), (1, -1, 1, -1, 1))
    for lat, bound in ((rank3, 1), (rank3, 3), (_sheared(rank3), 2), (rank5, 1), (_sheared(rank5), 1)):
        assert lat.rank % 2 == 1
        assert _assert_search_matches_reference(lat, bound).status == "YES"


def test_packed_walk_at_bound_one():
    """Coordinates in {-1, 0, 1}: the narrowest box the search allows."""
    d4 = group_from_generators([[1, 2, 3, 0], [3, 2, 1, 0]])
    a4 = group_from_generators([[1, 2, 0, 3], [0, 2, 3, 1]])
    v4_in_a4 = (0, 4, 5, 11)
    assert len(subgroup_closure(a4, v4_in_a4)) == 4
    cases = [
        _signed(builtin_lattice("c2_regular"), (1, -1)),
        _signed(induced_lattice(d4, next(h for h in all_subgroups(d4) if len(h) == 2)), (1, -1, -1, 1)),
        _signed(induced_lattice(a4, v4_in_a4), (1, 1, -1)),
        _sheared(induced_lattice(a4, v4_in_a4)),
    ]
    for lat in cases:
        assert _assert_search_matches_reference(lat, 1).status == "YES"


def test_packed_walk_far_outside_the_box():
    """Matrix entries in the hundreds send most images far past the box;
    the partial sums must not carry from one packed coordinate into the
    next."""
    c2 = builtin_group("c2")
    s = IntMatrix.from_rows([[1, 0, 0], [15, 1, 0], [-4, 3, 1]])
    s_inv = IntMatrix.from_rows([[1, 0, 0], [-15, 1, 0], [49, -3, 1]])
    assert s.mul(s_inv) == IntMatrix.identity(3)
    base = direct_sum(builtin_lattice("c2_regular"), trivial_lattice(c2, 1))
    far = lattice_from_action(c2, 3, [s_inv.mul(base.matrices[1]).mul(s)])
    assert max(abs(x) for row in far.matrices[1].entries for x in row) >= 100
    for bound in (1, 2, 3):
        assert min(_image_coordinates(far, bound)) < -200 * bound
        assert _assert_search_matches_reference(far, bound).status == "UNKNOWN"


def test_packed_walk_one_unit_outside_the_box():
    """Images that miss the box by exactly one unit, above and below, are
    rejected, and images on its faces are kept."""
    c2 = builtin_group("c2")
    edge = lattice_from_action(c2, 2, [IntMatrix.from_rows([[-1, 0], [-1, 1]])])
    wide = lattice_from_action(c2, 3, [IntMatrix.from_rows([[0, 1, -1], [1, 0, 1], [0, 0, 1]])])
    for lat, bound in ((edge, 1), (wide, 2)):
        coords = _image_coordinates(lat, bound)
        assert {bound + 1, -bound - 1} <= coords
        assert _assert_search_matches_reference(lat, bound).status == "YES"
    assert max(_image_coordinates(edge, 1)) == 2


def test_packed_walk_unknown_names_the_orbits_that_left():
    """An involution with entries in the hundreds whose lattice is trivial
    plus sign, so no permuted basis exists, though its character is the
    regular one's: UNKNOWN, and some orbits left the box."""
    c2 = builtin_group("c2")
    lat = lattice_from_action(c2, 2, [IntMatrix.from_rows([[1, 0], [200, -1]])])
    for bound in (1, 2):
        cert = _assert_search_matches_reference(lat, bound)
        assert "(some candidate orbits left the box)" in cert.reason
    cert = is_permutation_lattice(builtin_lattice("c2_sign_plus_trivial"), 2)
    assert cert.status == "UNKNOWN"
    assert "left the box" not in cert.reason


def test_sheared_regular_s3_twisted_to_c2_is_recognized():
    """Z[S3] in a sheared basis, restricted along a twisted section of
    C3 x| C2 -> C2: a rank-6 permutation lattice whose unpruned orbit search
    does not finish in a minute at bound 2."""
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    prod = semidirect_product(inversion)
    lat = twist(_sheared(induced_lattice(prod.group, (0,))), enumerate_cocycles(inversion)[1])
    assert lat.rank == 6
    cert = is_permutation_lattice(lat, 2)
    assert cert.status == "YES"
    assert abs(det_fraction(cert.basis)) == 1
    for g in lat.group.generator_ids:
        assert not lat.matrices[g].is_permutation_matrix()
        assert {lat.matrices[g].times_vector(v) for v in cert.basis} == set(cert.basis)


def test_twist_demo_cocycle():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    prod = semidirect_product(inversion)
    rot = IntMatrix.from_rows([[0, -1], [1, -1]])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    lat = lattice_from_action(prod.group, 2, [rot, swap])
    cocycles = enumerate_cocycles(inversion)
    plain = twist(lat, cocycles[0])
    assert plain.matrices[1] == swap
    twisted = twist(lat, cocycles[1])
    assert twisted.matrices[1].entries == ((-1, 0), (-1, 1))
    assert is_permutation_lattice(twisted).status == "YES"
    with pytest.raises(GroupMismatch):
        twist(builtin_lattice("c2_sign"), cocycles[1])


def test_rational_character_validation():
    c2 = builtin_group("c2")
    with pytest.raises(ValueError):
        RationalCharacter(c2, (1,))
    # Values are integers: a rational or float value is rejected even when
    # it is integral.
    for value in (Fraction(1), Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            RationalCharacter(c2, (1, value))
