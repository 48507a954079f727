"""Induction decompositions and finite-index embeddings of induced sums."""

import pytest

import gammalat.induction
import gammalat.intlinalg
import gammalat.lattices
from gammalat.corpus import builtin_group, builtin_lattice, builtin_lattices
from gammalat.errors import NoInvertibleIntertwiner
from gammalat.groups import cyclic_subgroup_class_reps
from gammalat.induction import (
    ArtinSolution,
    artin_decompose,
    build_multiplicity_lattice,
    certify_minimality,
    induced_trivial_character,
    ono_construct,
)
from gammalat.lattices import character, zero_lattice
from oracle import brute_minimal_multiplier, det_fraction


def test_artin_sign_lattice():
    sol = artin_decompose(builtin_lattice("c2_sign"))
    assert sol.r == 1
    assert sol.m == (1, 0)
    assert sol.n == (0, 1)
    assert sol.reps == ((0,), (0, 1))


def test_artin_trivial_and_zero():
    sol = artin_decompose(builtin_lattice("c2_trivial"))
    assert sol.r == 1
    assert sol.m == (0, 1)
    assert sol.n == (0, 0)
    c2 = builtin_group("c2")
    sol = artin_decompose(zero_lattice(c2))
    assert sol.r == 1
    assert sol.m == (0, 0)
    assert sol.n == (0, 0)


def test_artin_v4_character_needs_multiplier_two():
    sol = artin_decompose(builtin_lattice("v4_character"))
    assert sol.r == 2
    assert sol.m == (1, 0, 1, 0)
    assert sol.n == (0, 1, 0, 1)


def test_certify_minimality_rejects_an_invalid_multiplier():
    """r = 3 is no valid multiplier of v4_character (its least is 2, and
    3 * chi is no integer combination), so it is not certified even though
    r/3 = 1 fails too."""
    lat = builtin_lattice("v4_character")
    sol = artin_decompose(lat)
    assert certify_minimality(lat, sol)
    for r in (3, 4):
        assert not certify_minimality(lat, ArtinSolution(sol.group, r, sol.reps, sol.n, sol.m))


def test_artin_and_its_certificate_share_one_smith_form(monkeypatch):
    """artin_decompose and certify_minimality read one cached Smith form of
    the group's induced-character matrix."""
    calls = []
    original = gammalat.intlinalg.smith_normal_form

    def counted(a):
        calls.append(a)
        return original(a)

    for module in (gammalat.intlinalg, gammalat.induction):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    gammalat.induction._induced_character_snf.cache_clear()
    lat = builtin_lattice("v4_character")
    assert certify_minimality(lat, artin_decompose(lat))
    assert len(calls) == 1


def test_artin_s3_lattices():
    sol = artin_decompose(builtin_lattice("s3_sign"))
    assert sol.r == 2
    assert sol.m == (1, 0, 1)
    assert sol.n == (0, 2, 0)
    sol = artin_decompose(builtin_lattice("s3_standard"))
    assert sol.r == 2
    assert sol.m == (1, 0, 0)
    assert sol.n == (0, 0, 1)


def test_artin_identity_and_minimality_whole_corpus():
    for lat in builtin_lattices():
        sol = artin_decompose(lat)
        lhs = character(lat).scale(sol.r)
        rhs = None
        for rep, m_i, n_i in zip(sol.reps, sol.m, sol.n):
            term = induced_trivial_character(lat.group, rep).scale(m_i - n_i)
            rhs = term if rhs is None else rhs + term
        assert lhs.values == rhs.values
        assert 1 <= sol.r <= lat.group.order
        assert certify_minimality(lat, sol)


def test_artin_r_matches_brute_force():
    for lat in builtin_lattices():
        sol = artin_decompose(lat)
        chi = character(lat).values
        induced = [
            induced_trivial_character(lat.group, rep).values
            for rep in cyclic_subgroup_class_reps(lat.group)
        ]
        brute = brute_minimal_multiplier(chi, induced)
        assert brute is not None
        assert brute[0] == sol.r


def test_build_multiplicity_lattice():
    c2 = builtin_group("c2")
    reps = cyclic_subgroup_class_reps(c2)
    lat = build_multiplicity_lattice(c2, reps, (2, 1))
    assert lat.rank == 2 * 2 + 1 * 1
    assert character(lat).values == (5, 1)
    empty = build_multiplicity_lattice(c2, reps, (0, 0))
    assert empty.rank == 0


def test_ono_sign_lattice():
    result = ono_construct(builtin_lattice("c2_sign"))
    assert result.r == 1
    assert result.m1.rank == 2
    assert result.m0.rank == 1
    assert result.index == 2
    assert result.embedding.matrix.entries == ((1, -1), (1, 1))
    assert result.embedding.cokernel.invariant_factors == (2,)


def test_ono_known_indexes():
    expected = {
        "c3_augmentation": (1, 3, (3,)),
        "c4_sign": (1, 2, (2,)),
        "c4_gaussian": (1, 4, (2, 2)),
        "c6_sign": (1, 2, (2,)),
        "s3_standard": (2, 27, (3, 3, 3)),
    }
    for name, (r, index, coker) in expected.items():
        result = ono_construct(builtin_lattice(name))
        assert result.r == r, name
        assert result.index == index, name
        assert result.embedding.cokernel.invariant_factors == coker, name
        assert abs(det_fraction(result.embedding.matrix.entries)) == index


def test_ono_character_balance_and_equivariance():
    for lat in builtin_lattices():
        result = ono_construct(lat)
        balance = character(lat).scale(result.r) + character(result.m0)
        assert character(result.m1).values == balance.values
        emb = result.embedding
        for g in range(lat.group.order):
            lhs = emb.matrix.mul(result.m1.matrices[g])
            rhs = emb.target.matrices[g].mul(emb.matrix)
            assert lhs == rhs


def test_ono_randomized_fallback_counter():
    before = gammalat.lattices.RANDOM_FALLBACK_COUNT
    result = ono_construct(builtin_lattice("v4_character"))
    after = gammalat.lattices.RANDOM_FALLBACK_COUNT
    assert after == before + 1
    assert result.index == 64
    assert result.embedding.cokernel.invariant_factors == (2, 4, 8)


def test_ono_seedless_raises_when_search_budget_exhausted():
    with pytest.raises(NoInvertibleIntertwiner):
        ono_construct(builtin_lattice("v4_character"), allow_random=False)
    with pytest.raises(NoInvertibleIntertwiner):
        ono_construct(builtin_lattice("s3_sign"), allow_random=False)


def test_ono_seedless_succeeds_on_small_cases():
    result = ono_construct(builtin_lattice("c2_sign"), allow_random=False)
    assert result.index == 2
    result = ono_construct(builtin_lattice("c4_regular"), allow_random=False)
    assert result.index == 1


def test_ono_zero_lattice():
    c2 = builtin_group("c2")
    result = ono_construct(zero_lattice(c2))
    assert result.r == 1
    assert result.m1.rank == 0
    assert result.index == 1
