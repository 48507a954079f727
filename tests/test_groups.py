"""Finite groups from generators, subgroup machinery, semidirect products."""

import random
from itertools import permutations, product

import pytest

from gammalat import groups
from gammalat.checks import _SWEEP_MAX_ORDER
from gammalat.corpus import builtin_group, builtin_groups, twist_sweep_groups
from gammalat.errors import (
    ClosureTooLarge,
    InvalidCocycle,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
)
from gammalat.groups import (
    Cocycle,
    FiniteGroup,
    GroupAction,
    GroupHom,
    all_actions,
    all_subgroups,
    automorphisms,
    class_index_map,
    conjugacy_classes,
    cyclic_subgroup_class_reps,
    enumerate_cocycles,
    first_failure,
    fixed_coset_counts,
    group_from_generators,
    is_subgroup,
    left_cosets,
    rational_class_products,
    rational_classes,
    semidirect_product,
    subgroup_conjugacy_reps,
    trivial_group,
    twisted_section,
    validate_cocycle,
)
from oracle import (
    full_scan_failure,
    left_table,
    reference_all_subgroups,
    reference_class_reps,
    reference_conjugacy_classes,
    reference_group_tables,
)


def s3():
    return group_from_generators([[1, 0, 2], [1, 2, 0]])


def test_trivial_group():
    g = trivial_group()
    assert g.order == 1
    assert g.generator_ids == (0,)
    assert conjugacy_classes(g) == ((0,),)
    assert cyclic_subgroup_class_reps(g) == ((0,),)


def test_s3_structure():
    g = s3()
    assert g.order == 6
    assert not g.is_abelian()
    assert tuple(g.element_order(x) for x in range(6)) == (1, 2, 3, 2, 2, 3)
    assert conjugacy_classes(g) == ((0,), (2, 5), (1, 3, 4))
    assert cyclic_subgroup_class_reps(g) == ((0,), (0, 1), (0, 2, 5))
    assert len(subgroup_conjugacy_reps(g)) == 4
    assert len(all_subgroups(g)) == 6
    g.validate()


def test_generator_validation():
    with pytest.raises(NotAPermutation):
        group_from_generators([[0, 0, 1]])
    with pytest.raises(NotAPermutation):
        group_from_generators([[3, 0, 1]])
    with pytest.raises(ClosureTooLarge):
        # two generators of the full symmetric group on 8 points (order 40320)
        group_from_generators([[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]])
    c2 = builtin_group("c2")
    assert FiniteGroup(c2.right, c2.labels) == c2
    for right, labels, message in (
        ((), None, "a group needs at least one generator"),
        (((1, 1),), None, r"generator 0 does not permute 0\.\.1"),
        ((*c2.right, (0, 1, 2)), None, r"generator 1 does not permute 0\.\.1"),
        (((0, 1),), None, "the generators do not generate the group"),
        (c2.right, ("e",), "labels must cover every element"),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteGroup(right, labels)


def test_group_hash_is_computed_once():
    """Two constructions of one Cayley graph are equal, hash equal and share
    one conjugacy_classes entry; the graph is hashed when the group is
    built, not on each memoized call."""
    hashed = []

    class Array(tuple):
        def __hash__(self):
            hashed.append(1)
            return tuple.__hash__(self)

    right = tuple(map(Array, s3().right))
    a = FiniteGroup(right)
    b = FiniteGroup(tuple(map(tuple, right)))
    assert a == b and hash(a) == hash(b) and a is not b
    assert len(hashed) == 2
    before = conjugacy_classes.cache_info()
    assert conjugacy_classes(a) is conjugacy_classes(b)
    after = conjugacy_classes.cache_info()
    assert (after.hits - before.hits, after.currsize - before.currsize) in ((1, 1), (2, 0))
    hash(a)
    assert len(hashed) == 2


def test_semidirect_product_obeys_the_order_cap(monkeypatch):
    # C2 inverting C7 has order 14; no other test builds this product, so
    # the memoized cache cannot answer before the cap is checked.
    c7 = group_from_generators([[1, 2, 3, 4, 5, 6, 0]])
    c2 = group_from_generators([[1, 0]])
    inversion = GroupAction(c2, c7, [[c7.inv(x) for x in range(7)]])
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 13)
    with pytest.raises(ClosureTooLarge):
        semidirect_product(inversion)
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 14)
    assert semidirect_product(inversion).group.order == 14


def test_composition_convention():
    # (a o b)[i] = a[b[i]]: first apply b, then a
    g = group_from_generators([[1, 0, 2], [0, 2, 1]])
    t1, t2 = 1, 2
    prod = g.mul(t1, t2)
    # t1 = (0 1), t2 = (1 2): t1 o t2 sends 0->1, 1->... by composing tables
    assert g.element_order(prod) == 3


def test_left_cosets_and_fixed_counts():
    g = s3()
    cosets = left_cosets(g, (0, 1))
    assert cosets[0] == (0, 1)
    assert sorted(x for c in cosets for x in c) == list(range(6))
    assert all(len(c) == 2 for c in cosets)
    assert fixed_coset_counts(g, (0, 1)) == (3, 0, 1)
    assert fixed_coset_counts(g, (0, 2, 5)) == (2, 2, 0)
    assert fixed_coset_counts(g, tuple(range(6))) == (1, 1, 1)
    with pytest.raises(NotASubgroup):
        left_cosets(g, (0, 2))


def test_is_subgroup_matches_a_product_check():
    """Closing a generating subset answers as checking every product does:
    on every subset of S3, on seeded random subsets of S4, half of them
    with the identity added, and on every subgroup of S4."""

    def closed(group, ids):
        s, mt = set(ids), left_table(group)
        return 0 in s and all(mt[a][b] in s for a in s for b in s)

    g = s3()
    for bits in range(1 << 6):
        ids = [x for x in range(6) if bits >> x & 1]
        assert is_subgroup(g, ids) == closed(g, ids), ids
    s4 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]])
    rng = random.Random(31)
    for trial in range(3000):
        ids = rng.sample(range(24), rng.randint(0, 24)) + [0] * (trial % 2)
        assert is_subgroup(s4, ids) == closed(s4, ids), ids
    subgroups = all_subgroups(s4)
    assert len(subgroups) == 30
    assert all(is_subgroup(s4, sub) for sub in subgroups)


def test_group_hom_validation():
    c2 = builtin_group("c2")
    c4 = builtin_group("c4")
    GroupHom(c2, c4, (0, 2))
    with pytest.raises(NotAHomomorphism):
        GroupHom(c2, c4, (0, 1))
    with pytest.raises(NotAHomomorphism):
        GroupHom(c2, c4, (1, 0))
    # Random image tables, and the maps g -> (x_g, g) into a semidirect
    # product for random x, fail at the pair a scan of all pairs names.
    rng = random.Random(14)
    c3, v4 = builtin_group("c3"), builtin_group("v4")
    cases = []
    for source, target in ((s3(), s3()), (s3(), c2), (v4, c4), (v4, v4)):
        for _ in range(200):
            tail = tuple(rng.randrange(target.order) for _ in range(source.order - 1))
            cases.append((source, target, (0,) + tail))
    for actor, f_grp in ((c2, c3), (s3(), v4)):
        action = next(a for a in all_actions(actor, f_grp) if not a.is_trivial())
        prod = semidirect_product(action)
        for _ in range(200):
            xs = (0,) + tuple(rng.randrange(f_grp.order) for _ in range(actor.order - 1))
            images = tuple(prod.pair_id(xs[g], g) for g in range(actor.order))
            cases.append((actor, prod.group, images))
    homs = 0
    for source, target, images in cases:
        smt, tmt = left_table(source), left_table(target)
        law = lambda a, b: images[smt[a][b]] == tmt[images[a]][images[b]]
        bad = full_scan_failure(source.order, law)
        if bad is None:
            GroupHom(source, target, images)
            homs += 1
            continue
        with pytest.raises(NotAHomomorphism) as info:
            GroupHom(source, target, images)
        assert str(info.value) == "multiplicativity fails at ({}, {})".format(*bad)
    assert 0 < homs < len(cases)


def test_automorphisms_counts():
    assert len(automorphisms(builtin_group("c3"))) == 2
    assert len(automorphisms(builtin_group("c4"))) == 2
    assert len(automorphisms(builtin_group("v4"))) == 6
    assert len(automorphisms(trivial_group())) == 1
    for name, group in builtin_groups():
        mt, n = left_table(group), group.order
        expected = [
            phi
            for phi in ((0,) + rest for rest in permutations(range(1, n)))
            if full_scan_failure(n, lambda a, b: phi[mt[a][b]] == mt[phi[a]][phi[b]]) is None
        ]
        assert automorphisms(group) == tuple(expected), name


def test_all_actions_counts():
    c2, c3, v4 = builtin_group("c2"), builtin_group("c3"), builtin_group("v4")
    assert len(all_actions(c2, c3)) == 2
    assert len(all_actions(c3, c2)) == 1
    assert len(all_actions(c2, v4)) == 4
    for action in all_actions(c2, v4):
        assert _full_scan_action_error(action.actor, action.target, action.images) is None


def test_semidirect_product_multiplication():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    prod = semidirect_product(inversion)
    assert prod.group.order == 6
    # (f1, g1)(f2, g2) = (f1 * act(g1, f2), g1 g2)
    a = prod.pair_id(1, 0)
    s = prod.pair_id(0, 1)
    # s * a * s^-1 = act(g, a) = a^-1 = a^2
    conj = prod.group.mul(prod.group.mul(s, a), prod.group.inv(s))
    assert conj == prod.pair_id(2, 0)
    assert prod.group.element_order(s) == 2
    assert prod.group.element_order(a) == 3
    # the full product is nonabelian of order 6
    assert not prod.group.is_abelian()
    assert prod.projection[prod.pair_id(2, 1)] == 1


def test_semidirect_trivial_action_is_direct_product():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    prod = semidirect_product(GroupAction.trivial(c2, c3))
    assert prod.group.order == 6
    assert prod.group.is_abelian()


def test_semidirect_product_is_one_object_per_action():
    """Equal actions share one product, and a twisted section lands in it."""
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    copy = GroupAction(inversion.actor, inversion.target, inversion.images)
    assert copy is not inversion and copy == inversion
    prod = semidirect_product(inversion)
    assert semidirect_product(copy) is prod
    assert twisted_section(enumerate_cocycles(copy)[1]).target is prod.group


def test_cocycle_enumeration_and_twisted_sections():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    cocycles = enumerate_cocycles(inversion)
    assert [x.values for x in cocycles] == [(0, 0), (0, 1), (0, 2)]
    prod = semidirect_product(inversion)
    for x in cocycles:
        hom = twisted_section(x)
        assert hom.apply(1) == prod.pair_id(x.values[1], 1)
    trivial_action = GroupAction.trivial(c2, c3)
    assert len(enumerate_cocycles(trivial_action)) == 1


def test_cocycle_validation():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    trivial_action = GroupAction.trivial(c2, c3)
    bad = Cocycle(trivial_action, (0, 1))
    assert validate_cocycle(bad) == (1, 1)
    with pytest.raises(InvalidCocycle):
        twisted_section(bad)
    with pytest.raises(ValueError):
        Cocycle(trivial_action, (0, 9))
    # Every value tuple over small actions, identity value included.
    c4, v4 = builtin_group("c4"), builtin_group("v4")
    pairs = ((c2, c3), (c2, c4), (c2, v4), (s3(), c2), (s3(), c3), (v4, c2))
    for action in (a for actor, target in pairs for a in all_actions(actor, target)):
        gamma, f_grp = action.actor, action.target
        gmt, fmt = left_table(gamma), left_table(f_grp)
        found = []
        for values in product(range(f_grp.order), repeat=gamma.order):
            law = lambda g, h: values[gmt[g][h]] == fmt[values[g]][action.table[g][values[h]]]
            bad = full_scan_failure(gamma.order, law)
            assert validate_cocycle(Cocycle(action, values)) == bad
            if bad is None:
                found.append(values)
        assert [x.values for x in enumerate_cocycles(action)] == found


def test_action_from_generator_images_rejects_non_action():
    c2, c4 = builtin_group("c2"), builtin_group("c4")
    # order-4 rotation is not an automorphism image for an involution actor
    with pytest.raises(NotAHomomorphism):
        GroupAction(c2, c4, [[1, 2, 3, 0]])
    action = GroupAction(c2, c4, [[0, 3, 2, 1]])
    assert action.table == ((0, 1, 2, 3), (0, 3, 2, 1))
    assert action.act(1, 1) == 3


def test_bfs_words_list_each_element_once_after_its_parent():
    c2, c3 = builtin_group("c2"), builtin_group("c3")
    inversion = next(a for a in all_actions(c2, c3) if not a.is_trivial())
    for group in (s3(), semidirect_product(inversion).group):
        words = group.bfs_words
        assert sorted(g for g, _, _ in words) == list(range(1, group.order))
        position = {0: -1}
        for i, (g, parent, k) in enumerate(words):
            assert position[parent] < i
            assert group.mul(parent, group.generator_ids[k]) == g
            position[g] = i


def test_all_subgroups_match_reference():
    """Extending one subgroup per conjugacy class by one representative per
    coset finds exactly the subgroups, and the class representatives, found
    by closing every subgroup with every element outside it."""
    c4 = builtin_group("c4")
    inversion = next(a for a in all_actions(c4, c4) if not a.is_trivial())
    groups = {
        "s3": s3(),
        "d4": group_from_generators([[1, 2, 3, 0], [3, 2, 1, 0]]),
        "a4": group_from_generators([[1, 2, 0, 3], [0, 2, 3, 1]]),
        "s4": group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]]),
        "a5": group_from_generators([[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
        "s5": group_from_generators([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
        "c4 x| c4": semidirect_product(inversion).group,
        "c2 x s4": group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]),
    }
    for name, group in groups.items():
        subs = reference_all_subgroups(group)
        assert all_subgroups(group) == subs, name
        assert subgroup_conjugacy_reps(group) == reference_class_reps(group, subs), name
    for name, classes, cyclic in (("a5", 9, 4), ("s5", 19, 7)):
        assert len(subgroup_conjugacy_reps(groups[name])) == classes
        assert len(cyclic_subgroup_class_reps(groups[name])) == cyclic


def test_conjugacy_classes_match_reference():
    """Classes walked along the generators equal those from conjugating by
    every element, on the builtin groups, S4, A5, S5 and C4 x| C4."""
    c4 = builtin_group("c4")
    inversion = next(a for a in all_actions(c4, c4) if not a.is_trivial())
    extra = {
        "s4": group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]]),
        "a5": group_from_generators([[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
        "s5": group_from_generators([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
        "c4 x| c4": semidirect_product(inversion).group,
    }
    for name, group in (*builtin_groups(), *extra.items()):
        classes = reference_conjugacy_classes(group)
        assert conjugacy_classes(group) == classes, name
        index = {g: i for i, cls in enumerate(classes) for g in cls}
        assert class_index_map(group) == tuple(index[g] for g in range(group.order)), name
    sizes = {name: tuple(map(len, conjugacy_classes(extra[name]))) for name in ("s4", "a5", "s5")}
    assert sizes == {"s4": (1, 3, 6, 6, 8), "a5": (1, 12, 12, 15, 20), "s5": (1, 10, 15, 20, 20, 24, 30)}


def test_s6_subgroup_counts():
    """S6 has 1455 subgroups in 56 conjugacy classes, 11 of them cyclic."""
    s6 = group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
    assert len(all_subgroups(s6)) == 1455
    assert len(subgroup_conjugacy_reps(s6)) == 56
    assert len(cyclic_subgroup_class_reps(s6)) == 11


def test_transitive_subgroup_classes_of_symmetric_groups():
    """S_n has 1, 2, 5, 5 and 16 conjugacy classes of transitive subgroups
    for n = 2..6 (Butler and McKay 1983)."""
    for n, transitive in ((2, 1), (3, 2), (4, 5), (5, 5), (6, 16)):
        gens = [[1, 0, *range(2, n)], [*range(1, n), 0]]
        sn = group_from_generators(gens)
        # Element g is parent * gens[k], and (a*b)[i] = a[b[i]].
        perm = {0: tuple(range(n))}
        for g, parent, k in sn.bfs_words:
            perm[g] = tuple(perm[parent][i] for i in gens[k])
        reps = subgroup_conjugacy_reps(sn)
        assert sum(len({perm[h][0] for h in rep}) == n for rep in reps) == transitive, n


def test_group_tables_match_reference():
    """Products walked along the closure's right-multiplication steps,
    by ``mul`` and by the rows ``left`` gives, equal those from composing
    every pair of permutations, and so do the generators' inverses and
    ``inv_table``, which is also each table row's identity column.  The
    built-ins and two semidirect products (C4 x| C4 by inversion, given
    by permutations and as a product) multiply as their references."""
    gens = {
        "s4": [[1, 0, 2, 3], [1, 2, 3, 0]],
        "s4 relabelled": [[1, 2, 3, 0], [0, 2, 1, 3]],
        # a = (0 1 2 3); b inverts a on 0..3 and cycles 4..7.
        "c4 x| c4": [[1, 2, 3, 0, 4, 5, 6, 7], [0, 3, 2, 1, 5, 6, 7, 4]],
        "c2 twice": [[1, 0], [1, 0]],
        "c3 and the identity": [[0, 1, 2], [1, 2, 0]],
        "a5": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],
        "s5": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
        "c2 x c4": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]],
        "trivial": [[0]],
        "c2": [[1, 0]],
        "c3": [[1, 2, 0]],
        "c4": [[1, 2, 3, 0]],
        "v4": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "c6": [[1, 2, 3, 4, 5, 0]],
        "s3": [[1, 0, 2], [1, 2, 0]],
    }
    for name, perms in gens.items():
        group = group_from_generators(perms)
        assert "_parents" not in vars(group), name
        expected = reference_group_tables(perms)
        mul_table, inv_table, generator_ids, _ = expected
        assert left_table(group) == mul_table, name
        assert _mul_table(group) == mul_table, name
        assert group.generator_inverses == tuple(inv_table[s] for s in generator_ids), name
        assert (group.inv_table, group.generator_ids, group.labels) == expected[1:], name
        assert group.inv_table == tuple(row.index(0) for row in mul_table), name
        if name in ("trivial", "c2", "c3", "c4", "v4", "c6", "s3"):
            builtin = builtin_group(name)
            assert _mul_table(builtin) == mul_table, name
            assert builtin.inv_table == inv_table, name
    assert group_from_generators(gens["a5"]).order == 60
    assert group_from_generators(gens["s4 relabelled"]).order == 24
    assert group_from_generators(gens["s5"]).order == 120
    assert group_from_generators(gens["c4 x| c4"]).order == 16
    c4, c4_inv = reference_group_tables(gens["c4"])[:2]
    prod = semidirect_product(GroupAction(builtin_group("c4"), builtin_group("c4"), [c4_inv]))
    for a, b in product(range(16), repeat=2):
        (f1, g1), (f2, g2) = divmod(a, 4), divmod(b, 4)
        acted = c4_inv[f2] if g1 % 2 else f2
        assert prod.group.mul(a, b) == prod.pair_id(c4[f1][acted], c4[g1][g2]), (a, b)


def _mul_table(group):
    """Every product, one ``mul`` call each."""
    return tuple(tuple(group.mul(a, b) for b in range(group.order)) for a in range(group.order))


# Generators of S3, S4, A4 and A5 acting on points.  Their arrays are
# graphs of transitive actions that are not regular, not Cayley graphs, so
# the tables derived from them are not associative.
POINT_ACTIONS = (
    [[1, 0, 2], [1, 2, 0]],
    [[1, 0, 2, 3], [1, 2, 3, 0]],
    [[1, 2, 0, 3], [0, 2, 3, 1]],
    [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],
)


def test_associativity_names_the_full_scan_witness():
    """For every relabelling of the points of each action, validate fails at
    the triple a scan of all triples of the derived table names first."""
    for perms in POINT_ACTIONS:
        n = len(perms[0])
        for relabel in permutations(range(n)):
            right = [[0] * n for _ in perms]
            for r, p in zip(right, perms):
                for a in range(n):
                    r[relabel[a]] = relabel[p[a]]
            loop = FiniteGroup(tuple(map(tuple, right)))
            mt = left_table(loop)
            bad = full_scan_failure(n, lambda a, b, c: mt[mt[a][b]][c] == mt[a][mt[b][c]], arity=3)
            with pytest.raises(ValueError) as info:
                loop.validate()
            assert str(info.value) == "associativity fails at ({}, {}, {})".format(*bad)


def test_is_abelian_matches_a_full_scan():
    # C2 x S3 with the central involution as its first generator.
    c2_s3 = group_from_generators([[0, 1, 2, 4, 3], [1, 0, 2, 3, 4], [1, 2, 0, 3, 4]])
    s4 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]])
    c2_twice = group_from_generators([[1, 0], [1, 0]])
    s3_and_e = group_from_generators([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    for group in (*(g for _, g in builtin_groups()), s4, c2_s3, c2_twice, s3_and_e):
        mt = left_table(group)
        bad = full_scan_failure(group.order, lambda a, b: mt[a][b] == mt[b][a])
        assert group.is_abelian() == (bad is None)
    assert not c2_s3.is_abelian()


def test_first_failure_hands_the_law_the_product():
    """On every Cayley edge and every tuple of the full scan the law gets
    the product of the tuple's last two entries, b * c at arity 3, also
    where a generator id repeats or is the identity.  The law fails only at
    the last edge, so every edge is checked up to its first occurrence, and
    the full scan runs up to it and names it."""
    c2_twice = group_from_generators([[1, 0], [1, 0]])
    c3_and_e = group_from_generators([[0, 1, 2], [1, 2, 0]])
    for group in (*(g for _, g in builtin_groups()), s3(), c2_twice, c3_and_e):
        n, mt = group.order, left_table(group)
        for arity in (2, 3):
            edges = [(*t, s) for t in product(range(n), repeat=arity - 1) for s in group.generator_ids]
            scan = list(product(range(n), repeat=arity))
            calls = []
            law = lambda *args: calls.append(args) or args[:-1] != edges[-1]
            assert first_failure(group, law, arity) == edges[-1]
            assert all(p == mt[t[-2]][t[-1]] for *t, p in calls)
            expected = edges[: edges.index(edges[-1]) + 1] + scan[: scan.index(edges[-1]) + 1]
            assert [tuple(t) for *t, _ in calls] == expected


def _full_scan_action_error(actor, target, images):
    """(error class, message) that building the action must raise, from
    scans of every pair; None for an action.  The images are checked in
    generator order, then the table they extend to along the breadth-first
    words."""
    n, fmt, gmt = target.order, left_table(target), left_table(actor)
    for k, img in enumerate(images):
        if sorted(img) != list(range(n)):
            return NotAPermutation, f"generator {k} is not a bijection on 0..{n - 1}"
    for gid, img in zip(actor.generator_ids, images):
        bad = full_scan_failure(n, lambda a, b: img[fmt[a][b]] == fmt[img[a]][img[b]])
        if bad is not None:
            return NotAHomomorphism, "actor element {} does not act by an automorphism at ({}, {})".format(gid, *bad)
    table = [tuple(range(n))] * actor.order
    for g, parent, k in actor.bfs_words:
        table[g] = tuple(table[parent][i] for i in images[k])
    law = lambda g, h: all(table[gmt[g][h]][f] == table[g][table[h][f]] for f in range(n))
    bad = full_scan_failure(actor.order, law)
    if bad is not None:
        return NotAHomomorphism, "action is not a homomorphism at ({}, {})".format(*bad)
    for k, gid in enumerate(actor.generator_ids):
        if table[gid] != tuple(images[k]):
            return NotAHomomorphism, f"generator {k} image conflicts with the extension"
    return None


def test_action_check_names_the_full_scan_witness():
    """Random generator images: automorphisms, permutations that are not
    automorphisms, and maps that are not permutations.  C2 with its
    generator listed twice reaches the conflict between the two images."""
    rng = random.Random(14)
    c3, c4, v4 = (builtin_group(name) for name in ("c3", "c4", "v4"))
    c2_twice = group_from_generators([[1, 0], [1, 0]])
    outcomes = set()
    for actor, target in ((s3(), c3), (s3(), v4), (v4, v4), (v4, c4), (c2_twice, c4), (c2_twice, v4)):
        n, auts = target.order, automorphisms(target)
        for _ in range(300):
            images = []
            for _ in actor.generator_ids:
                roll = rng.random()
                if roll < 0.8:
                    images.append(rng.choice(auts))
                elif roll < 0.95:
                    images.append(tuple(rng.sample(range(n), n)))
                else:
                    images.append(tuple(rng.randrange(n) for _ in range(n)))
            expected = _full_scan_action_error(actor, target, images)
            if expected is None:
                action = GroupAction(actor, target, images)
                assert all(action.table[gid] == img for gid, img in zip(actor.generator_ids, images))
                outcomes.add(None)
                continue
            with pytest.raises(expected[0]) as info:
                GroupAction(actor, target, images)
            assert str(info.value) == expected[1]
            outcomes.add(next(w for w in ("bijection", "automorphism", "homomorphism", "conflicts") if w in expected[1]))
    assert outcomes == {None, "bijection", "automorphism", "homomorphism", "conflicts"}


def test_rational_classes_collect_conjugate_cyclic_subgroups():
    """Two elements share a rational class exactly when their cyclic
    subgroups are conjugate, and the classes follow the cyclic subgroup
    class representatives: on the builtin groups, S4 and S5.  The product
    of two class sums is the combination of class sums that
    ``rational_class_products`` gives.  In S4 and S5 every rational class
    is a conjugacy class; in C6 it is an order."""
    s4 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]])
    s5 = group_from_generators([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    for group in [*(g for _, g in builtin_groups()), s4, s5]:
        mt, inv, n = left_table(group), group.inv_table, group.order

        def cyclic(x):
            powers, y = {0}, x
            while y:
                powers.add(y)
                y = mt[y][x]
            return frozenset(powers)

        classes = rational_classes(group)
        assert classes[0] == (0,)
        for rep, members in zip(cyclic_subgroup_class_reps(group), classes, strict=True):
            conjugates = {frozenset(mt[mt[g][y]][inv[g]] for y in rep) for g in range(n)}
            assert members == tuple(x for x in range(n) if cyclic(x) in conjugates)
        a = rational_class_products(group)
        for i, j in product(range(len(classes)), repeat=2):
            counts = [0] * n
            for x in classes[i]:
                for y in classes[j]:
                    counts[mt[x][y]] += 1
            for t, members in enumerate(classes):
                assert {counts[g] for g in members} == {a[i][t][j]}
    for group in (s4, s5):
        assert sorted(rational_classes(group)) == sorted(conjugacy_classes(group))
    c6 = builtin_group("c6")
    assert sorted(map(len, rational_classes(c6))) == [1, 1, 2, 2]


def test_law_witnesses_on_s4_through_shared_factor_rows():
    """The homomorphism, automorphism and cocycle checks multiply through
    ``times``, which builds a factor's row once its walks have spent |G|
    lookups, as they do on S4.  Every failure still names the witness of
    a scan of all pairs: maps S4 -> S4 (an inner automorphism, and random
    tables), C2 acting on S4 (by that automorphism, and by random
    permutations fixing e), and cocycles of S4 acting trivially on S4 and
    of C2 acting by the automorphism."""
    rng = random.Random(33)
    s4, c2 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]]), builtin_group("c2")
    mt, n = left_table(s4), s4.order
    conj = tuple(s4.conjugate(f, s4.generator_ids[0]) for f in range(n))
    tables = [conj, tuple(range(n))]
    tables += [(0,) + tuple(rng.sample(range(1, n), n - 1)) for _ in range(60)]
    tables += [(0,) + tuple(rng.randrange(n) for _ in range(n - 1)) for _ in range(60)]
    # The automorphism with the images of x and y swapped: its first
    # failure lies deeper in the scan.
    for x, y in (rng.sample(range(1, n), 2) for _ in range(60)):
        swapped = list(conj)
        swapped[x], swapped[y] = conj[y], conj[x]
        tables.append(tuple(swapped))
    failures = set()
    for images in tables:
        bad = full_scan_failure(n, lambda a, b: images[mt[a][b]] == mt[images[a]][images[b]])
        if bad is None:
            GroupHom(s4, s4, images)
        else:
            with pytest.raises(NotAHomomorphism) as info:
                GroupHom(s4, s4, images)
            assert str(info.value) == "multiplicativity fails at ({}, {})".format(*bad)
            failures.add(bad)
        if len(set(images)) == n:
            expected = _full_scan_action_error(c2, s4, [images])
            if expected is None:
                GroupAction(c2, s4, [images])
            else:
                with pytest.raises(expected[0]) as info:
                    GroupAction(c2, s4, [images])
                assert str(info.value) == expected[1]
    assert len(failures) > 8
    for action in (GroupAction.trivial(s4, s4), GroupAction(c2, s4, [conj])):
        gmt = left_table(action.actor)
        for _ in range(60):
            values = (0,) + tuple(rng.randrange(n) for _ in range(action.actor.order - 1))
            law = lambda g, h: values[gmt[g][h]] == mt[values[g]][action.table[g][values[h]]]
            assert validate_cocycle(Cocycle(action, values)) == full_scan_failure(action.actor.order, law)


def test_semidirect_inverses_follow_the_pair_formula():
    """The rows ``left`` reads off a product's Cayley graph, and ``mul``,
    are (f1, g1)(f2, g2) = (f1 * act(g1, f2), g1 * g2), and its
    inverses, the generators' included, are (f, g)^-1 = (act(g^-1, f^-1),
    g^-1): on every product of check's twist sweep, on C2 x S4, and on S4
    with C2 acting by a transposition."""
    s4 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]])
    by_transposition = tuple(s4.conjugate(f, s4.generator_ids[0]) for f in range(s4.order))
    actions = [
        action
        for _, f_grp in twist_sweep_groups()
        for _, g_grp in twist_sweep_groups()
        if f_grp.order * g_grp.order <= _SWEEP_MAX_ORDER
        for action in all_actions(g_grp, f_grp)
    ]
    actions += [GroupAction.trivial(s4, builtin_group("c2")), GroupAction(builtin_group("c2"), s4, [by_transposition])]
    for action in actions:
        prod = semidirect_product(action)
        f_grp, g_grp = action.target, action.actor
        rows = tuple(map(prod.group.left, range(prod.group.order)))
        for (f1, g1), (f2, g2) in product(product(range(f_grp.order), range(g_grp.order)), repeat=2):
            a, b = prod.pair_id(f1, g1), prod.pair_id(f2, g2)
            ab = prod.pair_id(f_grp.mul(f1, action.act(g1, f2)), g_grp.mul(g1, g2))
            assert rows[a][b] == prod.group.mul(a, b) == ab
        expected = []
        for f in range(f_grp.order):
            for g in range(g_grp.order):
                gi = g_grp.inv(g)
                expected.append(prod.pair_id(action.act(gi, f_grp.inv(f)), gi))
        assert prod.group.inv_table == tuple(expected) == tuple(row.index(0) for row in rows)
        assert prod.group.generator_inverses == tuple(expected[s] for s in prod.group.generator_ids)
    assert len(actions) > 2 and prod.group.order == 48


def test_s7_is_held_by_its_cayley_graph():
    """Closing S7 keeps its Cayley graph and breadth-first words; its
    conjugacy classes (conjugating along the generators) and commutativity
    (of the generators) are read off the graph, and neither ``inv_table``
    nor the words' parents are derived until they are read."""
    s7 = group_from_generators([[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])
    assert s7.order == 5040 and len(s7.bfs_words) == 5039
    classes = conjugacy_classes(s7)
    # 7! / z for each cycle type of S7.
    sizes = [1, 21, 70, 105, 105, 210, 210, 280, 420, 420, 504, 504, 630, 720, 840]
    assert [len(cls) for cls in classes] == sizes and sorted(sum(classes, ())) == list(range(5040))
    assert not s7.is_abelian()
    assert "inv_table" not in vars(s7) and "_parents" not in vars(s7)


def test_cocycle_check_over_s6_reads_the_cayley_graph():
    """The cocycle law is checked on the actor's Cayley edges, so the zero
    cocycle of S6 acting trivially on C2 walks no word of S6."""
    s6 = group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
    assert validate_cocycle(Cocycle(GroupAction.trivial(s6, builtin_group("c2")), (0,) * 720)) is None
    assert "_parents" not in vars(s6)


def test_trivial_action_of_s7_reads_the_cayley_graph():
    """An action's laws hold on the actor's Cayley edges, read from its
    graph, so acting with S7 walks no word of S7."""
    s7 = group_from_generators([[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])
    action = GroupAction.trivial(s7, builtin_group("c2"))
    assert action.is_trivial() and len(action.table) == 5040
    assert "_parents" not in vars(s7)


def test_s6_keeps_no_quadratic_table():
    """The subgroup search, cosets and element orders multiply along the
    Cayley graph: after them no attribute of S6 holds |G|^2 entries."""
    s6 = group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
    reps = subgroup_conjugacy_reps(s6)
    assert (len(reps), len(cyclic_subgroup_class_reps(s6))) == (56, 11)
    assert all(fixed_coset_counts(s6, rep)[0] == 720 // len(rep) for rep in reps)
    assert sorted(set(map(s6.element_order, range(720)))) == [1, 2, 3, 4, 5, 6]

    def entries(value):
        if not isinstance(value, tuple):
            return 0
        return len(value) + sum(len(x) for x in value if isinstance(x, tuple))

    sizes = {name: entries(value) for name, value in vars(s6).items()}
    assert max(sizes.values()) < 720 * 720, sizes


class _CountingArray(tuple):
    """A Cayley-graph array that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        _CountingArray.reads += 1
        return tuple.__getitem__(self, i)


def test_long_words_cost_a_few_tables_of_reads():
    """C_120 from one 120-cycle has words as long as the group, and D_60
    (a 60-cycle and a reflection) words of up to 31 letters.  Element
    orders, cyclic subgroups and the subgroup search on them read the
    Cayley graph fewer than 10 * |G|^2 times: each fixed right factor is
    walked or built into a row, whichever is cheaper, and the cyclic
    subgroups come from one list of powers each."""
    n = 60
    rotate = [(a % n + (1 if a < n else -1)) % n + a // n * n for a in range(2 * n)]
    reflect = [a % n + (1 - a // n) * n for a in range(2 * n)]
    cases = (([[(a + 1) % 120 for a in range(120)]], 120, 16, 16), ([rotate, reflect], 60, 14, 32))
    for right, exponent, cyclic, classes in cases:
        _CountingArray.reads = 0
        group = FiniteGroup(tuple(map(_CountingArray, right)))
        assert max(map(group.element_order, range(group.order))) == exponent
        assert len(cyclic_subgroup_class_reps(group)) == cyclic
        assert len(subgroup_conjugacy_reps(group)) == classes
        assert _CountingArray.reads < 10 * group.order**2, _CountingArray.reads
