"""Stabilizer reduction: isogeny kernels, reversals, pipeline reports."""

import pytest

from gammalat import intlinalg, lattices, reduction
from gammalat.corpus import (
    builtin_group,
    builtin_lattice,
    builtin_lattices,
    builtin_reduction,
    builtin_reductions,
)
from gammalat.errors import GroupMismatch, NotFiniteIndex
from gammalat.groups import GroupAction, trivial_group
from gammalat.induction import ono_construct
from gammalat.intlinalg import IntMatrix
from gammalat.lattices import direct_sum, lattice_embedding, trivial_lattice, zero_lattice
from gammalat.reduction import (
    existence_m,
    isogeny_kernel,
    reduce_stabilizer,
    reduction_input,
    reverse_isogeny,
)
from oracle import reference_kernel_matrices


def sign_embedding():
    return ono_construct(builtin_lattice("c2_sign")).embedding


def test_existence_multiplier():
    assert existence_m(1, 1) == 1
    assert existence_m(2, 1) == 2
    assert existence_m(4, 6) == 24
    with pytest.raises(ValueError):
        existence_m(0, 3)
    with pytest.raises(ValueError):
        existence_m(3, 0)


def test_isogeny_kernel_orders_and_structure():
    iso = sign_embedding()
    a1 = isogeny_kernel(iso, 1)
    assert a1.structure.invariant_factors == (2,)
    assert a1.order == 2
    a2 = isogeny_kernel(iso, 2)
    assert a2.structure.invariant_factors == (2, 4)
    assert a2.order == 8
    a2.validate()
    assert a2.group.order == 2
    with pytest.raises(ValueError):
        isogeny_kernel(iso, 0)


def test_isogeny_kernel_rejects_rank_mismatch():
    c2 = builtin_group("c2")
    one = trivial_lattice(c2, 1)
    two = trivial_lattice(c2, 2)
    emb = lattice_embedding(one, two, IntMatrix.from_rows([[1], [0]]))
    with pytest.raises(NotFiniteIndex):
        isogeny_kernel(emb, 1)


def test_reverse_isogeny_identity():
    iso = sign_embedding()
    rev = reverse_isogeny(iso)
    e = iso.cokernel.exponent
    assert e == 2
    assert rev.matrix.mul(iso.matrix) == IntMatrix.identity(2).scale(2)
    assert rev.index * iso.index == e ** 2
    assert rev.source == iso.target
    assert rev.target == iso.source


def test_kernel_and_reversal_reuse_the_embedding_smith_form(monkeypatch):
    iso = ono_construct(builtin_lattice("s3_standard")).embedding
    # Count Smith forms computed through every module that holds the function.
    calls = []
    original = intlinalg.smith_normal_form

    def counted(a):
        calls.append(a)
        return original(a)

    for module in (intlinalg, lattices, reduction):
        if hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", counted)
    for m in (1, 2, 3):
        isogeny_kernel(iso, m)
    assert calls == []
    rev = reverse_isogeny(iso)
    # The one Smith form is the reversal's own, which it keeps.
    assert calls == [rev.matrix]
    isogeny_kernel(rev, 2)
    assert calls == [rev.matrix]


def test_reverse_isogeny_requires_finite_index():
    c2 = builtin_group("c2")
    one = trivial_lattice(c2, 1)
    two = trivial_lattice(c2, 2)
    emb = lattice_embedding(one, two, IntMatrix.from_rows([[1], [0]]))
    with pytest.raises(NotFiniteIndex):
        reverse_isogeny(emb)


def test_reduction_input_group_checks():
    c2 = builtin_group("c2")
    triv = trivial_group()
    action = GroupAction.trivial(triv, c2)
    with pytest.raises(GroupMismatch):
        # torus lattice over the wrong group (product here is C2, not C3)
        reduction_input(c2, triv, action, builtin_lattice("c3_regular"), zero_lattice(triv), 1)
    with pytest.raises(GroupMismatch):
        # ambient torus lattice must live over gamma, not over H^f
        reduction_input(c2, triv, action, builtin_lattice("c2_sign"), builtin_lattice("c2_trivial"), 1)
    with pytest.raises(ValueError):
        inp = builtin_reduction("sign_component")
        reduction_input(
            inp.hf, inp.gamma, inp.gamma_on_hf, inp.t_hat, inp.gtor_hat, 0
        )


def test_reduce_sign_component_fixture():
    report = reduce_stabilizer(builtin_reduction("sign_component"))
    assert report.m == 2
    assert report.a.structure.invariant_factors == (2, 4)
    assert report.a.order == 8
    assert report.a_prime.order == 1
    assert report.kernel_order_of_F == 8
    assert len(report.narrative) == 5
    assert [e.step for e in report.narrative] == [0, 1, 2, 3, 4]
    statuses = [e.status for e in report.narrative]
    assert statuses == ["symbolic", "symbolic", "computed", "computed", "computed"]
    assert "m = n*d = 2*1 = 2" in report.narrative[3].detail
    assert "Z/2 x Z/4" in report.narrative[3].detail
    assert "not verified here" in report.narrative[3].detail
    assert "|A|*|A'| = 8" in report.narrative[4].detail


def test_reduce_degenerate_fixture():
    report = reduce_stabilizer(builtin_reduction("degenerate"))
    assert report.m == 1
    assert report.a.order == 1
    assert report.a_prime.order == 1
    assert report.kernel_order_of_F == 1


def test_reduce_sign_galois_fixture():
    report = reduce_stabilizer(builtin_reduction("sign_galois"))
    assert report.m == 2
    assert report.a.order == 1
    assert report.a_prime.structure.invariant_factors == (2,)
    assert report.kernel_order_of_F == 2


def test_kernel_action_is_transported_group_action():
    report = reduce_stabilizer(builtin_reduction("sign_component"))
    a = report.a
    assert len(a.matrices) == a.group.order
    a.validate()
    # the nontrivial component acts nontrivially on Z/2 x Z/4
    nontrivial = a.matrices[1]
    identity = a.matrices[0]
    assert identity == IntMatrix.identity(identity.rows)
    assert nontrivial != identity


def test_kernel_matrices_match_per_element_conjugation():
    """The element matrices derived from the kernel's generators are the
    conjugated target matrices of every element, reduced, for the Ono
    embedding of every corpus lattice and its reversal."""
    lats = builtin_lattices()
    assert len(lats) == 16
    for lat in lats:
        iso = ono_construct(lat).embedding
        for emb in (iso, reverse_isogeny(iso)):
            for m in (1, 2, 3):
                got = [[list(row) for row in a.entries] for a in isogeny_kernel(emb, m).matrices]
                assert got == reference_kernel_matrices(emb, m), (lat.name, m)


def test_reduction_ono_packages_the_embedding():
    inp = builtin_reduction("sign_component")
    ono = reduce_stabilizer(inp).ono
    assert ono.embedding.index == 2
    assert ono.embedding.target.rank == 2
    assert ono.m1.rank == 2


def test_all_builtin_reductions_run():
    for name, inp in builtin_reductions():
        report = reduce_stabilizer(inp)
        assert report.kernel_order_of_F == report.a.order * report.a_prime.order
        assert len(report.narrative) == 5
