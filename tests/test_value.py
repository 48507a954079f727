"""The value protocol: identity from ``_fields``, and the constructor that
plain records share."""

import pytest

from gammalat._value import Value
from gammalat.checks import PropertyResult
from gammalat.groups import SemidirectProduct
from gammalat.induction import OnoResult
from gammalat.intlinalg import FiniteAbelianGroup, IntMatrix, SnfDecomposition
from gammalat.lattices import PermutationCertificate
from gammalat.reduction import NarrativeEntry, ReductionReport

RECORDS = (
    PropertyResult,
    SemidirectProduct,
    OnoResult,
    SnfDecomposition,
    PermutationCertificate,
    NarrativeEntry,
    ReductionReport,
)


def test_plain_records_take_the_shared_constructor():
    assert [cls.__name__ for cls in RECORDS if "__init__" in vars(cls)] == []


def test_position_and_keyword_construction_agree():
    by_position = NarrativeEntry(0, "t", "s", "d")
    by_keyword = NarrativeEntry(detail="d", status="s", title="t", step=0)
    mixed = NarrativeEntry(0, "t", detail="d", status="s")
    assert by_position == by_keyword == mixed
    assert hash(by_position) == hash(by_keyword) == hash(mixed)
    assert repr(by_position) == repr(by_keyword) == "NarrativeEntry(0, 't', 's', 'd')"
    assert (by_keyword.step, by_keyword.title, by_keyword.status, by_keyword.detail) == (0, "t", "s", "d")


def test_key_follows_the_fields_order():
    cert = PermutationCertificate(reason="r", basis=((1,),), status="YES")
    assert cert._key == ("YES", ((1,),), "r")
    assert repr(cert) == "PermutationCertificate('YES', ((1,),), 'r')"
    matrix = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert matrix._key == (2, 2, ((1, 2), (3, 4)))
    assert hash(matrix) == hash((2, 2, ((1, 2), (3, 4))))


def test_a_single_field_keeps_a_one_tuple_key():
    group = FiniteAbelianGroup((2, 4))
    assert group._key == ((2, 4),)
    assert repr(group) == "FiniteAbelianGroup((2, 4),)"
    assert hash(group) == hash(((2, 4),))


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0, "t", "s"), {}, "NarrativeEntry() missing arguments: 'detail'"),
        ((0,), {"title": "t"}, "NarrativeEntry() missing arguments: 'status', 'detail'"),
        ((0, "t", "s", "d"), {"note": "n"}, "NarrativeEntry() got an unexpected argument 'note'"),
        ((0, "t", "s", "d", "e"), {}, "NarrativeEntry() takes 4 arguments but 5 were given"),
        ((0, "t", "s", "d"), {"step": 1}, "NarrativeEntry() got multiple values for argument 'step'"),
    ],
)
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        NarrativeEntry(*args, **kwargs)
    assert str(info.value) == message


def test_values_are_immutable():
    entry = NarrativeEntry(0, "t", "s", "d")
    with pytest.raises(AttributeError, match="cannot assign to NarrativeEntry.step"):
        entry.step = 1
    with pytest.raises(AttributeError, match="cannot assign to NarrativeEntry.note"):
        entry.note = "n"
    with pytest.raises(AttributeError, match="cannot delete NarrativeEntry.step"):
        del entry.step
    assert entry == NarrativeEntry(0, "t", "s", "d")


def test_classes_with_equal_fields_are_unequal():
    class First(Value):
        _fields = ("x",)

    class Second(Value):
        _fields = ("x",)

    assert First(1) == First(x=1) and First(1) != Second(1)
    assert PropertyResult(0, "t", "s", "d") != NarrativeEntry(0, "t", "s", "d")
    assert len({First(1), Second(1), First(1)}) == 2
