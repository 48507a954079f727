"""The property suite's runner: naming, tallying and crash reporting."""

from gammalat import checks, intlinalg
from gammalat.errors import InternalContradiction
from gammalat.groups import group_from_generators
from gammalat.intlinalg import IntMatrix
from gammalat.lattices import lattice_from_action


def _by_name(results):
    return {r.name: r for r in results}


def test_minimal_multiplier_does_not_hide_internal_errors(monkeypatch):
    def broken(snf, b):
        raise AssertionError("solver bug")

    monkeypatch.setattr(intlinalg.SnfDecomposition, "least_multiple", broken)
    result = _by_name(checks.run_property_suite())["minimal-multiplier"]
    assert result.passed is False


def test_crashing_property_keeps_its_name(monkeypatch):
    assert _by_name(checks.run_property_suite())["ono-reversal"].passed

    def boom(iso):
        raise InternalContradiction("boom")

    monkeypatch.setattr(checks, "reverse_isogeny", boom)
    result = _by_name(checks.run_property_suite())["ono-reversal"]
    assert (result.passed, result.cases, result.detail) == (
        False,
        0,
        "crashed: InternalContradiction('boom')",
    )


def test_character_laws_over_s6_read_the_cayley_graph():
    """The character is compared at each element and its inverse, and the
    inverses are read off the Cayley graph, so the property multiplies no
    two arbitrary elements of S6 and derives no breadth-first words."""
    s6 = group_from_generators([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
    minus = IntMatrix.from_rows([[-1]])
    ctx = checks._Context((), (("sign", lattice_from_action(s6, 1, [minus, minus])),), (), (), 1, False)
    assert checks._prop_character_laws(ctx) == (1, [])
    assert "_parents" not in vars(s6)
