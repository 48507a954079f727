"""The property suite's runner: naming, tallying and crash reporting."""

from gammalat import checks, intlinalg
from gammalat.errors import InternalContradiction


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
