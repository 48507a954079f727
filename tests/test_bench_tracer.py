"""The benchmark's tracer wraps package functions by name, so a renamed
function breaks only the traced pass; this catches it in the unit tests."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines SPANS; only running the script calls main
    missing = [
        f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
        for span, targets in tracer.SPANS.items()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert tracer.SPANS and not missing, missing
