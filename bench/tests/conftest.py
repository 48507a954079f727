import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)


@pytest.fixture(autouse=True)
def checkout_root(monkeypatch):
    """The benchmark runs from the root of a checkout."""
    monkeypatch.chdir(os.path.dirname(BENCH))


@pytest.fixture
def workdir(request, checkout_root):
    """Scratch space inside the checkout's ignored work directory."""
    path = os.path.join(".bench_work", "tests", request.node.name.replace("[", "-").replace("]", ""))
    os.makedirs(path, exist_ok=True)
    return path
