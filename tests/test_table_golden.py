"""The ``--table`` form of every corpus command, pinned by its exit code and
the SHA-256 of its stdout in ``table_golden.json``.

``bench/golden.json`` pins the JSON form of the same commands.  Rewrite the
table digests only for a deliberate output change, and name each changed
command where the change is recorded.  From the root of a checkout:

    PYTHONPATH=src python3 tests/test_table_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from gammalat.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "table_golden.json")


def _digest(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(args)
    return f"{rc}:{hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def test_table_forms_match_their_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 49
    assert [key for key, expected in golden.items() if _digest(key.split()) != expected] == []


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    os.chdir(ROOT)
    digests = {}
    for args in workloads.corpus_args():
        command = ["--table", *args]
        digests[" ".join(command)] = _digest(command)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
