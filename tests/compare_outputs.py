"""Compare the CLI output of this checkout with that of another source tree.

Usage:

    python3 tests/compare_outputs.py PARENT_SRC

Builds the inputs of the benchmark workloads in ``bench/workloads.py`` at
seeds 1 and 2 in a temporary directory, then runs every command in JSON and
``--table`` form, each as a fresh ``python3 -m gammalat.cli``, once on this
checkout's ``src`` and once on PARENT_SRC (for instance the ``src`` of a
``git archive`` of the parent commit).  Commands run from the root of this
checkout, where the corpus commands find ``demo/workspace.json``.

Then, for each workspace section, writes the demo workspace plus one bad
definition in that section and runs three commands on it: ``check``, one
naming the bad definition, and ``group-info s3``, which names a good one.
So the error each bad definition raises is compared too, and so is which
commands it fails.  Next, one command per built-in section names a built-in
that does not exist, in both forms, so the UnknownName each raises is
compared as well.  Last, ``group-info`` runs in both forms on three groups
defined in a workspace: S6, the largest group compared (the benchmark's
largest is S5), and C360 and D120, whose breadth-first words are as long
as 359 and 61 letters.

Prints every run whose exit code or stdout SHA-256 differs, and exits 1 if
any does.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Iterator, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

SEEDS = (1, 2)
FORMS = ((), ("--table",))
DEMO = os.path.join(ROOT, "demo", "workspace.json")

# (section, name, definition, a command naming it): one definition per
# section that is well formed but fails its build.
BAD_DEFINITIONS = (
    ("groups", "bad_group", {"points": 2, "generators": [[0, 0]]}, ["group-info", "bad_group"]),
    (
        "actions",
        "bad_action",
        {"actor": "c2", "target": "c3", "generator_images": [[1, 2, 0]]},
        ["group-info", "semidirect:bad_action"],
    ),
    (
        "lattices",
        "bad_lattice",
        {"group": "c2", "rank": 1, "generator_matrices": [{"rows": 1, "cols": 1, "entries": [[2]]}]},
        ["artin", "bad_lattice"],
    ),
    (
        "cocycles",
        "bad_cocycle",
        {"action": "triv_on_c2", "values": [1]},
        ["twist", "component_sign_demo", "bad_cocycle"],
    ),
    (
        "reductions",
        "bad_reduction",
        {
            "hf": "c2",
            "gamma": "gamma1",
            "action": "triv_on_c2",
            "t_hat": "zero_demo",  # over gamma1, not the semidirect product
            "gtor_hat": "zero_demo",
        },
        ["reduce", "bad_reduction"],
    ),
)
GOOD_COMMAND = ["group-info", "s3"]
UNKNOWN_BUILTINS = (["group-info", "s4"], ["ono", "s4_sign"], ["reduce", "nosuch"])
WORKSPACE_GROUPS = {
    "s6": {"points": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]},
    "c360": {"points": 360, "generators": [[*range(1, 360), 0]]},
    "d120": {"points": 120, "generators": [[*range(1, 120), 0], [-i % 120 for i in range(120)]]},
}


def run(src: str, args: list[str]) -> tuple[int, str]:
    """(exit code, stdout SHA-256) of one fresh CLI process on ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gammalat.cli", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def workload_runs(tmp: str) -> Iterator[tuple[str, list[str]]]:
    """(label, CLI arguments) of every benchmark command at each seed and form."""
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workload = build(seed, os.path.join(tmp, f"{name}-{seed}"))
            for cmd in workload.commands:
                for form in FORMS:
                    yield f"{name} seed {seed}", [*form, *cmd.args]


def bad_definition_runs(tmp: str) -> Iterator[tuple[str, list[str]]]:
    """(label, CLI arguments) of the three commands on each bad-definition
    workspace."""
    with open(DEMO, encoding="utf-8") as fh:
        demo = json.load(fh)
    for section, name, definition, naming in BAD_DEFINITIONS:
        doc = dict(demo, **{section: dict(demo[section], **{name: definition})})
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in (["check"], naming, GOOD_COMMAND):
            yield f"demo + {section}/{name}", ["--workspace", path, *command]


def unknown_name_runs() -> Iterator[tuple[str, list[str]]]:
    """(label, CLI arguments) of each unknown built-in name in each form."""
    for command in UNKNOWN_BUILTINS:
        for form in FORMS:
            yield "corpus", [*form, *command]


def workspace_group_runs(tmp: str) -> Iterator[tuple[str, list[str]]]:
    """(label, CLI arguments) of ``group-info`` on each workspace group in
    each form."""
    path = os.path.join(tmp, "groups.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": 1, "groups": WORKSPACE_GROUPS}, fh)
    for name in WORKSPACE_GROUPS:
        for form in FORMS:
            yield f"workspace {name}", [*form, "--workspace", path, "group-info", name]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC", help="src directory to compare with")
    args = parser.parse_args(argv)
    here, there = os.path.join(ROOT, "src"), os.path.abspath(args.parent_src)
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for kind, runs in (
            ("workload", workload_runs(tmp)),
            ("bad-definition", bad_definition_runs(tmp)),
            ("unknown-name", unknown_name_runs()),
            ("workspace-group", workspace_group_runs(tmp)),
        ):
            count = differing = 0
            for label, cli_args in runs:
                ours, theirs = run(here, cli_args), run(there, cli_args)
                count += 1
                if ours != theirs:
                    differing += 1
                    print(
                        f"{label}: {' '.join(cli_args)}: "
                        f"exit {theirs[0]} -> {ours[0]}, stdout {theirs[1][:12]} -> {ours[1][:12]}"
                    )
            print(f"{differing} of {count} {kind} runs differ")
            total += differing
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
