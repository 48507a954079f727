"""Compare the CLI output of this checkout with that of another source tree.

Usage:

    python3 tests/compare_outputs.py PARENT_SRC

Builds the inputs of the benchmark workloads in ``bench/workloads.py`` at
seeds 1 and 2 in a temporary directory, then runs every command in JSON and
``--table`` form, each as a fresh ``python3 -m gammalat.cli``, once on this
checkout's ``src`` and once on PARENT_SRC (for instance the ``src`` of a
``git archive`` of the parent commit).  Commands run from the root of this
checkout, where the corpus commands find ``demo/workspace.json``.  Prints
every run whose exit code or stdout SHA-256 differs, and exits 1 if any
does.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

SEEDS = (1, 2)
FORMS = ((), ("--table",))


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


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC", help="src directory to compare with")
    args = parser.parse_args(argv)
    here, there = os.path.join(ROOT, "src"), os.path.abspath(args.parent_src)
    runs = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in workloads.WORKLOADS.items():
            for seed in SEEDS:
                workload = build(seed, os.path.join(tmp, f"{name}-{seed}"))
                for cmd in workload.commands:
                    for form in FORMS:
                        cli_args = [*form, *cmd.args]
                        ours, theirs = run(here, cli_args), run(there, cli_args)
                        runs += 1
                        if ours != theirs:
                            differing += 1
                            print(
                                f"{name} seed {seed}: {' '.join(cli_args)}: "
                                f"exit {theirs[0]} -> {ours[0]}, stdout {theirs[1][:12]} -> {ours[1][:12]}"
                            )
    print(f"{differing} of {runs} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
