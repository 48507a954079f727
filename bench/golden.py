"""Rewrite bench/golden.json from the program in this checkout.

Usage (from the root of a checkout): python3 bench/golden.py

The golden file pins the exit code and the SHA-256 of stdout of every
corpus-cli command.  Regenerate it only for a deliberate output change, and
name each changed command where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

import run
import verify
import workloads


def main() -> int:
    env = run._env()
    workdir = os.path.join(run.WORKDIR, "golden")
    os.makedirs(workdir, exist_ok=True)
    stdout_path = os.path.join(workdir, "stdout")
    digests = {}
    for args in workloads.corpus_args():
        rc, _, _, timed_out = run.spawn([sys.executable, "-c", run.CLI, *args], env, workloads.DEFAULT_DEADLINE_S, stdout_path)
        if timed_out:
            raise SystemExit(f"{' '.join(args)}: timed out")
        with open(stdout_path, encoding="utf-8") as fh:
            digests[" ".join(args)] = verify.digest(rc, fh.read())
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
