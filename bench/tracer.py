"""Run one gammalat CLI command with its layers timed from outside.

Usage: python3 bench/tracer.py SUMMARY.json CLI-ARGS...

Imports the CLI (timing the import), wraps the public functions of each
layer in every gammalat module that holds them by name, runs ``main`` and
writes a summary of spans and counters to SUMMARY.json.  A span's self
time is its duration minus the time of the spans it called.  Stdout is
left to the CLI, so a traced command prints the same bytes as an untraced
one.  SIGTERM (the per-operation deadline) unwinds the spans and still
writes the summary.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

_t0 = time.perf_counter()
import gammalat.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from gammalat import (  # noqa: E402
    checks,
    groups,
    induction,
    intlinalg,
    lattices,
    reduction,
    serialize,
    workspace,
)

# span name -> (module, attribute) pairs; every function of a span shares
# its statistics.
SPANS = {
    "intlinalg.snf": [(intlinalg, "smith_normal_form")],
    "intlinalg.hnf": [(intlinalg, "hermite_normal_form")],
    "intlinalg.solve": [(intlinalg, "solve_integer_linear"), (intlinalg, "minimal_multiplier")],
    "intlinalg.matmul": [(intlinalg.IntMatrix, "mul")],
    "groups.closure": [(groups, "group_from_generators")],
    "groups.classes": [(groups, "conjugacy_classes"), (groups, "class_index_map")],
    "groups.subgroups": [
        (groups, name)
        for name in (
            "subgroup_closure",
            "all_subgroups",
            "subgroup_conjugacy_reps",
            "cyclic_subgroup_class_reps",
            "left_cosets",
            "fixed_coset_counts",
        )
    ],
    "groups.semidirect": [(groups, "semidirect_product")],
    "groups.cocycle": [(groups, "validate_cocycle"), (groups, "twisted_section"), (groups, "enumerate_cocycles")],
    "lattices.from_action": [(lattices, "lattice_from_action")],
    "lattices.character": [(lattices, "character")],
    "lattices.intertwiner": [(lattices, "intertwiner_basis")],
    "lattices.embed_search": [(lattices, "equivariant_finite_index_embedding")],
    "lattices.embedding_check": [(lattices, "lattice_embedding")],
    "lattices.twist": [(lattices, "twist")],
    "lattices.recognize": [(lattices, "is_permutation_lattice")],
    "induction.artin": [(induction, "artin_decompose")],
    "induction.certify": [(induction, "certify_minimality")],
    "induction.ono": [(induction, "ono_construct")],
    "reduction.reduce": [(reduction, "reduce_stabilizer")],
    "reduction.kernel": [(reduction, "isogeny_kernel")],
    "reduction.reverse": [(reduction, "reverse_isogeny")],
    "checks.suite": [(checks, "run_property_suite")],
    "workspace.load": [(workspace, "load_workspace")],
    "serialize.encode": [(serialize, "canonical_json")]
    + [
        (serialize, name)
        for name in dir(serialize)
        if name.startswith(("encode_", "format_"))
    ],
    "cli.main": [(gammalat.cli, "main")],
}


class Deadline(BaseException):
    """Raised by SIGTERM; a BaseException so the CLI's handlers pass it on."""


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        # Metric name -> value; a name whose last part mentions "max" is a
        # maximum over calls, any other counter a sum.
        self.counters: dict[str, float] = {
            "intlinalg.snf.max_cells": 0,
            "groups.closure.max_order": 0,
            "lattices.intertwiner.max_unknowns": 0,
            "lattices.embed_search.basis_dim_max": 0,
            "lattices.recognize.yes": 0,
            "lattices.recognize.no": 0,
            "lattices.recognize.unknown": 0,
            "induction.ono.index_log2_max": 0.0,
        }

    def wrap(self, name: str, fn):
        stack, stats, after = self.stack, self.stats[name], self._after

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
            after(name, args, result)
            return result

        return span

    def _after(self, name: str, args: tuple, result) -> None:
        c = self.counters

        def top(key: str, value: float) -> None:
            c[key] = max(c[key], value)

        if name == "intlinalg.snf":
            top("intlinalg.snf.max_cells", args[0].rows * args[0].cols)
        elif name == "groups.closure":
            top("groups.closure.max_order", result.order)
        elif name == "lattices.intertwiner":
            top("lattices.intertwiner.max_unknowns", args[0].rank * args[1].rank)
            if self.stack and self.stack[-1][0] == "lattices.embed_search":
                top("lattices.embed_search.basis_dim_max", len(result))
        elif name == "lattices.recognize":
            c[f"lattices.recognize.{result.status.lower()}"] += 1
        elif name == "induction.ono":
            top("induction.ono.index_log2_max", math.log2(result.index))

    def install(self) -> None:
        """Replace each function wherever a gammalat module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "gammalat" or n.startswith("gammalat.")]
        for name, targets in SPANS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)


def _on_term(signum, frame):
    raise Deadline()


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    caches = [f for f in vars(groups).values() if hasattr(f, "cache_info")]
    fallbacks_before = getattr(lattices, "RANDOM_FALLBACK_COUNT", 0)
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _on_term)
    code = 124
    try:
        code = gammalat.cli.main(cli_args)
    except Deadline:
        pass
    finally:
        sys.stdout.flush()
        tracer.counters.update(
            {
                "cli.import_s": IMPORT_S,
                "groups.cache.hits": sum(f.cache_info().hits for f in caches),
                "groups.cache.misses": sum(f.cache_info().misses for f in caches),
                "lattices.embed_search.random_fallbacks": getattr(lattices, "RANDOM_FALLBACK_COUNT", 0)
                - fallbacks_before,
            }
        )
        summary = {"spans": tracer.stats, "counters": tracer.counters, "completed": code != 124}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
