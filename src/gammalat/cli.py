"""Command line front end.

Subcommands: group-info, artin, ono, twist, reduce, check.  Global flags
come before the subcommand: --workspace loads a JSON workspace file,
--json/--table pick the output form (JSON is the default and is always
byte-stable).  Errors print a machine-readable JSON object to stdout and
exit with 2 for an InputError, 1 for a ComputationError or any other
exception (code "internal"); argparse usage errors (such as
``--coord-bound 0``) go to stderr, also with exit 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ComputationError, InputError
from .serialize import (
    FORMAT_VERSION,
    canonical_json,
    encode_artin,
    encode_certificate,
    encode_group_info,
    encode_lattice,
    encode_narrative,
    encode_ono,
    encode_reduction,
    format_matrix,
    format_table,
)
from .workspace import (
    _DECIMAL,
    Workspace,
    empty_workspace,
    load_workspace,
    resolve,
)

if TYPE_CHECKING:
    from .lattices import GammaLattice

__all__ = ["main"]

# Each subcommand is one cmd_* function of (workspace, parsed args) that
# returns (JSON payload, table text, exit code); main adds the "format" key.
# Each imports the layers it runs, so a process loads only those.


def _abelian_text(structure) -> str:
    return f"{structure.describe()} (order {structure.order})"


def _blocks(parts: Sequence[str]) -> str:
    return "\n".join(part.rstrip("\n") for part in parts if part != "") + "\n"


def _lattice_table(m: GammaLattice, title: str) -> str:
    parts = [f"{title}: rank {m.rank} over a group of order {m.group.order}"]
    for gid, a in zip(m.group.generator_ids, m.generators):
        parts.append(f"action of generator {m.group.label(gid)}:")
        parts.append(format_matrix(a))
    return _blocks(parts)


def cmd_group_info(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .groups import conjugacy_classes, cyclic_subgroup_class_reps, subgroup_conjugacy_reps

    group = resolve(workspace, "groups", args.group)
    payload = {"group": encode_group_info(group, name=args.group)}
    classes = conjugacy_classes(group)
    cyc = cyclic_subgroup_class_reps(group)
    subs = subgroup_conjugacy_reps(group)
    parts = [
        format_table(
            ("field", "value"),
            [
                ("name", args.group),
                ("order", str(group.order)),
                ("abelian", "yes" if group.is_abelian() else "no"),
                ("generators", " ".join(group.label(g) for g in group.generator_ids)),
                ("conjugacy classes", str(len(classes))),
                ("cyclic subgroup reps", str(len(cyc))),
                ("subgroup conjugacy reps", str(len(subs))),
            ],
        ),
        "conjugacy classes:",
        format_table(
            ("index", "size", "elements"),
            [
                (str(i), str(len(cls)), " ".join(group.label(g) for g in cls))
                for i, cls in enumerate(classes)
            ],
        ),
        "cyclic subgroup representatives:",
        format_table(
            ("index", "order", "elements"),
            [
                (str(i), str(len(rep)), " ".join(group.label(g) for g in rep))
                for i, rep in enumerate(cyc)
            ],
        ),
    ]
    return payload, _blocks(parts), 0


def cmd_artin(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .induction import artin_decompose, certify_minimality

    lat = resolve(workspace, "lattices", args.lattice)
    solution = artin_decompose(lat)
    minimal = certify_minimality(lat, solution)
    payload = {
        "lattice": encode_lattice(lat, name=args.lattice),
        "artin": encode_artin(solution),
        "minimal": minimal,
    }
    rows = [
        (
            " ".join(lat.group.label(g) for g in rep),
            str(len(rep)),
            str(solution.m[i]),
            str(solution.n[i]),
        )
        for i, rep in enumerate(solution.reps)
        if solution.m[i] or solution.n[i]
    ]
    parts = [
        f"lattice {args.lattice}: rank {lat.rank}, group order {lat.group.order}",
        f"multiplier r = {solution.r} (certified minimal: {'yes' if minimal else 'no'})",
        "induced terms (m on the left of the embedding, n on the right):",
        format_table(("subgroup", "order", "m", "n"), rows) if rows else "(none)",
    ]
    return payload, _blocks(parts), 0


def cmd_ono(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .induction import ono_construct

    lat = resolve(workspace, "lattices", args.lattice)
    result = ono_construct(lat, allow_random=not args.seedless)
    payload = {"lattice": encode_lattice(lat, name=args.lattice), "ono": encode_ono(result)}
    parts = [
        f"lattice {args.lattice}: rank {lat.rank}, group order {lat.group.order}",
        f"multiplier r = {result.r}",
        f"induced source rank {result.m1.rank}, target rank {result.embedding.target.rank}",
        f"embedding index {result.index}",
        "embedding matrix:",
        format_matrix(result.embedding.matrix),
        f"cokernel: {_abelian_text(result.embedding.cokernel)}",
    ]
    return payload, _blocks(parts), 0


def cmd_twist(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .lattices import is_permutation_lattice, twist

    lattice_name, cocycle_name = args.lattice, args.cocycle
    lat = resolve(workspace, "lattices", lattice_name)
    cocycle = resolve(workspace, "cocycles", cocycle_name)
    twisted = twist(lat, cocycle)
    cert = is_permutation_lattice(twisted, args.coord_bound)
    payload = {
        "lattice": encode_lattice(twisted, name=f"{lattice_name} twisted by {cocycle_name}"),
        "permutation_certificate": encode_certificate(cert),
    }
    parts = [
        _lattice_table(twisted, f"twist of {lattice_name} by {cocycle_name}"),
        f"permutation lattice: {cert.status}"
        + (f" ({cert.reason})" if cert.reason else ""),
    ]
    return payload, _blocks(parts), 0


def cmd_reduce(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .reduction import reduce_stabilizer

    inp = resolve(workspace, "reductions", args.input)
    report = reduce_stabilizer(inp, allow_random=not args.seedless)
    if args.narrative_only:
        payload = {"narrative": encode_narrative(report.narrative)}
    else:
        payload = {"input": args.input, "reduction": encode_reduction(report)}
    parts = []
    for entry in report.narrative:
        parts.append(f"[{entry.step}] {entry.title} ({entry.status})")
        parts.append(f"    {entry.detail}")
    if not args.narrative_only:
        parts.append(f"m = {report.m}")
        parts.append(f"A  = {_abelian_text(report.a.structure)}")
        parts.append(f"A' = {_abelian_text(report.a_prime.structure)}")
        parts.append(f"kernel order of F over the component group: {report.kernel_order_of_F}")
    return payload, _blocks(parts), 0


def cmd_check(workspace: Workspace, args: argparse.Namespace) -> tuple[dict, str, int]:
    from .checks import run_property_suite

    results = run_property_suite(
        workspace, coord_bound=args.coord_bound, allow_random=not args.seedless
    )
    passed = all(r.passed for r in results)
    payload = {
        "passed": passed,
        "properties": [
            {"name": r.name, "passed": r.passed, "cases": r.cases, "detail": r.detail}
            for r in results
        ],
    }
    rows = [
        (r.name, "pass" if r.passed else "FAIL", str(r.cases), r.detail)
        for r in results
    ]
    total = sum(r.cases for r in results)
    parts = [
        format_table(("property", "status", "cases", "detail"), rows),
        f"{len(results)} properties, {total} cases, "
        + ("all passed" if passed else "FAILURES PRESENT"),
    ]
    return payload, _blocks(parts), 0 if passed else 1


def positive_int(text: str) -> int:
    """argparse type for integers >= 1 in workspace notation; argparse exits 2 otherwise."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammalat",
        description="Exact integer computations with finite group actions on lattices.",
    )
    parser.add_argument(
        "--workspace",
        metavar="PATH",
        default=None,
        help="JSON workspace with named groups, actions, lattices, cocycles, reductions",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="format", action="store_const", const="json", help="JSON output (default)"
    )
    fmt.add_argument(
        "--table", dest="format", action="store_const", const="table", help="plain-text tables"
    )
    parser.set_defaults(format="json")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each defined once.
    seedless = argparse.ArgumentParser(add_help=False)
    seedless.add_argument(
        "--seedless", action="store_true", help="fail instead of falling back to seeded random search"
    )
    coord_bound = argparse.ArgumentParser(add_help=False)
    coord_bound.add_argument(
        "--coord-bound",
        type=positive_int,
        default=2,
        metavar="K",
        help="coordinate bound for the permutation-basis search (default 2)",
    )

    p = sub.add_parser("group-info", help="order, conjugacy classes, cyclic subgroup reps")
    p.add_argument("group", help="group name (workspace or built-in)")
    p.set_defaults(run=cmd_group_info)

    p = sub.add_parser("artin", help="decompose r*[lattice] into induced lattices")
    p.add_argument("lattice", help="lattice name (workspace or built-in)")
    p.set_defaults(run=cmd_artin)

    p = sub.add_parser(
        "ono", parents=[seedless], help="finite-index embedding of a sum of induced lattices"
    )
    p.add_argument("lattice", help="lattice name (workspace or built-in)")
    p.set_defaults(run=cmd_ono)

    p = sub.add_parser(
        "twist",
        parents=[coord_bound],
        help="twist a lattice over a semidirect product by a cocycle",
    )
    p.add_argument("lattice", help="lattice name (workspace or built-in)")
    p.add_argument("cocycle", help="cocycle name (workspace)")
    p.set_defaults(run=cmd_twist)

    p = sub.add_parser(
        "reduce",
        parents=[seedless],
        help="stabilizer reduction pipeline: kernel data and narrative",
    )
    p.add_argument("input", help="reduction input name (workspace or built-in)")
    p.add_argument("--narrative-only", action="store_true", help="emit only the 5-step trace")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser(
        "check",
        parents=[coord_bound, seedless],
        help="run the full property suite over corpus plus workspace",
    )
    p.set_defaults(run=cmd_check)
    return parser


def _emit_error(exc: BaseException, code: Optional[str] = None) -> None:
    error = {"code": code or type(exc).__name__, "message": str(exc)}
    sys.stdout.write(canonical_json({"format": FORMAT_VERSION, "error": error}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        workspace = (
            load_workspace(args.workspace) if args.workspace else empty_workspace()
        )
        payload, table, code = args.run(workspace, args)
    except InputError as exc:
        _emit_error(exc)
        return 2
    except ComputationError as exc:
        _emit_error(exc)
        return 1
    except Exception as exc:
        _emit_error(exc, code="internal")
        return 1
    if args.format == "table":
        sys.stdout.write(table)
    else:
        sys.stdout.write(canonical_json({"format": FORMAT_VERSION, **payload}))
    return code


if __name__ == "__main__":
    sys.exit(main())
