"""Canonical serialization of reports.

JSON output is byte-stable: keys are sorted, indentation is fixed, and
every potentially large integer (matrix entries, orders, indices,
invariant factors, character values) is rendered as a decimal string so
consumers never lose precision to floating-point readers.  Small
structural numbers (ranks, element ids, multiplicities, step numbers)
stay plain JSON integers.  Table output is fixed-width plain text built
from the same data.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Sequence

from .groups import (
    FiniteGroup,
    conjugacy_classes,
    cyclic_subgroup_class_reps,
    subgroup_conjugacy_reps,
)

if TYPE_CHECKING:
    from .induction import ArtinSolution, OnoResult
    from .intlinalg import FiniteAbelianGroup, IntMatrix
    from .lattices import GammaLattice, LatticeEmbedding, PermutationCertificate, RationalCharacter
    from .reduction import NarrativeEntry, ReductionReport

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "big",
    "encode_matrix",
    "encode_abelian",
    "encode_character",
    "encode_group_info",
    "encode_lattice",
    "encode_certificate",
    "encode_artin",
    "encode_embedding",
    "encode_ono",
    "encode_abelian_with_action",
    "encode_narrative",
    "encode_reduction",
    "format_table",
    "format_matrix",
]

FORMAT_VERSION = 1


def canonical_json(payload: dict) -> str:
    """Stable rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def big(n: int) -> str:
    """Decimal string for integers that may not fit consumers' number types."""
    return str(int(n))


def encode_matrix(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[big(x) for x in row] for row in m.entries],
    }


def encode_abelian(g: FiniteAbelianGroup) -> dict:
    return {
        "invariant_factors": [big(d) for d in g.invariant_factors],
        "order": big(g.order),
    }


def encode_character(chi: RationalCharacter) -> dict:
    return {"values": [big(v) for v in chi.values]}


def encode_group_info(group: FiniteGroup, name: Optional[str] = None) -> dict:
    classes = conjugacy_classes(group)
    out = {
        "order": big(group.order),
        "abelian": group.is_abelian(),
        "generator_ids": list(group.generator_ids),
        "labels": [group.label(g) for g in range(group.order)],
        "element_orders": [big(group.element_order(g)) for g in range(group.order)],
        "conjugacy_classes": [
            {"size": len(cls), "elements": list(cls)} for cls in classes
        ],
        "cyclic_subgroup_reps": [list(rep) for rep in cyclic_subgroup_class_reps(group)],
        "subgroup_conjugacy_reps": [list(rep) for rep in subgroup_conjugacy_reps(group)],
    }
    if name is not None:
        out["name"] = name
    return out


def encode_lattice(m: GammaLattice, name: Optional[str] = None) -> dict:
    from .lattices import character

    out = {
        "rank": m.rank,
        "group_order": big(m.group.order),
        "generator_ids": list(m.group.generator_ids),
        "generator_matrices": [encode_matrix(a) for a in m.generators],
        "character": encode_character(character(m)),
    }
    label = name if name is not None else m.name
    if label is not None:
        out["name"] = label
    return out


def encode_certificate(cert: PermutationCertificate) -> dict:
    return {
        "status": cert.status,
        "basis": None if cert.basis is None else [[big(x) for x in vec] for vec in cert.basis],
        "reason": cert.reason,
    }


def encode_artin(solution: ArtinSolution) -> dict:
    return {
        "r": solution.r,
        "terms": [
            {
                "subgroup": list(rep),
                "subgroup_order": big(len(rep)),
                "m": solution.m[i],
                "n": solution.n[i],
            }
            for i, rep in enumerate(solution.reps)
            if solution.m[i] or solution.n[i]
        ],
    }


def encode_embedding(emb: LatticeEmbedding) -> dict:
    out = {
        "matrix": encode_matrix(emb.matrix),
        "cokernel": encode_abelian(emb.cokernel),
        "cokernel_free_rank": emb.cokernel_free_rank,
    }
    if emb.cokernel_free_rank == 0:
        out["index"] = big(emb.index)
    return out


def _summand_summary(solution: ArtinSolution, mults: Sequence[int]) -> list[dict]:
    return [
        {"subgroup": list(rep), "multiplicity": mult}
        for rep, mult in zip(solution.reps, mults)
        if mult
    ]


def encode_ono(result: OnoResult) -> dict:
    return {
        "artin": encode_artin(result.solution),
        "r": result.r,
        "m1": {"rank": result.m1.rank, "summands": _summand_summary(result.solution, result.solution.m)},
        "m0": {"rank": result.m0.rank, "summands": _summand_summary(result.solution, result.solution.n)},
        "embedding": encode_embedding(result.embedding),
        "index": big(result.index),
    }


def encode_abelian_with_action(a: GammaLattice) -> dict:
    """A finite module: its group, and the action of every element in id
    order (derived from the generators)."""
    return {
        "structure": encode_abelian(a.structure),
        "acting_group_order": big(a.group.order),
        "action": [encode_matrix(mat) for mat in a.matrices],
    }


def encode_narrative(narrative: Sequence[NarrativeEntry]) -> list[dict]:
    return [
        {"step": entry.step, "title": entry.title, "status": entry.status, "detail": entry.detail}
        for entry in narrative
    ]


def encode_reduction(report: ReductionReport) -> dict:
    return {
        "m": big(report.m),
        "torus_ono": encode_ono(report.ono),
        "A": encode_abelian_with_action(report.a),
        "ambient_ono": encode_ono(report.ambient_ono),
        "reversed_embedding": encode_embedding(report.reversed_embedding),
        "A_prime": encode_abelian_with_action(report.a_prime),
        "kernel_order_of_F": big(report.kernel_order_of_F),
        "narrative": encode_narrative(report.narrative),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width table with a header rule; trailing newline included."""
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(headers))]
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def format_matrix(m: IntMatrix) -> str:
    """Bracketed rows with right-aligned entries; trailing newline included."""
    if m.rows == 0 or m.cols == 0:
        return f"[] ({m.rows}x{m.cols})\n"
    width = max(len(str(x)) for row in m.entries for x in row)
    lines = ["[ " + "  ".join(str(x).rjust(width) for x in row) + " ]" for row in m.entries]
    return "\n".join(lines) + "\n"
