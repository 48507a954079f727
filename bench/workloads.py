"""Seeded workloads: each is a workspace file plus a list of CLI commands.

The seed picks presentations (generating sets, point labels, lattice bases
and subgroup choices), never sizes, so every seed asks for the same amount
of work.  The program sees only the written workspace file and the command
arguments.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import groupkit as gk
import verify

DEMO = "demo/workspace.json"
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DEFAULT_DEADLINE_S = 60.0


@dataclass
class Command:
    args: list[str]
    verify: Callable[[int, str], Optional[str]]
    deadline_s: float = DEFAULT_DEADLINE_S
    # Why this operation fails at the seed commit; None if it must succeed.
    known_defect: Optional[str] = None

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    name: str
    workspace: str  # path relative to the checkout root
    commands: list[Command]


def _write_workspace(doc: dict, workdir: str, name: str) -> str:
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _mat(rows: gk.Matrix) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "entries": rows}


# -- corpus-cli ---------------------------------------------------------------

CORPUS_GROUPS = ["trivial", "c2", "c3", "c4", "v4", "c6", "s3"]
CORPUS_LATTICES = [
    "c2_trivial", "c2_sign", "c2_regular", "c2_sign_plus_trivial", "c3_regular",
    "c3_augmentation", "c4_sign", "c4_gaussian", "c4_regular", "v4_character",
    "v4_regular", "c6_sign", "s3_sign", "s3_standard", "s3_standard_plus_sign",
    "c4_gaussian_plus_sign",
]


def corpus_args() -> list[list[str]]:
    """What users run today: the builtin corpus and the demo workspace."""
    args = [["group-info", g] for g in CORPUS_GROUPS]
    for lat in CORPUS_LATTICES:
        args += [["artin", lat], ["ono", lat]]
    args += [["reduce", r] for r in ("degenerate", "sign_component", "sign_galois")]
    args += [["reduce", "sign_component", "--narrative-only"]]
    ws = ["--workspace", DEMO]
    args += [
        ws + ["group-info", "s3"],
        ws + ["artin", "zero_demo"],
        ws + ["twist", "aug_twisted", "triv_inv3"],
        ws + ["twist", "aug_twisted", "twist_inv3"],
        ws + ["reduce", "demo_component"],
        ws + ["check"],
    ]
    return args


def corpus_cli(seed: int, workdir: str) -> Workload:
    """The corpus is fixed, so the seed changes nothing; every output is
    compared with its golden digest."""
    with open(GOLDEN, encoding="utf-8") as fh:
        digests = json.load(fh)
    commands = [Command(a, verify.golden(digests[" ".join(a)])) for a in corpus_args()]
    return Workload("corpus-cli", DEMO, commands)


# -- embed-s4 -----------------------------------------------------------------

# Builtin corpus lattices, mirrored so their embeddings can be checked.
V4_CHARACTER = verify.LatticeSpec([[1, 0, 3, 2], [2, 3, 0, 1]], [[[-1]], [[1]]])
S3_SIGN = verify.LatticeSpec([[1, 0, 2], [1, 2, 0]], [[[-1]], [[1]]])
SEEDLESS_DEFECT = (
    "the deterministic shells are skipped or exhausted and --seedless forbids "
    "the pseudorandom fallback, so the command exits 1"
)


def _standard_rep(p: gk.Perm) -> gk.Matrix:
    """S_n on the sum-zero sublattice, basis e_i - e_(i+1)."""
    n = len(p)
    # p sends e_j to e_p[j]; coordinates in the basis are prefix sums.
    images = [[(1 if p[j] == i else 0) - (1 if p[j + 1] == i else 0) for j in range(n - 1)] for i in range(n)]
    return [[sum(images[r][j] for r in range(i + 1)) for j in range(n - 1)] for i in range(n - 1)]


def embed_s4(seed: int, workdir: str) -> Workload:
    """S4 sign and standard lattices in a seeded generating pair and a
    seeded shear-conjugated basis, plus the corpus lattices whose
    ``--seedless`` embedding fails today."""
    rng = random.Random(seed)
    gens = gk.relabel(gk.generating_pair(4, 24, rng), rng)
    s, s_inv = gk.shear(3, rng, 3)
    sign = [[[gk.sign(g)]] for g in gens]
    standard = [gk.conjugate(_standard_rep(g), s, s_inv) for g in gens]
    doc = {
        "format": 1,
        "groups": {"s4": {"points": 4, "generators": [list(g) for g in gens]}},
        "actions": {"s4_on_trivial": {"actor": "s4", "target": "trivial", "generator_images": [[0], [0]]}},
        "lattices": {
            "s4_sign": {"group": "s4", "rank": 1, "generator_matrices": [_mat(m) for m in sign]},
            "s4_standard": {"group": "s4", "rank": 3, "generator_matrices": [_mat(m) for m in standard]},
            # Trivial component group: the torus lattice is zero over
            # trivial x| S4, with one matrix per product generator.
            "s4_zero": {
                "group": "semidirect:s4_on_trivial",
                "rank": 0,
                "generator_matrices": [_mat([])] * 3,
            },
        },
        "reductions": {
            "s4_ambient": {
                "hf": "trivial",
                "gamma": "s4",
                "action": "s4_on_trivial",
                "t_hat": "s4_zero",
                "gtor_hat": "s4_standard",
            }
        },
    }
    path = _write_workspace(doc, workdir, "embed-s4")
    ws = ["--workspace", path]
    sign_spec = verify.LatticeSpec(gens, sign)
    standard_spec = verify.LatticeSpec(gens, standard)
    commands = [
        Command(ws + ["artin", "s4_sign"], verify.artin(sign_spec)),
        Command(ws + ["ono", "s4_sign"], verify.ono(sign_spec)),
        Command(ws + ["artin", "s4_standard"], verify.artin(standard_spec)),
        Command(ws + ["ono", "s4_standard"], verify.ono(standard_spec)),
        Command(ws + ["reduce", "s4_ambient"], verify.reduce(standard_spec)),
        Command(["ono", "v4_character", "--seedless"], verify.ono(V4_CHARACTER), known_defect=SEEDLESS_DEFECT),
        Command(["ono", "s3_sign", "--seedless"], verify.ono(S3_SIGN), known_defect=SEEDLESS_DEFECT),
    ]
    return Workload("embed-s4", path, commands)


# -- groups-recognize ---------------------------------------------------------


def _cyclic(n: int) -> list[gk.Perm]:
    return [tuple(list(range(1, n)) + [0])]


def _inversion(n: int) -> gk.Perm:
    # In a cyclic group on one generator, element id k is g^k.
    return tuple((-k) % n for k in range(n))


# (name, F generators, Gamma generators, automorphism of F per Gamma
# generator, cocycle value per Gamma generator).  Every P = F x| Gamma has
# order at most 16.
_V4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
PRODUCTS = [
    ("s3", _cyclic(3), _cyclic(2), [_inversion(3)], [1]),
    ("d4", _cyclic(4), _cyclic(2), [_inversion(4)], [1]),
    ("a4", _V4, [(1, 2, 0)], [(0, 2, 3, 1)], [1]),
    ("d6", _cyclic(6), _cyclic(2), [_inversion(6)], [1]),
    ("c4c4", _cyclic(4), _cyclic(4), [_inversion(4)], [1]),
    # A plain Gamma-lattice: Gamma = D4 acting on the trivial group.
    ("d4plain", [(0,)], [(1, 2, 3, 0), (3, 2, 1, 0)], [(0,), (0,)], [0, 0]),
]
# (product, rank = [P:H], coordinate bounds).  Up to rank 3 the orbit
# search box is small, so its cost does not depend on the basis and the
# seed picks H and the shear.  From rank 4 on, the search's cost swings by
# orders of magnitude with the basis (the defect STUCK_DEFECT shows), so
# these lattices get a fixed basis and H, and cost the same on every seed.
SEEDED_TWISTS = [
    ("s3", 2, (2, 3)), ("s3", 3, (2, 3)), ("d4", 2, (2, 3)), ("a4", 3, (2, 3)),
    ("d6", 3, (2, 3)), ("c4c4", 2, (2, 3)), ("d4plain", 2, (2, 3)),
]
FIXED_TWISTS = [
    ("d4", 4, (2, 3)), ("a4", 4, (2, 3)), ("d6", 4, (2, 3)), ("c4c4", 4, (2, 3)),
    ("d4plain", 4, (2, 3)), ("a4", 6, (2,)),
]
# The one rank-6 twist over C2 (the regular lattice of S3), in a fixed basis.
STUCK_TWIST = ("s3", 6, (2,))
STUCK_DEADLINE_S = 1.0
STUCK_DEFECT = (
    "the rank-6 orbit search over C2 at coordinate bound 2 does not finish "
    "(stopped after 5 minutes in this basis; one in another ran 17 CPU-minutes), "
    "so it runs under a short deadline"
)


def _cocycle(f_grp: gk.PermGroup, g_grp: gk.PermGroup, act, gen_values) -> list[int]:
    """Extend x on Gamma's generators by x(g*s) = x(g) * g(x(s)) and check
    the cocycle law at every pair."""
    vals = [0] * g_grp.order
    for k in range(1, g_grp.order):
        parent, gi = g_grp.words[k]
        vals[k] = f_grp.mul(vals[parent], act[parent][gen_values[gi]])
    for g in range(g_grp.order):
        for h in range(g_grp.order):
            if vals[g_grp.mul(g, h)] != f_grp.mul(vals[g], act[g][vals[h]]):
                raise ValueError("generator values do not define a cocycle")
    return vals


def _subgroups_of_index(group: gk.TableGroup, index: int) -> list[tuple[int, ...]]:
    """Subgroups generated by at most two elements, of the given index, in
    a canonical order."""
    subs = {gk.subgroup_closure(group, [a, b]) for a in range(group.order) for b in range(a, group.order)}
    return sorted(sub for sub in subs if len(sub) * index == group.order)


def groups_recognize(seed: int, workdir: str) -> Workload:
    """group-info on A5 and S5, and twists of shear-conjugated coset
    lattices Z[P/H] that are all permutation lattices."""
    rng = random.Random(seed)
    a5 = gk.relabel(gk.generating_pair(5, 60, rng, even=True), rng)
    s5 = gk.relabel(gk.generating_pair(5, 120, rng), rng)
    doc: dict = {
        "format": 1,
        "groups": {
            "a5": {"points": 5, "generators": [list(g) for g in a5]},
            "s5": {"points": 5, "generators": [list(g) for g in s5]},
        },
        "actions": {},
        "lattices": {},
        "cocycles": {},
    }
    products = {}
    for name, f_gens, g_gens, auts, x_gens in PRODUCTS:
        f_grp = gk.PermGroup(gk.relabel(f_gens, rng))
        g_grp = gk.PermGroup(gk.relabel(g_gens, rng))
        act = gk.action_table(g_grp, f_grp, auts)
        doc["groups"][f"{name}_f"] = {"points": len(f_grp.gens[0]), "generators": [list(g) for g in f_grp.gens]}
        doc["groups"][f"{name}_g"] = {"points": len(g_grp.gens[0]), "generators": [list(g) for g in g_grp.gens]}
        doc["actions"][name] = {"actor": f"{name}_g", "target": f"{name}_f", "generator_images": [list(a) for a in auts]}
        doc["cocycles"][f"{name}_x"] = {"action": name, "values": _cocycle(f_grp, g_grp, act, x_gens)}
        products[name] = (gk.semidirect(f_grp, g_grp, act), g_grp, doc["cocycles"][f"{name}_x"]["values"])

    planned = []  # (lattice, cocycle, bound, twisted matrices, stuck)
    twists = [(t, rng) for t in SEEDED_TWISTS]
    twists += [(t, random.Random(f"{t[0]}-{t[1]}")) for t in FIXED_TWISTS + [STUCK_TWIST]]
    for (name, rank, bounds), pick in twists:
        p_grp, g_grp, x = products[name]
        sub = pick.choice(_subgroups_of_index(p_grp, rank))
        cosets = gk.left_cosets(p_grp, sub)
        s, s_inv = gk.shear(rank, pick, rank)
        lname = f"{name}_r{rank}"
        gen_mats = [gk.conjugate(gk.coset_matrix(p_grp, cosets, g), s, s_inv) for g in p_grp.generator_ids]
        doc["lattices"][lname] = {"group": f"semidirect:{name}", "rank": rank, "generator_matrices": [_mat(m) for m in gen_mats]}
        # The twist restricts along gamma -> (x_gamma, gamma).
        twisted = [
            gk.conjugate(gk.coset_matrix(p_grp, cosets, x[gid] * g_grp.order + gid), s, s_inv)
            for gid in g_grp.generator_ids
        ]
        stuck = (name, rank, bounds) == STUCK_TWIST
        for bound in bounds:
            planned.append((lname, f"{name}_x", bound, twisted, stuck))
    path = _write_workspace(doc, workdir, "groups-recognize")
    ws = ["--workspace", path]
    commands = [
        Command(ws + ["group-info", "a5"], verify.group_info(a5, subgroup_classes=9, cyclic_classes=4)),
        Command(ws + ["group-info", "s5"], verify.group_info(s5, subgroup_classes=19, cyclic_classes=7)),
    ]
    for lname, xname, bound, twisted, stuck in planned:
        cmd = Command(ws + ["twist", lname, xname, "--coord-bound", str(bound)], verify.twist(twisted))
        if stuck:
            cmd.deadline_s = STUCK_DEADLINE_S
            cmd.known_defect = STUCK_DEFECT
        commands.append(cmd)
    return Workload("groups-recognize", path, commands)


WORKLOADS = {
    "corpus-cli": corpus_cli,
    "embed-s4": embed_s4,
    "groups-recognize": groups_recognize,
}
