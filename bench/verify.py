"""Independent checks of the program's answers.

Every checker takes the exit code and stdout of one CLI command and returns
``None`` when the answer is right, or a one-line reason when it is not.
They rebuild what they need (element numbering, coset lattices, traces,
determinants) from the generated inputs with ``groupkit``, never from the
program.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

import groupkit as gk


class Wrong(Exception):
    """An answer that contradicts the inputs."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _matrix(obj: dict) -> gk.Matrix:
    rows = [[int(x) for x in row] for row in obj["entries"]]
    _require(len(rows) == obj["rows"], "matrix row count disagrees with its shape")
    _require(all(len(r) == obj["cols"] for r in rows), "matrix column count disagrees with its shape")
    return rows


def _parse(rc: int, stdout: str) -> dict:
    _require(rc == 0, f"exit code {rc}, expected 0")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from None
    _require(doc.get("format") == 1, "missing format marker")
    return doc


def _checker(check):
    """Turn a check that raises Wrong into a verifier that returns the reason."""

    def verify(rc: int, stdout: str) -> Optional[str]:
        try:
            check(rc, stdout)
        except Wrong as exc:
            return str(exc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed answer: {exc!r}"
        return None

    return verify


def digest(rc: int, stdout: str) -> str:
    return f"{rc}:{hashlib.sha256(stdout.encode()).hexdigest()}"


def golden(expected: str):
    """Exit code and SHA-256 of stdout must equal the recorded digest."""

    def verify(rc: int, stdout: str) -> Optional[str]:
        got = digest(rc, stdout)
        return None if got == expected else f"digest {got} differs from golden {expected}"

    return verify


# -- lattices ---------------------------------------------------------------


class LatticeSpec:
    """A lattice as generated: group generators and generator matrices."""

    def __init__(self, group_gens: Sequence[Sequence[int]], matrices: Sequence[gk.Matrix]):
        self.group = gk.PermGroup(group_gens)
        self.gen_matrices = [list(map(list, m)) for m in matrices]
        self.rank = len(self.gen_matrices[0])
        self.element_matrices = self.group.extend(self.gen_matrices, gk.matmul)
        self.element_matrices[0] = gk.identity(self.rank)


def _summands(group: gk.PermGroup, summands: Sequence[dict]) -> list[list[tuple[int, ...]]]:
    """Coset bases, one per copy, in the order the program sums them."""
    out = []
    for s in summands:
        sub = tuple(sorted(int(x) for x in s["subgroup"]))
        _require(gk.subgroup_closure(group, sub) == sub, f"{list(sub)} is not a subgroup")
        out.extend([gk.left_cosets(group, sub)] * int(s["multiplicity"]))
    return out


def _sum_matrix(group, coset_lists, g: int, extra: Sequence[gk.Matrix] = ()) -> gk.Matrix:
    return gk.block_diagonal(list(extra) + [gk.coset_matrix(group, c, g) for c in coset_lists])


def _check_embedding(ono: dict, spec: LatticeSpec) -> None:
    """M1 -> M^r + M0 is equivariant, of finite index |det| = index =
    cokernel order, and r*chi(M) + chi(M0) = chi(M1)."""
    group = spec.group
    r = int(ono["r"])
    _require(r >= 1, "multiplier must be positive")
    m1 = _summands(group, ono["m1"]["summands"])
    m0 = _summands(group, ono["m0"]["summands"])
    emb = ono["embedding"]
    e = _matrix(emb["matrix"])
    n = len(e)
    _require(n == sum(len(c) for c in m1) == int(ono["m1"]["rank"]), "source rank mismatch")
    _require(
        n == r * spec.rank + sum(len(c) for c in m0) and all(len(row) == n for row in e),
        "embedding is not square onto M^r + M0",
    )
    for gid, mat in zip(group.generator_ids, spec.gen_matrices):
        source = _sum_matrix(group, m1, gid)
        target = _sum_matrix(group, m0, gid, [mat] * r)
        _require(gk.matmul(e, source) == gk.matmul(target, e), f"not equivariant at generator {gid}")
    det = abs(gk.det(e))
    factors = [int(d) for d in emb["cokernel"]["invariant_factors"]]
    order = 1
    for d in factors:
        order *= d
    _require(emb["cokernel_free_rank"] == 0, "cokernel is not finite")
    _require(det != 0, "embedding is singular")
    _require(det == int(emb["index"]) == int(ono["index"]), f"|det| {det} differs from the index")
    _require(det == order == int(emb["cokernel"]["order"]), f"|det| {det} differs from the cokernel order")
    for g in range(group.order):
        chi = gk.trace(spec.element_matrices[g])
        chi0 = sum(gk.trace(gk.coset_matrix(group, c, g)) for c in m0)
        chi1 = sum(gk.trace(gk.coset_matrix(group, c, g)) for c in m1)
        _require(r * chi + chi0 == chi1, f"character identity fails at element {g}")


def _check_artin(artin: dict, spec: LatticeSpec) -> None:
    """r*chi + sum n_i chi_i = sum m_i chi_i over coset characters."""
    group = spec.group
    r = int(artin["r"])
    for g in range(group.order):
        total = r * gk.trace(spec.element_matrices[g])
        for term in artin["terms"]:
            sub = tuple(sorted(int(x) for x in term["subgroup"]))
            fixed = gk.trace(gk.coset_matrix(group, gk.left_cosets(group, sub), g))
            total += (int(term["n"]) - int(term["m"])) * fixed
        _require(total == 0, f"induction identity fails at element {g}")


def ono(spec: LatticeSpec):
    def check(rc: int, stdout: str) -> None:
        _check_embedding(_parse(rc, stdout)["ono"], spec)

    return _checker(check)


def artin(spec: LatticeSpec):
    def check(rc: int, stdout: str) -> None:
        doc = _parse(rc, stdout)
        _require(doc["minimal"] is True, "multiplier not certified minimal")
        _check_artin(doc["artin"], spec)

    return _checker(check)


def reduce(ambient: LatticeSpec):
    """The ambient embedding is sound, its reversal composes to e*I, and
    the kernel order is |A| * |A'|."""

    def check(rc: int, stdout: str) -> None:
        red = _parse(rc, stdout)["reduction"]
        _check_embedding(red["ambient_ono"], ambient)
        e_mat = _matrix(red["ambient_ono"]["embedding"]["matrix"])
        rev = _matrix(red["reversed_embedding"]["matrix"])
        factors = [int(d) for d in red["ambient_ono"]["embedding"]["cokernel"]["invariant_factors"]]
        exponent = max(factors, default=1)
        n = len(e_mat)
        scaled = [[exponent * x for x in row] for row in gk.identity(n)]
        _require(gk.matmul(rev, e_mat) == scaled, "reversal composed with the embedding is not e*I")
        a = int(red["A"]["structure"]["order"])
        a_prime = int(red["A_prime"]["structure"]["order"])
        _require(int(red["kernel_order_of_F"]) == a * a_prime, "kernel order is not |A|*|A'|")

    return _checker(check)


# -- twists and recognition -------------------------------------------------


def _check_basis(basis: Sequence[Sequence[int]], matrices: Sequence[gk.Matrix]) -> None:
    """A YES basis is unimodular and permuted by every generator matrix."""
    rank = len(matrices[0])
    vecs = [tuple(v) for v in basis]
    _require(len(vecs) == rank and all(len(v) == rank for v in vecs), "basis has the wrong size")
    cols = [[v[i] for v in vecs] for i in range(rank)]
    _require(abs(gk.det(cols)) == 1, "basis is not unimodular")
    members = set(vecs)
    for k, mat in enumerate(matrices):
        images = {gk.matvec(mat, v) for v in vecs}
        _require(images == members, f"generator {k} does not permute the basis")


def twist(expected_matrices: Sequence[gk.Matrix]):
    """The twisted action must match the one computed from the inputs; every
    input is a permutation lattice, so NO is wrong and UNKNOWN is allowed."""

    def check(rc: int, stdout: str) -> None:
        doc = _parse(rc, stdout)
        mats = [_matrix(m) for m in doc["lattice"]["generator_matrices"]]
        _require(mats == [list(map(list, m)) for m in expected_matrices], "twisted action differs")
        cert = doc["permutation_certificate"]
        _require(cert["status"] in ("YES", "UNKNOWN"), f"status {cert['status']} on a permutation lattice")
        if cert["status"] == "YES":
            _check_basis([[int(x) for x in v] for v in cert["basis"]], mats)

    return _checker(check)


def group_info(gens: Sequence[Sequence[int]], subgroup_classes: int, cyclic_classes: int):
    """Order, generator ids, element orders and class sizes from the
    generators; the subgroup class counts are the known values for the
    group."""
    group = gk.PermGroup(gens)
    orders = []
    for p in group.elements:
        k, q = 1, p
        while q != group.elements[0]:
            q = gk.compose(q, p)
            k += 1
        orders.append(k)
    class_sizes = sorted(
        len({group.index[gk.compose(gk.compose(h, p), gk.invert(h))] for h in group.elements})
        for p in group.elements
    )

    def check(rc: int, stdout: str) -> None:
        info = _parse(rc, stdout)["group"]
        _require(int(info["order"]) == group.order, "wrong order")
        _require(info["generator_ids"] == group.generator_ids, "wrong generator ids")
        _require([int(x) for x in info["element_orders"]] == orders, "wrong element orders")
        classes = info["conjugacy_classes"]
        _require(sorted(x for c in classes for x in c["elements"]) == list(range(group.order)), "classes do not partition the group")
        got_sizes = sorted(len(c["elements"]) for c in classes for _ in c["elements"])
        _require(got_sizes == class_sizes, "wrong class sizes")
        _require(len(info["subgroup_conjugacy_reps"]) == subgroup_classes, "wrong number of subgroup classes")
        _require(len(info["cyclic_subgroup_reps"]) == cyclic_classes, "wrong number of cyclic subgroup classes")

    return _checker(check)
