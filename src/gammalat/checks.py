"""Executable property suite.

Each property sweeps a domain (the built-in corpus plus whatever the
workspace defines) and returns ``(cases, failures)``: how many cases it
checked and a message per failure.  ``run_property_suite`` names each
property after its function, tallies it and reports the first failure; a
property that raises is reported as crashed.  A property calls the library
and checks what the library does not already raise on: it never
re-asserts, on the same immutable object, a condition its callee checks.
The suite is deterministic: domains are canonically ordered and every
randomized property uses its own fixed-seed generator.  Results come back
sorted by property name.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import product as iter_product
from typing import Callable, Optional

from ._value import Value
from .corpus import builtin_groups, builtin_lattices, builtin_reductions, twist_sweep_groups
from .errors import NotInRationalSpan
from .groups import (
    Cocycle,
    FiniteGroup,
    GroupHom,
    all_actions,
    all_subgroups,
    conjugacy_classes,
    cyclic_subgroup_class_reps,
    enumerate_cocycles,
    fixed_coset_counts,
    left_cosets,
    same_group,
    semidirect_product,
    subgroup_closure,
    subgroup_conjugacy_reps,
    twisted_section,
    validate_cocycle,
)
from .induction import artin_decompose, certify_minimality, induced_trivial_character, ono_construct
from .intlinalg import (
    IntMatrix,
    block_diagonal,
    cokernel_structure,
    column_matrix,
    hermite_normal_form,
    smith_normal_form,
    solve_integer_linear,
)
from .lattices import (
    GammaLattice,
    character,
    direct_sum,
    dual,
    induced_lattice,
    intertwiner_basis,
    is_permutation_lattice,
    twist,
)
from .reduction import (
    ReductionInput,
    existence_m,
    isogeny_kernel,
    reduce_stabilizer,
    reverse_isogeny,
)
from .workspace import Workspace, build_all

__all__ = ["PropertyResult", "run_property_suite"]

_SWEEP_MAX_ORDER = 8


class PropertyResult(Value):
    """One property's outcome: whether it held, on how many cases, and the
    first failure."""

    _fields = ("name", "passed", "cases", "detail")


class _Context:
    """The objects the properties quantify over, and the results they share."""

    def __init__(
        self,
        groups: tuple[tuple[str, FiniteGroup], ...],
        lattices: tuple[tuple[str, GammaLattice], ...],
        cocycles: tuple[tuple[str, Cocycle], ...],
        reductions: tuple[tuple[str, ReductionInput], ...],
        coord_bound: int,
        allow_random: bool,
    ) -> None:
        self.groups = groups
        self.lattices = lattices
        self.cocycles = cocycles
        self.reductions = reductions
        self.coord_bound = coord_bound
        self.allow_random = allow_random
        self.results: dict[object, object] = {}

    @cached_property
    def sweep(self) -> tuple[tuple, ...]:
        """(label, action, product, cocycles) for every action in the twist
        sweep with |F| * |Gamma| at most _SWEEP_MAX_ORDER, built once."""
        cells = []
        for f_name, f_grp in twist_sweep_groups():
            for g_name, g_grp in twist_sweep_groups():
                if f_grp.order * g_grp.order > _SWEEP_MAX_ORDER:
                    continue
                for idx, action in enumerate(all_actions(g_grp, f_grp)):
                    label = f"{f_name} by {g_name} action {idx}"
                    cells.append((label, action, semidirect_product(action), enumerate_cocycles(action)))
        return tuple(cells)


def _run(ctx: _Context, search: Callable, value: object):
    """``search(value)`` once per search and value, however many names the
    value goes by."""
    key = (search, value)
    if key not in ctx.results:
        ctx.results[key] = search(value, allow_random=ctx.allow_random)
    return ctx.results[key]


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


# --- group properties -------------------------------------------------------


def _prop_group_axioms(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        cases += 1
        try:
            group.validate()
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    return cases, failures


def _prop_conjugacy_partition(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        cases += 1
        classes = conjugacy_classes(group)
        seen = sorted(g for cls in classes for g in cls)
        if seen != list(range(group.order)):
            failures.append(f"{name}: classes do not partition the group")
            continue
        if classes[0] != (0,):
            failures.append(f"{name}: identity class is not first")
            continue
        keys = [(len(cls), cls[0]) for cls in classes]
        if keys != sorted(keys):
            failures.append(f"{name}: classes are not in (size, min id) order")
        for cls in classes:
            if group.order % len(cls) != 0:
                failures.append(f"{name}: class size {len(cls)} does not divide {group.order}")
                break
    return cases, failures


def _prop_cyclic_subgroup_reps(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        cases += 1
        reps = cyclic_subgroup_class_reps(group)
        rep_sets = [frozenset(r) for r in reps]
        if any(not _is_cyclic(group, r) for r in rep_sets):
            failures.append(f"{name}: a representative is not cyclic")
            continue
        # Every cyclic subgroup <g> must be conjugate to exactly one
        # representative r: h<g>h^-1 = r exactly when |r| = |<g>| and
        # h g h^-1 lies in r, since r is a subgroup.
        for g in range(group.order):
            sub = subgroup_closure(group, [g])
            hits = sum(
                1
                for r in rep_sets
                if len(r) == len(sub) and any(group.conjugate(g, h) in r for h in range(group.order))
            )
            if hits != 1:
                failures.append(f"{name}: <{g}> matches {hits} representatives")
                break
        keys = [(len(r), r) for r in reps]
        if keys != sorted(keys):
            failures.append(f"{name}: representatives are not in canonical order")
    return cases, failures


def _is_cyclic(group: FiniteGroup, sub: frozenset[int]) -> bool:
    return any(subgroup_closure(group, [g]) == sub for g in sub)


def _prop_left_cosets(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        for rep in subgroup_conjugacy_reps(group):
            cases += 1
            cosets = left_cosets(group, rep)
            flat = sorted(g for coset in cosets for g in coset)
            if flat != list(range(group.order)):
                failures.append(f"{name}/{rep}: cosets do not partition")
                continue
            if any(len(c) != len(rep) for c in cosets):
                failures.append(f"{name}/{rep}: coset sizes differ from |subgroup|")
                continue
            if cosets[0] != tuple(sorted(rep)):
                failures.append(f"{name}/{rep}: first coset is not the subgroup")
    return cases, failures


def _prop_fixed_coset_character(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        for rep in subgroup_conjugacy_reps(group):
            cases += 1
            counts = fixed_coset_counts(group, rep)
            cosets = left_cosets(group, rep)
            coset_of = {}
            for idx, coset in enumerate(cosets):
                for x in coset:
                    coset_of[x] = idx
            steps = [group.times(coset[0]) for coset in cosets]
            for cls_idx, cls in enumerate(conjugacy_classes(group)):
                for g in cls:
                    direct = sum(
                        1
                        for idx, step in enumerate(steps)
                        if coset_of[step(g)] == idx
                    )
                    if direct != counts[cls_idx]:
                        failures.append(f"{name}/{rep}: count differs at element {g}")
                        break
            chi = character(induced_lattice(group, rep)).values
            if chi != counts:
                failures.append(f"{name}/{rep}: induced character differs from coset counts")
            chi2 = induced_trivial_character(group, rep).values
            if chi2 != counts:
                failures.append(f"{name}/{rep}: induced-trivial character differs")
    return cases, failures


def _prop_semidirect_structure(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for label, action, product, _ in ctx.sweep:
        cases += 1
        f_grp, g_grp = action.target, action.actor
        if product.group.order != f_grp.order * g_grp.order:
            failures.append(f"{label}: wrong product order")
            continue
        try:
            GroupHom(f_grp, product.group, product.embed_f)
            GroupHom(g_grp, product.group, product.section)
            GroupHom(product.group, g_grp, product.projection)
        except Exception as exc:
            failures.append(f"{label}: canonical maps fail: {exc}")
            continue
        if any(product.projection[product.section[g]] != g for g in range(g_grp.order)):
            failures.append(f"{label}: projection does not split the section")
            continue
        if action.is_trivial():
            for f1, g1 in ((1, 0), (0, 1), (1, 1)):
                if f_grp.order <= f1 or g_grp.order <= g1:
                    continue
                a = product.pair_id(f1, g1)
                b = product.pair_id(f1, g1)
                fa, ga = divmod(product.group.mul(a, b), g_grp.order)
                if fa != f_grp.mul(f1, f1) or ga != g_grp.mul(g1, g1):
                    failures.append(f"{label}: trivial action is not the direct product")
                    break
    return cases, failures


def _prop_cocycles_are_sections(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for label, action, product, cocycles in ctx.sweep:
        cases += 1
        gamma = action.actor
        f_grp = action.target
        sections = 0
        for tail in iter_product(range(f_grp.order), repeat=gamma.order - 1):
            values = (0,) + tail
            images = tuple(product.pair_id(values[g], g) for g in range(gamma.order))
            if all(
                images[gamma.mul(a, b)] == product.group.mul(images[a], images[b])
                for a in range(gamma.order)
                for b in range(gamma.order)
            ):
                sections += 1
        if sections != len(cocycles):
            failures.append(f"{label}: {sections} sections but {len(cocycles)} cocycles")
            continue
        for x in cocycles:
            hom = twisted_section(x)
            if any(product.projection[hom.apply(g)] != g for g in range(gamma.order)):
                failures.append(f"{label}: twisted section is not a splitting")
                break
            if any(hom.apply(g) != product.pair_id(x.values[g], g) for g in range(gamma.order)):
                failures.append(f"{label}: twisted section has wrong values")
                break
    for name, x in ctx.cocycles:
        cases += 1
        if validate_cocycle(x) is not None:
            failures.append(f"cocycle {name}: law fails")
    return cases, failures


# --- integer linear algebra properties --------------------------------------


def _prop_hermite_form(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    rng = random.Random(1001)
    cases = 0
    for _ in range(80):
        cases += 1
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        a = _random_matrix(rng, rows, cols)
        h, u = hermite_normal_form(a)
        if abs(u.det()) != 1:
            failures.append(f"U not unimodular for {a.entries}")
            break
        if u.mul(a) != h:
            failures.append(f"U*A != H for {a.entries}")
            break
        if not _is_hnf(h):
            failures.append(f"H not in Hermite form for {a.entries}")
            break
        h2, u2 = hermite_normal_form(a)
        if (h2, u2) != (h, u):
            failures.append("Hermite form is not canonical")
            break
    return cases, failures


def _is_hnf(h: IntMatrix) -> bool:
    last_pivot = -1
    seen_zero_row = False
    for row in h.entries:
        pivot = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot is None:
            seen_zero_row = True
            continue
        if seen_zero_row or pivot <= last_pivot or row[pivot] <= 0:
            return False
        last_pivot = pivot
    for i, row in enumerate(h.entries):
        pivot = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot is None:
            continue
        for k in range(i):
            if not 0 <= h.entries[k][pivot] < row[pivot]:
                return False
    return True


def _prop_smith_form(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    rng = random.Random(2002)
    cases = 0
    for _ in range(80):
        cases += 1
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        a = _random_matrix(rng, rows, cols)
        snf = smith_normal_form(a)
        if abs(snf.u.det()) != 1 or abs(snf.v.det()) != 1:
            failures.append(f"transforms not unimodular for {a.entries}")
            break
        if snf.u.mul(a).mul(snf.v) != snf.d:
            failures.append(f"U*A*V != D for {a.entries}")
            break
        if any(
            snf.d.entries[i][j] != 0
            for i in range(rows)
            for j in range(cols)
            if i != j
        ):
            failures.append(f"D not diagonal for {a.entries}")
            break
        divs = snf.elementary_divisors
        if any(d <= 0 for d in divs) or any(b % a2 for a2, b in zip(divs, divs[1:])):
            failures.append(f"divisor chain broken for {a.entries}")
            break
        if smith_normal_form(a) != snf:
            failures.append("Smith form is not canonical")
            break
    return cases, failures


def _prop_cokernel_block(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    rng = random.Random(3003)
    cases = 0
    for _ in range(40):
        cases += 1
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=5)
        b = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=5)
        ta, fa = cokernel_structure(a)
        tb, fb = cokernel_structure(b)
        tc, fc = cokernel_structure(block_diagonal([a, b]))
        if fc != fa + fb:
            failures.append("free ranks do not add")
            break
        if tc.order != ta.order * tb.order:
            failures.append("torsion orders do not multiply")
            break
    return cases, failures


def _prop_integer_solve(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    rng = random.Random(4004)
    cases = 0
    for _ in range(60):
        cases += 1
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = _random_matrix(rng, rows, cols, bound=6)
        x0 = [rng.randint(-5, 5) for _ in range(cols)]
        b = a.times_vector(x0)
        x = solve_integer_linear(a, b)
        if x is None:
            failures.append(f"solvable system reported unsolvable: {a.entries}, {x0}")
            break
        if a.times_vector(x) != b:
            failures.append("returned vector does not solve the system")
            break
        if solve_integer_linear(a, b) != x:
            failures.append("solution is not canonical")
            break
    return cases, failures


def _prop_minimal_multiplier(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    rng = random.Random(5005)
    cases = 0
    attempts = 0
    while cases < 40 and attempts < 400:
        attempts += 1
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        snf = smith_normal_form(column_matrix(basis, n))
        try:
            r, coeffs = snf.least_multiple(v)
        except NotInRationalSpan:
            continue
        cases += 1
        combo = [sum(c * basis[j][i] for j, c in enumerate(coeffs)) for i in range(n)]
        if combo != [r * x for x in v]:
            failures.append(f"certificate fails: v={v} basis={basis}")
            break
        if not snf.is_least_multiple(v, r):
            failures.append(f"r={r} is not minimal: v={v} basis={basis}")
    return cases, failures


# --- lattice properties ------------------------------------------------------


def _prop_lattice_homomorphism(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        try:
            lat.validate()
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    return cases, failures


def _prop_character_laws(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        chi = character(lat)
        if chi.values[0] != lat.rank:
            failures.append(f"{name}: character at identity differs from rank")
            continue
        if character(dual(lat)) != chi:
            failures.append(f"{name}: dual changes the character")
        if any(chi.value_at(lat.group.inv(g)) != chi.value_at(g) for g in range(lat.group.order)):
            failures.append(f"{name}: character differs on inverses")
    # Keyed on what same_group compares, the Cayley graph: lattices over
    # equal tables with different generator ids cannot be summed or mapped
    # to each other.
    by_group: dict[tuple, list[GammaLattice]] = {}
    for _, lat in ctx.lattices:
        by_group.setdefault(lat.group.right, []).append(lat)
    for lats in by_group.values():
        if len(lats) >= 2:
            cases += 1
            a, b = lats[0], lats[1]
            if character(direct_sum(a, b)) != character(a) + character(b):
                failures.append("character is not additive on a direct sum")
    return cases, failures


def _prop_induced_permutation(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, group in ctx.groups:
        for rep in subgroup_conjugacy_reps(group):
            cases += 1
            lat = induced_lattice(group, rep)
            if lat.rank != group.order // len(rep):
                failures.append(f"{name}/{rep}: rank differs from the index")
                continue
            if any(not lat.matrices[g].is_permutation_matrix() for g in range(group.order)):
                failures.append(f"{name}/{rep}: action is not by permutation matrices")
                continue
            cert = is_permutation_lattice(lat, ctx.coord_bound)
            if cert.status != "YES":
                failures.append(f"{name}/{rep}: recognition returned {cert.status}")
    return cases, failures


def _prop_dual_involution(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        if dual(dual(lat)) != lat:
            failures.append(f"{name}: double dual differs")
    return cases, failures


def _prop_intertwiner_relation(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    # The first three lattices per multiplication table, built once per
    # group; a pair over two groups that share the table but not the
    # generator ids has no intertwiners to check.
    tables: dict[FiniteGroup, tuple] = {}
    by_table: dict[tuple, list[tuple[str, GammaLattice]]] = {}
    for name, lat in ctx.lattices:
        if lat.group not in tables:
            tables[lat.group] = tuple(map(lat.group.left, range(lat.group.order)))
        by_table.setdefault(tables[lat.group], []).append((name, lat))
    for entries in by_table.values():
        front = entries[:3]
        for i in range(len(front)):
            for j in range(i, len(front)):
                (n1, l1), (n2, l2) = front[i], front[j]
                if not same_group(l1.group, l2.group):
                    continue
                cases += 1
                for e in intertwiner_basis(l1, l2):
                    bad = next(
                        (
                            g
                            for g in range(l1.group.order)
                            if e.mul(l1.matrices[g]) != l2.matrices[g].mul(e)
                        ),
                        None,
                    )
                    if bad is not None:
                        failures.append(f"{n1}->{n2}: basis element fails at {bad}")
                        break
    return cases, failures


def _prop_twist_quasi_split(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for label, _, product, cocycles in ctx.sweep:
        for delta in all_subgroups(product.group):
            lat = induced_lattice(product.group, delta)
            for ci, x in enumerate(cocycles):
                cases += 1
                tw = twist(lat, x)
                cert = is_permutation_lattice(tw, ctx.coord_bound)
                if cert.status != "YES":
                    failures.append(f"{label} subgroup {delta} cocycle {ci}: {cert.status}")
    return cases, failures


def _prop_twist_trivial_cocycle(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for label, action, product, _ in ctx.sweep:
        trivial = Cocycle(action, tuple(0 for _ in range(action.actor.order)))
        if validate_cocycle(trivial) is not None:
            failures.append(f"{label}: zero map is not a cocycle")
            continue
        for delta in all_subgroups(product.group):
            cases += 1
            lat = induced_lattice(product.group, delta)
            tw = twist(lat, trivial)
            plain = tuple(lat.matrices[product.section[g]] for g in range(action.actor.order))
            if tw.matrices != plain:
                failures.append(f"{label} subgroup {delta}: trivial twist moved")
                break
            if tw.rank != lat.rank:
                failures.append(f"{label}: twist changed the rank")
                break
    return cases, failures


def _prop_permutation_recognition(ctx: _Context) -> tuple[int, list[str]]:
    expected = {
        "c2_trivial": "YES",
        "c2_sign": "NO",
        "c2_regular": "YES",
        "c2_sign_plus_trivial": "UNKNOWN",
        "c3_regular": "YES",
        "c3_augmentation": "NO",
        "c4_sign": "NO",
        "c4_gaussian": "NO",
        "c4_regular": "YES",
        "v4_character": "NO",
        "v4_regular": "YES",
        "c6_sign": "NO",
        "s3_sign": "NO",
        "s3_standard": "NO",
        "s3_standard_plus_sign": "NO",
        "c4_gaussian_plus_sign": "NO",
    }
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        cert = is_permutation_lattice(lat, ctx.coord_bound)
        if cert.status not in ("YES", "NO", "UNKNOWN"):
            failures.append(f"{name}: bad status {cert.status!r}")
            continue
        want = expected.get(name)
        if want is not None and cert.status != want:
            failures.append(f"{name}: expected {want}, got {cert.status}")
            continue
        if cert.status == "YES":
            if cert.basis is None or len(cert.basis) != lat.rank:
                failures.append(f"{name}: YES without a full basis")
                continue
            basis_set = set(cert.basis)
            cols = [list(col) for col in zip(*cert.basis)] if lat.rank else []
            if lat.rank and abs(IntMatrix.from_rows(cols, cols=lat.rank).det()) != 1:
                failures.append(f"{name}: certified basis is not unimodular")
                continue
            for g in range(lat.group.order):
                images = {lat.matrices[g].times_vector(v) for v in basis_set}
                if images != basis_set:
                    failures.append(f"{name}: certified basis is not permuted at {g}")
                    break
        elif cert.status == "NO" and not cert.reason:
            failures.append(f"{name}: NO without a reason")
    return cases, failures


# --- induction properties ----------------------------------------------------


def _prop_artin_identity(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        sol = artin_decompose(lat)
        chi = character(lat)
        lhs = chi.scale(sol.r)
        rhs = None
        for rep, m_i, n_i in zip(sol.reps, sol.m, sol.n):
            term = induced_trivial_character(lat.group, rep).scale(m_i - n_i)
            rhs = term if rhs is None else rhs + term
        assert rhs is not None
        if lhs.values != rhs.values:
            failures.append(f"{name}: decomposition identity fails")
            continue
        if not 1 <= sol.r <= lat.group.order:
            failures.append(f"{name}: r={sol.r} outside [1, |G|]")
            continue
        if any(m_i and n_i for m_i, n_i in zip(sol.m, sol.n)):
            failures.append(f"{name}: overlapping multiplicity supports")
    return cases, failures


def _prop_artin_minimality(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        sol = artin_decompose(lat)
        if not certify_minimality(lat, sol):
            failures.append(f"{name}: a smaller multiplier admits a decomposition")
    return cases, failures


def _prop_ono_soundness(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        try:
            result = _run(ctx, ono_construct, lat)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        if character(result.m1).values != (
            character(lat).scale(result.r) + character(result.m0)
        ).values:
            failures.append(f"{name}: multiplicity characters do not balance")
            continue
        for piece, piece_name in ((result.m0, "M0"), (result.m1, "M1")):
            cert = is_permutation_lattice(piece, ctx.coord_bound)
            if cert.status != "YES":
                failures.append(f"{name}: {piece_name} not certified as a coset-space sum")
                break
        else:
            emb = result.embedding
            if emb.cokernel_free_rank != 0 or result.index < 1:
                failures.append(f"{name}: embedding does not have finite index")
                continue
            if result.index != abs(emb.matrix.det()):
                failures.append(f"{name}: index differs from |det|")
    return cases, failures


def _prop_ono_reversal(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        cases += 1
        try:
            result = _run(ctx, ono_construct, lat)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        reverse_isogeny(result.embedding)
    return cases, failures


# --- reduction properties ----------------------------------------------------


def _prop_existence_multiplier(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for n in range(1, 7):
        for d in range(1, 7):
            cases += 1
            if existence_m(n, d) != n * d:
                failures.append(f"existence_m({n}, {d}) != {n * d}")
    for bad in ((0, 1), (1, 0), (-1, 2)):
        cases += 1
        try:
            existence_m(*bad)
            failures.append(f"existence_m{bad} did not reject")
        except ValueError:
            pass
    return cases, failures


def _prop_isogeny_kernel_order(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, lat in ctx.lattices:
        try:
            result = _run(ctx, ono_construct, lat)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        for m in (1, 2):
            cases += 1
            isogeny_kernel(result.embedding, m)
    return cases, failures


def _prop_reduction_pipeline(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name, inp in ctx.reductions:
        cases += 1
        try:
            report = _run(ctx, reduce_stabilizer, inp)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        if len(report.narrative) != 5:
            failures.append(f"{name}: narrative has {len(report.narrative)} entries")
            continue
        if [entry.step for entry in report.narrative] != [0, 1, 2, 3, 4]:
            failures.append(f"{name}: narrative steps out of order")
            continue
        statuses = [entry.status for entry in report.narrative]
        if statuses != ["symbolic", "symbolic", "computed", "computed", "computed"]:
            failures.append(f"{name}: narrative statuses are {statuses}")
            continue
        if report.m != inp.hf.order * inp.d:
            failures.append(f"{name}: m is not |Hf| * d")
            continue
        if report.kernel_order_of_F != report.a.order * report.a_prime.order:
            failures.append(f"{name}: kernel order is not |A| * |A'|")
    return cases, failures


def _prop_reduction_fixture_values(ctx: _Context) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    expected = {
        "degenerate": (1, (), (), 1),
        "sign_component": (2, (2, 4), (), 8),
        "sign_galois": (2, (), (2,), 2),
    }
    available = dict(builtin_reductions())
    for name, (m, a_factors, ap_factors, kernel_order) in sorted(expected.items()):
        cases += 1
        report = _run(ctx, reduce_stabilizer, available[name])
        got = (
            report.m,
            report.a.structure.invariant_factors,
            report.a_prime.structure.invariant_factors,
            report.kernel_order_of_F,
        )
        if got != (m, a_factors, ap_factors, kernel_order):
            failures.append(f"{name}: got {got}, expected {(m, a_factors, ap_factors, kernel_order)}")
    return cases, failures


_PROPERTIES: tuple[Callable[[_Context], tuple[int, list[str]]], ...] = (
    _prop_group_axioms,
    _prop_conjugacy_partition,
    _prop_cyclic_subgroup_reps,
    _prop_left_cosets,
    _prop_fixed_coset_character,
    _prop_semidirect_structure,
    _prop_cocycles_are_sections,
    _prop_hermite_form,
    _prop_smith_form,
    _prop_cokernel_block,
    _prop_integer_solve,
    _prop_minimal_multiplier,
    _prop_lattice_homomorphism,
    _prop_character_laws,
    _prop_induced_permutation,
    _prop_dual_involution,
    _prop_intertwiner_relation,
    _prop_twist_quasi_split,
    _prop_twist_trivial_cocycle,
    _prop_permutation_recognition,
    _prop_artin_identity,
    _prop_artin_minimality,
    _prop_ono_soundness,
    _prop_ono_reversal,
    _prop_existence_multiplier,
    _prop_isogeny_kernel_order,
    _prop_reduction_pipeline,
    _prop_reduction_fixture_values,
)


def run_property_suite(
    workspace: Optional[Workspace] = None,
    *,
    coord_bound: int = 2,
    allow_random: bool = True,
) -> tuple[PropertyResult, ...]:
    """Run every property over the corpus plus the workspace's objects.

    Every workspace definition is built, in load order, before any
    property runs; the first that fails raises its build error."""
    groups = list(builtin_groups())
    lattices = [(lat.name or "corpus", lat) for lat in builtin_lattices()]
    cocycles: list[tuple[str, Cocycle]] = []
    reductions = list(builtin_reductions())
    if workspace is not None:
        built = build_all(workspace)
        groups += [(f"ws:{name}", grp) for name, grp in sorted(built["groups"].items())]
        lattices += [(f"ws:{name}", lat) for name, lat in sorted(built["lattices"].items())]
        cocycles += [(f"ws:{name}", x) for name, x in sorted(built["cocycles"].items())]
        reductions += [(f"ws:{name}", inp) for name, inp in sorted(built["reductions"].items())]
    ctx = _Context(
        groups=tuple(groups),
        lattices=tuple(lattices),
        cocycles=tuple(cocycles),
        reductions=tuple(reductions),
        coord_bound=coord_bound,
        allow_random=allow_random,
    )
    results = []
    for prop in _PROPERTIES:
        name = prop.__name__.removeprefix("_prop_").replace("_", "-")
        try:
            cases, failures = prop(ctx)
        except Exception as exc:  # a property crashing is itself a failure
            results.append(PropertyResult(name, False, 0, f"crashed: {exc!r}"))
            continue
        detail = f"{len(failures)} failure(s); first: {failures[0]}" if failures else ""
        results.append(PropertyResult(name, not failures, cases, detail))
    results.sort(key=lambda r: r.name)
    return tuple(results)
