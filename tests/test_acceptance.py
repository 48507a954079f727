"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each criterion prints "[PASS] criterion N: ..." (or FAIL) so a verbose run
shows the gate status at a glance; the assertions carry the details.
"""

import io
import json
import random
from contextlib import redirect_stdout

import pytest

from gammalat.cli import main
from gammalat.corpus import builtin_lattices, builtin_reduction, twist_sweep_groups
from gammalat.groups import all_actions, all_subgroups, enumerate_cocycles, semidirect_product
from gammalat.induction import artin_decompose, certify_minimality, induced_trivial_character, ono_construct
from gammalat.intlinalg import IntMatrix, cokernel_structure, smith_normal_form
from gammalat.lattices import character, induced_lattice, is_permutation_lattice, twist
from gammalat.reduction import reduce_stabilizer, reverse_isogeny
from oracle import brute_minimal_multiplier, coset_count, det_fraction, matrix_columns

import os

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo", "workspace.json")


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not failures, f"criterion {num} failed: {failures[:3]}"


@pytest.fixture(scope="module")
def corpus_ono():
    return {lat.name: (lat, ono_construct(lat)) for lat in builtin_lattices()}


def test_criterion_1_induction_identity_with_minimal_multiplier():
    lats = builtin_lattices()
    failures = []
    assert len(lats) >= 12
    for lat in lats:
        sol = artin_decompose(lat)
        lhs = character(lat).scale(sol.r)
        rhs = None
        for rep, m_i, n_i in zip(sol.reps, sol.m, sol.n):
            term = induced_trivial_character(lat.group, rep).scale(m_i - n_i)
            rhs = term if rhs is None else rhs + term
        if lhs.values != rhs.values:
            failures.append(f"{lat.name}: identity fails")
        if not 1 <= sol.r <= lat.group.order:
            failures.append(f"{lat.name}: r={sol.r} exceeds the group order")
        if not certify_minimality(lat, sol):
            failures.append(f"{lat.name}: some r' < r admits a decomposition")
        chi = character(lat).values
        induced = [
            induced_trivial_character(lat.group, rep).values for rep in sol.reps
        ]
        brute = brute_minimal_multiplier(chi, induced)
        if brute is None or brute[0] != sol.r:
            failures.append(f"{lat.name}: brute-force minimal r disagrees")
    _report(
        1,
        f"induction identity holds with certified-minimal multiplier on {len(lats)} lattices",
        failures,
    )


def test_criterion_2_embedding_soundness(corpus_ono):
    failures = []
    bfs_checked = 0
    for name, (lat, result) in corpus_ono.items():
        emb = result.embedding
        for g in range(lat.group.order):
            if emb.matrix.mul(emb.source.matrices[g]) != emb.target.matrices[g].mul(emb.matrix):
                failures.append(f"{name}: embedding not equivariant at element {g}")
                break
        det = det_fraction(emb.matrix.entries)
        if det == 0:
            failures.append(f"{name}: embedding is not injective")
            continue
        if emb.cokernel_free_rank != 0 or result.index != abs(det):
            failures.append(f"{name}: cokernel order differs from |det|")
            continue
        if result.index <= 512:
            walked = coset_count(matrix_columns(emb.matrix.entries), emb.matrix.rows, cap=1024)
            if walked != result.index:
                failures.append(f"{name}: coset walk counts {walked}, index {result.index}")
            else:
                bfs_checked += 1
    _report(
        2,
        f"equivariant finite-index embeddings sound on {len(corpus_ono)} lattices "
        f"({bfs_checked} verified by coset enumeration)",
        failures,
    )


def test_criterion_3_every_twist_of_induced_lattices_is_quasi_split():
    failures = []
    twists = 0
    for f_name, f_grp in twist_sweep_groups():
        for g_name, g_grp in twist_sweep_groups():
            assert f_grp.order * g_grp.order <= 24
            for action in all_actions(g_grp, f_grp):
                product = semidirect_product(action)
                cocycles = enumerate_cocycles(action)
                for delta in all_subgroups(product.group):
                    lat = induced_lattice(product.group, delta)
                    for x in cocycles:
                        twists += 1
                        cert = is_permutation_lattice(twist(lat, x))
                        if cert.status != "YES":
                            failures.append(
                                f"{f_name} by {g_name}, subgroup {delta}: {cert.status}"
                            )
    _report(3, f"all {twists} cocycle twists of induced lattices certified YES", failures)


def test_criterion_4_component_reduction_kernel_values():
    failures = []
    report = reduce_stabilizer(builtin_reduction("sign_component"))
    if report.m != 2:
        failures.append(f"m = {report.m}, expected 2")
    if report.a.structure.invariant_factors != (2, 4):
        failures.append(f"divisors {report.a.structure.invariant_factors}, expected (2, 4)")
    if report.a.order != 8:
        failures.append(f"|A| = {report.a.order}, expected 8")
    _report(4, "component-group fixture yields m = 2 and A = Z/2 x Z/4 of order 8", failures)


def test_criterion_5_normal_form_randomized_soundness():
    rng = random.Random(777)
    failures = []
    walked = 0
    for case in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        snf = smith_normal_form(a)
        if snf.u.mul(a).mul(snf.v) != snf.d:
            failures.append(f"case {case}: U*A*V != D")
            break
        if abs(det_fraction(snf.u.entries)) != 1 or abs(det_fraction(snf.v.entries)) != 1:
            failures.append(f"case {case}: transform not unimodular")
            break
        divs = snf.elementary_divisors
        if any(d <= 0 for d in divs) or any(b % d for d, b in zip(divs, divs[1:])):
            failures.append(f"case {case}: divisor chain broken")
            break
        torsion, free = cokernel_structure(a)
        if free == 0 and torsion.order <= 512:
            count = coset_count(matrix_columns(a.entries), rows, cap=1024)
            if count != torsion.order:
                failures.append(f"case {case}: walk {count} vs order {torsion.order}")
                break
            walked += 1
    _report(
        5,
        f"normal forms sound on 500 random matrices ({walked} cokernels enumerated)",
        failures,
    )


def test_criterion_6_reversal_identity(corpus_ono):
    failures = []
    for name, (lat, result) in corpus_ono.items():
        iso = result.embedding
        rev = reverse_isogeny(iso)
        e = iso.cokernel.exponent
        rank = iso.source.rank
        if rev.matrix.mul(iso.matrix) != IntMatrix.identity(rank).scale(e):
            failures.append(f"{name}: reversal composed with embedding is not e*I")
        if rev.index * iso.index != e**rank:
            failures.append(f"{name}: index product differs from e^rank")
    _report(6, f"isogeny reversal identity holds for all {len(corpus_ono)} embeddings", failures)


def _capture(args: list) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def test_criterion_7_byte_stable_outputs():
    worked = [
        ["group-info", "trivial"],
        ["--workspace", DEMO, "group-info", "s3"],
        ["artin", "c2_sign"],
        ["artin", "c2_trivial"],
        ["--workspace", DEMO, "artin", "zero_demo"],
        ["ono", "c2_sign"],
        ["ono", "v4_character"],
        ["--workspace", DEMO, "twist", "aug_twisted", "triv_inv3"],
        ["--workspace", DEMO, "twist", "aug_twisted", "twist_inv3"],
        ["reduce", "sign_component"],
        ["reduce", "sign_component", "--narrative-only"],
        ["--workspace", DEMO, "reduce", "demo_component"],
        ["--workspace", DEMO, "check"],
    ]
    failures = []
    for args in worked:
        rc1, out1 = _capture(list(args))
        rc2, out2 = _capture(list(args))
        if rc1 != rc2 or out1 != out2:
            failures.append(f"{' '.join(args)}: runs differ")
            continue
        doc = json.loads(out1)
        if doc.get("format") != 1:
            failures.append(f"{' '.join(args)}: missing format marker")
        if args[-1] == "check" and (rc1 != 0 or not doc["passed"]):
            failures.append("property suite failed")
    _report(7, f"{len(worked)} command outputs byte-identical across consecutive runs", failures)
