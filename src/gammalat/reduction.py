"""The stabilizer-reduction pipeline.

Input: a finite component group acting through a Galois quotient on the
character lattice of a torus, plus the ambient torus's character lattice.
Output: the finite kernel data of the reduction - the multiplier m = n*d,
the finite abelian groups A and A' with their induced actions, and a
five-step narrative covering the two purely geometric steps symbolically
and the three computed ones exactly.

Kernels of torus isogenies are represented throughout by the cokernel of
the corresponding character-lattice embedding, with the action transported
through the Smith change of basis; this dual bookkeeping keeps every object
an exact integer computation.  A and A' are finite modules: a GammaLattice
with invariant factors, held by the matrices of the group's generators.
"""

from __future__ import annotations

from typing import Optional

from ._value import Value
from .errors import GroupMismatch, InternalContradiction, NotAHomomorphism, NotFiniteIndex
from .groups import FiniteGroup, GroupAction, same_group, semidirect_product
from .induction import ono_construct
from .intlinalg import IntMatrix
from .lattices import GammaLattice, LatticeEmbedding, lattice_embedding

__all__ = [
    "ReductionInput",
    "NarrativeEntry",
    "ReductionReport",
    "reduction_input",
    "existence_m",
    "isogeny_kernel",
    "reverse_isogeny",
    "reduce_stabilizer",
]


class ReductionInput(Value):
    """Everything the pipeline consumes.

    ``t_hat`` lives over ``semidirect_product(gamma_on_hf)`` (the combined
    component-group and Galois action), which is memoized and so not kept
    here; ``gtor_hat`` lives over ``gamma`` alone.  ``d`` is the splitting
    degree used in m = n*d.
    """

    _fields = ("hf", "gamma", "gamma_on_hf", "t_hat", "gtor_hat", "d")

    def __init__(
        self,
        hf: FiniteGroup,
        gamma: FiniteGroup,
        gamma_on_hf: GroupAction,
        t_hat: GammaLattice,
        gtor_hat: GammaLattice,
        d: int,
    ) -> None:
        if d < 1:
            raise ValueError("splitting degree must be positive")
        if not same_group(gamma_on_hf.actor, gamma):
            raise GroupMismatch("action's actor is not the supplied Galois quotient")
        if not same_group(gamma_on_hf.target, hf):
            raise GroupMismatch("action's target is not the supplied component group")
        if not same_group(t_hat.group, semidirect_product(gamma_on_hf).group):
            raise GroupMismatch("torus lattice is not defined over the semidirect product")
        if not same_group(gtor_hat.group, gamma):
            raise GroupMismatch("ambient torus lattice is not defined over the Galois quotient")
        self.__dict__.update(
            hf=hf, gamma=gamma, gamma_on_hf=gamma_on_hf, t_hat=t_hat, gtor_hat=gtor_hat, d=d
        )


def reduction_input(
    hf: FiniteGroup,
    gamma: FiniteGroup,
    gamma_on_hf: GroupAction,
    t_hat: GammaLattice,
    gtor_hat: GammaLattice,
    d: Optional[int] = None,
) -> ReductionInput:
    """Validated constructor; ``d`` defaults to the order of ``gamma``."""
    return ReductionInput(
        hf=hf,
        gamma=gamma,
        gamma_on_hf=gamma_on_hf,
        t_hat=t_hat,
        gtor_hat=gtor_hat,
        d=gamma.order if d is None else d,
    )


def existence_m(n: int, d: int) -> int:
    """The multiplier m = n*d of the finite-subgroup existence statement."""
    if n < 1 or d < 1:
        raise ValueError("both factors must be positive")
    return n * d


def isogeny_kernel(iso: LatticeEmbedding, m: int) -> GammaLattice:
    """Kernel data of (multiplication by m) composed with the isogeny.

    On the character side this is the cokernel of m * iso.matrix.  Its Smith
    form is the embedding's own ``iso.snf`` with every divisor times m: the
    same transforms u and v diagonalize the scaled matrix.  The target's
    action descends to the quotient; its generator matrices are conjugated
    by u and restricted to the coordinates whose scaled divisor exceeds 1.
    The result is a finite module over the target's group with those
    divisors as factors, and its order is m^rank * |cokernel of iso|.
    """
    if m < 1:
        raise ValueError("multiplier must be positive")
    if iso.source.rank != iso.target.rank:
        raise NotFiniteIndex("isogeny data requires equal ranks")
    rank = iso.target.rank
    divisors = iso.snf.elementary_divisors
    scaled = tuple(m * d for d in divisors)
    keep = [i for i in range(rank) if scaled[i] > 1]
    u = iso.snf.u
    # From u * iso.matrix * v = d with d square and nonsingular:
    # u^-1 = iso.matrix * v * d^-1, and column j divides exactly by d_j.
    u_inv = IntMatrix.from_rows(
        [[x // divisors[j] for j, x in enumerate(row)] for row in iso.matrix.mul(iso.snf.v).entries]
    )
    gens = []
    for gen in iso.target.generators:
        conj = u.mul(gen).mul(u_inv).entries
        gens.append(IntMatrix.from_rows([[conj[i][j] for j in keep] for i in keep], cols=len(keep)))
    result = GammaLattice(iso.target.group, len(keep), tuple(gens), tuple(scaled[i] for i in keep))
    try:
        result.validate()
    except NotAHomomorphism as exc:
        raise InternalContradiction(f"kernel action: {exc}") from exc
    expected = (m ** rank) * iso.index
    if result.order != expected:
        raise InternalContradiction(
            f"kernel order {result.order} does not match m^rank * index = {expected}"
        )
    return result


def reverse_isogeny(iso: LatticeEmbedding) -> LatticeEmbedding:
    """Reverse a finite-index embedding using its cokernel exponent.

    For e the exponent of the cokernel, e * iso.matrix^-1 is integral and
    equivariant, and is read off ``iso.snf``; composed with iso it is
    multiplication by e, and its cokernel order is e^rank / |cokernel of iso|.
    """
    if iso.source.rank != iso.target.rank:
        raise NotFiniteIndex("only finite-index embeddings can be reversed")
    e = iso.cokernel.exponent
    rank = iso.source.rank
    rev_matrix = iso.snf.scaled_inverse(e)
    rev = lattice_embedding(iso.target, iso.source, rev_matrix)
    composed = rev_matrix.mul(iso.matrix)
    if composed != IntMatrix.identity(rank).scale(e):
        raise InternalContradiction("reversal composed with the embedding is not e * identity")
    if rev.index * iso.index != e ** rank:
        raise InternalContradiction("reversal cokernel order violates e^rank factorization")
    return rev


class NarrativeEntry(Value):
    """One step of the reduction narrative."""

    _fields = ("step", "title", "status", "detail")


class ReductionReport(Value):
    """Assembled pipeline output.

    ``a`` and ``a_prime`` are the finite modules A and A' (GammaLattices
    with invariant factors).  ``kernel_order_of_F`` is |A| * |A'|; the
    narrative has exactly five entries, steps 0 and 1 symbolic, steps 2
    through 4 computed.
    """

    _fields = (
        "input", "ono", "m", "a", "ambient_ono", "reversed_embedding", "a_prime", "kernel_order_of_F", "narrative"
    )


def reduce_stabilizer(inp: ReductionInput, *, allow_random: bool = True) -> ReductionReport:
    """Run the full pipeline and assemble the report."""
    ono = ono_construct(inp.t_hat, allow_random=allow_random)
    iso = ono.embedding
    m = existence_m(inp.hf.order, inp.d)
    a = isogeny_kernel(iso, m)
    ambient = ono_construct(inp.gtor_hat, allow_random=allow_random)
    reversed_emb = reverse_isogeny(ambient.embedding)
    a_prime = isogeny_kernel(reversed_emb, 1)
    kernel_order = a.order * a_prime.order
    combined_order = semidirect_product(inp.gamma_on_hf).group.order

    narrative = (
        NarrativeEntry(
            step=0,
            title="Enlarge the ambient group",
            status="symbolic",
            detail=(
                "Replace the ambient connected group by an extension whose "
                "semisimple-unipotent part is simply connected; the component "
                "group of the stabilizer is unchanged. Geometric step, out of "
                "computational scope."
            ),
        ),
        NarrativeEntry(
            step=1,
            title="Split off the semisimple-unipotent part",
            status="symbolic",
            detail=(
                "Pass to the torus-by-finite quotient of the stabilizer inside "
                "a product of a special linear group and the ambient torus. "
                "Geometric step, out of computational scope."
            ),
        ),
        NarrativeEntry(
            step=2,
            title="Embed the torus lattice into induced lattices",
            status="computed",
            detail=(
                f"Induction decomposition of the torus character lattice (rank "
                f"{inp.t_hat.rank}) over the combined component-and-Galois group of order "
                f"{combined_order}: r = {ono.r}, quasi-split source of rank "
                f"{ono.m1.rank}, ambient sum of rank {iso.target.rank}, embedding "
                f"index {iso.index}."
            ),
        ),
        NarrativeEntry(
            step=3,
            title="Kernel data A",
            status="computed",
            detail=(
                f"m = n*d = {inp.hf.order}*{inp.d} = {m}. A is the kernel of "
                "(multiplication by m) followed by the isogeny, recorded as the "
                "cokernel of m times the character-lattice embedding with the "
                f"transported action: {a.structure.describe()} of order {a.order}. "
                "Assumes the external existence statement supplies a finite subgroup "
                "meeting every component; that it generates, together with A, the "
                "claimed finite extension is not verified here."
            ),
        ),
        NarrativeEntry(
            step=4,
            title="Kernel data A' for the ambient torus",
            status="computed",
            detail=(
                f"Induction decomposition of the ambient torus lattice (rank "
                f"{inp.gtor_hat.rank}) over the Galois quotient of order {inp.gamma.order}; "
                f"the embedding (index {ambient.embedding.index}) is reversed with cokernel "
                f"exponent {ambient.embedding.cokernel.exponent}, giving A' = "
                f"{a_prime.structure.describe()} of order {a_prime.order}. The "
                "multiplier symbol m is shared with step 3 by convention of the "
                f"construction. Combined kernel order |A|*|A'| = {kernel_order}."
            ),
        ),
    )
    return ReductionReport(
        input=inp,
        ono=ono,
        m=m,
        a=a,
        ambient_ono=ambient,
        reversed_embedding=reversed_emb,
        a_prime=a_prime,
        kernel_order_of_F=kernel_order,
        narrative=narrative,
    )
