"""Exception types raised by the public API.

Every error is classified on its class: input-shaped problems (bad
permutations, bad subgroups, mismatched groups, malformed workspaces)
derive from InputError, computation-shaped problems (no invertible
intertwiner found) from ComputationError.  Callers map the two bases to
different exit codes, as the CLI does (2 and 1), without listing the
concrete classes.
"""

from __future__ import annotations

__all__ = [
    "GammalatError",
    "InputError",
    "ComputationError",
    "NotAPermutation",
    "ClosureTooLarge",
    "NotASubgroup",
    "NotAHomomorphism",
    "NotUnimodular",
    "InvalidCocycle",
    "GroupMismatch",
    "CharacterMismatch",
    "NotInRationalSpan",
    "NoInvertibleIntertwiner",
    "NotFiniteIndex",
    "InternalContradiction",
    "UnknownName",
    "WorkspaceError",
]


class GammalatError(Exception):
    """Base class for every error raised by this package."""


class InputError(GammalatError):
    """The input is at fault: fix the arguments or the workspace (CLI exit 2)."""


class ComputationError(GammalatError):
    """Valid input on which a computation failed (CLI exit 1)."""


class NotAPermutation(InputError):
    """A generator list was empty or contained a non-bijective image array."""


class ClosureTooLarge(InputError):
    """Group closure exceeded the configured order cap."""


class NotASubgroup(InputError):
    """An element set is not closed under the group operation."""


class NotAHomomorphism(InputError):
    """A map between groups fails multiplicativity; the message names a witness."""


class NotUnimodular(InputError):
    """An action matrix does not have determinant +1 or -1."""


class InvalidCocycle(InputError):
    """A candidate cocycle violates the twisting law at some pair."""


class GroupMismatch(InputError):
    """Two objects that must live over the same group do not."""


class CharacterMismatch(InputError):
    """Two lattices that must have equal rational characters do not."""


class NotInRationalSpan(ComputationError):
    """A vector lies outside the rational span of the given basis."""


class NoInvertibleIntertwiner(ComputationError):
    """The intertwiner search exhausted its budget without an invertible map."""


class NotFiniteIndex(ComputationError):
    """An embedding expected to have finite cokernel is not full rank."""


class InternalContradiction(ComputationError):
    """An identity guaranteed by theory failed; indicates a bug upstream."""


class UnknownName(InputError):
    """A workspace reference names an object that does not exist."""


class WorkspaceError(InputError):
    """A workspace document is malformed or fails validation."""
