"""Exception hierarchy.

ValidationError covers every way an input object can be malformed; its
subclasses carry enough context to report a precise witness.  The flat
names are re-exported from the package root.  guaranteed() is the one
place where a search the proofs guarantee, found empty, turns into an
InternalCheckError.
"""

from __future__ import annotations

from typing import TypeVar

T = TypeVar("T")


class MatroidError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(MatroidError):
    """An input object fails a structural requirement."""


class SizeMismatch(ValidationError):
    """A set has the wrong cardinality for its role."""


class DistanceViolation(ValidationError):
    """Two designated sets are closer than the required separation."""


class RankOutOfRange(ValidationError):
    """Rank not in 0..n."""


class ElementOutOfRange(ValidationError):
    """A set mentions an element outside the ground set."""


class NotACircuitHyperplane(ValidationError):
    """A set was required to be a designated dependent set and is not."""


class NoBasis(ValidationError):
    """A basis was required to exist and none does."""


class NotBases(ValidationError):
    """A collection member is not a basis of the matroid."""


class NotDisjoint(ValidationError):
    """Two sets were required to be disjoint and are not."""


class GroundSetMismatch(ValidationError):
    """An object refers to a different ground set than expected."""


class UnionMismatch(ValidationError):
    """A collection does not cover, or overshoots, the required union."""


class NotAVertex(ValidationError):
    """A purported graph vertex fails the vertex conditions."""


class EmptyBases(ValidationError):
    """A collection of bases was required to be non-empty."""


class ResidueOutOfRange(ValidationError):
    """A residue class index is not in 0..modulus-1."""


class RangeError(ValidationError):
    """A numeric parameter is outside its supported range."""


class ParseError(ValidationError):
    """Text input does not match the file format."""


class PreconditionViolated(MatroidError):
    """Arguments are well-formed but the operation's contract is not met."""


class TooLarge(MatroidError):
    """The computation would exceed an explicit size cap."""


class ExchangeViolation(MatroidError):
    """A proposed exchange move does not map a basis to a basis."""


class ExchangeAxiomViolation(ExchangeViolation, ValidationError):
    """A basis family breaks the exchange axiom, so it is not a matroid."""


class InternalCheckError(MatroidError):
    """An invariant the algorithms guarantee was observed to fail.

    Reaching this is a bug in this package, not a usage error.
    """


def guaranteed(hit: T | None, what: str) -> T:
    """hit, unless a search the proofs guarantee found nothing (None)."""
    if hit is None:
        raise InternalCheckError(what)
    return hit
