"""Exception types shared across the package."""


class DiophlatError(Exception):
    """Base class for all domain errors raised by this package."""


class NotTotallyReal(DiophlatError):
    """The polynomial has fewer real roots than its degree."""


class Reducible(DiophlatError):
    """The polynomial has a proper monic integer factor."""


class NotSquarefree(DiophlatError):
    """The polynomial shares a root with its derivative."""


class NotPrime(DiophlatError):
    """An argument required to be prime is composite."""


class PrecisionExhausted(DiophlatError):
    """A certified bound cannot be met at the current precision.

    Callers should rebuild the field at higher precision_bits.
    """


class SingularEmbedding(DiophlatError):
    """The embedding matrix of a tuple is numerically singular."""


class StructureViolation(DiophlatError):
    """An exact check failed: a unit power does not stabilize its module."""


class TooManyPoints(DiophlatError):
    """A lattice enumeration exceeded its point cap."""


class EpsilonTooLarge(DiophlatError):
    """epsilon exceeds 1/2, breaking nearest-vector uniqueness."""


class ZeroMass(DiophlatError):
    """Normalization of the zero measure was requested."""


class DimensionMismatch(DiophlatError):
    """Two measures live on spheres of different dimension."""


class UnsupportedDimension(DiophlatError):
    """The operation is only implemented for sphere dimensions 1 and 2."""


class InvalidInput(DiophlatError, ValueError):
    """An argument lies outside the range the operation accepts."""
