"""Exception types raised across the package."""


class CagekitError(Exception):
    """Base class for all cagekit errors."""


class NoCandidate(CagekitError):
    """This input yields no candidate; a search moves on to the next one.

    Any other error from a construction is a bug and propagates.
    """


class ZeroOrder(CagekitError):
    pass


class IndexOutOfRange(CagekitError):
    pass


class SameEdge(CagekitError):
    pass


class NotAnEdge(CagekitError):
    pass


class MultiEdge(CagekitError):
    pass


class MalformedGraph6(CagekitError):
    pass


class OrderTooLarge(CagekitError):
    pass


class ParameterOutOfRange(NoCandidate):
    pass


class DegreeMismatch(CagekitError):
    pass


class NotCubic(NoCandidate):
    pass


class NotTetravalent(NoCandidate):
    pass


class RadiusTooLarge(NoCandidate):
    pass


class TreeNotInduced(NoCandidate):
    pass


class NoCompletion(NoCandidate):
    pass


class DegreeImbalance(CagekitError):
    pass


class TooManyVertices(CagekitError):
    pass


class NoPerfectMatching(CagekitError):
    pass


class OddOrder(CagekitError):
    pass


class InvalidConnectingSet(NoCandidate):
    pass


class OrderTooSmall(NoCandidate):
    pass


class SpecViolation(CagekitError):
    pass


class CapExceeded(CagekitError):
    pass


class BudgetExhausted(CagekitError):
    pass


class BadSeed(CagekitError):
    pass


class HorizonTooSmall(CagekitError):
    pass


class ReplayMismatch(CagekitError):
    pass


class UnknownOperation(CagekitError):
    pass


class MalformedInput(CagekitError):
    pass
