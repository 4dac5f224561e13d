"""Exception types raised across the package."""


class CagekitError(Exception):
    """Base class for all cagekit errors."""


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


class ParameterOutOfRange(CagekitError):
    pass


class DegreeMismatch(CagekitError):
    pass


class NotCubic(CagekitError):
    pass


class NotTetravalent(CagekitError):
    pass


class RadiusTooLarge(CagekitError):
    pass


class TreeNotInduced(CagekitError):
    pass


class NoCompletion(CagekitError):
    pass


class DegreeImbalance(CagekitError):
    pass


class TooManyVertices(CagekitError):
    pass


class NoPerfectMatching(CagekitError):
    pass


class OddOrder(CagekitError):
    pass


class InvalidConnectingSet(CagekitError):
    pass


class OrderTooSmall(CagekitError):
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
