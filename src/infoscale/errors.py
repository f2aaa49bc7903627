"""Semantic exception hierarchy.

A single root so callers can catch everything from this package, with
subclasses that distinguish structural problems (wrong shapes, reducible
chains) from measure-theoretic ones (absolute-continuity violations) and
from numerical failures.
"""


class InfoscaleError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(InfoscaleError):
    """Mismatched support sizes, state spaces, or volumes."""


class NormalizationError(InfoscaleError):
    """Probability weights are negative or do not sum to one."""


class AbsoluteContinuityError(InfoscaleError):
    """A divergence is undefined because absolute continuity fails."""


class ParameterError(InfoscaleError):
    """An argument is outside its admissible range (e.g. Renyi order)."""


class CgfDomainError(InfoscaleError):
    """A cumulant generating function has no domain on one side of 0."""


class UnboundedObservableError(InfoscaleError):
    """The cumulant generating function is infinite on the whole half-axis."""


class StructureError(InfoscaleError):
    """A Markov chain lacks required structure (irreducibility)."""


class EnumerationLimitError(InfoscaleError):
    """An exact enumeration request exceeds the configured size cap."""


class UnsupportedModelError(InfoscaleError):
    """A model combination has no implemented closed form."""


class NumericsError(InfoscaleError):
    """An internal numerical routine failed to meet its accuracy contract."""
