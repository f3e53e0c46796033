"""Exception types shared across the toolkit.

Every class below maps to a nonzero exit status in the command line front
end (see :mod:`umbilic.cli`); exit 7 is shared by PhaseStepTooLarge,
ZeroOnContour and CrossFormMismatch, every other class has its own.
Keep the hierarchy flat and the names stable.
"""


class UmbilicError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(UmbilicError):
    """A run configuration failed schema validation."""


class NotPseudoconvex(UmbilicError):
    """The curvature form -D Dbar log h is not strictly positive."""


class TotallyDegenerate(UmbilicError):
    """The invariant vanishes identically: the input is locally spherical,
    so there are no isolated umbilical circles to locate."""


class SolveFailed(UmbilicError):
    """A linear solve left a residual above tolerance.  Surjectivity of the
    degree-by-degree operators guarantees solvability, so this signals a
    numerical fault, never an expected outcome."""


class UnderResolved(UmbilicError):
    """The top third of the frequency grid carries too much energy; the
    sample grid cannot represent the field faithfully."""


class CrossFormMismatch(UmbilicError):
    """Two algebraically equivalent formulas for the invariant disagreed
    beyond tolerance on the same input."""


class DomainError(UmbilicError):
    """log was applied to samples that are not bounded away from zero, exp
    overflowed, or a result is not a finite number."""


class PhaseStepTooLarge(UmbilicError):
    """A contour could not be refined until all phase increments are below
    pi/2 within the refinement budget."""


class ZeroOnContour(UmbilicError):
    """A contour point fell below the zero floor; winding is undefined."""


class SymmetryViolated(UmbilicError):
    """The potential is not annihilated by the claimed symmetry direction."""
