"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for all hhmat errors."""


# -- matrix construction / decomposition ------------------------------------

class NonSquareError(Error):
    """Raw input grid is not square."""


class ExcessAsymmetryError(Error):
    """Raw input deviates from Hermitian symmetry beyond the rejection bound."""


class NonFiniteEntries(Error):
    """Raw input has a NaN or infinite entry."""


class ConvergenceFailure(Error):
    """The eigensolver did not converge or its output failed validation."""


class SpectrumOutOfDomain(Error):
    """Eigenvalues fall outside the domain of the scalar function."""

    def __init__(self, message: str, offending=()):
        super().__init__(message)
        self.offending = list(offending)


class BadSpec(Error):
    """Invalid norm specification for the given dimension."""


# -- order relations ---------------------------------------------------------

class DimMismatch(Error):
    """Operands have incompatible dimensions."""


class NotOrthonormal(Error):
    """Frame columns are not orthonormal within tolerance."""


class NotPSD(Error):
    """A positive-semidefinite input was required."""


class NotUnitary(Error):
    """A supplied matrix is not unitary within tolerance."""


# -- scalar function catalog -------------------------------------------------

class UnknownName(Error):
    """No catalog entry under this name."""


class BadParams(Error):
    """Catalog parameters outside the supported range."""


class FlagContradicted(Error):
    """A declared analytic flag failed numeric validation."""

    def __init__(self, message: str, flag: str, witness=None):
        super().__init__(message)
        self.flag = flag
        self.witness = witness


# -- positive linear maps ----------------------------------------------------

class TargetDimMismatch(Error):
    """Component maps do not share a target dimension."""


# -- quadrature --------------------------------------------------------------

class RTooLarge(Error):
    """Word-expansion exponent beyond the supported cap."""


class NoConvergence(Error):
    """Adaptive quadrature refinement hit the node cap without settling."""


# -- checkers ----------------------------------------------------------------

class NotPositive(Error):
    """The scalar function is not strictly positive on the working interval."""


class BadInterval(Error):
    """Interval endpoints are missing or out of order."""


class HypothesisUnmet(Error):
    """A checker's hypotheses failed; distinct from an inequality violation.

    Carries the list of failed hypothesis descriptions so harness reports can
    show why an instance was skipped rather than judged.
    """

    def __init__(self, *reasons: str):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


class NotConvexFlag(HypothesisUnmet):
    """The scalar function is not declared convex."""


class NotOperatorConvexFlag(HypothesisUnmet):
    """The scalar function is not declared operator convex."""


# -- harness -----------------------------------------------------------------

class UnknownTheorem(Error):
    """No checker registered under this theorem id."""
