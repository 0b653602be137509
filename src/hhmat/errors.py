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
    """A matrix entry, a quadrature sum or a judged margin is NaN or infinite."""


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


# -- quadrature --------------------------------------------------------------

class RTooLarge(Error):
    """Word-expansion exponent beyond the supported cap."""


class NoConvergence(Error):
    """Adaptive quadrature refinement hit the node cap without settling."""


# -- checkers ----------------------------------------------------------------

class BadInterval(Error):
    """An empty interval, or a working interval that is unbounded or on which
    the scalar function is not strictly positive or not finite."""


class HypothesisUnmet(Error):
    """A checker's hypotheses failed; distinct from an inequality violation.

    Carries the list of failed hypothesis descriptions so harness reports can
    show why an instance was skipped rather than judged.
    """

    def __init__(self, *reasons: str):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


# -- harness -----------------------------------------------------------------

class UnknownTheorem(Error):
    """No checker registered under this theorem id."""
