"""Exception taxonomy shared by all branchpolar modules."""


class BranchPolarError(Exception):
    """Base class for every error raised by this package."""


# --- characteristic sequences ---------------------------------------------

class InvalidCharacteristic(BranchPolarError, ValueError):
    """The integer sequence cannot be the characteristic of a plane branch."""


class NotStrictlyIncreasing(InvalidCharacteristic):
    pass


class GcdChainViolation(InvalidCharacteristic):
    """Some entry does not lower the running gcd."""


class TrailingGcdNotOne(InvalidCharacteristic):
    """The gcd chain does not terminate at 1."""


class IndexOutOfRange(BranchPolarError, IndexError):
    pass


# --- continued fractions ---------------------------------------------------

class InvalidRange(BranchPolarError, ValueError):
    pass


# --- Newton diagrams -------------------------------------------------------

class EmptySupport(BranchPolarError, ValueError):
    pass


# --- Puiseux series and bivariate polynomials ------------------------------

class IndexMismatch(BranchPolarError, ValueError):
    """The series lies in a smaller Puiseux ring than its denominator claims."""


class OrderExceedsDegree(BranchPolarError, ValueError):
    pass


class NonIntegralSubstitution(BranchPolarError, ValueError):
    pass


class ZeroPolynomial(BranchPolarError, ValueError):
    pass


class EdgeNotOnPolygon(BranchPolarError, ValueError):
    pass


# --- polar prediction -------------------------------------------------------

class OrderOutOfRange(BranchPolarError, ValueError):
    """Polar order k must satisfy 1 <= k < b0."""


# --- verification -----------------------------------------------------------

class OrderTooLarge(BranchPolarError, ValueError):
    pass


# --- internal invariants ----------------------------------------------------

class InvariantViolation(BranchPolarError, RuntimeError):
    """A result broke a condition that the theory guarantees; raised instead
    of ``assert`` so that the check also runs under ``python -O``."""
