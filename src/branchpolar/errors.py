"""Exception taxonomy shared by all branchpolar modules, and the integer
check of their public constructors."""

from operator import index


def integers(values, error: type) -> tuple:
    """``values`` as a tuple of ints, each read by ``operator.index``: a
    bool, a float or anything else it refuses raises ``error`` instead of
    being truncated by ``int``.

    This is how the package reads the numbers a caller passes: the entries
    of a class, an order k, the legs of an elementary diagram, the
    numbers of a continued fraction and the entries of a weight cut.
    Lattice points (``diagram.from_support``, ``NewtonDiagram`` vertices,
    the endpoints of an edge given to ``puiseux.edge_poly``), witness
    seeds and the levels, depths and orders of the verifier's steps are
    not read through it: they must be exact ints, since a seed is written
    into the report as a JSON integer."""
    out = []
    for v in values:
        try:
            if type(v) is bool:
                raise TypeError
            out.append(index(v))
        except TypeError:
            raise error(f"expected an integer, got {v!r}") from None
    return tuple(out)


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
