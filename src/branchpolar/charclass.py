"""Characteristic sequences of plane branches and their derived numerical data.

A singular plane branch is encoded up to equisingularity by its characteristic
``(b0, ..., bh)``: ``b0`` is the multiplicity and each later entry is the
smallest exponent numerator that breaks the running gcd.  Everything the rest
of the package needs (gcd chain ``e_i``, the coprime pairs ``(m_i, n_i)``,
semiroot degrees, intersection numbers with semiroots) is precomputed here.
The intersection numbers follow the classical recurrence bbar_1 = b_1,
bbar_(l+1) = n_l bbar_l - b_l + b_(l+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    GcdChainViolation,
    IndexOutOfRange,
    InvalidCharacteristic,
    NotStrictlyIncreasing,
    TrailingGcdNotOne,
    integers,
)

__all__ = ["CharSequence", "new_char_sequence", "semiroot_degree", "parse_char"]


@dataclass(frozen=True)
class CharSequence:
    """A validated characteristic (b0,...,bh) with its derived sequences.

    Attributes
    ----------
    b     : the characteristic itself, b0 > 1, strictly increasing
    e     : gcd chain, e_i = gcd(b0,...,bi); strictly decreasing with e_h = 1
    n_seq : n_i = e_{i-1}/e_i for i = 1..h
    m_seq : m_i = b_i/e_i for i = 1..h
    bbar  : intersection numbers with the semiroots, bbar_1 = b_1 and
            bbar_(l+1) = n_l bbar_l - b_l + b_(l+1)
    """

    b: tuple[int, ...]
    e: tuple[int, ...]
    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]
    bbar: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.b) - 1

    @property
    def b0(self) -> int:
        return self.b[0]

    def char_exponents(self) -> tuple[Fraction, ...]:
        """The characteristic exponents b_i/b0 for i = 1..h."""
        return tuple(Fraction(bi, self.b0) for bi in self.b[1:])

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.b) + ")"


def new_char_sequence(b) -> CharSequence:
    """Validate ``b`` and return it with all derived data computed.

    Raises InvalidCharacteristic for an entry that is not an integer (a
    bool, or a float that ``int`` would truncate), NotStrictlyIncreasing,
    GcdChainViolation (an entry fails to lower the running gcd) or
    TrailingGcdNotOne (the chain does not reach 1).
    """
    b = integers(b, InvalidCharacteristic)
    if not b:
        raise InvalidCharacteristic("characteristic must be nonempty")
    if b[0] <= 1:
        raise InvalidCharacteristic(f"multiplicity b0 must exceed 1, got {b[0]}")
    if any(x >= y for x, y in zip(b, b[1:])):
        raise NotStrictlyIncreasing(f"characteristic must be strictly increasing: {b}")

    e = [b[0]]
    for i, bi in enumerate(b[1:], start=1):
        g = gcd(e[-1], bi)
        if g == e[-1]:
            raise GcdChainViolation(
                f"b_{i} = {bi} does not lower the gcd e_{i - 1} = {e[-1]}"
            )
        e.append(g)
    if e[-1] != 1:
        raise TrailingGcdNotOne(f"gcd chain of {b} ends at {e[-1]}, not 1")

    n_seq = tuple(e[i - 1] // e[i] for i in range(1, len(b)))
    m_seq = tuple(b[i] // e[i] for i in range(1, len(b)))

    bbar_seq = [b[1]]
    for l in range(1, len(b) - 1):
        bbar_seq.append(n_seq[l - 1] * bbar_seq[-1] - b[l] + b[l + 1])

    return CharSequence(b, tuple(e), n_seq, m_seq, tuple(bbar_seq))


def semiroot_degree(cs: CharSequence, l: int) -> int:
    """Degree b0/e_{l-1} = n_1 * ... * n_{l-1} of the l-th semiroot; an
    ``l`` that is not an int in 1..h, a bool or a float among them, raises
    IndexOutOfRange."""
    if type(l) is not int or not 1 <= l <= cs.h:
        raise IndexOutOfRange(f"semiroot index must be an int in 1..{cs.h}, got {l!r}")
    return cs.b0 // cs.e[l - 1]


def parse_char(text: str) -> CharSequence:
    """Parse a comma-separated characteristic such as "12,16,31"."""
    try:
        entries = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidCharacteristic(f"cannot parse characteristic {text!r}") from exc
    return new_char_sequence(entries)
