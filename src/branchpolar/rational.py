"""Formatting of exact rationals ("p/q" notation)."""

from __future__ import annotations

from fractions import Fraction


def fmt_q(value) -> str:
    """Render a rational as "p/q", or "p" when it is an integer."""
    if type(value) is int:
        return str(value)
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
