"""Continued-fraction expansions of rationals m/n > 1 with their convergents."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidRange

__all__ = ["ContinuedFraction", "expand", "from_quotients", "to_even_length"]


@dataclass(frozen=True)
class ContinuedFraction:
    """Expansion [h0,...,hs] of a rational > 1 together with its convergents.

    ``p[i]/q[i]`` is the i-th convergent for 0 <= i <= s; the recursion seeds
    p_{-1} = 1, q_{-1} = 0 are implicit.  In canonical form h_s > 1 when s >= 1.
    """

    h: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.h) - 1

    @property
    def value(self) -> Fraction:
        return Fraction(self.p[-1], self.q[-1])


def from_quotients(h) -> ContinuedFraction:
    """Build a ContinuedFraction from partial quotients, filling in convergents."""
    h = tuple(int(v) for v in h)
    if not h or any(v < 1 for v in h):
        raise InvalidRange(f"partial quotients must be positive: {h}")
    p_prev, q_prev = 1, 0        # p_{-1}, q_{-1}
    p_cur, q_cur = h[0], 1
    p, q = [p_cur], [q_cur]
    for hv in h[1:]:
        p_prev, p_cur = p_cur, hv * p_cur + p_prev
        q_prev, q_cur = q_cur, hv * q_cur + q_prev
        p.append(p_cur)
        q.append(q_cur)
    return ContinuedFraction(h, tuple(p), tuple(q))


def expand(m: int, n: int) -> ContinuedFraction:
    """Classical expansion of m/n with 0 < n < m (minimal length, h_s > 1)."""
    if not 0 < n < m:
        raise InvalidRange(f"need 0 < n < m, got m={m}, n={n}")
    h = []
    a, b = m, n
    while b:
        quot, rem = divmod(a, b)
        h.append(quot)
        a, b = b, rem
    return from_quotients(h)


def to_even_length(cf: ContinuedFraction) -> ContinuedFraction:
    """Rewrite [h0,...,hs] as [h0,...,hs-1,1] when s is odd; identity otherwise.

    The represented rational is unchanged.
    """
    if cf.s % 2 == 0:
        return cf
    if cf.h[-1] < 2:
        raise InvalidRange("expansion is not in canonical form (h_s = 1)")
    return from_quotients(cf.h[:-1] + (cf.h[-1] - 1, 1))
