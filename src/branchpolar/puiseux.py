"""Finite Puiseux series over exact rationals and sparse bivariate polynomials.

A :class:`PuiseuxSeries` is a finite sum of terms ``a_i x^(i/n)`` keyed by
the exponent numerator ``i`` for a fixed working denominator ``n``.

A :class:`BivariatePoly` is an exact sparse polynomial in (x, y) with
rational coefficients.  The only way terms are dropped is a weight cut
``(wx, wy, cap)``, taken by :func:`min_poly` and :func:`hat_transform`: every
term x^i y^j with wx*i + wy*j above ``cap`` is left out.

The centrepiece is :func:`min_poly`: the monic polynomial whose roots are the
conjugates of a series.  The power sums of the conjugates are n times the
part of a^j whose exponents are integers, and Newton's identities turn them
into the coefficients; every polynomial product is one big-integer product
of packed coefficients, so the work is polynomial in n and no cyclotomic
arithmetic is ever needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm

from . import charclass
from . import diagram as diagram_mod
from .errors import (
    EdgeNotOnPolygon,
    IndexMismatch,
    InvalidCharacteristic,
    InvariantViolation,
    NonIntegralSubstitution,
    OrderExceedsDegree,
    ZeroPolynomial,
)
from .rational import fmt_q, parse_q

__all__ = [
    "INF",
    "PuiseuxSeries",
    "BivariatePoly",
    "min_poly",
    "derivative_y",
    "hat_transform",
    "row_starts",
    "diagram_of",
    "edge_poly_squarefree",
]

INF = float("inf")


def _as_coeff(value):
    # ints stay ints (fast arithmetic); everything else becomes a Fraction
    if isinstance(value, int):
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


class PuiseuxSeries:
    """A finite Puiseux series with exact rational coefficients."""

    __slots__ = ("denom", "terms")

    def __init__(self, denom: int, coeffs):
        if denom < 1:
            raise ValueError(f"denominator must be positive, got {denom}")
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        terms = []
        for i, c in items:
            # bool is a subclass of int, and int() would truncate floats
            if type(i) is not int:
                raise ValueError(f"exponent numerators must be integers, got {i!r}")
            if i <= 0:
                raise ValueError(f"exponent numerators must be positive, got {i}")
            c = _as_coeff(c)
            if c:
                terms.append((i, c))
        terms.sort()
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):  # immutable by convention and by force
        raise AttributeError("PuiseuxSeries is immutable")

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of x^exponent."""
        e = Fraction(exponent)
        num = e * self.denom
        if num.denominator != 1:
            return Fraction(0)
        i = int(num)
        for j, c in self.terms:
            if j == i:
                return Fraction(c)
        return Fraction(0)

    def reduce(self) -> "PuiseuxSeries":
        """Rewrite over the minimal denominator, the index of the series."""
        g = self.denom
        for i, _ in self.terms:
            g = gcd(g, i)
        if g == 1:
            return self
        return PuiseuxSeries(self.denom // g, [(i // g, c) for i, c in self.terms])

    def rescale(self, new_denom: int) -> "PuiseuxSeries":
        """Rewrite over a larger denominator (a multiple of the current one)."""
        if new_denom % self.denom:
            raise ValueError(f"{new_denom} is not a multiple of {self.denom}")
        f = new_denom // self.denom
        if f == 1:
            return self
        return PuiseuxSeries(new_denom, [(i * f, c) for i, c in self.terms])

    # -- analytic queries -----------------------------------------------------

    def ord(self):
        """Smallest exponent with nonzero coefficient; +inf for the zero series."""
        if self.terms:
            return Fraction(self.terms[0][0], self.denom)
        return INF

    def truncate_below(self, cutoff) -> "PuiseuxSeries":
        """Keep exactly the terms of exponent strictly less than ``cutoff``."""
        if cutoff == INF:
            return self
        cut = Fraction(cutoff)
        kept = [(i, c) for i, c in self.terms if Fraction(i, self.denom) < cut]
        return PuiseuxSeries(self.denom, kept)

    def characteristic(self) -> charclass.CharSequence:
        """Extract (b0,...,bh) by gcd descent over the exponents.

        The series must be written over its index (reduce first) and have
        order at least 1.
        """
        if not self.terms:
            raise InvalidCharacteristic("the zero series has no characteristic")
        if self.terms[0][0] < self.denom:
            raise InvalidCharacteristic(
                f"order {Fraction(self.terms[0][0], self.denom)} < 1; not a branch root"
            )
        if self.denom == 1:
            raise InvalidCharacteristic("series of index 1 parametrizes a smooth branch")
        g = self.denom
        for i, _ in self.terms:
            g = gcd(g, i)
        if g > 1:
            raise IndexMismatch(
                f"series has index {self.denom // g}, not {self.denom}; reduce first"
            )
        b = [self.denom]
        e = self.denom
        for i, _ in self.terms:
            g = gcd(e, i)
            if g < e:
                b.append(i)
                e = g
                if e == 1:
                    break
        if e != 1:
            raise InvariantViolation(f"gcd chain {b} of a reduced series stops at {e}, not 1")
        return charclass.new_char_sequence(b)

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other: "PuiseuxSeries"):
        n = lcm(self.denom, other.denom)
        return self.rescale(n), other.rescale(n)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.denom, [(i, -c) for i, c in self.terms])

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        a, b = self._common(other)
        merged = dict(a.terms)
        for i, c in b.terms:
            merged[i] = merged.get(i, 0) + c
        return PuiseuxSeries(a.denom, merged)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._common(other)
        return a.terms == b.terms

    def __hash__(self):
        r = self.reduce()
        return hash((r.denom, r.terms))

    # -- text form --------------------------------------------------------------

    _TERM_RE = re.compile(
        r"^(?:(?P<coef>[+-]?\d+(?:/\d+)?)\*)?(?P<sign>[+-]?)x(?:\^\(?(?P<exp>\d+(?:/\d+)?)\)?)?$"
    )

    @classmethod
    def from_string(cls, text: str, denom: int | None = None) -> "PuiseuxSeries":
        """Parse e.g. "x^(4/3)+x^2+x^(31/12)" or "3/2*x^(7/5)-x^2"."""
        compact = text.replace(" ", "")
        if compact in ("", "0"):
            return cls(denom or 1, [])
        pieces = re.split(r"(?=[+-])", compact)
        parsed = []
        for piece in pieces:
            if not piece:
                continue
            m = cls._TERM_RE.match(piece)
            if not m:
                raise ValueError(f"cannot parse Puiseux term {piece!r}")
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sign") == "-":
                coef = -coef
            exp = Fraction(m.group("exp")) if m.group("exp") else Fraction(1)
            parsed.append((exp, coef))
        n = denom or lcm(*[e.denominator for e, _ in parsed])
        coeffs: dict[int, Fraction] = {}
        for e, c in parsed:
            num = e * n
            if num.denominator != 1:
                raise ValueError(f"exponent {e} does not fit denominator {n}")
            coeffs[int(num)] = coeffs.get(int(num), Fraction(0)) + c
        return cls(n, coeffs)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, c in self.terms:
            e = Fraction(i, self.denom)
            if e == 1:
                mono = "x"
            elif e.denominator == 1:
                mono = f"x^{e.numerator}"
            else:
                mono = f"x^({e.numerator}/{e.denominator})"
            if c == 1:
                out.append(mono)
            elif c == -1:
                out.append(f"-{mono}")
            else:
                out.append(f"{fmt_q(c)}*{mono}")
        text = "+".join(out)
        return text.replace("+-", "-")

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self!s})"


# ---------------------------------------------------------------------------
# sparse bivariate polynomials
# ---------------------------------------------------------------------------


class BivariatePoly:
    """Exact sparse polynomial sum of c_{ij} x^i y^j."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        items = terms.items() if hasattr(terms, "items") else terms
        clean = {}
        for (i, j), c in items:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"exponents must be integers, got ({i!r}, {j!r})")
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be nonnegative, got ({i}, {j})")
            c = _as_coeff(c)
            if c:
                clean[(i, j)] = c
            else:  # in an item list a later entry replaces an earlier one
                clean.pop((i, j), None)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("BivariatePoly is immutable")

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_y(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no y-degree")
        return max(j for _, j in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    # -- queries ----------------------------------------------------------------

    def y_slices(self) -> dict:
        """x-coefficient dicts keyed by y-degree."""
        out: dict[int, dict[int, object]] = {}
        for (i, j), c in self.terms.items():
            out.setdefault(j, {})[i] = c
        return out

    def initial_form(self, omega) -> "BivariatePoly":
        """Terms on the face minimizing w1*i + w2*j (weights positive)."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no initial form")
        w1, w2 = omega
        lo = min(w1 * i + w2 * j for i, j in self.terms)
        kept = {k: c for k, c in self.terms.items() if w1 * k[0] + w2 * k[1] == lo}
        return BivariatePoly(kept)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        terms = sorted(self.terms.items())
        return {"terms": [[i, j, fmt_q(c)] for (i, j), c in terms]}

    @staticmethod
    def from_json(data: dict) -> "BivariatePoly":
        # a list, not a dict: (True, 0) and (1, 0) are one dict key
        return BivariatePoly([((i, j), parse_q(c)) for i, j, c in data["terms"]])

    def __repr__(self) -> str:
        if not self.terms:
            return "BivariatePoly(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
            mono = "".join(
                [f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else ""]
            )
            if not mono:
                bits.append(fmt_q(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{fmt_q(c)}*{mono}")
        return "BivariatePoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# minimal polynomial by power sums and Newton's identities
# ---------------------------------------------------------------------------


def _slot_offset(width: int, slots: int) -> int:
    """Half a slot, 2^(8*width - 1), in each of ``slots`` slots of ``width``
    bytes: added to a packed polynomial it makes every slot nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _power_sums(scaled: list, n: int, shift: int, slots: int, width: int) -> list:
    """Packed windows of the power sums p_i = n * [a^i]_(u-exponents divisible
    by n), i = 1..n+1, for a = u^shift * B(u) and B the sum of c u^i over
    ``scaled``: slot m of window i holds the coefficient of x^(o_i + m),
    o_i = ceil(i * shift / n), for m < ``slots``.

    a^i = u^(i shift) B^i, and the window reads B^i at u-exponents
    n o_i - i shift + n m < n slots only, so every power is taken modulo
    u^(n slots).  A polynomial is packed as the integer sum of c_k 2^(8 width k),
    so that big-integer products are polynomial products (Kronecker
    substitution); ``width`` must leave every coefficient below half a slot.
    """
    bits = 8 * width
    u_slots = n * slots
    offset = _slot_offset(width, u_slots)
    x_offset = _slot_offset(width, slots)
    mask = (1 << bits * u_slots) - 1
    stride = n * width
    series = sum(c << bits * i for i, c in scaled)
    power, sums = 1, []
    for i in range(1, n + 2):
        shifted = (power * series + offset) & mask  # signed slots, mod u^(n slots)
        power = shifted - offset
        data = shifted.to_bytes(u_slots * width, "little")
        start = (-i * shift) % n * width
        picked = b"".join(data[s:s + width] for s in range(start, u_slots * width, stride))
        sums.append(n * (int.from_bytes(picked, "little") - x_offset))
    return sums


def min_poly(a: PuiseuxSeries, cut=None) -> BivariatePoly:
    """Monic polynomial of degree index(a) whose roots are the conjugates of a.

    Without a cut the whole polynomial is returned; with
    ``cut = (wx, wy, cap)`` only the terms x^i y^j of weight wx*i + wy*j up
    to ``cap`` are computed and returned.

    With a(u) = A(u)/D for u = x^(1/n), an integer polynomial A and the
    common denominator D, the conjugates a(eps^k u) have the power sums
    p_j = n * [a^j]_(u-exponents divisible by n), and Newton's identities
    j e_j = sum_(i=1..j) (-1)^(i-1) e_(j-i) p_i give the elementary symmetric
    functions; the result is sum_j (-1)^j e_j y^(n-j).  The recurrence runs
    on E_j = D^j e_j, integer x-polynomials.  Each conjugate has order
    v/n, v the first u-exponent of a, so e_j and p_j start at x^o_j,
    o_j = ceil(j v / n), and since o_(j-i) + o_i is o_j or o_j + 1, every
    E_j and P_j is kept as the window of its first W coefficients, W as
    wide as the widest e_j asked for.  Windows are packed into big integers
    with slots wide enough for n 2^n S^(n+1), S the sum of |A|'s
    coefficients, which bounds every coefficient involved.

    Checks: every E_j is integral with coefficients at most binom(n, j) S^j.
    An uncut result must vanish at a, f(x, a) = 0, which certifies it; a cut
    one must have e_(n+1) = 0, by the identity at j = n + 1, over its window.
    """
    a = a.reduce()
    n = a.denom
    terms = a.terms
    if not terms:
        return BivariatePoly({(0, n): 1})
    shift, top = terms[0][0], terms[-1][0]
    order = [-(-j * shift // n) for j in range(n + 2)]  # o_j
    # e_j is wanted below x^limit[j]: its degree is at most j top / n
    limit = [j * top // n + 1 for j in range(n + 1)]
    if cut is not None:
        wx, wy, cap = cut
        limit = [min(t, (cap - wy * (n - j)) // wx + 1) for j, t in enumerate(limit)]
    slots = max(1, max(t - o for t, o in zip(limit, order)))

    den = lcm(*(Fraction(c).denominator for _, c in terms))
    scaled = [(i - shift, int(c * den)) for i, c in terms]
    total = sum(abs(c) for _, c in scaled)
    bound = (n << n) * total ** (n + 1)
    width = bound.bit_length() // 8 + 1  # bytes; half a slot exceeds the bound
    sums = _power_sums(scaled, n, shift, slots, width)

    bits = 8 * width
    half = 1 << bits - 1
    offset = _slot_offset(width, slots)
    mask = (1 << bits * slots) - 1
    out = {(0, n): 1}
    elem = [1]  # the windows of E_0, E_1, ..., packed
    coeff_lists = []  # the window coefficients of E_1, E_2, ...

    def newton(j):  # the window of j E_j, packed
        acc = 0
        for i in range(1, j + 1):
            term = elem[j - i] * sums[i - 1]
            if order[j - i] + order[i] > order[j]:
                term <<= bits
            if i % 2:
                acc += term
            else:
                acc -= term
        return acc

    for j in range(1, n + 1):
        shifted = (newton(j) + offset) & mask
        data = shifted.to_bytes(slots * width, "little")
        coeffs = [int.from_bytes(data[s:s + width], "little") - half
                  for s in range(0, slots * width, width)]
        if any(c % j for c in coeffs):
            raise InvariantViolation(f"Newton's identities left e_{j} non-integral")
        elem.append((shifted - offset) // j)
        coeff_lists.append([c // j for c in coeffs])
        # every product of j conjugates has coefficients of size at most S^j
        if max(map(abs, coeff_lists[-1])) > comb(n, j) * total ** j:
            raise InvariantViolation(f"e_{j} has a coefficient beyond binom(n, {j}) S^{j}")
        scale = (-1) ** j * den ** j
        for t, c in enumerate(coeff_lists[-1], start=order[j]):
            if c and t < limit[j]:
                out[(t, n - j)] = Fraction(c, scale) if den > 1 else c * scale
    if cut is None:
        # f(x, a) = 0: a monic f of degree n over Q[x] that vanishes at a
        # vanishes at every conjugate, so this certifies the whole result.
        # F(u) = sum_j (-1)^j E_j(u^n) A(u)^(n-j) has integer coefficients of
        # size below (n+1) slots 2^n S^n < 2^(w-1), so its value at u = 2^w
        # is zero exactly when F is
        w = ((n + 1) * slots * total ** n << n).bit_length() + 1
        at_a = sum(c << w * (i + shift) for i, c in scaled)
        value = 1
        for j, coeffs in enumerate(coeff_lists, start=1):
            e_j = sum(c << w * n * t for t, c in enumerate(coeffs, start=order[j]) if c)
            value = value * at_a + (-1) ** j * e_j
        if value:
            raise InvariantViolation("the conjugate product does not vanish at the series")
    # a product of n linear factors in y has no e_(n+1)
    elif (newton(n + 1) + offset) & mask != offset:
        raise InvariantViolation(f"Newton's identities leave e_{n + 1} nonzero")
    return BivariatePoly(out)


# ---------------------------------------------------------------------------
# derivatives, hat transforms, diagrams of polynomials
# ---------------------------------------------------------------------------


def derivative_y(f: BivariatePoly, k: int) -> BivariatePoly:
    """Exact k-th partial derivative with respect to y."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return f
    if f.is_zero() or k > f.degree_y():
        raise OrderExceedsDegree(f"order {k} exceeds the y-degree")
    out = {}
    for (i, j), c in f.terms.items():
        if j < k:
            continue
        factor = 1
        for t in range(j, j - k, -1):
            factor *= t
        out[(i, j - k)] = c * factor
    return BivariatePoly(out)


def hat_transform(f: BivariatePoly, n_sub: int, lam: PuiseuxSeries,
                  cut=None) -> BivariatePoly:
    """The substitution f(x^n_sub, y + lam(x^n_sub)).

    ``lam(x^n_sub)`` must have integer exponents, i.e. the index of ``lam``
    must divide ``n_sub``.

    With ``cut = (wx, wy, cap)`` every term x^i y^j of weight wx*i + wy*j
    above ``cap`` is left out.  The Horner scheme drops an intermediate term
    as soon as its lightest descendant is that heavy: with wx * ord(mu) >= wy
    a multiplication by y + mu never lowers a weight, so every term within
    the cap keeps all of its contributions.
    """
    if n_sub < 1:
        raise ValueError("substitution exponent must be positive")
    mu = {}
    for i, c in lam.terms:
        e = i * n_sub
        if e % lam.denom:
            raise NonIntegralSubstitution(
                f"exponent {i}/{lam.denom} * {n_sub} is not an integer"
            )
        mu[e // lam.denom] = c
    mu_items = sorted(mu.items())
    if cut is not None:
        wx, wy, cap = cut
        if wx < 1 or wy < 1:
            raise ValueError(f"cut weights must be positive, got ({wx}, {wy})")
        if mu_items and wx * mu_items[0][0] < wy:
            raise ValueError(f"y + x^{mu_items[0][0]} lowers the weight ({wx}, {wy})")

    slices = f.y_slices()
    rows: list = []  # rows[jy] = {i: c}, the x-polynomial at y^jy
    for j in range(max(slices, default=0), -1, -1):
        # rows <- rows * (y + mu) + c_j(x^n_sub); j multiplications follow,
        # so row jy keeps the exponents up to last[jy]
        last = [INF if cut is None else (cap - wy * (jy + j)) // wx
                for jy in range(len(rows) + 1)]
        out = []
        below: dict = {}  # row jy - 1 of the old rows, the y-shift into row jy
        for jy, row in enumerate(rows):
            top = last[jy]
            for i, c in row.items():
                room = top - i
                for e, m in mu_items:
                    if e > room:
                        break
                    below[i + e] = below.get(i + e, 0) + c * m
            out.append({i: c for i, c in below.items() if c})
            below = row
        out.append(below)
        row = out[0]
        for i, c in slices.get(j, {}).items():
            if i * n_sub <= last[0]:
                row[i * n_sub] = row.get(i * n_sub, 0) + c
        out[0] = {i: c for i, c in row.items() if c}
        rows = out
    return BivariatePoly({(i, jy): c for jy, row in enumerate(rows) for i, c in row.items()})


def row_starts(f: BivariatePoly) -> dict:
    """The smallest x-exponent in each y-row of f.  The Newton diagram of f
    is the hull of these points, and that of d^k f/dy^k is the hull of those
    in rows >= k, shifted down by k."""
    starts: dict = {}
    for i, j in f.terms:
        if i < starts.get(j, i + 1):
            starts[j] = i
    return starts


def diagram_of(f: BivariatePoly) -> diagram_mod.NewtonDiagram:
    """Newton diagram of the support of f, the hull of its row starts."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton diagram")
    return diagram_mod.from_support((i, j) for j, i in row_starts(f).items())


def _univariate_gcd_degree(p: list) -> int:
    """Degree of gcd(p, p') for a rational coefficient list (low to high)."""

    def normalize(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def derivative(v):
        return [Fraction(c * k) for k, c in enumerate(v) if k]

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and normalize(a):
            factor = Fraction(a[-1], b[-1])
            shift = len(a) - len(b)
            for t, c in enumerate(b):
                a[shift + t] -= factor * c
            a = normalize(a)
        return a

    a = normalize([Fraction(c) for c in p])
    b = normalize(derivative(a))
    while b:
        a, b = b, rem(a, b)
    return len(a) - 1


def edge_poly_squarefree(f: BivariatePoly, edge) -> bool:
    """Non-degeneracy on a compact edge: after stripping the y-power, the edge
    polynomial f_S(1, y) must be squarefree.

    The segment from (xa, ya) to (xb, yb), xa < xb and ya > yb, is a compact
    edge of the Newton polygon of f exactly when both endpoints carry
    support, no term lies strictly below its line and no term on the line
    lies beyond an endpoint; one pass over the terms checks this and gathers
    the edge coefficients.  Anything else raises EdgeNotOnPolygon.
    """
    off_polygon = f"{edge} is not a compact edge of the polygon"
    (xa, ya), (xb, yb) = edge
    if not (xa < xb and ya > yb):
        raise EdgeNotOnPolygon(off_polygon)
    dx, dy = xb - xa, ya - yb
    level = dy * xa + dx * ya
    coeffs = [Fraction(0)] * (dy + 1)
    for (i, j), c in f.terms.items():
        side = dy * i + dx * j - level
        if side < 0 or (side == 0 and not xa <= i <= xb):
            raise EdgeNotOnPolygon(off_polygon)
        if side == 0:
            coeffs[j - yb] += Fraction(c)
    if not (coeffs[0] and coeffs[-1]):
        raise EdgeNotOnPolygon(off_polygon)
    return _univariate_gcd_degree(coeffs) == 0


def binomial_power(scale, a_coeff, n_pow: int, m_exp: int, e_pow: int,
                   x_shift: int) -> BivariatePoly:
    """scale * x^x_shift * (y^n_pow - a_coeff^n_pow * x^m_exp)^e_pow, expanded."""
    a_n = Fraction(a_coeff) ** n_pow
    terms = {}
    for t in range(e_pow + 1):
        c = Fraction(scale) * comb(e_pow, t) * (-a_n) ** t
        terms[(x_shift + t * m_exp, n_pow * (e_pow - t))] = c
    return BivariatePoly(terms)
