"""Finite Puiseux series over exact rationals and sparse bivariate polynomials.

A :class:`PuiseuxSeries` is a finite sum of terms ``a_i x^(i/n)`` keyed by
the exponent numerator ``i``, where ``n`` is the index of the series, the
least denominator of its exponents: the constructor divides ``n`` and every
numerator by their gcd, so each series has exactly one stored form.

A :class:`BivariatePoly` is an exact sparse polynomial in (x, y) with
rational coefficients, stored as ints wherever they are whole, in rows:
``rows`` maps each y-degree j to the dict {i: c} of the terms c x^i y^j,
and holds no empty row.  ``terms``, the {(i, j): c} view, is built on
demand for callers outside the module; nothing here reads it.  The public
constructor checks every exponent and coefficient of outside input; the
polynomials this module builds itself (:func:`min_poly`,
:func:`hat_transform`, :func:`derivative_y`, :func:`row_starts`) go
through ``_poly``, the one other constructor: it writes their rows
directly, skips those checks and only clears zeros and whole Fractions.  The
only way terms are dropped is a weight cut ``(wx, wy, cap)``, taken by
:func:`min_poly` and :func:`hat_transform`: every term x^i y^j with
wx*i + wy*j above ``cap`` is left out.  :func:`hat_transform` composes one
monomial shift y -> y + c x^e per term of the substituted series and cuts
after each: a shift never lowers a weight, so a term past the cap only
makes terms past the cap.  The readers take one term per row, its first,
least x-exponent: :func:`diagram_of`, the Newton diagram, hulls the rows'
first terms, and :func:`edge_poly`, the coefficients on a compact edge,
reads the first term of each row, the only one that can reach a supporting
line; :func:`row_starts` keeps just those terms, and the row starts of a
y-derivative are the derivative of the row starts.

The centrepiece is :func:`min_poly`: the monic polynomial whose roots are the
conjugates of a series, taken along the 2-adic tower of its index
n = 2^s q, q odd.  Over t = x^(1/2^s) the series has index q, and the power
sums of its q conjugates are q times the part of a^j whose exponents are
integers; Newton's identities turn them into coefficients, every product
one big-integer product of packed coefficients.  Then s Graeffe steps
G(t, y) G(-t, y), exact products of integer terms, each cut to a cap of its
own, double the degree until t^(2^s) = x.  The work is polynomial in q and
in the size of the cut result, and no cyclotomic arithmetic is ever needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm, perm
from types import MappingProxyType

from . import charclass
from . import diagram as diagram_mod
from .errors import (
    EdgeNotOnPolygon,
    InvalidCharacteristic,
    InvariantViolation,
    NonIntegralSubstitution,
    OrderExceedsDegree,
    ZeroPolynomial,
    integers,
)

__all__ = [
    "PuiseuxSeries",
    "BivariatePoly",
    "min_poly",
    "derivative_y",
    "hat_transform",
    "diagram_of",
    "row_starts",
    "edge_poly",
    "edge_poly_squarefree",
]

def _as_coeff(value):
    # ints stay ints (fast arithmetic); other exact rationals become Fractions.
    # A float would be taken at its binary value and True as 1, so both are
    # refused.
    if type(value) is int:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"coefficients must be exact rationals, got {value!r}")
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True, slots=True)
class PuiseuxSeries:
    """A finite Puiseux series with exact rational coefficients, stored over
    its index: ``gcd(denom, *numerators) == 1``."""

    denom: int
    terms: tuple

    def __init__(self, denom: int, coeffs: dict):
        # bool is a subclass of int, and gcd refuses floats with a TypeError
        if type(denom) is not int or denom < 1:
            raise ValueError(f"denominator must be a positive integer, got {denom!r}")
        terms = []
        for i, c in coeffs.items():
            # bool is a subclass of int, and int() would truncate floats
            if type(i) is not int:
                raise ValueError(f"exponent numerators must be integers, got {i!r}")
            if i <= 0:
                raise ValueError(f"exponent numerators must be positive, got {i}")
            c = _as_coeff(c)
            if c:
                terms.append((i, c))
        terms.sort()
        g = gcd(denom, *(i for i, _ in terms))
        if g > 1:
            denom //= g
            terms = [(i // g, c) for i, c in terms]
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "terms", tuple(terms))

    # -- analytic queries -----------------------------------------------------

    def characteristic(self) -> charclass.CharSequence:
        """Extract (b0,...,bh) by gcd descent over the exponents.

        b0 is the index of the series, its stored denominator, and the series
        must have order at least 1.
        """
        if not self.terms:
            raise InvalidCharacteristic("the zero series has no characteristic")
        if self.terms[0][0] < self.denom:
            raise InvalidCharacteristic(
                f"order {Fraction(self.terms[0][0], self.denom)} < 1; not a branch root"
            )
        if self.denom == 1:
            raise InvalidCharacteristic("series of index 1 parametrizes a smooth branch")
        b = [self.denom]
        e = self.denom
        for i, _ in self.terms:
            g = gcd(e, i)
            if g < e:
                b.append(i)
                e = g
                if e == 1:
                    break
        return charclass.new_char_sequence(b)

    # -- text form --------------------------------------------------------------

    # a denominator has a nonzero digit, so 1/0 is refused like any other bad
    # term; a fractional exponent needs both parentheses, x^(3/2), not x^3/2
    _TERM_RE = re.compile(r"^(?:(?P<coef>[+-]?\d+(?:/0*[1-9]\d*)?)\*)?(?P<sign>[+-]?)"
                          r"x(?:\^(?:\((?P<exp>\d+(?:/0*[1-9]\d*)?)\)|(?P<whole>\d+)))?$")

    @classmethod
    def from_string(cls, text: str) -> "PuiseuxSeries":
        """Parse e.g. "x^(4/3)+x^2+x^(31/12)" or "3/2*x^(7/5)-x^2"."""
        compact = text.replace(" ", "")
        if compact in ("", "0"):
            return cls(1, {})
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
            exp = Fraction(m.group("exp") or m.group("whole") or 1)
            parsed.append((exp, coef))
        n = lcm(*[e.denominator for e, _ in parsed])
        coeffs: dict[int, Fraction] = {}
        for e, c in parsed:
            num = int(e * n)
            coeffs[num] = coeffs.get(num, Fraction(0)) + c
        return cls(n, coeffs)


# ---------------------------------------------------------------------------
# sparse bivariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BivariatePoly:
    """Exact sparse polynomial sum of c_{ij} x^i y^j, stored as ``rows``:
    each y-degree j maps to the dict {i: c} of its row, and no row is empty."""

    rows: dict

    def __init__(self, terms: dict):
        rows = {}
        for (i, j), c in terms.items():
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"exponents must be integers, got ({i!r}, {j!r})")
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be nonnegative, got ({i}, {j})")
            c = _as_coeff(c)
            if c:
                rows.setdefault(j, {})[i] = c
        object.__setattr__(self, "rows", rows)

    # -- queries ----------------------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """A read-only {(i, j): c} view of every term, built from the rows."""
        return MappingProxyType({(i, j): c for j, row in self.rows.items() for i, c in row.items()})

    def is_zero(self) -> bool:
        return not self.rows


def _poly(rows) -> BivariatePoly:
    """A polynomial this module built itself, from (j, {i: c}) pairs: its
    exponents are nonnegative ints and its coefficients ints or Fractions,
    so the checks of ``BivariatePoly(...)`` are not run again.  What
    ``_as_coeff`` would store is still stored, row by row: no zero
    coefficient, an int for a whole Fraction (1/2 + 1/2 in a hat,
    Fraction(c, scale) in ``min_poly``), and no empty row."""
    p = object.__new__(BivariatePoly)
    clean = {}
    for j, row in rows:
        row = {i: c.numerator if type(c) is Fraction and c.denominator == 1 else c
               for i, c in row.items() if c}
        if row:
            clean[j] = row
    object.__setattr__(p, "rows", clean)
    return p


def _read_cut(cut) -> tuple:
    """A weight cut ``(wx, wy, cap)`` as three ints, read as the package
    reads every number a caller passes, with both weights at least 1."""
    wx, wy, cap = integers(cut, ValueError)
    if wx < 1 or wy < 1:
        raise ValueError(f"cut weights must be positive, got ({wx}, {wy})")
    return wx, wy, cap


# ---------------------------------------------------------------------------
# minimal polynomial: power sums over the odd part, then Graeffe steps
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


def _odd_part(scaled: list, q: int, shift: int, total: int, cut) -> dict:
    """The product over the q conjugates of a = u^shift B(u) / D, u = t^(1/q)
    and B the sum of c u^i over ``scaled``, by power sums and Newton's
    identities, by rows: {j: {i: c}} for the terms c t^i Y^j of
    D^q G(t, Y / D), the terms of weight wx*i + wy*j above the cap
    ``cut = (wx, wy, cap)`` left out and Y^q kept.

    The power sums are p_j = q * [a^j]_(u-exponents divisible by q), and
    j e_j = sum_(i=1..j) (-1)^(i-1) e_(j-i) p_i gives the elementary
    symmetric functions; the recurrence runs on E_j = D^j e_j, integer
    t-polynomials, and D^q G = sum_j (-1)^j E_j Y^(q-j).  Each conjugate has
    order v/q, v = shift, so e_j and p_j start at t^o_j, o_j = ceil(j v / q),
    and since o_(j-i) + o_i is o_j or o_j + 1, every E_j and P_j is kept as
    the window of its first W coefficients, W as wide as the widest e_j
    asked for.  Windows are packed into big integers with slots wide enough
    for q 2^q S^(q+1), S the sum of |B|'s coefficients, which bounds every
    coefficient involved.

    Checks: every E_j is integral with coefficients at most binom(q, j) S^j,
    and e_(q+1) = 0, by the identity at j = q + 1, over its window.
    """
    top = scaled[-1][0] + shift
    order = [-(-j * shift // q) for j in range(q + 2)]  # o_j
    # e_j is wanted below t^limit[j]: its degree is at most j top / q
    wx, wy, cap = cut
    limit = [min(j * top // q, (cap - wy * (q - j)) // wx) + 1 for j in range(q + 1)]
    slots = max(1, max(t - o for t, o in zip(limit, order)))

    bound = (q << q) * total ** (q + 1)
    width = bound.bit_length() // 8 + 1  # bytes; half a slot exceeds the bound
    sums = _power_sums(scaled, q, shift, slots, width)

    bits = 8 * width
    half = 1 << bits - 1
    offset = _slot_offset(width, slots)
    mask = (1 << bits * slots) - 1
    out = {q: {0: 1}}
    elem = [1]  # the windows of E_0, E_1, ..., packed

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

    for j in range(1, q + 1):
        shifted = (newton(j) + offset) & mask
        data = shifted.to_bytes(slots * width, "little")
        coeffs = [int.from_bytes(data[s:s + width], "little") - half
                  for s in range(0, slots * width, width)]
        if any(c % j for c in coeffs):
            raise InvariantViolation(f"Newton's identities left e_{j} non-integral")
        elem.append((shifted - offset) // j)
        coeffs = [c // j for c in coeffs]
        # every product of j conjugates has coefficients of size at most S^j
        if max(map(abs, coeffs)) > comb(q, j) * total ** j:
            raise InvariantViolation(f"e_{j} has a coefficient beyond binom(q, {j}) S^{j}")
        row = out[q - j] = {}
        for t, c in enumerate(coeffs, start=order[j]):
            if c and t < limit[j]:
                row[t] = -c if j % 2 else c
    # a product of q linear factors in y has no e_(q+1)
    if (newton(q + 1) + offset) & mask != offset:
        raise InvariantViolation(f"Newton's identities leave e_{q + 1} nonzero")
    return out


def _graeffe_step(even: list, odd: list, cap: int, size: int) -> dict:
    """G(T, y) G(-T, y) = E(T^2, y)^2 - T^2 O(T^2, y)^2 for
    G = E(T^2, y) + T O(T^2, y), from the terms of G with even and with odd
    T-exponents.

    A term is a pair (key, c), key = w size + j for a term of weight w and
    y-degree j < size, so keys add as the monomials multiply and sort by
    weight.  Only pairs of terms of the same parity meet, with sign + for
    even and - for odd ones, and product terms heavier than ``cap`` are
    dropped: with each side sorted, a term's partners stop at the first one
    past the room left.
    """
    bound = (cap + 1) * size  # key1 + key2 < bound: weight within the cap
    out: dict = {}
    get = out.get
    for side, sign in ((sorted(even), 1), (sorted(odd), -1)):
        for k, (key, c) in enumerate(side):
            room = bound - key
            if key >= room:
                break  # and so is every later pair
            out[key + key] = get(key + key, 0) + sign * c * c
            c *= 2 * sign
            for key2, c2 in islice(side, k + 1, None):
                if key2 >= room:
                    break
                out[key + key2] = get(key + key2, 0) + c * c2
    return {key: c for key, c in out.items() if c}


def min_poly(a: PuiseuxSeries, cut=None) -> BivariatePoly:
    """Monic polynomial of degree a.denom, the index of a, whose roots are the
    conjugates of a.

    Without a cut the whole polynomial is returned; with
    ``cut = (wx, wy, cap)``, integers with wx, wy >= 1, only the terms
    x^i y^j of weight wx*i + wy*j up to ``cap`` are computed and returned,
    and y^n is kept whatever the cap.

    The conjugate product is taken along the 2-adic tower of the index.
    With n = 2^s q, q odd, and t = x^(1/2^s), a is a series in t of index q:
    its q conjugates over Q((t)) have the product G_0(t, y), which
    ``_odd_part`` computes by power sums, in slots sized for q 2^q S^(q+1).
    Then s Graeffe steps, G_(r+1)(t^(2^(r+1)), y) = G_r(t^(2^r), y)
    G_r(-t^(2^r), y), each an exact product of integer terms, pair the
    conjugates that differ by a sign of t^(2^r), and G_s is the product in
    (x, y).  The steps run on D^d G_r(t, Y / D), Y = D y of y-degree d and
    D the common denominator of a, so every coefficient is an integer.

    The cut carries down the tower.  Let m = min(wy, wx ord a), the least
    weight per y-degree of a factor y - a_c.  G_r, of y-degree d = 2^r q, is
    one of n/d conjugate copies whose product is the result, and each of
    the others has no term lighter than m d.  So the terms of G_r heavier
    than cap - m (n - d) touch no term within the cap and are dropped.  In
    t-units, where an x-exponent weighs 2^s wx and y weighs 2^s wy, every
    such cap is an integer.

    Checks.  Every call runs ``_odd_part``'s: each E_j integral with
    coefficients at most binom(q, j) S^j, and e_(q+1) = 0 over its window.
    For odd n, G_0 is the result, so these check a cut result as they
    always have.  An uncut result must also vanish at a, f(x, a) = 0: a
    monic f of degree n over Q[x] that vanishes at a vanishes at every
    conjugate, so this certifies the whole result, power sums and Graeffe
    steps alike.  Nothing checks the Graeffe steps of a cut result at run
    time; they are exact integer products, tested against the cyclotomic
    oracle.
    """
    n = a.denom
    terms = a.terms
    if not terms:
        return _poly([(n, {0: 1})])
    shift, top = terms[0][0], terms[-1][0]
    den = lcm(*(c.denominator for _, c in terms))
    scaled = [(i - shift, int(c * den)) for i, c in terms]
    total = sum(abs(c) for _, c in scaled)
    s = (n & -n).bit_length() - 1
    q = n >> s
    # an uncut result is cut where nothing is lost: e_j has x-degree at
    # most j top / n, so every term x^i y^(n-j) has i + n - j <= top + n
    wx, wy, cap = (1, 1, top + n) if cut is None else _read_cut(cut)
    wy <<= s  # t-units
    cap <<= s
    least = min(q * wy, wx * shift)  # m q in t-units
    g = _odd_part(scaled, q, shift, total, (wx, wy, cap - ((1 << s) - 1) * least))
    if s:
        size = n + 1  # above every y-degree
        keys = {(wx * e + wy * j) * size + j: c for j, row in g.items() for e, c in row.items()}
        for r in range(s):
            sides = ([], [])  # the terms of even and odd t^(2^r)-exponent
            for key, c in keys.items():
                w, j = divmod(key, size)
                sides[(w - wy * j) // wx >> r & 1].append((key, c))
            keys = _graeffe_step(*sides, cap - ((1 << s) - (2 << r)) * least, size)
        g = {}
        for key, c in keys.items():
            w, j = divmod(key, size)
            g.setdefault(j, {})[(w - wy * j) // wx >> s] = c
    g[n] = {0: 1}
    if cut is None:
        # F(u) = sum c u^(n i) A(u)^j over the terms c x^i Y^j, A = D a, is
        # D^n f(x, a); its coefficients are below sum_j |f_j|_1 S^j, the sum
        # over the Y-rows of their coefficient sums, so its value at u = 2^w,
        # w one bit past that bound, is zero exactly when F is
        w = sum(sum(map(abs, row.values())) * total ** j
                for j, row in g.items()).bit_length() + 1
        at_a = sum(c << w * (i + shift) for i, c in scaled)
        value = 0
        for j in range(n, -1, -1):
            value = value * at_a + sum(c << w * n * i for i, c in g.get(j, {}).items())
        if value:
            raise InvariantViolation("the conjugate product does not vanish at the series")
    if den > 1:
        for j, row in g.items():
            scale = den ** (n - j)
            g[j] = {i: Fraction(c, scale) for i, c in row.items()}
    return _poly(g.items())


# ---------------------------------------------------------------------------
# derivatives, hat transforms, diagrams of polynomials
# ---------------------------------------------------------------------------


def derivative_y(f: BivariatePoly, k: int) -> BivariatePoly:
    """Exact k-th partial derivative with respect to y."""
    if type(k) is not int or k < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k!r}")
    if k == 0:
        return f
    if k > max(f.rows, default=-1):
        raise OrderExceedsDegree(f"order {k} exceeds the y-degree")
    # row j >= k times j!/(j-k)! moves to row j - k
    return _poly((j - k, {i: c * perm(j, k) for i, c in row.items()})
                 for j, row in f.rows.items() if j >= k)


def hat_transform(f: BivariatePoly, n_sub: int, lam: PuiseuxSeries,
                  cut=None) -> BivariatePoly:
    """The substitution f(x^n_sub, y + lam(x^n_sub)).

    ``lam(x^n_sub)`` must have integer exponents, i.e. the index of ``lam``
    must divide ``n_sub``.

    With mu = lam(x^n_sub) the substitution y -> y + mu is the composition
    of one monomial shift y -> y + c x^e per term of mu, since
    f(y + mu_1 + mu_2) = (f(y + mu_1))(y + mu_2).  Starting from f with x
    scaled to x^n_sub, each shift turns a term a x^i y^j into the terms
    binom(j, s) c^s a x^(i + s e) y^(j - s), s = 0..j.

    With ``cut = (wx, wy, cap)``, integers with wx, wy >= 1, every term
    x^i y^j of weight wx*i + wy*j above ``cap`` is left out, after scaling
    and after every shift.  Step s of a shift raises a term's weight by
    s (wx e - wy), never negative since a lowering substitution,
    wx * ord(mu) < wy, is refused.  So a term past the cap only makes
    terms past the cap, and the cut drops nothing that the result keeps.

    Without a cut nothing is left out: the weight is (1, 1) and the cap the
    largest i n_sub + j h over the terms x^i y^j of f, h the top exponent
    of mu (1 for mu = 0).  Every exponent of mu is at least 1, so after all
    shifts a term weighs at most i n_sub + (sum of its steps) h + j - (sum
    of its steps), which is at most i n_sub + j h.
    """
    if type(n_sub) is not int or n_sub < 1:
        raise ValueError(f"substitution exponent must be a positive integer, got {n_sub!r}")
    mu = []  # the terms (e, c) of lam(x^n_sub), c x^e, by increasing e
    for i, c in lam.terms:
        e = i * n_sub
        if e % lam.denom:
            raise NonIntegralSubstitution(
                f"exponent {i}/{lam.denom} * {n_sub} is not an integer"
            )
        mu.append((e // lam.denom, c))
    degree = max(f.rows, default=0)
    if cut is None:
        high = mu[-1][0] if mu else 1
        cut = (1, 1, max((n_sub * max(row) + j * high for j, row in f.rows.items()), default=0))
    wx, wy, cap = _read_cut(cut)
    if mu and wx * mu[0][0] < wy:
        raise ValueError(f"y + x^{mu[0][0]} lowers the weight ({wx}, {wy})")

    rows: list = [{} for _ in range(degree + 1)]  # rows[r] = {i: c}, the x-polynomial at y^r
    for j, f_j in f.rows.items():
        top = (cap - wy * j) // wx
        rows[j] = {i * n_sub: c for i, c in f_j.items() if i * n_sub <= top}
    for e, c in mu:
        rise = wx * e - wy  # the weight one step adds
        shifted = [{} for _ in range(degree + 1)]
        for j, row in enumerate(rows):
            # step s takes a x^i y^j to binom(j, s) c^s a x^(i + s e) y^(j - s)
            steps = list(zip(shifted[j::-1], [comb(j, s) * c ** s for s in range(j + 1)]))
            for i, a in row.items():
                kept = steps[:(cap - wx * i - wy * j) // rise + 1] if rise else steps
                for target, scale in kept:
                    target[i] = target.get(i, 0) + scale * a
                    i += e
        rows = shifted
    return _poly(enumerate(rows))


def diagram_of(f: BivariatePoly) -> diagram_mod.NewtonDiagram:
    """Newton diagram of f: the hull of its row starts."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton diagram")
    return diagram_mod.from_support([(min(row), j) for j, row in f.rows.items()])


def row_starts(f: BivariatePoly) -> BivariatePoly:
    """The first term of each row of f, its least x-exponent: all that
    :func:`diagram_of` and :func:`edge_poly` read.  Their k-th y-derivative
    is the row starts of d^k f/dy^k, since over Q no coefficient
    j!/(j-k)! c vanishes."""
    starts = []
    for j, row in f.rows.items():
        i = min(row)
        starts.append((j, {i: row[i]}))
    return _poly(starts)


def _primitive(v: list) -> list:
    """v over the gcd of its coefficients, once its high zeros are popped."""
    while v and not v[-1]:
        v.pop()
    g = gcd(*v)
    return [c // g for c in v] if g > 1 else v


def _univariate_gcd_degree(p: list) -> int:
    """Degree of gcd(p, p') for a rational coefficient list (low to high),
    -1 for the zero polynomial.

    The denominators are cleared once, then the primitive polynomial
    remainder sequence runs in integers (G. E. Collins, J. ACM 14, 1967):
    each pseudo-remainder, made by cancelling leading terms with integer
    multiples, is divided by its content, so the coefficients stay near the
    size of the inputs' instead of growing like Euclid's over Q."""
    if any(type(c) is not int for c in p):
        den = lcm(*(c.denominator for c in p))
        p = [c.numerator * (den // c.denominator) for c in p]
    a = _primitive(list(p))
    b = _primitive([t * c for t, c in enumerate(a) if t])
    while b:
        lead, top = b[-1], len(b) - 1
        while len(a) > top:
            g = gcd(a[-1], lead)
            u, v = lead // g, a[-1] // g
            shift = len(a) - 1 - top
            a = [u * c for c in a[:-1]]
            for t, c in enumerate(b[:-1], start=shift):
                a[t] -= v * c
            while a and not a[-1]:
                a.pop()
        a, b = b, _primitive(a)
    return len(a) - 1


def edge_poly(f: BivariatePoly, edge) -> list:
    """The coefficients of f on a compact edge, as stored, by y-exponent from
    the lower endpoint up: entry j - yb is the coefficient of the term on the
    edge's line in row j, 0 where there is none.

    The segment from (xa, ya) to (xb, yb), xa < xb and ya > yb, is a compact
    edge of the Newton polygon of f exactly when both endpoints carry
    support, no term lies strictly below its line and no term on the line
    lies beyond an endpoint.  Along a row the terms move away from the line
    as i grows, so only the first term of each row, its least i, can lie
    below the line or on it: one pass over the rows' first terms checks
    this and gathers the coefficients.  An endpoint that is not a pair of
    ints raises ValueError, any other segment EdgeNotOnPolygon.
    """
    off_polygon = f"{edge} is not a compact edge of the polygon"
    (xa, ya), (xb, yb) = edge
    # bool is a subclass of int, and a float would pass every comparison
    if any(type(v) is not int for v in (xa, ya, xb, yb)):
        raise ValueError(f"edge endpoints must be lattice points, got {edge!r}")
    if not (xa < xb and ya > yb):
        raise EdgeNotOnPolygon(off_polygon)
    dx, dy = xb - xa, ya - yb
    level = dy * xa + dx * ya
    coeffs = [0] * (dy + 1)
    for j, row in f.rows.items():
        i = min(row)
        side = dy * i + dx * j - level
        if side < 0 or (side == 0 and not xa <= i <= xb):
            raise EdgeNotOnPolygon(off_polygon)
        if side == 0:
            coeffs[j - yb] = row[i]
    if not (coeffs[0] and coeffs[-1]):
        raise EdgeNotOnPolygon(off_polygon)
    return coeffs


def edge_poly_squarefree(f: BivariatePoly, edge) -> bool:
    """Non-degeneracy on a compact edge: after stripping the y-power, the edge
    polynomial f_S(1, y) must be squarefree.  Anything but a compact edge
    raises EdgeNotOnPolygon."""
    return _univariate_gcd_degree(edge_poly(f, edge)) == 0
