"""Truncated Puiseux series over exact rationals and sparse bivariate polynomials.

A :class:`PuiseuxSeries` stores terms ``a_i x^(i/n)`` keyed by the exponent
numerator ``i`` for a fixed working denominator ``n``.  An optional truncation
bound ``T`` records that exponents ``i >= T`` are unknown; queries whose answer
could depend on the discarded tail return :class:`Unknown` instead of a wrong
value.

A :class:`BivariatePoly` is a sparse polynomial in (x, y) with exact rational
coefficients and an optional x-truncation carried through every operation.
The centrepiece is :func:`min_poly`: the monic polynomial whose roots are the
conjugates of a series.  It is computed as an iterated norm along the gcd
chain of the exponents - at each level the conjugate product over one subgroup
of roots of unity is the determinant of a small multiplication matrix over the
next coefficient ring down, so every intermediate result stays rational and no
cyclotomic arithmetic is ever needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from . import charclass
from . import diagram as diagram_mod
from .errors import (
    EdgeNotOnPolygon,
    IndexMismatch,
    InvalidCharacteristic,
    NonIntegralSubstitution,
    OrderExceedsDegree,
    TruncationTooShort,
    ZeroPolynomial,
)
from .rational import fmt_q, parse_q

__all__ = [
    "INF",
    "Unknown",
    "PuiseuxSeries",
    "Conjugate",
    "BivariatePoly",
    "contact",
    "min_poly",
    "derivative_y",
    "hat_transform",
    "diagram_of",
    "edge_poly_squarefree",
    "truncation_orbit",
]

INF = float("inf")


@dataclass(frozen=True)
class Unknown:
    """A quantity that is only bounded below because of truncation."""

    at_least: Fraction

    def __repr__(self) -> str:
        return f"Unknown(>= {self.at_least})"


def _as_coeff(value):
    # ints stay ints (fast arithmetic); everything else becomes a Fraction
    if isinstance(value, int):
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


class PuiseuxSeries:
    """An exact-rational Puiseux series truncated at ``x^(trunc_bound/denom)``."""

    __slots__ = ("denom", "terms", "trunc_bound")

    def __init__(self, denom: int, coeffs, trunc_bound: int | None = None):
        if denom < 1:
            raise ValueError(f"denominator must be positive, got {denom}")
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        terms = []
        for i, c in items:
            i = int(i)
            if i <= 0:
                raise ValueError(f"exponent numerators must be positive, got {i}")
            if trunc_bound is not None and i >= trunc_bound:
                continue
            c = _as_coeff(c)
            if c:
                terms.append((i, c))
        terms.sort()
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "trunc_bound", trunc_bound)

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

    def index(self) -> int:
        """The smallest m with the series in Q[[x^(1/m)]], from known terms."""
        g = self.denom
        for i, _ in self.terms:
            g = gcd(g, i)
        return self.denom // g

    def reduce(self) -> "PuiseuxSeries":
        """Rewrite over the minimal denominator (the index of the known part)."""
        g = self.denom
        for i, _ in self.terms:
            g = gcd(g, i)
        if g == 1:
            return self
        bound = None
        if self.trunc_bound is not None:
            bound = -(-self.trunc_bound // g)
        return PuiseuxSeries(self.denom // g, [(i // g, c) for i, c in self.terms], bound)

    def rescale(self, new_denom: int) -> "PuiseuxSeries":
        """Rewrite over a larger denominator (a multiple of the current one)."""
        if new_denom % self.denom:
            raise ValueError(f"{new_denom} is not a multiple of {self.denom}")
        f = new_denom // self.denom
        if f == 1:
            return self
        bound = None if self.trunc_bound is None else self.trunc_bound * f
        return PuiseuxSeries(new_denom, [(i * f, c) for i, c in self.terms], bound)

    # -- analytic queries -----------------------------------------------------

    def ord(self):
        """Smallest exponent with nonzero coefficient; +inf for the untruncated
        zero series, Unknown(T/n) for a series that is empty up to truncation."""
        if self.terms:
            return Fraction(self.terms[0][0], self.denom)
        if self.trunc_bound is None:
            return INF
        return Unknown(Fraction(self.trunc_bound, self.denom))

    def truncate_below(self, cutoff) -> "PuiseuxSeries":
        """Keep exactly the terms of exponent strictly less than ``cutoff``."""
        if cutoff == INF:
            return self
        cut = Fraction(cutoff)
        kept = [(i, c) for i, c in self.terms if Fraction(i, self.denom) < cut]
        bound = self.trunc_bound
        if bound is None or cut * self.denom <= bound:
            bound = None  # everything below the cutoff is fully known
        return PuiseuxSeries(self.denom, kept, bound)

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
        known_gcd = self.denom
        for i, _ in self.terms:
            known_gcd = gcd(known_gcd, i)
        if known_gcd > 1:
            if self.trunc_bound is not None:
                raise TruncationTooShort(
                    f"gcd chain stuck at {known_gcd} before exponent {self.trunc_bound}"
                )
            raise IndexMismatch(
                f"series has index {self.denom // known_gcd}, not {self.denom}; reduce first"
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
        assert e == 1
        return charclass.new_char_sequence(b)

    def conjugate(self, e_index: int) -> "Conjugate":
        return Conjugate(self, e_index % self.denom)

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other: "PuiseuxSeries"):
        n = lcm(self.denom, other.denom)
        return self.rescale(n), other.rescale(n)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.denom, [(i, -c) for i, c in self.terms], self.trunc_bound)

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        a, b = self._common(other)
        merged = dict(a.terms)
        for i, c in b.terms:
            merged[i] = merged.get(i, 0) + c
        bound = None
        for t in (a.trunc_bound, b.trunc_bound):
            if t is not None:
                bound = t if bound is None else min(bound, t)
        return PuiseuxSeries(a.denom, merged, bound)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._common(other)
        return a.terms == b.terms and a.trunc_bound == b.trunc_bound

    def __hash__(self):
        r = self.reduce()
        return hash((r.denom, r.terms, r.trunc_bound))

    # -- text form --------------------------------------------------------------

    _TERM_RE = re.compile(
        r"^(?:(?P<coef>[+-]?\d+(?:/\d+)?)\*)?(?P<sign>[+-]?)x(?:\^\(?(?P<exp>\d+(?:/\d+)?)\)?)?$"
    )

    @classmethod
    def from_string(cls, text: str, denom: int | None = None,
                    trunc_bound: int | None = None) -> "PuiseuxSeries":
        """Parse e.g. "x^(4/3)+x^2+x^(31/12)" or "3/2*x^(7/5)-x^2"."""
        compact = text.replace(" ", "")
        if compact in ("", "0"):
            return cls(denom or 1, [], trunc_bound)
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
        return cls(n, coeffs, trunc_bound)

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
        tail = "" if self.trunc_bound is None else f" + O(x^({self.trunc_bound}/{self.denom}))"
        return f"PuiseuxSeries({self!s}{tail})"


@dataclass(frozen=True)
class Conjugate:
    """Symbolic conjugate a(eps^i x^(1/n)) for eps = exp(2 pi i/n).

    Only a descriptor: coefficients are cyclotomic in general and are never
    expanded over the rationals except when every multiplier is +-1.
    """

    series: PuiseuxSeries
    root_index: int

    @property
    def is_identity(self) -> bool:
        n = self.series.denom
        return all((i * self.root_index) % n == 0 for i, _ in self.series.terms)

    def materialize(self) -> PuiseuxSeries:
        n = self.series.denom
        out = []
        for i, c in self.series.terms:
            r = (i * self.root_index) % n
            if r == 0:
                out.append((i, c))
            elif 2 * r == n:
                out.append((i, -c))
            else:
                raise ValueError(
                    f"conjugate multiplier at exponent {i}/{n} is not rational"
                )
        return PuiseuxSeries(n, out, self.series.trunc_bound)


def contact(a: PuiseuxSeries, b: PuiseuxSeries):
    """ord(a - b); Unknown when the difference vanishes up to truncation."""
    return (a - b).ord()


def truncation_orbit(a: PuiseuxSeries, cutoff) -> int:
    """Number of distinct conjugate truncations keeping exponents <= cutoff."""
    cut = Fraction(cutoff) if cutoff != INF else None
    g = a.denom
    for i, _ in a.terms:
        if cut is None or Fraction(i, a.denom) <= cut:
            g = gcd(g, i)
    return a.denom // g


# ---------------------------------------------------------------------------
# sparse bivariate polynomials
# ---------------------------------------------------------------------------


class BivariatePoly:
    """Sparse polynomial sum of c_{ij} x^i y^j, tracked modulo x^trunc."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc: int | None = None):
        items = terms.items() if hasattr(terms, "items") else terms
        clean = {}
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be nonnegative, got ({i}, {j})")
            if trunc is not None and i >= trunc:
                continue
            c = _as_coeff(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("BivariatePoly is immutable")

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_y(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no y-degree")
        return max(j for _, j in self.terms)

    def ord_x(self) -> int:
        return min((i for i, _ in self.terms), default=0)

    def _merge_trunc(self, other: "BivariatePoly", product: bool) -> int | None:
        ta, tb = self.trunc, other.trunc
        if not product:
            if ta is None:
                return tb
            if tb is None:
                return ta
            return min(ta, tb)
        bounds = []
        if ta is not None:
            bounds.append(ta + other.ord_x())
        if tb is not None:
            bounds.append(tb + self.ord_x())
        return min(bounds) if bounds else None

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return BivariatePoly(out, self._merge_trunc(other, product=False))

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return BivariatePoly(out, self._merge_trunc(other, product=False))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariatePoly(
                {k: c * other for k, c in self.terms.items()}, self.trunc
            )
        bound = self._merge_trunc(other, product=True)
        return BivariatePoly(_dict_mul(self.terms, other.terms, bound), bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

    # -- queries ----------------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self.terms.get((i, j), 0))

    def y_slices(self) -> dict:
        """x-coefficient dicts keyed by y-degree."""
        out: dict[int, dict[int, object]] = {}
        for (i, j), c in self.terms.items():
            out.setdefault(j, {})[i] = c
        return out

    def evaluate(self, x0, y0) -> Fraction:
        x0, y0 = Fraction(x0), Fraction(y0)
        acc = Fraction(0)
        for (i, j), c in self.terms.items():
            acc += c * x0**i * y0**j
        return acc

    def initial_form(self, omega) -> "BivariatePoly":
        """Terms on the face minimizing w1*i + w2*j (weights positive)."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no initial form")
        w1, w2 = omega
        lo = min(w1 * i + w2 * j for i, j in self.terms)
        kept = {k: c for k, c in self.terms.items() if w1 * k[0] + w2 * k[1] == lo}
        return BivariatePoly(kept, self.trunc)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        terms = sorted(self.terms.items())
        return {
            "trunc": self.trunc,
            "terms": [[i, j, fmt_q(c)] for (i, j), c in terms],
        }

    @staticmethod
    def from_json(data: dict) -> "BivariatePoly":
        terms = {(int(i), int(j)): parse_q(c) for i, j, c in data["terms"]}
        return BivariatePoly(terms, data.get("trunc"))

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
        tail = "" if self.trunc is None else f" mod x^{self.trunc}"
        return "BivariatePoly(" + " + ".join(bits) + tail + ")"


# ---------------------------------------------------------------------------
# minimal polynomial via iterated norms
# ---------------------------------------------------------------------------


def _dict_mul(a: dict, b: dict, bound: int | None) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            i = ia + ib
            if bound is not None and i >= bound:
                continue
            key = (i, ja + jb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _det(mat, bound: int | None) -> dict:
    """Determinant of a small matrix of term dicts, by Laplace expansion with
    memoized minors (entries are sparse polynomials)."""
    size = len(mat)
    memo: dict = {}

    def minor(row: int, cols: tuple) -> dict:
        if not cols:
            return {(0, 0): 1}
        key = (row, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc: dict = {}
        for pos, col in enumerate(cols):
            entry = mat[row][col]
            if not entry:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            piece = _dict_mul(entry, sub, bound)
            sign = 1 if pos % 2 == 0 else -1
            for k, v in piece.items():
                acc[k] = acc.get(k, 0) + sign * v
        acc = {k: v for k, v in acc.items() if v}
        memo[key] = acc
        return acc

    return minor(0, tuple(range(size)))


def _norm_step(g: dict, small: int, big: int, bound: int | None) -> dict:
    """Norm from Q((u^small))[y] down to Q((u^big))[y], big = r*small.

    The norm of g is the determinant of multiplication by g on the basis
    u^(c*small), c = 0..r-1.
    """
    r = big // small
    mat = [[{} for _ in range(r)] for _ in range(r)]
    for (i, jy), c in g.items():
        base = i // small
        for col in range(r):
            tot = base + col
            row = tot % r
            uexp = (tot - row) * small
            if bound is not None and uexp >= bound:
                continue
            cell = mat[row][col]
            key = (uexp, jy)
            cell[key] = cell.get(key, 0) + c
    return _det(mat, bound)


def min_poly(a: PuiseuxSeries, x_trunc: int | None = None) -> BivariatePoly:
    """Monic polynomial of degree index(a) whose roots are the conjugates of a.

    Exact when ``a`` is a finite series; otherwise the x-coefficients are
    tracked modulo x^x_trunc and the call fails with TruncationTooShort when
    the series is not known far enough to support that bound.
    """
    a = a.reduce()
    n = a.denom

    eff = x_trunc
    if a.trunc_bound is not None:
        avail = -(-a.trunc_bound // n)  # result is valid modulo x^avail
        if eff is None:
            eff = avail
        elif eff > avail:
            raise TruncationTooShort(
                f"series known below x^({a.trunc_bound}/{n}) cannot fix x^{eff}"
            )
    u_bound = None if eff is None else eff * n

    # gcd chain of levels n = e_0 > e_1 > ... > 1 read off the exponents
    levels = [n]
    e = n
    for i, _ in a.terms:
        g = gcd(e, i)
        if g < e:
            levels.append(g)
            e = g
            if e == 1:
                break
    assert e == 1, "reduce() guarantees the chain reaches 1"

    g_terms: dict = {(0, 1): 1}
    for i, c in a.terms:
        if u_bound is not None and i >= u_bound:
            continue
        g_terms[(i, 0)] = g_terms.get((i, 0), 0) - c
    for idx in range(len(levels) - 1, 0, -1):
        g_terms = _norm_step(g_terms, levels[idx], levels[idx - 1], u_bound)

    out = {}
    for (i, j), c in g_terms.items():
        assert i % n == 0, "conjugate product left a fractional x-exponent"
        out[(i // n, j)] = c
    result = BivariatePoly(out, eff)
    assert result.coefficient(0, n) == 1, "conjugate product is not monic"
    return result


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
    return BivariatePoly(out, f.trunc)


def hat_transform(f: BivariatePoly, n_sub: int, lam: PuiseuxSeries) -> BivariatePoly:
    """The substitution f(x^n_sub, y + lam(x^n_sub)).

    ``lam(x^n_sub)`` must have integer exponents, i.e. the index of ``lam``
    must divide ``n_sub``.
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

    bound = None if f.trunc is None else f.trunc * n_sub
    if lam.trunc_bound is not None:
        mu_bound = -(-lam.trunc_bound * n_sub // lam.denom)
        bound = mu_bound if bound is None else min(bound, mu_bound)

    slices = f.y_slices()
    top = max(slices) if slices else 0
    acc: dict = {}
    for j in range(top, -1, -1):
        # acc <- acc * (y + mu) + c_j(x^n_sub)
        nxt: dict = {}
        for (i, jy), c in acc.items():
            key = (i, jy + 1)
            nxt[key] = nxt.get(key, 0) + c
            for e, m in mu.items():
                ie = i + e
                if bound is not None and ie >= bound:
                    continue
                key = (ie, jy)
                nxt[key] = nxt.get(key, 0) + c * m
        for i, c in slices.get(j, {}).items():
            ie = i * n_sub
            if bound is not None and ie >= bound:
                continue
            key = (ie, 0)
            nxt[key] = nxt.get(key, 0) + c
        acc = {k: v for k, v in nxt.items() if v}
    return BivariatePoly(acc, bound)


def diagram_of(f: BivariatePoly, certified: bool = True) -> diagram_mod.NewtonDiagram:
    """Newton diagram of the support of f.

    When f carries a truncation, terms beyond it could add or cut polygon
    edges unless the computed polygon already reaches the x-axis strictly
    inside the known range; in that case the polygon cannot change and is
    certified.  Otherwise TruncationTooShort is raised (never a wrong answer).
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton diagram")
    d = diagram_mod.from_support(f.terms.keys())
    if certified and f.trunc is not None:
        bx, by = d.bottom
        if by != 0 or bx >= f.trunc:
            raise TruncationTooShort(
                f"polygon with bottom vertex {d.bottom} is not certified modulo x^{f.trunc}"
            )
    return d


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
    polynomial f_S(1, y) must be squarefree."""
    d = diagram_of(f, certified=False)
    if tuple(edge) not in [tuple(e) for e in d.compact_edges()]:
        raise EdgeNotOnPolygon(f"{edge} is not a compact edge of the polygon")
    (xa, ya), (xb, yb) = edge
    coeffs = [Fraction(0)] * (ya - yb + 1)
    for (i, j), c in f.terms.items():
        if yb <= j <= ya and xa <= i <= xb:
            if (xb - xa) * (j - ya) == (yb - ya) * (i - xa):
                coeffs[j - yb] += Fraction(c)
    assert coeffs[0] and coeffs[-1], "edge endpoints must carry support"
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
