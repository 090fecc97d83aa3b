"""Brute-force verification of polar predictions on explicit witnesses.

A witness is a branch with seeded random integer coefficients in a given
equisingularity class, given by an explicit Puiseux root of exactly that
characteristic, so every fact about it that the checks use is fixed by the
class.  Its minimal polynomial f is never expanded.  The checks of level l
read the hat transform f^_l = f(x^N_l, y + lam_l(x^N_l)), N_l = b0/e_(l-1),
and only on or just under the chord from (0, b0) to (bbar_l, 0), so
``hat_chain`` builds the levels 1..L one from the other and cut to that
triangle, every substitution a slice of the root's terms by numerator:

* f^_1 = min_poly of the terms from b_1 on, the root minus lam_1, since
  lam_1 has integer exponents and every conjugation fixes it;
* f^_l = f^_(l-1)(x^n_(l-1), y + delta_l(x^N_l)), delta_l = lam_l - lam_(l-1)
  the terms from b_(l-1) up to b_l, of order b_(l-1)/b0;
* each level has a weight cut of its own, in level-L x-units: a term
  x^i y^j of level l weighs (N_L/N_l) i + s_l j, and the level drops the
  terms heavier than its intercept.  Level 1 has s_1 = b_1/e_(L-1) and the
  intercept bbar_L + N_L; each level l >= 2 has
  s_l = min(bbar_L/b0, b_(l-1)/e_(L-1)) and the intercept bbar_L + 1.
  delta_l never lowers a weight of slope at most N_L ord delta_l, and the
  slopes rise and the intercepts fall from level to level, so each level
  keeps every term the next one can reach within its own cut;
* one check of the class: every level ends with the edge from
  (bbar_l - b_l, e_(l-1)) to (bbar_l, 0), e_l copies of (m_l, n_l), or
  InvariantViolation is raised;
* each level is read once, off the first term of each row of f^_l, its
  row starts: N(f^_l) is their hull, E = N(f^_l)^(k) its k-th symbolic
  derivative, read by rows off N(f^_l) and not through the truncation
  ``predict`` uses, their k-th y-derivative is the row starts of
  d^k f^_l and N(d^k f^_l) is its hull.  ``HatLevel`` hands these on, and
  no check reads f^_l itself;
* no level is recomputed without its cut: every vertex of E, shifted up
  by k, lies within the level's cut, or InvariantViolation is raised, and
  the cut keeps every row start of d^k f^_l within it, so N(d^k f^_l)
  within the cut equals E exactly when the full one does.  A level whose
  cut polar misses E is degenerate either way, and its report reads the
  polar within the cut.

For every level l and order k the checks are:

* the Newton diagram of the hat transform of the k-th polar equals the
  k-th symbolic derivative of the hat diagram, both on the region of
  inclination above m_l/n_l and as a whole (for k < e_(l-1), the height of
  the steep part R, this is the splitting R^(k) + L of the lemma on Newton
  diagrams of polars); both diagrams are the level's reading, the hulls
  of f^_l's row starts and of their k-th derivative;
* every edge above that inclination carries a squarefree edge polynomial,
  read off the polar's row starts (non-degeneracy), so the steep parts
  (M_i, N_i) can be read off the edges, each split into gcd primitive
  copies, which must be the parts of the predicted Z-factors, compared
  part by part; no part goes through the canonical representation
  ``predict`` builds them with, so a fault there is a FAIL.  A part's
  contact M_i/((b0/e_{l-1}) N_i) and multiplicity (b0/e_{l-1}) N_i, which
  the reports show, follow from it by one formula on both sides;
* the weighted initial form of the hat transform of f, its compact edge
  from (bbar_l - b_l, e_(l-1)) to (bbar_l, 0) as ``edge_poly`` reads it
  off the row starts, equals a x^b (y^(n_l) - a_{b_l}^(n_l) x^(m_l))^(e_l)
  with a, b determined by the earlier coefficients - exactly, coefficient
  by coefficient;
* the vertical length of the edge at inclination exactly m_l/n_l equals the
  aggregate multiplicity of the W-factors of group l and of everything in
  deeper groups, scaled by e_(l-1)/b0 and compared exactly (individual
  W-factors are not separable without factoring).  Every multiplicity at
  or below level l is a multiple of b0/e_(l-1), whatever the prediction:
  a W-factor of group l has the multiplicity b0/e_l of a root on the class
  edge, and a factor of a group l' >= l a multiple of b0/e_(l'-1).

The prediction records each group as its parts and its W-count, so with
the parts compared every value of which a factor's characteristic
exponents are built is checked; the W-factors' count is observed in
aggregate, through the edge length.

The levels checked are those of the class, the l with e_(l-1) > k, and
not the groups of the prediction under test: a prediction with another
group count is a hard failure, FAIL and exit 2, and a level beyond its
groups is compared with an empty group.  Group l is the l-th group of the
prediction, the one place a factor's group is recorded, so a prediction
with its groups out of place is compared at the wrong levels and fails.  A
group past the class's h levels has no multiplicity the class gives, and
only the group count reads it.

Diagram mismatches and degenerate steep edges mean the witness is not
generic (the failure of an open Zariski condition) and the seed is retried;
any other disagreement is a hard failure.  Each status and the verdict are
read off the evidence: a level is degenerate when it has reasons, a run
fails when it has failures, and the verdict follows the runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, zip_longest
from math import comb, gcd

from . import diagram as diagram_mod
from .charclass import CharSequence, semiroot_degree
from .errors import (
    EdgeNotOnPolygon,
    IndexOutOfRange,
    InvalidCharacteristic,
    InvariantViolation,
    OrderOutOfRange,
    OrderTooLarge,
)
from .jsontext import write
from .polar import PolarPrediction, predict
from .puiseux import (
    BivariatePoly,
    PuiseuxSeries,
    derivative_y,
    diagram_of,
    edge_poly,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
    row_starts,
)

__all__ = [
    "WitnessBranch",
    "LevelExpectation",
    "LevelReport",
    "SeedRun",
    "VerificationReport",
    "sample_witness",
    "cut_bound",
    "HatLevel",
    "hat_chain",
    "check_lemma_nd",
    "check_initial_form",
    "check_seeds",
    "verify_prediction",
]

COEFF_RANGE = 9  # sampled coefficients live in [-9, 9]
MAX_SEED_RUNS = 8  # degenerate witnesses are retried up to this many runs in total


@dataclass(frozen=True)
class WitnessBranch:
    """A Puiseux root of a member of the class ``cs``, sampled from ``seed``
    or, with no seed, given explicitly.  The checks read the root's terms by
    numerator over b0, so the root must have exactly the characteristic of
    the class, or InvalidCharacteristic is raised."""

    cs: CharSequence
    root: PuiseuxSeries
    seed: int | None = None

    def __post_init__(self):
        got = self.root.characteristic().b
        if got != self.cs.b:
            raise InvalidCharacteristic(f"root has characteristic {got}, expected {self.cs.b}")


def allowed_exponents(cs: CharSequence, upto: int) -> list:
    """Exponent numerators that keep the characteristic intact: multiples of
    e_j between b_j and b_{j+1}, everything past b_h."""
    out = []
    for j in range(cs.h):
        out += range(cs.b[j], min(cs.b[j + 1], upto + 1), cs.e[j])
    return out + list(range(cs.b[-1], upto + 1))


def sample_witness(cs: CharSequence, seed: int) -> WitnessBranch:
    """Random branch in the class: nonzero integer coefficients at the
    characteristic exponents, arbitrary ones elsewhere, all in [-9, 9], at
    every allowed exponent numerator up to b_h + b0.  A seed that is not an
    int (a bool or a float) raises ValueError, as ``check_seeds`` does."""
    if type(seed) is not int:
        raise ValueError(f"witness seed must be an int, got {seed!r}")
    rng = random.Random(seed)
    upto = cs.b[-1] + cs.b0
    nonzero = [v for v in range(-COEFF_RANGE, COEFF_RANGE + 1) if v]
    coeffs = {}
    char_positions = set(cs.b[1:])
    for i in allowed_exponents(cs, upto):
        if i in char_positions:
            coeffs[i] = rng.choice(nonzero)
        else:
            coeffs[i] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    return WitnessBranch(cs, PuiseuxSeries(cs.b0, coeffs), seed)


# ---------------------------------------------------------------------------
# hat transforms, chained level to level and cut to the Newton triangle
# ---------------------------------------------------------------------------


def cut_bound(cs: CharSequence, depth: int) -> int:
    """Weight cap of level 1 of the chain for levels 1..depth, in level-depth
    x-units: the corner (bbar_L, 0) of the Newton triangle plus one level-1
    lattice step, N_L units.  Every deeper level is capped one level-L
    lattice step past the corner, ``cut_bound - N_L + 1``."""
    _check_level(cs, depth, "depth")
    return cs.bbar[depth - 1] + semiroot_degree(cs, depth)


def _check_level(cs: CharSequence, l, name: str) -> None:
    """Refuse a level or depth ``l``, called ``name``, that is not an int
    in 1..h, a bool or a float among them, with IndexOutOfRange."""
    if type(l) is not int:
        raise IndexOutOfRange(f"{name} must be an int, got {l!r}")
    if not 1 <= l <= cs.h:
        raise IndexOutOfRange(f"{name} {l} not in 1..{cs.h}")


def _check_order_below(cs: CharSequence, l: int, k) -> None:
    """Refuse an order ``k`` that is not an int >= 0, a bool or a float
    among them, with OrderOutOfRange, and one at or above e_(l-1), the
    height of level l's class edge, with OrderTooLarge."""
    if type(k) is not int or k < 0:
        raise OrderOutOfRange(f"order k must be an int >= 0, got {k!r}")
    if k >= cs.e[l - 1]:
        raise OrderTooLarge(f"order {k} >= e_{l - 1} = {cs.e[l - 1]}")


def _level_cuts(cs: CharSequence, depth: int) -> list:
    """The weight cut (wx, wy, cap) of each level l = 1..depth of the chain,
    in integers: a term x^i y^j of level l is kept when wx i + wy j <= cap,
    that is when (N_L/N_l) i + s_l j, in level-L x-units (L = depth), is at
    most the level's intercept.

    Level 1 has the slope s_1 = b_1/e_(L-1) and the intercept
    ``cut_bound``.  Each level l >= 2 has the slope
    s_l = min(bbar_L/b0, b_(l-1)/e_(L-1)), the chord from (0, b0) to
    (bbar_L, 0) or N_L ord delta_l, whichever is less steep, and the
    intercept ``cut_bound - N_L + 1`` = bbar_L + 1."""
    n_top = semiroot_degree(cs, depth)
    bound = cut_bound(cs, depth)
    corner, e_top = cs.bbar[depth - 1], cs.e[depth - 1]
    cuts = []
    for l in range(1, depth + 1):
        if l == 1:
            p, q, top = cs.b[1], e_top, bound
        else:
            p, q = ((corner, cs.b0) if corner * e_top < cs.b[l - 1] * cs.b0
                    else (cs.b[l - 1], e_top))
            top = bound - n_top + 1
        g = gcd(p, q)
        p, q = p // g, q // g
        cuts.append((q * n_top // semiroot_degree(cs, l), p, q * top))
    return cuts


@dataclass(frozen=True)
class HatLevel:
    """One level of ``hat_chain``, read once at an order k: the level l, the
    hat transform f^_l, kept only for the next substitution, and everything
    the checks read, all taken from its row starts, the first term of each
    row: the row starts ``starts``, the expected polar diagram
    E = N(f^_l)^(k), the row starts of d^k f^_l and N(d^k f^_l)."""

    l: int
    fhat: BivariatePoly
    starts: BivariatePoly
    expected: diagram_mod.NewtonDiagram
    polar_starts: BivariatePoly
    polar: diagram_mod.NewtonDiagram

    @classmethod
    def read(cls, cs: CharSequence, l: int, fhat: BivariatePoly, k: int) -> HatLevel:
        """Level l of the class ``cs`` at order k, read off the hat transform
        ``fhat``: its row starts once, N(f^_l) as their hull, which must end
        with the class edge from (bbar_l - b_l, e_(l-1)) to (bbar_l, 0) or
        InvariantViolation is raised, then d^k of the row starts, which are
        the row starts of d^k f^_l (over Q no coefficient j!/(j-k)! c
        vanishes), and N(d^k f^_l) as their hull.

        Its k-th symbolic derivative E is read by rows off N(f^_l), by the
        lattice definition and not through the truncation ``predict``
        uses, so a fault there is a FAIL and not a degenerate witness: the
        hull of the vertices at heights >= k and of the leftmost lattice
        point of each row j >= k strictly inside a compact edge, shifted
        down by k, or the quadrant at (x, 0) of the top vertex (x, y) when
        k > y.  That is O(y) integer steps per level.

        This is the one place a level is built: a level l that is not an
        int in 1..h raises IndexOutOfRange, an order k that is not an int
        >= 0 OrderOutOfRange and one >= e_(l-1), the height of the class
        edge, OrderTooLarge, before any work."""
        _check_level(cs, l, "level")
        _check_order_below(cs, l, k)
        corner = cs.bbar[l - 1]
        edge = ((corner - cs.b[l], cs.e[l - 1]), (corner, 0))
        starts = row_starts(fhat)
        d = diagram_of(starts) if starts.rows else None  # a cut inside the corner leaves nothing
        end = d.vertices[-2:] if d is not None else ()
        if end != edge:
            raise InvariantViolation(
                f"hat transform of level {l} ends with the vertices {end}, not with the "
                f"class edge {edge} of {cs.e[l]} copies of ({cs.m_seq[l - 1]},{cs.n_seq[l - 1]})"
            )
        points = [(x, y - k) for x, y in d.vertices if y >= k]
        for (xa, ya), (xb, yb) in d.compact_edges():
            points += [(xa - (xb - xa) * (j - ya) // (ya - yb), j - k)
                       for j in range(max(k, yb + 1), ya)]
        expected = diagram_mod.from_support(points or [(d.top[0], 0)])
        polar_starts = derivative_y(starts, k)
        return cls(l, fhat, starts, expected, polar_starts, diagram_of(polar_starts))


def hat_chain(w: WitnessBranch, depth: int, k: int) -> list:
    """The hat transforms f^_l = f(x^N_l, y + lam_l(x^N_l)) of the levels
    l = 1..depth, cut to what the checks of order k < e_(depth-1) read
    (N_l = b0/e_(l-1)), each as a ``HatLevel``, read once by
    ``HatLevel.read`` before the next level is substituted into it.  A depth
    that is not an int in 1..h raises IndexOutOfRange, an order k that is
    not an int >= 0 OrderOutOfRange and one >= e_(depth-1) OrderTooLarge,
    before any work.

    Every substitution is a slice of the root's terms, read by numerator
    over b0.  f^_1 = min_poly of the terms from b_1 on, the root minus lam_1:
    lam_1 has integer exponents, so every conjugation fixes it and the
    conjugate product is f(x, y + lam_1).  Then
    f^_l = f^_(l-1)(x^n_(l-1), y + delta_l(x^N_l)), delta_l = lam_l - lam_(l-1)
    the terms from b_(l-1) up to b_l, of order b_(l-1)/b0.

    Each level is cut to what its checks and the deeper levels read.  In
    level-L x-units (L = depth) a term x^i y^j of level l weighs
    (N_L/N_l) i + s_l j.  Level 1 has s_1 = b_1/e_(L-1), N_L ord delta_2,
    and drops every term heavier than ``cut_bound`` = bbar_L + N_L.  Each
    level l >= 2 has s_l = min(bbar_L/b0, b_(l-1)/e_(L-1)), the chord of the
    deepest triangle from (0, b0) to (bbar_L, 0) or N_L ord delta_l, and
    drops every term heavier than ``cut_bound`` - N_L + 1 = bbar_L + 1.
    y -> y + delta_l never lowers a weight of slope at most N_L ord delta_l,
    so the terms of f^_(l-1) that reach level l's cut lie in the half-plane
    of the same slope and intercept, and level l-1's cut, of a slope no
    larger and an intercept no smaller, holds that half-plane.

    Every level must end with the class edge from P = (bbar_l - b_l, e_(l-1))
    to (bbar_l, 0), as every member of the class does, or InvariantViolation
    is raised: the one check of the steep part, e_l copies of (m_l, n_l).
    The chain is built once, with its cuts, since a level's polar within
    the cut misses E = N(f^_l)^(k) only where the full polar does:

    * the cut keeps every row start of d^k f^_l whose weight, shifted up by
      k, is within the cap, as the start of its row, since the weight grows
      along a row;
    * every vertex of E, shifted up by k, is within the cut.  Shifted up,
      E is the lattice hull of N(f^_l) at heights >= k, and
      k < e_(L-1) <= e_(l-1).  With a = N_L/N_l, the support holds (0, b0)
      and (bbar_l, 0), so the vertices of N(f^_l) lie on or under the chord
      between them, where a i + s_l j <= max(s_l b0, a bbar_l) <= bbar_L
      (s_l <= bbar_L/b0, and bbar_(j+1) > n_j bbar_j).  That holds the
      vertices at heights >= e_(l-1), which are N(f^_l)'s, and both ends of
      the class edge.  The others lie in the triangle of P, the class
      edge's point at height k and the last vertex
      C = (bbar_l - floor(m_l k/n_l), k), which weighs
      a bbar_l + a r/n_l + k (s_l - b_l/e_(L-1)), r = m_l k mod n_l.  At
      level 1, s_1 = b_1/e_(L-1) and C weighs less than
      N_L (bbar_1 + 1) <= bbar_L + N_L.  At level l >= 2,
      s_l <= b_(l-1)/e_(L-1), and m_l = d_l (mod n_l) for
      d_l = (b_l - b_(l-1))/e_l, so r <= d_l k and C weighs at most
      a bbar_l <= bbar_L.  A vertex beyond the cut raises
      InvariantViolation;
    * so were N(d^k f^_l) of the full hat E, each vertex of E would be a row
      start the cut keeps, and the cut polar's diagram would be E too.  A
      cut diagram other than E means the full one is not E either: the
      level is degenerate, and its report reads the polar within the cut;
    * a cut diagram equal to E reaches both axes with its vertices within
      the cut, and so does N(f^_l), so each dropped term lies inside both
      Newton polyhedra and off their compact edges, and no diagram, edge
      polynomial or initial form changes.
    """
    cs = w.cs
    _check_level(cs, depth, "depth")
    _check_order_below(cs, depth, k)
    terms = w.root.terms
    first = PuiseuxSeries(cs.b0, {i: c for i, c in terms if i >= cs.b[1]})
    # delta_l(x^N_l) as a series in the level-(l-1) variable x^N_(l-1)
    steps = [PuiseuxSeries(cs.b0, {i * semiroot_degree(cs, l - 1): c for i, c in terms
                                   if cs.b[l - 1] <= i < cs.b[l]})
             for l in range(2, depth + 1)]
    chain = []  # each level is read, and E checked, before the next is substituted into it
    for l, (wx, wy, cap) in enumerate(_level_cuts(cs, depth), start=1):
        fhat = (min_poly(first, cut=(wx, wy, cap)) if l == 1 else
                hat_transform(chain[-1].fhat, cs.n_seq[l - 2], steps[l - 2], (wx, wy, cap)))
        level = HatLevel.read(cs, l, fhat, k)
        beyond = [(x, y + k) for x, y in level.expected.vertices if wx * x + wy * (y + k) > cap]
        if beyond:
            raise InvariantViolation(f"the expected polar diagram of level {l} at k = {k} has "
                                     f"the vertices {beyond} beyond its cut {(wx, wy, cap)}")
        chain.append(level)
    return chain


def _steep_data(d: diagram_mod.NewtonDiagram, m_l: int, n_l: int):
    """The parts of inclination > m_l/n_l, bottom first, each steep edge of d
    split into gcd primitive copies, and the vertical length of the edge at
    inclination exactly m_l/n_l."""
    steep = []
    exact_len = 0
    for (xa, ya), (xb, yb) in reversed(d.compact_edges()):
        m, n = xb - xa, ya - yb
        if m * n_l > n * m_l:
            g = gcd(m, n)
            steep += [(m // g, n // g)] * g
        elif m * n_l == n * m_l:
            exact_len += n
    return tuple(steep), exact_len


def _z_factor(part: tuple, n_sub: int) -> tuple:
    """The semiroot contact M/(n_sub N) and multiplicity n_sub N of the
    Z-factor of a part (M, N) at a level with n_sub = b0/e_(l-1)."""
    m, n = part
    return Fraction(m, n_sub * n), n_sub * n


@dataclass(frozen=True)
class LevelExpectation:
    """What the prediction under test says of one level l: the parts of
    group l's Z-factors, none past the prediction's groups, and
    ``multiplicity``, that of group l's W-factors and of every deeper
    factor, which the edge at inclination m_l/n_l carries scaled by
    e_(l-1)/b0, that is divided by ``n_sub`` = b0/e_(l-1)."""

    parts: tuple
    multiplicity: int
    n_sub: int


@dataclass(frozen=True)
class LevelReport:
    """What the checks of one level and order found, built once by
    ``check_lemma_nd``: the diagram fields, the reasons the level is
    degenerate and, for an ok level, one with no reasons, the initial form
    and the expectation its findings are compared with."""

    level: int
    expected: tuple                   # vertices of N(fhat)^(k)
    observed: tuple                   # vertices of N(d^k fhat / dy^k)
    reasons: tuple = ()
    steep_parts: tuple = ()
    contacts: tuple = ()
    multiplicities: tuple = ()
    aggregate_edge_length: int | None = None
    initial_form_ok: bool | None = None
    expectation: LevelExpectation | None = None

    @property
    def status(self) -> str:
        return "degenerate" if self.reasons else "ok"

    @property
    def prediction_match(self) -> bool | None:
        return None if self.expectation is None else self.steep_parts == self.expectation.parts

    @property
    def aggregate_predicted(self) -> int | None:
        """The predicted edge length, or None where nothing is predicted."""
        exp = self.expectation
        return None if exp is None else exp.multiplicity // exp.n_sub

    @property
    def aggregate_ok(self) -> bool | None:
        """The edge length against the prediction, in integers."""
        if self.expectation is None:
            return None
        return self.aggregate_edge_length == self.aggregate_predicted

    def failures(self) -> tuple:
        out = []
        if self.initial_form_ok is False:
            out.append(f"level {self.level}: initial form mismatch")
        if self.prediction_match is False:
            # the first Z-factor where the two differ, "none" on a side that
            # ends before it, each side as (part, contact, multiplicity)
            exp, l = self.expectation, self.level
            sides = zip_longest(self.steep_parts, exp.parts)
            j, *pair = next((j, a, b) for j, (a, b) in enumerate(sides, 1) if a != b)
            seen, said = ("none" if part is None else "({}, {}, {})".format(
                part, *_z_factor(part, exp.n_sub)) for part in pair)
            out.append(f"level {l}: z^({l})_{j} observed {seen}, predicted {said}")
        if self.aggregate_ok is False:
            out.append(f"level {self.level}: edge length {self.aggregate_edge_length} "
                       f"!= predicted {self.aggregate_predicted}")
        return tuple(out)

    def to_json(self, put, newline: str = "\n") -> None:
        """Put the level's report, indent-2 JSON text, through ``put``."""
        write({
            "l": self.level,
            "status": self.status,
            "reasons": list(self.reasons),
            "expected": [list(v) for v in self.expected],
            "observed": [list(v) for v in self.observed],
            "steep_parts": [list(p) for p in self.steep_parts],
            "contacts": [str(c) for c in self.contacts],
            "multiplicities": list(self.multiplicities),
            "initial_form_ok": self.initial_form_ok,
            "prediction_match": self.prediction_match,
            "aggregate_edge": {
                "observed": self.aggregate_edge_length,
                "predicted": self.aggregate_predicted,
                "ok": self.aggregate_ok,
            },
        }, put, newline)


def check_lemma_nd(w: WitnessBranch, level: HatLevel,
                   expectation: LevelExpectation | None = None) -> LevelReport:
    """Diagram equality and steep-edge non-degeneracy at the level and order
    ``level`` was read at, off its entry of ``hat_chain``: the expected
    diagram E = N(f^_l)^(k), N(d^k f^_l) and the row starts of d^k f^_l, so
    no diagram is built and no hat is read here.  An ok level, one with no
    reasons, also gets ``check_initial_form`` and keeps ``expectation``, what
    the prediction says of it; the level's report is built once, here."""
    cs, l = w.cs, level.l
    m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
    n_sub = semiroot_degree(cs, l)
    # hat_chain checked the steep part R of N(f^_l), e_l copies of
    # (m_l, n_l); R is the bottom part, of height e_(l-1) > k, so the
    # derivative cuts into R alone and equals the splitting R^(k) + L of the
    # lemma on Newton diagrams of polars, L taken from the witness itself.
    # The hat transform commutes with d/dy: hat(d^k f) = d^k hat(f)
    expected, observed = level.expected, level.polar
    steep_obs, exact_len = _steep_data(observed, m_l, n_l)
    steep_exp, _ = _steep_data(expected, m_l, n_l)
    reasons = []
    if steep_obs != steep_exp:
        reasons.append(f"steep diagram region {steep_obs} differs from expected {steep_exp}")
    if observed != expected:
        reasons.append("full hat diagram differs from the symbolic derivative")
    # the edge polynomials read one term per row, its first.  Steepness is
    # tested here apart from _steep_data: were the exact inclination counted
    # as steep there, its edge, where the branch's own root is repeated,
    # would read degenerate and hide the fault as UNKNOWN instead of FAIL
    for edge in observed.compact_edges():
        (xa, ya), (xb, yb) = edge
        if (xb - xa) * n_l > (ya - yb) * m_l and not edge_poly_squarefree(level.polar_starts, edge):
            reasons.append(f"steep edge {edge} is degenerate")
    found = [_z_factor(part, n_sub) for part in steep_obs]
    return LevelReport(
        level=l, expected=expected.vertices, observed=observed.vertices,
        reasons=tuple(reasons), steep_parts=steep_obs,
        contacts=tuple(contact for contact, _ in found),
        multiplicities=tuple(mult for _, mult in found),
        aggregate_edge_length=exact_len,
        initial_form_ok=None if reasons else check_initial_form(w, l, level.starts),
        expectation=None if reasons else expectation,
    )


def check_initial_form(w: WitnessBranch, l: int, starts: BivariatePoly) -> bool:
    """Exact comparison of in_omega(f^_l), omega = (n_l, m_l), with
    a x^b (y^n_l - a_{b_l}^n_l x^m_l)^e_l, b = bbar_l - b_l, read off
    ``starts``, the row starts of the level's hat transform (the ``starts``
    of its ``HatLevel``; the hat itself reads the same, since ``edge_poly``
    reads only the first term of each row): the compact edge from
    (b, e_(l-1)) to (bbar_l, 0) must carry a binom(e_l, t) (-a_{b_l}^n_l)^t
    at y^(n_l (e_l - t)), and nothing else.  Holds for every
    conjugate-product witness (unit 1), generic or not.  A level l that is
    not an int in 1..h raises IndexOutOfRange before any work."""
    cs = w.cs
    _check_level(cs, l, "level")
    n_l, e_l = cs.n_seq[l - 1], cs.e[l]
    corner = cs.bbar[l - 1]
    try:
        observed = edge_poly(starts, ((corner - cs.b[l], cs.e[l - 1]), (corner, 0)))
    except EdgeNotOnPolygon:
        return False

    # ints for an integer witness, Fractions only where the root has them
    a = dict(w.root.terms)
    scale = 1
    for j in range(1, l):
        scale *= cs.n_seq[j - 1] ** cs.e[j] * a[cs.b[j]] ** (cs.e[j - 1] - cs.e[j])
    a_n = a[cs.b[l]] ** n_l
    wanted = [0] * (cs.e[l - 1] + 1)
    for t in range(e_l + 1):
        wanted[n_l * (e_l - t)] = scale * comb(e_l, t) * (-a_n) ** t
    return observed == wanted


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedRun:
    seed: int
    levels: tuple = ()
    failures: tuple = ()

    @property
    def status(self) -> str:
        """fail, degenerate (some level is) or pass."""
        if self.failures:
            return "fail"
        return "degenerate" if any(lv.reasons for lv in self.levels) else "pass"

    def to_json(self, put, newline: str = "\n") -> None:
        """Put the run's report, indent-2 JSON text, through ``put``, each
        level's report written where it lands."""
        write({
            "seed": self.seed,
            "status": self.status,
            "levels": [lv.to_json for lv in self.levels],
            "failures": list(self.failures),
        }, put, newline)


@dataclass(frozen=True)
class VerificationReport:
    """The runs of ``verify_prediction`` against ``prediction``, which
    carries the class and the order; the verdict is read off the runs."""

    prediction: PolarPrediction
    runs: tuple = ()

    @property
    def verdict(self) -> str:
        """FAIL if a run failed, else PASS if one passed, else UNKNOWN."""
        statuses = [run.status for run in self.runs]
        return "FAIL" if "fail" in statuses else "PASS" if "pass" in statuses else "UNKNOWN"

    @property
    def passing_seed(self) -> int | None:
        return next((run.seed for run in self.runs if run.status == "pass"), None)

    @property
    def degenerate_count(self) -> int:
        return sum(run.status == "degenerate" for run in self.runs)

    def to_json(self, put, newline: str = "\n") -> None:
        """Put the report, indent-2 JSON text, piece by piece through
        ``put``, with ``newline`` ending every line.  The prediction's
        ``to_json`` writes it where it lands; its record is checked before
        the report's first piece."""
        # the prediction checks its record again where it lands, after the
        # report's first pieces have been put
        self.prediction.check()
        write({
            "char": list(self.prediction.char.b),
            "k": self.prediction.k,
            "verdict": self.verdict,
            "passing_seed": self.passing_seed,
            "degenerate_count": self.degenerate_count,
            "seeds": [run.seed for run in self.runs],
            "prediction": self.prediction.to_json,
            "runs": [run.to_json for run in self.runs],
        }, put, newline)

    def to_text(self, put, newline: str = "\n") -> None:
        """Put the report as text through ``put``, with ``newline`` between
        lines."""
        put(f"verify K{self.prediction.char} k={self.prediction.k}: {self.verdict}")
        if self.passing_seed is not None:
            put(f"{newline}witness seed {self.passing_seed} confirms the prediction")
        if self.degenerate_count:
            put(f"{newline}{self.degenerate_count} seed(s) hit a degenerate witness")
        for run in self.runs:
            put(f"{newline}seed {run.seed}: {run.status}")
            for lv in run.levels:
                bits = [f"{newline}  l={lv.level} {lv.status}"]
                if lv.status == "ok":
                    parts = "+".join(f"({m},{n})" for m, n in lv.steep_parts) or "-"
                    bits += [f"steep {parts}",
                             f"contacts {{{', '.join(map(str, lv.contacts))}}}",
                             f"initial form {'ok' if lv.initial_form_ok else 'MISMATCH'}",
                             f"edge@(m/n) {lv.aggregate_edge_length}"
                             f"{'=' if lv.aggregate_ok else '!='}{lv.aggregate_predicted}"]
                put(" ".join(bits))
            for fail in run.failures:
                put(f"{newline}  FAIL: {fail}")


def _expectations(prediction: PolarPrediction, cs: CharSequence, depth: int) -> list:
    """What the prediction says of each level l = 1..depth, group l being the
    l-th pair (parts, w) of ``prediction.groups`` and a level past them
    meeting an empty group: a ``LevelExpectation`` of group l's parts and of
    the multiplicity of its w W-factors, b0/e_l each, and of every factor of
    the groups after it, up to the class's h levels."""
    groups = prediction.groups[:cs.h]
    mults = [sum(n for _, n in parts) * semiroot_degree(cs, l) + w * (cs.b0 // cs.e[l])
             for l, (parts, w) in enumerate(groups, start=1)]
    out = []
    for l in range(1, depth + 1):
        parts, w = groups[l - 1] if l <= len(groups) else ((), 0)
        edge = w * (cs.b0 // cs.e[l]) + sum(mults[l:])
        out.append(LevelExpectation(parts, edge, semiroot_degree(cs, l)))
    return out


def _run_seed(w: WitnessBranch, prediction: PolarPrediction, depth: int) -> SeedRun:
    """One witness checked at the levels 1..depth of its class against the
    prediction, read once before the levels; a prediction of another group
    count fails, whatever the witness shows."""
    levels = tuple(check_lemma_nd(w, level, expectation) for expectation, level in
                   zip(_expectations(prediction, w.cs, depth), hat_chain(w, depth, prediction.k)))
    failures = () if prediction.i_k == depth else (
        f"group count {prediction.i_k} != {depth}, "
        f"the number of levels l with e_(l-1) > {prediction.k}",)
    return SeedRun(w.seed, levels, failures + tuple(f for lv in levels for f in lv.failures()))


def check_seeds(seeds) -> list:
    """The witness seeds as a list: at least one, each an int (a bool or a
    float is refused, not read as a number), nonnegative and none repeated,
    or ValueError is raised.  random.Random(-s) is random.Random(s), so a
    negative seed, like a repeated one, would report a witness twice."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    for seed in seeds:
        if type(seed) is not int:
            raise ValueError(f"witness seeds must be integers, got {seed!r}")
    if min(seeds) < 0:
        raise ValueError(f"witness seeds must be nonnegative, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"witness seeds must be distinct, got {seeds}")
    return seeds


def verify_prediction(cs: CharSequence, k: int, seeds) -> VerificationReport:
    """Check the prediction against sampled witnesses at every level of the
    class, the l with e_(l-1) > k; the levels come from the class, not from
    the prediction, and a prediction with another group count is a FAIL.

    PASS needs one fully passing seed and no hard contradiction anywhere;
    the seeds must pass ``check_seeds``, or ValueError is raised.  The
    given seeds run until one fails; past them, degenerate witnesses are
    retried with fresh seeds while none has passed, up to ``MAX_SEED_RUNS``
    runs in total.
    """
    prediction = predict(cs, k)  # OrderOutOfRange unless k is an int, 1 <= k < b0
    seeds = check_seeds(seeds)
    depth = sum(e > k for e in cs.e[:-1])
    runs, passed = [], False
    for seed in chain(seeds, count(max(seeds) + 1)):
        # open Zariski condition: fresh seeds only while every run was degenerate
        if len(runs) >= len(seeds) and (passed or len(runs) >= MAX_SEED_RUNS):
            break
        runs.append(_run_seed(sample_witness(cs, seed), prediction, depth))
        if runs[-1].status == "fail":
            break
        passed = passed or runs[-1].status == "pass"
    return VerificationReport(prediction, tuple(runs))

