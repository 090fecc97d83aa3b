"""Newton diagrams as lattice objects.

A Newton diagram is the convex hull of a set of lattice points plus the first
quadrant.  It is stored as its vertex chain: x strictly increasing, y strictly
decreasing, strictly convex (edge inclinations Dx/|Dy| grow from left to
right).  The chain implicitly carries a vertical ray above its first vertex
and a horizontal ray right of its last one, so non-convenient diagrams
(translated quadrants, rays) need no special casing.

Supported operations: hulls of supports, each one pass over the support
sorted by (x, y); canonical and long canonical representations; truncation
at a height; and symbolic derivatives.  The public constructors,
``NewtonDiagram(...)`` and ``from_support``, check every point of outside
input; ``_hull``, the one other constructor, spans points the package built
itself, nonnegative ints by construction, and skips those checks, as
``puiseux._poly`` does for polynomials.
Truncation and derivatives build the lattice hull of the cut edge by gift
wrapping with Stern-Brocot steps from the vertex above the cut, the first
step running down the crossing edge, in time polylogarithmic in the height
of that edge rather than linear in it (compare W. Harvey, "Computing
two-dimensional integer hulls", SIAM J. Comput. 28, 1999).  The row-by-row
lattice definition and the closed continued-fraction formula for first
derivatives of elementary diagrams are kept as independent oracles in
``tests/oracles.py``, next to Minkowski sums and the splitting
D^(k) = R^(k) + L, which only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import EmptySupport, InvariantViolation, integers

__all__ = [
    "NewtonDiagram",
    "CanonicalRep",
    "from_support",
    "elementary",
]


@dataclass(frozen=True)
class CanonicalRep:
    """Minkowski decomposition of a diagram into elementary parts.

    ``parts`` lists (M_i, N_i) with M_i/N_i weakly decreasing, so the first
    part is the rightmost (shallowest) edge.  In short form inclinations are
    strictly decreasing; in long form every part is primitive.  ``offset``
    translates the sum for non-convenient diagrams.
    """

    offset: tuple
    parts: tuple

    def __str__(self) -> str:
        body = "+".join(f"({m},{n})" for m, n in self.parts) if self.parts else "(0,0)"
        if self.offset != (0, 0):
            return f"({self.offset[0]},{self.offset[1]})+{body}" if self.parts else f"quadrant at ({self.offset[0]},{self.offset[1]})"
        return body


@dataclass(frozen=True)
class NewtonDiagram:
    vertices: tuple

    def __post_init__(self):
        v = self.vertices
        if not v:
            raise EmptySupport("a diagram needs at least one vertex")
        for x, y in v:
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"vertices must be lattice points, got {v}")
        for (xa, ya), (xb, yb) in zip(v, v[1:]):
            if not (xa < xb and ya > yb):
                raise ValueError(f"vertex chain not monotone: {v}")
        for a, b, c in zip(v, v[1:], v[2:]):
            turn = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if turn <= 0:
                raise ValueError(f"vertex chain not strictly convex: {v}")

    # -- basic geometry -----------------------------------------------------

    @property
    def top(self) -> tuple:
        return self.vertices[0]

    @property
    def bottom(self) -> tuple:
        return self.vertices[-1]

    def compact_edges(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def translate(self, dx: int, dy: int) -> "NewtonDiagram":
        return NewtonDiagram(tuple((x + dx, y + dy) for x, y in self.vertices))

    # -- canonical representations ---------------------------------------------

    def canonical_rep(self, long: bool = False) -> CanonicalRep:
        """Successive edge vectors, rightmost first; long form splits each
        (M, N) into gcd(M, N) primitive copies."""
        parts = []
        x, y = self.bottom
        for (xa, ya), (xb, yb) in reversed(self.compact_edges()):
            g = gcd(xb - xa, ya - yb) if long else 1
            m, n = (xb - xa) // g, (ya - yb) // g
            # the corners climb from the bottom vertex one edge at a time:
            # the g copies must lead from the edge's lower end to its upper
            # end, so every corner between them sits on the edge
            x, y = x - g * m, y + g * n
            if (x, y) != (xa, ya):
                raise InvariantViolation(
                    f"{g} copies of {(m, n)} lead to {(x, y)}, off the edge {(xa, ya)}-{(xb, yb)}"
                )
            parts += [(m, n)] * g
        return CanonicalRep((self.top[0], self.bottom[1]), tuple(parts))

    # -- truncation and symbolic derivatives ----------------------------------

    def trunc(self, k: int) -> "NewtonDiagram":
        """Lattice hull of the points of the diagram with height >= k.

        Diagrams are unbounded upward, so the region is never empty for k >= 0.
        The vertices at height >= k are kept, and below them the hull is
        gift-wrapped from the last of them, the vertex above the cut: each
        step is the steepest lattice step that stays inside the diagram and
        above height k, taken as far as it goes.  Where the primitive step of
        the edge that crosses height k fits above the cut, it is the steepest
        one, so the first step runs down that edge to its last lattice point.
        Every step is a Stern-Brocot descent that takes each run of equal
        turns in one jump, so the cost is polylogarithmic in the height of
        that edge rather than linear in it.  The row-by-row definition lives
        on as ``tests/oracles.staircase_trunc_oracle``.

        A step (u, -w) has 1 <= w <= h for the h = y - k rows left, so it
        runs c >= 1 times and leaves h mod w < h/2 rows: the hull below the
        vertex above the cut has at most h.bit_length() steps, and a step
        past that count raises InvariantViolation instead of looping.
        """
        if type(k) is not int or k < 0:
            raise ValueError(f"order must be a nonnegative integer, got {k!r}")
        v = self.vertices
        if k <= v[-1][1]:
            return self
        if k > v[0][1]:
            return NewtonDiagram(((v[0][0], k),))
        i = 0
        while v[i + 1][1] >= k:
            i += 1
        pts = list(v[: i + 1])
        (x, y), (xb, yb) = v[i], v[i + 1]
        g = gcd(xb - x, y - yb)
        p, q = (xb - x) // g, (y - yb) // g
        # slack s = q*(x - x_A) - p*(y_A - y) >= 0, A = v[i]: (x, y) is on the
        # inner side of the line of the cut edge
        s = 0
        steps = (y - k).bit_length()
        while y > k:
            steps -= 1
            if steps < 0:
                raise InvariantViolation(f"the hull below {v[i]} missed height {k}: at {(x, y)}")
            # d <= 0 on every step: the first has d <= s = 0, and a hull is
            # convex, so no later step is steeper than the first.  The slack
            # never shrinks, and each step runs until the height runs out.
            u, w, d = _steepest_step(p, q, s, y - k)
            c = (y - k) // w
            x, y, s = x + c * u, y - c * w, s - c * d
            pts.append((x, y))
        return NewtonDiagram(tuple(pts))

    def symbolic_derivative(self, k: int) -> "NewtonDiagram":
        """Newton diagram of (D - (0, k)) meet N^2: trunc(D, k) shifted down,
        at the polylogarithmic cost of ``trunc``, which checks k."""
        return self.trunc(k).translate(0, -k)

    def __str__(self) -> str:
        return str(self.canonical_rep())


def _steepest_step(p: int, q: int, s: int, height: int):
    """Steepest lattice step (u, -w) with u >= 1 and 1 <= w <= height whose
    slack change d = p*w - q*u stays <= s, returned as (u, w, d) with (u, w)
    primitive.

    Stern-Brocot descent on u/w between a bound L whose steps overrun the
    slack and a feasible bound R, from 0/1 and 1/0.  A mediant is feasible,
    or else it overruns the slack together with every fraction between it
    and L (L is steeper than p/q, so both slack changes are positive) or its
    w exceeds the height together with every such fraction.  Each run of
    equal turns is one closed-form jump, so a call costs O(log height):
    after the first pass, each pass starts with L + R overrunning the slack
    (a pass that stops R at the height returns), so L moves at least once
    and the pass more than doubles lw + rw, which is at least 2 after the
    first pass and at most ``height`` after any pass that does not return.
    So there are at most height.bit_length() passes, and one more raises
    InvariantViolation instead of looping.
    """
    # ld > s throughout: a point reached by steepest steps has no lattice
    # point of the diagram right below it
    lu, lw, ld = 0, 1, p
    ru, rw, rd = 1, 0, -q
    for _ in range(height.bit_length()):
        # move L towards R while the mediants L + jR overrun the slack
        if rd >= 0:
            return ru, rw, rd
        j = (ld - s - rd - 1) // -rd
        if lw + j * rw > height:
            return ru, rw, rd
        lu, lw, ld = lu + (j - 1) * ru, lw + (j - 1) * rw, ld + (j - 1) * rd
        ru, rw, rd = lu + ru, lw + rw, ld + rd
        # move R towards L while the mediants R + jL stay feasible
        j = min((s - rd) // ld, (height - rw) // lw)
        ru, rw, rd = ru + j * lu, rw + j * lw, rd + j * ld
        if lw + rw > height:
            return ru, rw, rd
    raise InvariantViolation(f"no steepest step within height {height} for {p}/{q}, slack {s}")


def from_support(points) -> NewtonDiagram:
    """Diagram spanned by a nonempty set of lattice points, any iterable of
    pairs; an empty one raises EmptySupport, and a negative coordinate, or
    one that is not an int (a bool or a float among them), raises
    ValueError.  Every point is checked, in (x, y) order, before ``_hull``
    spans them."""
    support = [(x, y) for x, y in points]
    try:
        support.sort()
    except TypeError:  # a coordinate that does not compare with an int
        x, y = next((x, y) for x, y in support if type(x) is not int or type(y) is not int)
        raise ValueError(f"support points must be integers, got ({x!r}, {y!r})") from None
    if not support:
        raise EmptySupport("a diagram needs at least one vertex")
    for x, y in support:
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"support points must be integers, got ({x!r}, {y!r})")
        if x < 0 or y < 0:
            raise ValueError(f"support points must be nonnegative, got ({x}, {y})")
    return _hull(support)


def _hull(points) -> NewtonDiagram:
    """The diagram spanned by nonempty lattice points sorted by (x, y), of
    nonnegative int coordinates: the one other constructor, for points the
    package built itself (``from_support`` checks a caller's first).  Its
    chain is monotone and strictly convex by construction, so the checks of
    ``NewtonDiagram(...)`` are not run again.

    One pass over the sorted points: a point is kept only when it lies
    strictly below the last vertex kept, which drops every point above its
    column's lowest (sorting puts that one first) and every point that some
    point to its left dominates.  Before a point is kept, the vertices that
    it leaves without a strictly convex turn, collinear ones included, are
    popped.
    """
    hull: list = []
    for x, y in points:
        if hull and y >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            if (xb - xa) * (y - yb) - (yb - ya) * (x - xb) > 0:
                break
            hull.pop()
        hull.append((x, y))
    d = object.__new__(NewtonDiagram)
    object.__setattr__(d, "vertices", tuple(hull))
    return d


def elementary(m: int, n: int) -> NewtonDiagram:
    """The elementary diagram with horizontal leg m and vertical leg n;
    (0, 0) gives the full first quadrant.  A leg that is not an integer, a
    bool or a float among them, raises ValueError."""
    m, n = integers((m, n), ValueError)
    if m < 0 or n < 0:
        raise ValueError(f"legs must be nonnegative, got ({m}, {n})")
    if m == 0 or n == 0:
        return NewtonDiagram(((0, 0),))
    return NewtonDiagram(((0, n), (m, 0)))
