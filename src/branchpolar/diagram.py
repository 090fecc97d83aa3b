"""Newton diagrams as lattice objects.

A Newton diagram is the convex hull of a set of lattice points plus the first
quadrant.  It is stored as its vertex chain: x strictly increasing, y strictly
decreasing, strictly convex (edge inclinations Dx/|Dy| grow from left to
right).  The chain implicitly carries a vertical ray above its first vertex
and a horizontal ray right of its last one, so non-convenient diagrams
(translated quadrants, rays) need no special casing.

Supported operations: hulls of supports, Minkowski sums, weighted initial
faces, canonical and long canonical representations, truncation at a height,
and symbolic derivatives - both by the direct lattice definition (the oracle)
and, for elementary diagrams, by the closed continued-fraction formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import contfrac
from .errors import (
    EmptySupport,
    InvalidRange,
    NotCoprime,
    SplitTooDeep,
)

__all__ = [
    "NewtonDiagram",
    "CanonicalRep",
    "Face",
    "from_support",
    "elementary",
    "quadrant",
    "minkowski_sum",
    "elementary_derivative_closed_form",
    "split_derivative",
]

def _normalize_chain(points) -> tuple:
    """Vertex chain of the diagram spanned by ``points``.

    Keeps the Pareto-minimal points, then prunes everything that is not a
    vertex of the convex hull (collinear points included).
    """
    best: dict[int, int] = {}
    for x, y in points:
        if x < 0 or y < 0:
            raise ValueError(f"support points must be nonnegative, got ({x}, {y})")
        cur = best.get(x)
        if cur is None or y < cur:
            best[x] = y
    frontier = []
    for x in sorted(best):
        y = best[x]
        if frontier and y >= frontier[-1][1]:
            continue
        frontier.append((x, y))

    hull: list = []
    for c in frontier:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0:
                break
            hull.pop()
        hull.append(c)
    return tuple(hull)


@dataclass(frozen=True)
class Face:
    """A face of a diagram selected by a weight: a vertex (start == end) or a
    closed compact edge."""

    start: tuple
    end: tuple

    @property
    def is_vertex(self) -> bool:
        return self.start == self.end

    def __add__(self, other: "Face") -> "Face":
        return Face(
            (self.start[0] + other.start[0], self.start[1] + other.start[1]),
            (self.end[0] + other.end[0], self.end[1] + other.end[1]),
        )


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
    long: bool

    def to_diagram(self) -> "NewtonDiagram":
        x0, y0 = self.offset
        x, y = x0, y0 + sum(n for _, n in self.parts)
        pts = [(x, y)]
        for m, n in reversed(self.parts):  # walk edges left to right
            x, y = x + m, y - n
            pts.append((x, y))
        return NewtonDiagram(_normalize_chain(pts))

    def total_height(self) -> int:
        return sum(n for _, n in self.parts)

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

    @property
    def height(self) -> int:
        """Vertical extent of the Newton polygon."""
        return self.top[1] - self.bottom[1]

    @property
    def is_convenient(self) -> bool:
        return self.top[0] == 0 and self.bottom[1] == 0

    def compact_edges(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def contains(self, point) -> bool:
        x, y = point
        if x < self.top[0] or y < self.bottom[1]:
            return False
        for (xa, ya), (xb, yb) in self.compact_edges():
            if (xb - xa) * (y - ya) - (yb - ya) * (x - xa) < 0:
                return False
        return True

    def on_polygon(self, point) -> bool:
        """Whether ``point`` lies on a compact edge (or is a vertex)."""
        x, y = point
        if (x, y) in self.vertices:
            return True
        for (xa, ya), (xb, yb) in self.compact_edges():
            if xa <= x <= xb and yb <= y <= ya:
                if (xb - xa) * (y - ya) == (yb - ya) * (x - xa):
                    return True
        return False

    def translate(self, dx: int, dy: int) -> "NewtonDiagram":
        return NewtonDiagram(tuple((x + dx, y + dy) for x, y in self.vertices))

    # -- Minkowski structure --------------------------------------------------

    def __add__(self, other: "NewtonDiagram") -> "NewtonDiagram":
        return minkowski_sum(self, other)

    def initial_part(self, omega) -> Face:
        """Face minimizing <., omega> for a weight with both entries positive.

        The minimum over the whole diagram is attained on the vertex chain;
        with strict convexity the face is a vertex or one compact edge.
        """
        w1, w2 = omega
        if w1 <= 0 or w2 <= 0:
            raise ValueError(f"weight must be strictly positive, got {omega}")
        keys = [w1 * x + w2 * y for x, y in self.vertices]
        lo = min(keys)
        arg = [v for v, key in zip(self.vertices, keys) if key == lo]
        return Face(arg[0], arg[-1])

    def canonical_rep(self, long: bool = False) -> CanonicalRep:
        """Successive edge vectors, rightmost first; long form splits each
        (M, N) into gcd(M, N) primitive copies."""
        parts = []
        for (xa, ya), (xb, yb) in reversed(self.compact_edges()):
            m, n = xb - xa, ya - yb
            if long:
                g = gcd(m, n)
                parts.extend([(m // g, n // g)] * g)
            else:
                parts.append((m, n))
        offset = (self.top[0], self.bottom[1])
        rep = CanonicalRep(offset, tuple(parts), long)
        # corner points of the decomposition must sit on the polygon; they
        # start at the bottom vertex and climb one part at a time
        x, y = self.bottom
        for m, n in ((0, 0), *parts):
            x, y = x - m, y + n
            assert self.on_polygon((x, y)), f"corner {(x, y)} of {rep} left the polygon"
        return rep

    # -- truncation and symbolic derivatives ----------------------------------

    def _staircase(self, k: int):
        """Leftmost lattice points (min x per height) of the region y >= k,
        from the top vertex down; None when the region is the whole diagram."""
        x0, ytop = self.top
        ybot = self.bottom[1]
        if k <= ybot:
            return None
        if k > ytop:
            return [(x0, k)]
        pts = [(x0, ytop)]
        edges = self.compact_edges()
        ei = 0
        for j in range(ytop - 1, k - 1, -1):
            while edges[ei][1][1] > j:
                ei += 1
            (xa, ya), (xb, yb) = edges[ei]
            num = xa * (ya - yb) + (ya - j) * (xb - xa)
            den = ya - yb
            pts.append((-(-num // den), j))
        return pts

    def trunc(self, k: int) -> "NewtonDiagram":
        """Lattice hull of the points of the diagram with height >= k.

        Diagrams are unbounded upward, so the region is never empty for k >= 0.
        """
        if k < 0:
            raise ValueError(f"truncation height must be nonnegative, got {k}")
        pts = self._staircase(k)
        if pts is None:
            return self
        return NewtonDiagram(_normalize_chain(pts))

    def symbolic_derivative(self, k: int) -> "NewtonDiagram":
        """Newton diagram of (D - (0, k)) meet N^2: trunc(D, k) shifted down."""
        if k == 0:
            return self
        if k < 0:
            raise ValueError(f"derivative order must be nonnegative, got {k}")
        pts = self._staircase(k)
        if pts is None:
            return self.translate(0, -k)
        return NewtonDiagram(_normalize_chain([(x, y - k) for x, y in pts]))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @staticmethod
    def from_json(data: dict) -> "NewtonDiagram":
        return from_support((int(x), int(y)) for x, y in data["vertices"])

    def __str__(self) -> str:
        return str(self.canonical_rep())


def from_support(points) -> NewtonDiagram:
    """Diagram spanned by a nonempty set of lattice points."""
    pts = list(points)
    if not pts:
        raise EmptySupport("cannot build a diagram from an empty support")
    return NewtonDiagram(_normalize_chain(pts))


def elementary(m: int, n: int) -> NewtonDiagram:
    """The elementary diagram with horizontal leg m and vertical leg n;
    (0, 0) gives the full first quadrant."""
    if m < 0 or n < 0:
        raise ValueError(f"legs must be nonnegative, got ({m}, {n})")
    if m == 0 or n == 0:
        return NewtonDiagram(((0, 0),))
    return NewtonDiagram(((0, n), (m, 0)))


def quadrant(at=(0, 0)) -> NewtonDiagram:
    return NewtonDiagram((tuple(at),))


def minkowski_sum(a: NewtonDiagram, b: NewtonDiagram) -> NewtonDiagram:
    """Vertex chain of a + b, merging the two edge fans by inclination."""

    def edge_vectors(d):
        return [(xb - xa, ya - yb) for (xa, ya), (xb, yb) in d.compact_edges()]

    ea, eb = edge_vectors(a), edge_vectors(b)
    x = a.top[0] + b.top[0]
    y = a.top[1] + b.top[1]
    pts = [(x, y)]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j == len(eb):
            m, n = ea[i]
            i += 1
        elif i == len(ea):
            m, n = eb[j]
            j += 1
        else:
            (ma, na), (mb, nb) = ea[i], eb[j]
            cmp = ma * nb - mb * na  # sign of ma/na - mb/nb
            if cmp < 0:
                m, n = ma, na
                i += 1
            elif cmp > 0:
                m, n = mb, nb
                j += 1
            else:
                m, n = ma + mb, na + nb
                i += 1
                j += 1
        x, y = x + m, y - n
        pts.append((x, y))
    return NewtonDiagram(_normalize_chain(pts))


def elementary_derivative_closed_form(m: int, n: int) -> CanonicalRep:
    """Long-form parts of the first symbolic derivative of the elementary
    diagram (m, n), read off the continued-fraction expansion of m/n.

    With m/n = [h_0,...,h_s] and convergents p_i/q_i the derivative is
    sum over even indices 2i of h_{2i} copies of (p_{2i-1}, q_{2i-1}),
    plus (p_s - p_{s-1}, q_s - q_{s-1}) when s is odd.  For n = 1 the
    derivative is the full first quadrant.
    """
    if not 1 <= n < m:
        raise InvalidRange(f"need 1 <= n < m, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise NotCoprime(f"({m}, {n}) is not a primitive pair")
    if n == 1:
        return CanonicalRep((0, 0), (), True)
    cf = contfrac.expand(m, n)
    parts = []
    for idx in range(2, cf.s + 1, 2):
        parts.extend([(cf.p[idx - 1], cf.q[idx - 1])] * cf.h[idx])
    if cf.s % 2 == 1:
        parts.append((cf.p[cf.s] - cf.p[cf.s - 1], cf.q[cf.s] - cf.q[cf.s - 1]))
    return CanonicalRep((0, 0), tuple(parts), True)


def split_derivative(d: NewtonDiagram, k: int, s: int):
    """Split d = R + L with R the s rightmost long-canonical parts and return
    (R^(k), L); their Minkowski sum is the k-th symbolic derivative of d as
    long as k fits inside R's vertical extent.
    """
    rep = d.canonical_rep(long=True)
    if rep.offset[1] != 0:
        raise ValueError("split_derivative needs a diagram touching the x-axis")
    if not 0 <= s <= len(rep.parts):
        raise ValueError(f"split index {s} not in 0..{len(rep.parts)}")
    right = rep.parts[:s]
    cap = sum(n for _, n in right)
    if k > cap:
        raise SplitTooDeep(f"order {k} exceeds the vertical extent {cap} of the split part")
    r_diag = CanonicalRep((0, 0), right, True).to_diagram()
    l_diag = CanonicalRep((rep.offset[0], 0), rep.parts[s:], True).to_diagram()
    return r_diag.symbolic_derivative(k), l_diag


def inclination(edge) -> Fraction:
    """Inclination Dx/|Dy| of a compact edge."""
    (xa, ya), (xb, yb) = edge
    return Fraction(xb - xa, ya - yb)
