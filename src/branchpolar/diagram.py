"""Newton diagrams as lattice objects.

A Newton diagram is the convex hull of a set of lattice points plus the first
quadrant.  It is stored as its vertex chain: x strictly increasing, y strictly
decreasing, strictly convex (edge inclinations Dx/|Dy| grow from left to
right).  The chain implicitly carries a vertical ray above its first vertex
and a horizontal ray right of its last one, so non-convenient diagrams
(translated quadrants, rays) need no special casing.

Supported operations: hulls of supports, canonical and long canonical
representations, truncation at a height, and symbolic derivatives.
Truncation and derivatives build the lattice hull of the cut edge by gift
wrapping with Stern-Brocot steps, in time polylogarithmic in the height of
that edge rather than linear in it (compare W. Harvey, "Computing
two-dimensional integer hulls", SIAM J. Comput. 28, 1999).  The row-by-row lattice definition and the closed continued-fraction
formula for first derivatives of elementary diagrams are kept as independent
oracles in ``tests/oracles.py``, next to Minkowski sums and the splitting
D^(k) = R^(k) + L, which only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import EmptySupport, InvariantViolation

__all__ = [
    "NewtonDiagram",
    "CanonicalRep",
    "from_support",
    "elementary",
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
            for _ in range(g):
                # the corners climb from the bottom vertex one part at a
                # time, and each must sit on the edge its part was cut from
                x, y = x - m, y + n
                if not (yb < y <= ya and (x - xa) * (yb - ya) == (y - ya) * (xb - xa)):
                    raise InvariantViolation(
                        f"corner {(x, y)} left the edge {(xa, ya)}-{(xb, yb)}"
                    )
                parts.append((m, n))
        return CanonicalRep((self.top[0], self.bottom[1]), tuple(parts), long)

    # -- truncation and symbolic derivatives ----------------------------------

    def trunc(self, k: int) -> "NewtonDiagram":
        """Lattice hull of the points of the diagram with height >= k.

        Diagrams are unbounded upward, so the region is never empty for k >= 0.
        The vertices at height >= k are kept.  Below them the hull follows
        the edge that crosses height k down to its last lattice point V, and
        from V it is gift-wrapped: each step is the steepest lattice step
        that stays inside the diagram and above height k, taken as far as it
        goes.  Every step is a Stern-Brocot descent that takes each run of
        equal turns in one jump, so the cost is polylogarithmic in the
        height of that edge rather than linear in it.  The row-by-row
        definition lives on as ``tests/oracles.staircase_trunc_oracle``.
        """
        if k < 0:
            raise ValueError(f"truncation height must be nonnegative, got {k}")
        v = self.vertices
        if k <= v[-1][1]:
            return self
        if k > v[0][1]:
            return NewtonDiagram(((v[0][0], k),))
        i = 0
        while v[i + 1][1] >= k:
            i += 1
        pts = list(v[: i + 1])
        (xa, ya), (xb, yb) = v[i], v[i + 1]
        if ya > k:
            g = gcd(xb - xa, ya - yb)
            p, q = (xb - xa) // g, (ya - yb) // g
            j = (ya - k) // q
            x, y = xa + j * p, ya - j * q
            if j:
                pts.append((x, y))
            # slack s = q*(x - x_V) - p*(y_V - y) >= 0: (x, y) is on the inner
            # side of the line of the cut edge
            s = 0
            while y > k:
                u, w, d = _steepest_step(p, q, s, y - k)
                c = (y - k) // w
                if d > 0:
                    c = min(c, s // d)
                x, y, s = x + c * u, y - c * w, s - c * d
                pts.append((x, y))
        return NewtonDiagram(tuple(pts))

    def symbolic_derivative(self, k: int) -> "NewtonDiagram":
        """Newton diagram of (D - (0, k)) meet N^2: trunc(D, k) shifted down,
        at the polylogarithmic cost of ``trunc``."""
        if k == 0:
            return self
        if k < 0:
            raise ValueError(f"derivative order must be nonnegative, got {k}")
        return self.trunc(k).translate(0, -k)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @staticmethod
    def from_json(data: dict) -> "NewtonDiagram":
        return from_support((int(x), int(y)) for x, y in data["vertices"])

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
    equal turns is one closed-form jump, so a call costs O(log height).
    """
    # ld > s throughout: a point reached by steepest steps has no lattice
    # point of the diagram right below it
    lu, lw, ld = 0, 1, p
    ru, rw, rd = 1, 0, -q
    while True:
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
