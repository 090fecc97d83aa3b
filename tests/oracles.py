"""Independent oracles used by the test suite.

Everything here recomputes results by a different route than the package:
hulls of supports point by point off the definition, truncations row by
row, first derivatives of elementary diagrams by continued fractions,
conjugate products by exact cyclotomic arithmetic and
by iterated norms (Laplace
determinants), random valid characteristic sequences by rejection,
factor names counted one factor at a time, pairwise contacts one pair at
a time, the prediction document as a dict of one block per factor and one
row per pair, the prediction text one line per factor, Eggers-Wall trees of one
leaf per factor by clustering that table, written by their own DOT
writer, hat transforms by full expansion of the minimal
polynomial and by Horner's scheme, the truncations lam_l of a witness's
root and their differences by series arithmetic, weighted initial forms by a minimum over
every term, squarefreeness by Euclid's algorithm over Q, and the expected polar
diagram D^(k) as the Minkowski sum R^(k) + L of the lemma on Newton
diagrams of polars.  Helpers that only the tests use (Minkowski sums,
diagrams rebuilt from canonical representations, edge inclinations,
weighted faces and their sums, quadrants, symbolic conjugates, truncation
orbits, coefficients read by exponent, products and evaluation of
bivariate polynomials, the search for a
generic witness, and the errors only these helpers raise) live here too.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm, perm

from branchpolar import contfrac
from branchpolar.diagram import CanonicalRep, NewtonDiagram, from_support
from branchpolar.errors import BranchPolarError, InvalidRange


# ---------------------------------------------------------------------------
# errors that only the oracles raise
# ---------------------------------------------------------------------------


class SplitTooDeep(BranchPolarError, ValueError):
    """Derivative order exceeds the vertical extent of the split-off part."""


class NotCoprime(BranchPolarError, ValueError):
    pass


class AllSeedsDegenerate(BranchPolarError, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """A face of a diagram selected by a weight: a vertex (start == end) or a
    closed compact edge."""

    start: tuple
    end: tuple

    @property
    def is_vertex(self) -> bool:
        return self.start == self.end


def quadrant(at=(0, 0)) -> NewtonDiagram:
    """The translated first quadrant, a diagram with a single vertex."""
    return NewtonDiagram((tuple(at),))


def initial_part(d: NewtonDiagram, omega) -> Face:
    """Face of ``d`` minimizing <., omega> for a weight with both entries
    positive.  The minimum over the whole diagram is attained on the vertex
    chain; with strict convexity the face is a vertex or one compact edge."""
    w1, w2 = omega
    if w1 <= 0 or w2 <= 0:
        raise ValueError(f"weight must be strictly positive, got {omega}")
    keys = [w1 * x + w2 * y for x, y in d.vertices]
    lo = min(keys)
    arg = [v for v, key in zip(d.vertices, keys) if key == lo]
    return Face(arg[0], arg[-1])


def face_sum(a: Face, b: Face) -> Face:
    """Minkowski sum of two faces selected by the same weight."""
    return Face(
        (a.start[0] + b.start[0], a.start[1] + b.start[1]),
        (a.end[0] + b.end[0], a.end[1] + b.end[1]),
    )


def on_polygon(d: NewtonDiagram, point) -> bool:
    """Whether ``point`` lies on a compact edge of ``d`` (or is a vertex)."""
    x, y = point
    if (x, y) in d.vertices:
        return True
    for (xa, ya), (xb, yb) in d.compact_edges():
        if xa <= x <= xb and yb <= y <= ya:
            if (xb - xa) * (y - ya) == (yb - ya) * (x - xa):
                return True
    return False


def hull_vertices_oracle(points) -> tuple:
    """Vertex chain of the diagram spanned by ``points``, point by point off
    the definition: a distinct point p is a vertex when no other point lies
    weakly below and left of it, and no chord from a point a left of it to a
    point b right of it passes weakly below it.  Takes time cubic in the
    number of distinct points."""
    pts = set(points)

    def vertex(p):
        px, py = p
        if any(q != p and q[0] <= px and q[1] <= py for q in pts):
            return False
        return not any(
            (bx - ax) * (py - ay) >= (by - ay) * (px - ax)
            for ax, ay in pts if ax < px
            for bx, by in pts if px < bx
        )

    return tuple(sorted(filter(vertex, pts)))


def staircase_trunc_oracle(d: NewtonDiagram, k: int) -> NewtonDiagram:
    """trunc(d, k) by the lattice definition: the hull of the leftmost
    lattice point of every row from the top vertex down to height k.  Takes
    time linear in the height of the diagram."""
    x0, ytop = d.top
    if k <= d.bottom[1]:
        return d
    if k > ytop:
        return from_support([(x0, k)])
    pts = [(x0, ytop)]
    edges = d.compact_edges()
    ei = 0
    for j in range(ytop - 1, k - 1, -1):
        while edges[ei][1][1] > j:
            ei += 1
        (xa, ya), (xb, yb) = edges[ei]
        num = xa * (ya - yb) + (ya - j) * (xb - xa)
        den = ya - yb
        pts.append((-(-num // den), j))
    return from_support(pts)


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
        return CanonicalRep((0, 0), ())
    cf = contfrac.expand(m, n)
    parts = []
    for idx in range(2, cf.s + 1, 2):
        parts.extend([(cf.p[idx - 1], cf.q[idx - 1])] * cf.h[idx])
    if cf.s % 2 == 1:
        parts.append((cf.p[cf.s] - cf.p[cf.s - 1], cf.q[cf.s] - cf.q[cf.s - 1]))
    return CanonicalRep((0, 0), tuple(parts))


def rep_to_diagram(rep: CanonicalRep) -> NewtonDiagram:
    """The diagram whose edges, rightmost first, are ``rep.parts``,
    translated by ``rep.offset``."""
    x0, y0 = rep.offset
    x, y = x0, y0 + sum(n for _, n in rep.parts)
    pts = [(x, y)]
    for m, n in reversed(rep.parts):  # walk edges left to right
        x, y = x + m, y - n
        pts.append((x, y))
    return from_support(pts)


def inclination(edge) -> Fraction:
    """Inclination Dx/|Dy| of a compact edge."""
    (xa, ya), (xb, yb) = edge
    return Fraction(xb - xa, ya - yb)


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
    return from_support(pts)


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
    r_diag = rep_to_diagram(CanonicalRep((0, 0), right))
    l_diag = rep_to_diagram(CanonicalRep((rep.offset[0], 0), rep.parts[s:]))
    return r_diag.symbolic_derivative(k), l_diag


def random_diagram(rng, xmax=200, ymax=200) -> NewtonDiagram:
    npts = rng.randint(1, 6)
    pts = [(rng.randint(0, xmax), rng.randint(0, ymax)) for _ in range(npts)]
    return from_support(pts)


# ---------------------------------------------------------------------------
# characteristic sequences
# ---------------------------------------------------------------------------


def random_char_sequence(rng, b0_max=64):
    from branchpolar.charclass import new_char_sequence

    b0 = rng.randint(2, b0_max)
    b = [b0]
    e = b0
    while e > 1:
        step = rng.randint(1, max(2 * e, 8))
        candidate = b[-1] + step
        if gcd(e, candidate) < e:
            b.append(candidate)
            e = gcd(e, candidate)
    return new_char_sequence(b)


def bbar_by_sum(cs) -> tuple:
    """The intersection numbers by their defining sum,
    bbar_l = b_l + sum_{i<l} ((e_(i-1) - e_i)/e_(l-1)) b_i, as Fractions: an
    oracle for the recurrence ``new_char_sequence`` computes them by."""
    b, e = cs.b, cs.e
    return tuple(b[l] + sum(Fraction(e[i - 1] - e[i], e[l - 1]) * b[i] for i in range(1, l))
                 for l in range(1, cs.h + 1))


def grid_classes(b0_max):
    """Every characteristic with b0 <= b0_max and every b_i <= 2 b0, the
    grid of the ROADMAP, by b0 and then lexicographically."""
    from branchpolar.charclass import new_char_sequence

    def grow(b, e):
        if e == 1:
            yield new_char_sequence(b)
            return
        for nxt in range(b[-1] + 1, 2 * b[0] + 1):
            if gcd(e, nxt) < e:
                yield from grow(b + [nxt], gcd(e, nxt))

    for b0 in range(2, b0_max + 1):
        yield from grow([b0], b0)


# ---------------------------------------------------------------------------
# Eggers-Wall trees
# ---------------------------------------------------------------------------


def factor_groups(prediction) -> list:
    """The group l of every factor in label order: the 1-based position of
    its tuple in ``prediction.groups``."""
    return [l for l, group in enumerate(prediction.groups, start=1) for _ in group]


def factor_labels(prediction) -> list:
    """The name of every factor in label order, counted one factor at a
    time: z^(l)_j for the j-th Z-factor of group l and w^(l)_i for its i-th
    W-factor."""
    names = []
    for l, group in enumerate(prediction.groups, start=1):
        seen = {"Z": 0, "W": 0}
        for f in group:
            seen[f.kind] += 1
            names.append(f"{f.kind.lower()}^({l})_{seen[f.kind]}")
    return names


def contact_table_oracle(prediction):
    """(label, label, contact) for every pair of factors in label order, one
    comparison per pair: the minimum of the semiroot contacts inside a group
    and of the contacts with f across groups."""
    facts = prediction.factors()
    names = factor_labels(prediction)
    group_of = factor_groups(prediction)
    table = []
    for i, a in enumerate(facts):
        for j in range(i + 1, len(facts)):
            b = facts[j]
            if group_of[i] == group_of[j]:
                value = min(a.contact_with_semiroot, b.contact_with_semiroot)
            else:
                value = min(a.contact_with_f, b.contact_with_f)
            table.append((names[i], names[j], value))
    return table


def prediction_document_oracle(prediction) -> dict:
    """The prediction document as a dict, one block per factor, built from
    the factor's fields and not by the writer's code, and one row per pair
    of factors from ``contact_table_oracle``; ``json.dumps(..., indent=2)``
    of it is the text ``PolarPrediction.to_json`` writes."""
    cs = prediction.char
    factors = prediction.factors()
    groups = [{"l": l, "cont_f": str(Fraction(cs.b[l], cs.b0)), "factors": []}
              for l in range(1, prediction.i_k + 1)]
    for f, l, name in zip(factors, factor_groups(prediction), factor_labels(prediction)):
        groups[l - 1]["factors"].append({
            "kind": f.kind,
            "group": l,
            "part": None if f.part is None else [*f.part],
            "multiplicity": f.multiplicity,
            "cont_f": str(f.contact_with_f),
            "cont_semiroot": str(f.contact_with_semiroot),
            "char": [str(e) for e in f.char_exponents],
            "label": name,
        })
    return {
        "char": list(cs.b),
        "k": prediction.k,
        "i_k": prediction.i_k,
        "multiplicity_total": sum(f.multiplicity for f in factors),
        "groups": groups,
        "pairwise_contacts": [[a, b, str(c)] for a, b, c in contact_table_oracle(prediction)],
    }


def prediction_text_oracle(prediction) -> str:
    """The text ``PolarPrediction.to_text`` writes, built one line per
    factor."""
    cs, k = prediction.char, prediction.k
    char = ",".join(map(str, cs.b))
    product = " * ".join(f"G^({l})" for l in range(1, prediction.i_k + 1))
    lines = [f"class K({char}), k = {k}: d^{k}f/dy^{k} = {product}"]
    names = iter(factor_labels(prediction))
    for l, group in enumerate(prediction.groups, start=1):
        lines.append(f"group {l}: cont(f, v) = {Fraction(cs.b[l], cs.b0)} "
                     "for every irreducible factor v")
        for f in group:
            desc = ("smooth" if not f.char_exponents
                    else "Char = {" + ", ".join(map(str, f.char_exponents)) + "}")
            lines.append(f"  - {next(names)}: mult {f.multiplicity}, "
                         f"cont(f_{l}, .) = {f.contact_with_semiroot}, {desc}")
    total = sum(f.multiplicity for f in prediction.factors())
    lines.append(f"total multiplicity {total} = b0 - k")
    return "\n".join(lines)


@dataclass
class OracleLeaf:
    name: str
    sort_key: tuple
    char_exponents: tuple   # used for the edge index annotations
    multiplicity: int | None = None

    def display(self) -> str:
        if self.multiplicity is None:
            return self.name
        return f"{self.name} (mult {self.multiplicity})"


@dataclass
class OracleNode:
    contact: Fraction | None          # None at the root
    children: list = field(default_factory=list)   # (edge_index, OracleNode | OracleLeaf)


@dataclass
class OracleEggersWall:
    """An Eggers-Wall tree with one leaf per factor and its own DOT writer,
    so that comparing DOT text checks two independent writers."""

    root: OracleNode

    def to_dot(self) -> str:
        lines = [
            "digraph eggers_wall {",
            "  rankdir=BT;",
            '  node [fontsize=11];',
        ]
        _oracle_emit_dot(self.root, lines, itertools.count())
        lines.append("}")
        return "\n".join(lines)


def _oracle_emit_dot(node, lines: list, names) -> str:
    name = f"n{next(names)}"
    if isinstance(node, OracleLeaf):
        lines.append(f'  {name} [label="{node.display()}", shape=none];')
        return name
    label = "0" if node.contact is None else str(node.contact)
    shape = "point" if node.contact is None else "circle"
    extra = ', width=0.1' if shape == "point" else ""
    lines.append(f'  {name} [label="{label}", shape={shape}{extra}];')
    for edge_index, child in node.children:
        child_name = _oracle_emit_dot(child, lines, names)
        lines.append(f'  {name} -> {child_name} [label="{edge_index}", dir=none];')
    return name


def _oracle_edge_index(leaf, parent_contact) -> int:
    dens = [e.denominator for e in leaf.char_exponents if e <= parent_contact]
    return lcm(*dens) if dens else 1


def _cluster(leaves, contact):
    """Ultrametric clustering: split at the smallest pairwise contact."""
    if len(leaves) == 1:
        return leaves[0]
    meet = min(
        contact(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
    )
    clusters = []
    for leaf in leaves:
        for cluster in clusters:
            if contact(cluster[0], leaf) > meet:
                cluster.append(leaf)
                break
        else:
            clusters.append([leaf])
    node = OracleNode(meet)
    clusters.sort(key=lambda cl: min(leaf.sort_key for leaf in cl))
    for cluster in clusters:
        child = _cluster(cluster, contact)
        indices = {_oracle_edge_index(leaf, meet) for leaf in cluster}
        assert len(indices) == 1, f"edge index ambiguous for {[l.name for l in cluster]}"
        node.children.append((indices.pop(), child))
    return node


def eggers_wall_oracle(prediction, include_branch=True):
    """Eggers-Wall tree clustered from the contact table of all leaf pairs:
    f, the semiroots f_l (when ``include_branch``) and the factors, one
    leaf each."""
    cs = prediction.char
    leaves = []
    if include_branch:
        leaves.append(OracleLeaf("f", (0,), cs.char_exponents()))
        for l in range(1, cs.h + 1):
            prefix = tuple(Fraction(cs.b[i], cs.b0) for i in range(1, l))
            leaves.append(OracleLeaf(f"f_{l}", (1, l), prefix))
    facts = prediction.factors()
    group_of = factor_groups(prediction)
    for pos, (f, name) in enumerate(zip(facts, factor_labels(prediction))):
        leaves.append(OracleLeaf(name, (2, pos), f.char_exponents, f.multiplicity))

    between = {(a, b): c for a, b, c in contact_table_oracle(prediction)}
    contacts = {}
    for i, la in enumerate(leaves):
        for lb in leaves[i + 1:]:
            ka, kb = la.sort_key, lb.sort_key
            if ka[0] == 0:  # f against anything
                if kb[0] == 1:
                    value = Fraction(cs.b[kb[1]], cs.b0)
                else:
                    value = facts[kb[1]].contact_with_f
            elif ka[0] == 1 and kb[0] == 1:
                value = Fraction(cs.b[min(ka[1], kb[1])], cs.b0)
            elif ka[0] == 1:
                factor = facts[kb[1]]
                if group_of[kb[1]] == ka[1]:
                    value = factor.contact_with_semiroot
                else:
                    value = min(Fraction(cs.b[ka[1]], cs.b0), factor.contact_with_f)
            else:
                value = between[(la.name, lb.name)]
            contacts[frozenset((la.name, lb.name))] = value

    tree = _cluster(leaves, lambda a, b: contacts[frozenset((a.name, b.name))])
    return OracleEggersWall(OracleNode(None, [(1, tree)]))


# ---------------------------------------------------------------------------
# exact cyclotomic arithmetic (tiny, just enough for conjugate products)
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        while a and not a[-1]:
            a.pop()
        if len(a) < len(b):
            break
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coef
        for i, cb in enumerate(b):
            a[shift + i] -= coef * cb
    return q, a


@cache
def cyclotomic(n):
    """Coefficient tuple (low to high) of the n-th cyclotomic polynomial."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, cyclotomic(d))
            assert not any(r)
            poly = q
    while poly and not poly[-1]:
        poly.pop()
    return tuple(poly)


class Cyc:
    """Elements of Q[z]/Phi_n(z); z is a primitive n-th root of unity."""

    def __init__(self, n, coeffs=None):
        self.n = n
        self.phi = cyclotomic(n)
        deg = len(self.phi) - 1
        vec = [Fraction(0)] * deg
        if coeffs:
            for i, c in enumerate(coeffs):
                vec[i] = Fraction(c)
        self.vec = vec

    @classmethod
    def zeta_power(cls, n, k):
        k %= n
        out = cls(n)
        raw = [Fraction(0)] * (k + 1)
        raw[k] = Fraction(1)
        out.vec = out._reduce(raw)
        return out

    def _reduce(self, raw):
        deg = len(self.phi) - 1
        raw = list(raw)
        for i in range(len(raw) - 1, deg - 1, -1):
            c = raw[i]
            if c:
                for j, pc in enumerate(self.phi[:-1]):
                    raw[i - deg + j] -= c * pc
            raw.pop()
        while len(raw) < deg:
            raw.append(Fraction(0))
        return raw

    def __add__(self, other):
        out = Cyc(self.n)
        out.vec = [a + b for a, b in zip(self.vec, other.vec)]
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = Cyc(self.n)
            out.vec = [a * other for a in self.vec]
            return out
        out = Cyc(self.n)
        out.vec = self._reduce(_poly_mul(self.vec, other.vec))
        return out

    def __neg__(self):
        out = Cyc(self.n)
        out.vec = [-a for a in self.vec]
        return out

    def rational(self) -> Fraction:
        assert all(not c for c in self.vec[1:]), f"not rational: {self.vec}"
        return self.vec[0]

    def is_zero(self):
        return all(not c for c in self.vec)


def min_poly_oracle(s):
    """Conjugate product over an exact cyclotomic field, term dict in (x, y)."""
    n = s.denom
    # polynomials in (u, y) with Cyc coefficients, keys (u_exp, y_exp)
    prod = {(0, 0): Cyc(n, [1])}
    for j in range(n):
        factor = {(0, 1): Cyc(n, [1])}
        for i, c in s.terms:
            key = (i, 0)
            val = Cyc.zeta_power(n, i * j) * Fraction(c)
            factor[key] = factor.get(key, Cyc(n)) + (-val)
        nxt = {}
        for (ia, ja), ca in prod.items():
            for (ib, jb), cb in factor.items():
                key = (ia + ib, ja + jb)
                v = ca * cb
                if key in nxt:
                    nxt[key] = nxt[key] + v
                else:
                    nxt[key] = v
        prod = {k: v for k, v in nxt.items() if not v.is_zero()}
    out = {}
    for (i, jy), c in prod.items():
        q = c.rational()
        if q:
            assert i % n == 0, "oracle product kept a fractional exponent"
            out[(i // n, jy)] = q
    return out


# ---------------------------------------------------------------------------
# conjugate products by iterated norms (Laplace determinants, 2^r per step)
# ---------------------------------------------------------------------------


def dict_mul(a: dict, b: dict) -> dict:
    """Product of two sparse bivariate polynomials given as {(i, j): c}."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            key = (ia + ib, ja + jb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _det(mat):
    """Determinant of a small matrix of term dicts, by Laplace expansion with
    memoized minors (entries are sparse polynomials)."""
    size = len(mat)
    memo = {}

    def minor(row, cols):
        if not cols:
            return {(0, 0): 1}
        key = (row, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = {}
        for pos, col in enumerate(cols):
            entry = mat[row][col]
            if not entry:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            piece = dict_mul(entry, sub)
            sign = 1 if pos % 2 == 0 else -1
            for k, v in piece.items():
                acc[k] = acc.get(k, 0) + sign * v
        acc = {k: v for k, v in acc.items() if v}
        memo[key] = acc
        return acc

    return minor(0, tuple(range(size)))


def _norm_step(g, small, big):
    """Norm from Q((u^small))[y] down to Q((u^big))[y], big = r*small: the
    determinant of multiplication by g on the basis u^(c*small), c < r."""
    r = big // small
    mat = [[{} for _ in range(r)] for _ in range(r)]
    for (i, jy), c in g.items():
        base = i // small
        for col in range(r):
            tot = base + col
            row = tot % r
            uexp = (tot - row) * small
            cell = mat[row][col]
            key = (uexp, jy)
            cell[key] = cell.get(key, 0) + c
    return _det(mat)


def min_poly_laplace_oracle(a):
    """Conjugate product as an iterated norm along the gcd chain of the
    exponents, as a ``BivariatePoly``."""
    from branchpolar.puiseux import BivariatePoly

    n = a.denom

    levels = [n]
    for i, _ in a.terms:
        g = gcd(levels[-1], i)
        if g < levels[-1]:
            levels.append(g)
    assert levels[-1] == 1, "a series over its index has a gcd chain reaching 1"

    g_terms = {(0, 1): 1}
    for i, c in a.terms:
        g_terms[(i, 0)] = g_terms.get((i, 0), 0) - c
    for idx in range(len(levels) - 1, 0, -1):
        g_terms = _norm_step(g_terms, levels[idx], levels[idx - 1])
    out = {}
    for (i, j), c in g_terms.items():
        assert i % n == 0, "conjugate product left a fractional x-exponent"
        out[(i // n, j)] = c
    return BivariatePoly(out)


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conjugate:
    """Symbolic conjugate a(eps^i x^(1/n)) for eps = exp(2 pi i/n).

    Only a descriptor: coefficients are cyclotomic in general and are never
    expanded over the rationals except when every multiplier is +-1.
    """

    series: object
    root_index: int

    @property
    def is_identity(self) -> bool:
        n = self.series.denom
        return all((i * self.root_index) % n == 0 for i, _ in self.series.terms)

    def materialize(self):
        from branchpolar.puiseux import PuiseuxSeries

        n = self.series.denom
        out = {}
        for i, c in self.series.terms:
            r = (i * self.root_index) % n
            if r == 0:
                out[i] = c
            elif 2 * r == n:
                out[i] = -c
            else:
                raise ValueError(
                    f"conjugate multiplier at exponent {i}/{n} is not rational"
                )
        return PuiseuxSeries(n, out)


def conjugate(series, e_index: int) -> Conjugate:
    return Conjugate(series, e_index % series.denom)


def truncation_orbit(a, cutoff) -> int:
    """Number of distinct conjugate truncations keeping exponents <= cutoff."""
    cut = None if cutoff == float("inf") else Fraction(cutoff)
    g = a.denom
    for i, _ in a.terms:
        if cut is None or Fraction(i, a.denom) <= cut:
            g = gcd(g, i)
    return a.denom // g


def _exponent(value) -> tuple:
    # a float would be taken at its binary value, and True as 1
    if isinstance(value, (float, bool)):
        raise ValueError(f"exponents must be exact rationals, got {value!r}")
    q = Fraction(value)
    return q.numerator, q.denominator


def coefficient(series, exponent):
    """Coefficient of x^exponent in a Puiseux series, as stored: an int or a
    Fraction."""
    p, q = _exponent(exponent)
    i, rest = divmod(p * series.denom, q)
    return 0 if rest else dict(series.terms).get(i, 0)


def truncate_below(series, cutoff):
    """The terms of a Puiseux series of exponent strictly less than ``cutoff``."""
    from branchpolar.puiseux import PuiseuxSeries

    if cutoff == float("inf"):
        return series
    p, q = _exponent(cutoff)
    return PuiseuxSeries(series.denom, {i: c for i, c in series.terms if i * q < p * series.denom})


def difference(a, b):
    """The Puiseux series a - b, written over the lcm of the two indices."""
    from branchpolar.puiseux import PuiseuxSeries

    n = lcm(a.denom, b.denom)
    fa, fb = n // a.denom, n // b.denom
    merged = {i * fa: c for i, c in a.terms}
    for i, c in b.terms:
        merged[i * fb] = merged.get(i * fb, 0) - c
    return PuiseuxSeries(n, merged)


def series_text(s) -> str:
    """A Puiseux series as ``PuiseuxSeries.from_string`` reads it, e.g.
    "x+3/2*x^(7/5)-x^2": terms by increasing exponent, a coefficient of 1
    or -1 left out."""
    if not s.terms:
        return "0"
    out = []
    for i, c in s.terms:
        e = Fraction(i, s.denom)
        mono = "x" if e == 1 else f"x^{e}" if e.denominator == 1 else f"x^({e})"
        out.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
    return "+".join(out).replace("+-", "-")


def lam(w, l: int):
    """lam_l of a witness, the truncation of its root below b_l/b0 (zero at
    l = 0): with ``difference``, the series-arithmetic reference for the
    slices of the root that ``verify.hat_chain`` substitutes,
    delta_l = lam_l - lam_(l-1)."""
    return truncate_below(w.root, Fraction(w.cs.b[l], w.cs.b0))


def evaluate(f, x0, y0) -> Fraction:
    """Value of the bivariate polynomial ``f`` at a rational point."""
    x0, y0 = Fraction(x0), Fraction(y0)
    return sum((c * x0 ** i * y0 ** j for (i, j), c in f.terms.items()), Fraction(0))


# ---------------------------------------------------------------------------
# hat transforms by Horner's scheme
# ---------------------------------------------------------------------------


def hat_horner_oracle(f, n_sub: int, lam, cut=None):
    """f(x^n_sub, y + lam(x^n_sub)) by Horner's scheme in y, cut like
    ``puiseux.hat_transform``: rows <- rows * (y + mu) + f_j(x^n_sub) for
    j from the top down, each intermediate term dropped as soon as its
    lightest descendant is above the cap (with wx * ord(mu) >= wy a
    multiplication by y + mu never lowers a weight)."""
    from branchpolar.puiseux import BivariatePoly

    mu = {}
    for i, c in lam.terms:
        e, rest = divmod(i * n_sub, lam.denom)
        assert not rest, "the oracle takes integral substitutions only"
        mu[e] = c
    mu_items = sorted(mu.items())
    if cut is not None:
        wx, wy, cap = cut
        assert not mu_items or wx * mu_items[0][0] >= wy, "lowering substitution"

    slices = f.rows
    rows: list = []  # rows[jy] = {i: c}, the x-polynomial at y^jy
    for j in range(max(slices, default=0), -1, -1):
        # rows <- rows * (y + mu) + c_j(x^n_sub); j multiplications follow,
        # so row jy keeps the exponents up to last[jy]
        last = [float("inf") if cut is None else (cap - wy * (jy + j)) // wx
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


# ---------------------------------------------------------------------------
# bivariate polynomials read term by term
# ---------------------------------------------------------------------------


def derivative_y_oracle(f, k: int):
    """d^k f/dy^k term by term through the public constructor: the reference
    for ``puiseux.derivative_y``, which scales whole rows."""
    from branchpolar.puiseux import BivariatePoly

    return BivariatePoly({(i, j - k): c * perm(j, k) for (i, j), c in f.terms.items() if j >= k})


def diagram_of_oracle(f, k: int = 0):
    """The Newton diagram of d^k f/dy^k as the hull of every term of f at
    height >= k, shifted down by k: the reference for ``puiseux.diagram_of``,
    which hulls the first term of each row."""
    return from_support([(i, j - k) for i, j in f.terms if j >= k])


def edge_poly_oracle(f, edge) -> list:
    """The coefficients of f on a compact edge, by y-exponent from the lower
    endpoint up, from one scan of every term: the reference for
    ``puiseux.edge_poly``, which reads the first term of each row.  Raises
    EdgeNotOnPolygon unless both endpoints carry support, no term lies
    strictly below the segment's line and no term on the line lies beyond
    an endpoint."""
    from branchpolar.errors import EdgeNotOnPolygon

    off_polygon = f"{edge} is not a compact edge of the polygon"
    (xa, ya), (xb, yb) = edge
    if not (xa < xb and ya > yb):
        raise EdgeNotOnPolygon(off_polygon)
    dx, dy = xb - xa, ya - yb
    level = dy * xa + dx * ya
    coeffs = [0] * (dy + 1)
    for (i, j), c in f.terms.items():
        side = dy * i + dx * j - level
        if side < 0 or (side == 0 and not xa <= i <= xb):
            raise EdgeNotOnPolygon(off_polygon)
        if side == 0:
            coeffs[j - yb] = c
    if not (coeffs[0] and coeffs[-1]):
        raise EdgeNotOnPolygon(off_polygon)
    return coeffs


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def gcd_degree_oracle(p) -> int:
    """Degree of gcd(p, p') for a rational coefficient list (low to high),
    -1 for the zero polynomial, by Euclid's algorithm over Q in Fractions:
    the reference for ``puiseux._univariate_gcd_degree``, which runs a
    primitive remainder sequence in integers."""

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


def initial_form(f, omega) -> dict:
    """The terms of f on the face minimizing w1*i + w2*j (weights positive),
    found by comparing every term's weight: the reference for
    ``verify.check_initial_form``, which reads one compact edge."""
    w1, w2 = omega
    lo = min(w1 * i + w2 * j for i, j in f.terms)
    return {(i, j): c for (i, j), c in f.terms.items() if w1 * i + w2 * j == lo}


def full_hat(w, l: int):
    """The hat transform f(x^N_l, y + lam_l(x^N_l)) of level l, expanded in
    full from the witness's minimal polynomial: the uncut oracle for
    ``verify.hat_chain``."""
    from branchpolar.charclass import semiroot_degree
    from branchpolar.puiseux import hat_transform, min_poly

    return hat_transform(min_poly(w.root), semiroot_degree(w.cs, l), lam(w, l))


def find_generic_witness(cs, k: int, seeds):
    """First sampled witness passing every check, or AllSeedsDegenerate."""
    from branchpolar.polar import predict
    from branchpolar.verify import _run_seed, sample_witness

    prediction = predict(cs, k)
    depth = sum(e > k for e in cs.e[:-1])
    tried = 0
    for seed in seeds:
        w = sample_witness(cs, seed)
        tried += 1
        if _run_seed(w, prediction, depth).status == "pass":
            return w
    raise AllSeedsDegenerate(f"all {tried} seeds produced degenerate witnesses")
