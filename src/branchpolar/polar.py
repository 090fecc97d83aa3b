"""Predicted factorization of the generic k-th polar of a plane branch.

Given an equisingularity class (b0,...,bh) and a derivative order k < b0, the
generic k-th polar splits into groups G^(1)...G^(i_k), one for every l with
e_{l-1} > k.  Group l collects the irreducible factors whose contact with the
branch is b_l/b0; it consists of

* one Z-factor for every part (M_j, N_j) of the long canonical representation
  of the t-th symbolic derivative of the elementary diagram (m_l, n_l), where
  t is the representative of k modulo n_l in 1..n_l.  The factor has
  multiplicity n_1...n_{l-1} * N_j and contact M_j/(n_1...n_{l-1} N_j) with
  the l-th semiroot, which is also its last characteristic exponent when
  N_j > 1;
* m = min(e_l, k) - ceil(k/n_l) W-factors of multiplicity b0/e_l whose
  characteristic exponents are b_1/b0,...,b_l/b0.

Pairwise contacts inside a group are the minimum of the semiroot contacts;
across groups they are the minimum of the contacts with the branch.  In
label order both minima are known without comparing pairs.  Inside a group
the semiroot contacts weakly decrease: the Z-factors follow the parts of the
long canonical representation, whose ratios M_j/N_j weakly decrease, and the
W-factors sit at cont_f, below every Z-factor.  Across groups cont_f =
b_l/b0 increases with l.  So the row (i, j), j after i, takes factor j's
semiroot contact when both lie in one group and factor i's contact with f
otherwise.  ``predict`` repeats one frozen factor object for each run of
equal factors (the W-factors of a group, the Z-factors of equal parts), and
one checked walk of those runs, ``_runs``, checks both orderings in O(F) for
F factors.  Both contact writers read that walk, so neither writes a
prediction that breaks the rule: the JSON writer ``to_json`` formats one
indent-2 block per run, with only the label changing, and each run's two
contacts once, and joins the text of the rows from per-factor strings, so no
Python code runs per pair; the Eggers-Wall export takes its leaves from it.

These contacts fix the shape of the Eggers-Wall tree, so the export builds it
directly.  A trunk leads from the root to the leaf f, with a vertex at every
b_l/b0.  At that vertex the path of the semiroot f_l leaves the trunk; it has
one vertex per distinct semiroot contact of group l's Z-factors, and each
Z-factor hangs off the vertex at its own contact, while f_l ends the path.
Group l's W-factors hang off the trunk vertex itself.  Without the branch the
tree is the same with f and the f_l removed and every vertex that is left
with a single child contracted.  Children are ordered by their first leaf
(f, then f_1..f_h, then the factors in label order).  Each edge is labelled
with its index: the lcm of the denominators of those characteristic exponents
of a leaf beyond it that do not exceed the contact of its end nearer the
root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter

from . import diagram as diagram_mod
from .charclass import CharSequence
from .errors import InvariantViolation, OrderOutOfRange
from .jsontext import Written, dumps
from .rational import fmt_q

__all__ = [
    "PolarFactor",
    "PolarPrediction",
    "EggersWallExport",
    "predict",
    "export_eggers_wall",
]


@dataclass(frozen=True)
class PolarFactor:
    kind: str                       # "Z" or "W"
    part: tuple | None              # (M_j, N_j) for Z-factors
    multiplicity: int
    contact_with_f: Fraction
    contact_with_semiroot: Fraction
    char_exponents: tuple           # sorted Fractions

    @property
    def is_smooth(self) -> bool:
        return not self.char_exponents

    def to_json(self, l: int) -> dict:
        """The factor's JSON block as a member of group ``l``, the position
        of its tuple in ``PolarPrediction.groups``."""
        return {
            "kind": self.kind,
            "group": l,
            "part": list(self.part) if self.part else None,
            "multiplicity": self.multiplicity,
            "cont_f": fmt_q(self.contact_with_f),
            "cont_semiroot": fmt_q(self.contact_with_semiroot),
            "char": [fmt_q(e) for e in self.char_exponents],
        }


@dataclass(frozen=True)
class PolarPrediction:
    char: CharSequence
    k: int
    # tuple over l = 1..i_k of tuples of PolarFactor: a factor's group l is
    # the 1-based position of its tuple, and nothing else records it
    groups: tuple

    @property
    def i_k(self) -> int:
        return len(self.groups)

    def factors(self):
        return [f for group in self.groups for f in group]

    def labels(self) -> list:
        """Canonical factor names z^(l)_j / w^(l)_i in emission order."""
        out = []
        for l, group in enumerate(self.groups, start=1):
            zc = wc = 0
            for f in group:
                if f.kind == "Z":
                    zc += 1
                    out.append(f"z^({l})_{zc}")
                else:
                    wc += 1
                    out.append(f"w^({l})_{wc}")
        return out

    def multiplicity_total(self) -> int:
        return sum(f.multiplicity for f in self.factors())

    def _runs(self) -> list:
        """Each group's runs, after checking in O(F) the orderings the
        contact rule relies on (see the module docstring).

        ``_runs()[l - 1]`` lists (factor, start, stop) for each run of one
        factor object repeated in group l, start and stop being label
        positions.  The contact with f never falls from one run to the next,
        and inside a group the semiroot contact never rises; a prediction
        that breaks either raises ``InvariantViolation``."""
        runs, stop, prev = [], 0, None
        for group in self.groups:
            group_runs = []
            for _, run in groupby(group, key=id):
                run = list(run)
                f, start, stop = run[0], stop, stop + len(run)
                if prev is not None and f.contact_with_f < prev.contact_with_f:
                    raise InvariantViolation(
                        f"contact with f falls from {prev.contact_with_f} to "
                        f"{f.contact_with_f} at {self.labels()[start]}"
                    )
                # prev is of this group unless f starts it
                if group_runs and f.contact_with_semiroot > prev.contact_with_semiroot:
                    raise InvariantViolation(
                        f"semiroot contact rises from {prev.contact_with_semiroot} to "
                        f"{f.contact_with_semiroot} at {self.labels()[start]}"
                    )
                group_runs.append((f, start, stop))
                prev = f
            runs.append(group_runs)
        return runs

    def to_json(self) -> str:
        """The prediction document as indent-2 JSON text (``tests/oracles``
        builds it as a dict), in one pass over the runs: each run is one
        factor block with only the label changing, and its two contacts,
        formatted once, end the contact rows that it closes."""
        # labels and contacts hold no character that JSON escapes
        quoted = [f'"{name}"' for name in self.labels()]
        # a row is '    [\n      "a",\n      "b",\n      "c"\n    ]'
        cells = [name + ",\n      " for name in quoted]
        groups, rows, stop = [], ["[\n"], 0
        for l, group_runs in enumerate(self._runs(), start=1):
            blocks, mine, tails = [], [], []
            for f, start, stop in group_runs:
                # the factor's block at indent 8, cut at the value of its label
                lead, _, tail = dumps(dict(f.to_json(l), label=""), 8).rpartition('""')
                labels = (tail + ",\n        " + lead).join(quoted[start:stop])
                blocks.append(Written((lead, labels, tail)))
                # row (i, j) ends in j's semiroot contact when j is in i's
                # group, and in i's contact with f when j is in a later one
                own = f'"{fmt_q(f.contact_with_semiroot)}"\n    ]'
                mine += [cell + own for cell in cells[start:stop]]
                tails += [f'"{fmt_q(f.contact_with_f)}"\n    ]'] * (stop - start)
            cont_f = fmt_q(Fraction(self.char.b[l], self.char.b0))
            groups.append({"l": l, "cont_f": cont_f, "factors": blocks})
            # the rows of the group's i-th factor: the rest of its group, then
            # every later group
            later = cells[stop:]
            for i, (cell, tail) in enumerate(zip(cells[stop - len(mine):], tails), start=1):
                lead = "    [\n      " + cell
                sep = ",\n" + lead
                if i < len(mine):
                    rows += [lead, sep.join(mine[i:]), ",\n"]
                if later:
                    rows += [lead, (tail + sep).join(later), tail, ",\n"]
        rows[-1] = "\n  ]"
        return dumps({
            "char": list(self.char.b),
            "k": self.k,
            "i_k": self.i_k,
            "multiplicity_total": self.multiplicity_total(),
            "groups": groups,
            "pairwise_contacts": Written(rows) if len(quoted) > 1 else [],
        })

    def to_text(self) -> str:
        lines = [
            f"class K{self.char}, k = {self.k}: "
            f"d^{self.k}f/dy^{self.k} = "
            + " * ".join(f"G^({l})" for l in range(1, self.i_k + 1))
        ]
        names = iter(self.labels())
        for l, group in enumerate(self.groups, start=1):
            cont = fmt_q(Fraction(self.char.b[l], self.char.b0))
            lines.append(f"group {l}: cont(f, v) = {cont} for every irreducible factor v")
            for f in group:
                name = next(names)
                char_set = "{" + ", ".join(fmt_q(e) for e in f.char_exponents) + "}"
                desc = "smooth" if f.is_smooth else f"Char = {char_set}"
                lines.append(
                    f"  - {name}: mult {f.multiplicity}, "
                    f"cont(f_{l}, .) = {fmt_q(f.contact_with_semiroot)}, {desc}"
                )
        lines.append(f"total multiplicity {self.multiplicity_total()} = b0 - k")
        return "\n".join(lines)


def _check_branch(f: PolarFactor) -> None:
    """A factor is a branch: each characteristic exponent raises the lcm of
    the denominators before it, and the last lcm, its index, is its multiplicity."""
    index = 1
    for e in f.char_exponents:
        raised = lcm(index, e.denominator)
        if raised == index:
            raise InvariantViolation(f"not a branch: {e} does not raise the index {index} of {f}")
        index = raised
    if index != f.multiplicity:
        raise InvariantViolation(f"not a branch: the index {index} of {f} is not its multiplicity")


def predict(cs: CharSequence, k: int) -> PolarPrediction:
    """Equisingularity data of the generic k-th polar of the class ``cs``."""
    if not 1 <= k < cs.b0:
        raise OrderOutOfRange(f"polar order must satisfy 1 <= k < {cs.b0}, got {k}")
    exponents = cs.char_exponents()
    groups = []
    for l in range(1, cs.h + 1):
        if cs.e[l - 1] <= k:
            break
        n_l = cs.n_seq[l - 1]
        m_l = cs.m_seq[l - 1]
        e_l = cs.e[l]
        nsub = cs.b0 // cs.e[l - 1]  # n_1 * ... * n_{l-1}
        cont_f = exponents[l - 1]
        prefix = exponents[:l - 1]

        t = ((k - 1) % n_l) + 1
        derived = diagram_mod.elementary(m_l, n_l).symbolic_derivative(t)
        factors = []
        # equal parts give equal factors: one frozen object stands for each run
        for (m_j, n_j), run in groupby(derived.canonical_rep(long=True).parts):
            cont_semi = Fraction(m_j, nsub * n_j)
            # beyond cont_f, an appended exponent also exceeds every one before it
            if cont_semi <= cont_f:
                raise InvariantViolation(
                    f"Z-factor contact {cont_semi} must sit strictly beyond {cont_f}"
                )
            chars = prefix + (cont_semi,) if n_j > 1 else prefix
            z = PolarFactor("Z", (m_j, n_j), nsub * n_j, cont_f, cont_semi, chars)
            _check_branch(z)
            factors += [z] * len(list(run))
        w_count = min(e_l, k) - (-(-k // n_l))
        w = PolarFactor("W", None, cs.b0 // e_l, cont_f, cont_f, prefix + (cont_f,))
        _check_branch(w)
        factors += [w] * w_count
        groups.append(tuple(factors))

    prediction = PolarPrediction(cs, k, tuple(groups))
    if prediction.multiplicity_total() != cs.b0 - k:
        raise InvariantViolation(
            f"multiplicities {prediction.multiplicity_total()} != {cs.b0 - k}"
        )
    return prediction


# ---------------------------------------------------------------------------
# Eggers-Wall tree export
# ---------------------------------------------------------------------------


@dataclass
class EWLeaf:
    name: str
    sort_key: tuple
    char_exponents: tuple   # used for the edge index annotations
    multiplicity: int | None = None

    def display(self) -> str:
        if self.multiplicity is None:
            return self.name
        return f"{self.name} (mult {self.multiplicity})"


@dataclass
class EWNode:
    contact: Fraction | None          # None at the root
    children: list = field(default_factory=list)   # (edge_index, EWNode | EWLeaf)


@dataclass
class EggersWallExport:
    root: EWNode

    def to_dot(self) -> str:
        lines = [
            "digraph eggers_wall {",
            "  rankdir=BT;",
            '  node [fontsize=11];',
        ]
        _emit_dot(self.root, lines, itertools.count())
        lines.append("}")
        return "\n".join(lines)


def _emit_dot(node, lines: list, names) -> str:
    # a module-level function, not a closure: a closure that calls itself is
    # a reference cycle, and would keep every line alive until the cyclic
    # garbage collector runs
    name = f"n{next(names)}"
    if isinstance(node, EWLeaf):
        lines.append(f'  {name} [label="{node.display()}", shape=none];')
        return name
    label = "0" if node.contact is None else fmt_q(node.contact)
    shape = "point" if node.contact is None else "circle"
    extra = ', width=0.1' if shape == "point" else ""
    lines.append(f'  {name} [label="{label}", shape={shape}{extra}];')
    for edge_index, child in node.children:
        child_name = _emit_dot(child, lines, names)
        lines.append(f'  {name} -> {child_name} [label="{edge_index}", dir=none];')
    return name


def _edge_index(leaf: EWLeaf, parent_contact: Fraction) -> int:
    dens = [e.denominator for e in leaf.char_exponents if e <= parent_contact]
    return lcm(*dens) if dens else 1


def _finish(node, include_branch: bool):
    """Turn a vertex (contact, children) or a leaf into (subtree, its first
    leaf), or None when nothing is left.

    Drops f and the f_l unless ``include_branch``, contracts vertices left
    with one child, orders children by their first leaf and labels each edge
    with its index."""
    if isinstance(node, EWLeaf):
        return (node, node) if include_branch or node.multiplicity is not None else None
    contact, children = node
    kept = [sub for sub in (_finish(child, include_branch) for child in children) if sub]
    if len(kept) <= 1:
        return kept[0] if kept else None
    kept.sort(key=lambda sub: sub[1].sort_key)
    edges = [(_edge_index(first, contact), tree) for tree, first in kept]
    return EWNode(contact, edges), kept[0][1]


def export_eggers_wall(p: PolarPrediction, include_branch: bool = True) -> EggersWallExport:
    """Eggers-Wall tree of the predicted factors and, when ``include_branch``
    is set, of the branch f and its semiroots f_l (see the module docstring)."""
    cs = p.char
    # position in canonical emission order doubles as the sort key; group l
    # is by_group[l - 1], the position of its tuple, and the levels past the
    # prediction's groups are empty
    names = p.labels()
    by_group = [[(f, EWLeaf(names[pos], (2, pos), f.char_exponents, f.multiplicity))
                 for f, start, stop in group_runs for pos in range(start, stop)]
                for group_runs in p._runs()] + [[]] * cs.h

    # vertices are (contact, children) until _finish; the trunk grows from
    # the leaf f toward the root and each f_l path from f_l toward the trunk
    exponents = cs.char_exponents()
    trunk = EWLeaf("f", (0,), exponents)
    for l in range(cs.h, 0, -1):
        path = EWLeaf(f"f_{l}", (1, l), exponents[:l - 1])
        # Z-factors come by descending semiroot contact (CanonicalRep order)
        zs = [(f.contact_with_semiroot, leaf) for f, leaf in by_group[l - 1] if f.kind == "Z"]
        for contact, run in groupby(zs, key=itemgetter(0)):
            path = (contact, [path, *(leaf for _, leaf in run)])
        ws = [leaf for f, leaf in by_group[l - 1] if f.kind == "W"]
        trunk = (exponents[l - 1], [trunk, path, *ws])

    tree, _ = _finish(trunk, include_branch)
    return EggersWallExport(EWNode(None, [(1, tree)]))
