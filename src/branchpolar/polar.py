"""Predicted factorization of the generic k-th polar of a plane branch.

Given an equisingularity class (b0,...,bh) and a derivative order k < b0, the
generic k-th polar splits into groups G^(1)...G^(i_k), one for every l with
e_{l-1} > k.  Group l collects the irreducible factors whose contact with the
branch is b_l/b0; it consists of

* one Z-factor for every part (M_j, N_j) of the long canonical representation
  of the t-th symbolic derivative of the elementary diagram (m_l, n_l), where
  t is the representative of k modulo n_l in 1..n_l.  The factor has
  multiplicity n_1...n_{l-1} * N_j and contact M_j/(n_1...n_{l-1} N_j) with
  the l-th semiroot;
* m = min(e_l, k) - ceil(k/n_l) W-factors of multiplicity b0/e_l and
  contact b_l/b0 with the l-th semiroot.

Group l is defined by its contact with the branch, b_l/b0, and its position
in the prediction is the only record of it: no factor stores that contact.
Nor does a factor store its characteristic exponents: they are b_1/b0, ...,
b_(l-1)/b0, then its semiroot contact when that raises the index, that is
when its multiplicity exceeds b0/e_(l-1), the index of the exponents before
it.  That is a Z-factor's contact when N_j > 1 and every W-factor's b_l/b0.
Pairwise contacts inside a group are the minimum of the semiroot contacts;
across groups they are the minimum of the contacts with the branch.  In
label order both minima are known without comparing pairs.  Inside a group
the semiroot contacts weakly decrease and never fall below b_l/b0: the
Z-factors follow the parts of the long canonical representation, whose
ratios M_j/N_j weakly decrease, and lie beyond b_l/b0, and the W-factors sit
at b_l/b0.  Across groups b_l/b0 increases with l.  So the row (i, j), j
after i, takes factor j's semiroot contact when both lie in one group and
b_l/b0 of factor i's group l otherwise.  ``predict`` repeats one frozen
factor object for each run of equal factors (the W-factors of a group, the
Z-factors of equal parts), and one checked walk of those runs, ``_runs``,
checks in O(F) for F factors that each group's semiroot contacts never rise
and never fall below its b_l/b0, and that its W-factors' are b_l/b0, names
every factor and builds its exponents: a run carries its label prefix,
z^(l)_ or w^(l)_, the range of its numbers, each kind counted apart in its
group, and its characteristic exponents.  Every writer reads that walk, so
none writes a prediction that breaks the rule, and each formats a run once,
with only the number changing from factor to factor.

Every writer, ``to_text`` and ``to_json`` here and ``to_dot`` of the
Eggers-Wall export, is one kind: a callable ``(put, newline)`` that makes
its checks and then puts its text piece by piece through ``put``, with
``newline`` between lines, and returns nothing; ``jsontext.dumps(writer)``
joins what any of them puts.  ``to_text`` puts each group's lines as one
piece, each run's line formatted once with all its names.  ``to_json``
puts the document: each run's factor blocks are one callable that writes
the block once at the depth where it lands, each run's semiroot contact and
each group's b_l/b0 are formatted once, and the contact rows are put as
they are generated, joined from per-factor strings, so no Python
code runs per pair and no more than a factor's rows are held at once.  The
Eggers-Wall export takes its runs from the same walk.

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

The export works per run of equal factors, which hang off one vertex with
one characteristic sequence.  A run of r factors is one child of its vertex,
``EWRun``, which keeps the run's prefix and numbers: it counts as r children
where a vertex left with one child is contracted, sorts by its place among
the runs, has its edge index computed once, and ``to_dot`` writes each
leaf's name straight into its node line, and puts its r node lines and r
edge lines as one piece.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter

from . import diagram as diagram_mod
from .charclass import CharSequence
from .errors import InvariantViolation, OrderOutOfRange, integers
from .jsontext import dumps, write

__all__ = [
    "PolarFactor",
    "PolarPrediction",
    "EggersWallExport",
    "check_order",
    "predict",
    "export_eggers_wall",
]


@dataclass(frozen=True)
class PolarFactor:
    kind: str                       # "Z" or "W"
    part: tuple | None              # (M_j, N_j) for Z-factors
    multiplicity: int
    # its contact with f is b_l/b0 of its group l, which only the
    # prediction records; its characteristic exponents follow from that
    # group, this contact and the multiplicity, and only
    # ``PolarPrediction._runs`` builds them
    contact_with_semiroot: Fraction


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

    def multiplicity_total(self) -> int:
        return sum(f.multiplicity for f in self.factors())

    def _runs(self) -> list:
        """Each group's runs, named, after checking in O(F) the orderings
        the contact rule relies on (see the module docstring).

        ``_runs()[l - 1]`` lists (factor, prefix, numbers, exponents) for
        each run of one factor object repeated in group l, in label order:
        the run's factors are named prefix + j for j in the range
        ``numbers``, the prefix z^(l)_ or w^(l)_ and each kind counted apart
        in its group, and their characteristic exponents are b_1/b0, ...,
        b_(l-1)/b0, then the semiroot contact when the multiplicity exceeds
        b0/e_(l-1), the index of the exponents before it.  Inside group l
        the semiroot contact never rises from one run to the next and never
        falls below b_l/b0, the group's contact with f, and a W-factor's is
        b_l/b0; a prediction that breaks any of these raises
        ``InvariantViolation``."""
        runs, b, b0, e, head = [], self.char.b, self.char.b0, self.char.e, ()
        for l, group in enumerate(self.groups, start=1):
            if l > 1:  # head is b_1/b0, ..., b_(l-1)/b0, of index b0/e_(l-1)
                head += (Fraction(b[l - 1], b0),)
            group_runs, count, prev, nsub = [], {"Z": 1, "W": 1}, None, b0 // e[l - 1]
            for _, run in groupby(group, key=id):
                run = list(run)
                f = run[0]
                first = count[f.kind]
                count[f.kind] = stop = first + len(run)
                prefix = f"{f.kind.lower()}^({l})_"
                semi = f.contact_with_semiroot
                if prev is not None and semi > prev:
                    raise InvariantViolation(
                        f"semiroot contact rises from {prev} to {semi} at {prefix}{first}"
                    )
                beyond = semi.numerator * b0 - b[l] * semi.denominator  # sign of semi - b_l/b0
                if beyond < 0 or beyond and f.kind == "W":
                    side = "falls below" if beyond < 0 else "of a W-factor lies beyond"
                    raise InvariantViolation(
                        f"semiroot contact {semi} {side} {Fraction(b[l], b0)} at {prefix}{first}"
                    )
                chars = head + (semi,) if f.multiplicity > nsub else head
                group_runs.append((f, prefix, range(first, stop), chars))
                prev = semi
            runs.append(group_runs)
        return runs

    def to_json(self, put, newline: str = "\n") -> None:
        """Put the prediction document, indent-2 JSON text (``tests/oracles``
        builds it as a dict), piece by piece through ``put``, with
        ``newline`` ending every line, so that it lands at any depth of an
        enclosing document.  ``_runs`` checks the orderings before the first
        piece.  Each run's factor blocks are one callable that writes the
        block once, with only the label changing, each run's semiroot
        contact and each group's contact with f, b_l/b0 of the class, are
        formatted once, and the contact rows are generated as they are
        put."""
        row = newline + "    "
        # labels and contacts hold no character that JSON escapes; a row is
        # '[' + row + '  "a",' + row + '  "b",' + row + '  "c"' + row + ']'
        cells, groups, ends = [], [], []
        for l, group_runs in enumerate(self._runs(), start=1):
            cont_f = str(Fraction(self.char.b[l], self.char.b0))
            blocks, mine = [], []
            for f, prefix, numbers, chars in group_runs:
                blocks.append(partial(_factor_blocks, f, chars, l, cont_f, prefix, numbers))
                # row (i, j) ends in j's semiroot contact when j is in i's
                # group, and in the group's b_l/b0 when j is in a later one
                own = f'"{f.contact_with_semiroot}"{row}]'
                run_cells = [f'"{prefix}{j}",{row}  ' for j in numbers]
                mine += [cell + own for cell in run_cells]
                cells += run_cells
            groups.append({"l": l, "cont_f": cont_f, "factors": blocks})
            ends.append((len(cells), mine, f'"{cont_f}"{row}]'))
        write({
            "char": list(self.char.b),
            "k": self.k,
            "i_k": self.i_k,
            "multiplicity_total": self.multiplicity_total(),
            "groups": groups,
            "pairwise_contacts": (partial(_contact_rows, cells, ends, newline)
                                  if len(cells) > 1 else []),
        }, put, newline)

    def to_text(self, put, newline: str = "\n") -> None:
        """Put the prediction as text through ``put``, one line per group
        and per factor, with ``newline`` between lines.  ``_runs`` checks
        the orderings before the first piece; each group's lines are one
        piece, and each run's line is formatted once with all its names."""
        runs = self._runs()
        put(f"class K{self.char}, k = {self.k}: d^{self.k}f/dy^{self.k} = "
            + " * ".join(f"G^({l})" for l in range(1, self.i_k + 1)))
        for l, group_runs in enumerate(runs, start=1):
            cont = Fraction(self.char.b[l], self.char.b0)
            lines = [f"{newline}group {l}: cont(f, v) = {cont} for every irreducible factor v"]
            for f, prefix, numbers, chars in group_runs:
                desc = "Char = {" + ", ".join(map(str, chars)) + "}" if chars else "smooth"
                # the run's line, formatted once, takes each of its names
                lead = f"{newline}  - {prefix}"
                line = (f": mult {f.multiplicity}, "
                        f"cont(f_{l}, .) = {f.contact_with_semiroot}, {desc}")
                lines += [f"{lead}{j}{line}" for j in numbers]
            put("".join(lines))
        put(f"{newline}total multiplicity {self.multiplicity_total()} = b0 - k")


def _factor_blocks(f: PolarFactor, chars: tuple, l: int, cont_f: str, prefix: str, numbers,
                   put, newline: str) -> None:
    """Put the blocks of one run of factors of group ``l``, whose contact
    with f is ``cont_f`` and characteristic exponents ``chars``, as items
    of a ``factors`` list, at the depth of ``newline``: ``f``'s block
    labelled prefix + j for each j of ``numbers``, written once and cut
    between the quotes of its label."""
    text = dumps({
        "kind": f.kind,
        "group": l,
        "part": list(f.part) if f.part else None,
        "multiplicity": f.multiplicity,
        "cont_f": cont_f,
        "cont_semiroot": str(f.contact_with_semiroot),
        "char": [str(e) for e in chars],
        "label": "",
    }, len(newline) - 1)
    cut = text.rindex('""') + 1
    lead, tail = text[:cut] + prefix, text[cut:]
    put(lead)
    put((tail + "," + newline + lead).join(map(str, numbers)))
    put(tail)


def _contact_rows(cells, ends, newline: str, put, _depth: str) -> None:
    """Put the text of ``pairwise_contacts``, one factor's rows at a time,
    generated as they are put, with ``newline`` the document's own, which
    the cells were built with, and not the depth newline the writer passes.
    ``ends`` holds, per group, the label position where the group stops,
    the ends of the rows that pair a factor with an earlier one of its
    group, and the group's end of its factors' rows with later groups (see
    ``PolarPrediction.to_json``)."""
    row = newline + "    "
    sep = "["
    for stop, mine, tail in ends:
        # the rows of the group's i-th factor: the rest of its group, then
        # every later group
        later = cells[stop:]
        for i, cell in enumerate(cells[stop - len(mine):stop], start=1):
            lead = row + "[" + row + "  " + cell
            if i < len(mine):
                put(sep + lead)
                put(("," + lead).join(mine[i:]))
                sep = ","
            if later:
                put(sep + lead)
                put((tail + "," + lead).join(later))
                put(tail)
                sep = ","
    put(newline + "  ]")


def _check_branch(f: PolarFactor, nsub: int) -> None:
    """A factor of a group l with nsub = b0/e_(l-1) is a branch: its
    exponents b_1/b0, ..., b_(l-1)/b0 have the index nsub, the semiroot
    contact that ``_runs`` appends when the multiplicity exceeds nsub
    raises it, and the last index, lcm(nsub, the contact's denominator),
    is its multiplicity."""
    index = lcm(nsub, f.contact_with_semiroot.denominator)
    if index != f.multiplicity:
        raise InvariantViolation(f"not a branch: the index {index} of {f} is not its multiplicity")


def check_order(cs: CharSequence, k) -> int:
    """The polar order ``k`` as an int with 1 <= k < b0, or OrderOutOfRange;
    a bool or a float is refused, not read as a number."""
    [k] = integers([k], OrderOutOfRange)
    if not 1 <= k < cs.b0:
        raise OrderOutOfRange(f"polar order must satisfy 1 <= k < {cs.b0}, got {k}")
    return k


def predict(cs: CharSequence, k: int) -> PolarPrediction:
    """Equisingularity data of the generic k-th polar of the class ``cs``,
    for an int k with 1 <= k < b0 (``check_order``)."""
    k = check_order(cs, k)
    groups = []
    for l in range(1, cs.h + 1):
        if cs.e[l - 1] <= k:
            break
        n_l = cs.n_seq[l - 1]
        m_l = cs.m_seq[l - 1]
        e_l = cs.e[l]
        nsub = cs.b0 // cs.e[l - 1]  # n_1 * ... * n_{l-1}
        cont_f = Fraction(cs.b[l], cs.b0)

        t = ((k - 1) % n_l) + 1
        derived = diagram_mod.elementary(m_l, n_l).symbolic_derivative(t)
        factors = []
        # equal parts give equal factors: one frozen object stands for each run
        for (m_j, n_j), run in groupby(derived.canonical_rep(long=True).parts):
            cont_semi = Fraction(m_j, nsub * n_j)
            # beyond cont_f, the exponent _runs appends exceeds every one before it
            if cont_semi <= cont_f:
                raise InvariantViolation(
                    f"Z-factor contact {cont_semi} must sit strictly beyond {cont_f}"
                )
            z = PolarFactor("Z", (m_j, n_j), nsub * n_j, cont_semi)
            _check_branch(z, nsub)
            factors += [z] * len(list(run))
        w_count = min(e_l, k) - (-(-k // n_l))
        w = PolarFactor("W", None, cs.b0 // e_l, cont_f)
        _check_branch(w, nsub)
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
class EWRun:
    """Leaves that hang off one vertex by equal edges: the branch f, a
    semiroot f_l, or the factors of one run of ``PolarPrediction._runs``,
    which share their characteristic exponents and multiplicity.  Each leaf
    is named ``prefix`` and one of ``numbers``: f is "f" and "", f_l is "f_"
    and l, and a run of factors keeps its prefix and range of numbers."""

    prefix: str
    numbers: tuple | range
    sort_key: tuple         # sorts as the first leaf does
    char_exponents: tuple   # used for the edge index annotations
    multiplicity: int | None = None


@dataclass
class EWNode:
    contact: Fraction | None          # None at the root
    children: list                    # (edge_index, EWNode | EWRun)


@dataclass
class EggersWallExport:
    root: EWNode

    def to_dot(self, put, newline: str = "\n") -> None:
        """Put the tree in DOT through ``put``, with ``newline`` between
        lines."""
        put(f"digraph eggers_wall {{{newline}  rankdir=BT;{newline}  node [fontsize=11];")
        _emit_dot(self.root, put, newline, itertools.count())
        put(newline + "}")


def _emit_dot(node: EWNode, put, newline: str, names) -> str:
    """Put the lines of ``node``'s subtree, each after ``newline``, and
    return the node's name."""
    # a module-level function, not a closure: a closure that calls itself is
    # a reference cycle, and would keep every line alive until the cyclic
    # garbage collector runs
    name = f"n{next(names)}"
    label, shape = ("0", "point, width=0.1") if node.contact is None else (node.contact, "circle")
    put(f'{newline}  {name} [label="{label}", shape={shape}];')
    for edge_index, child in node.children:
        edge = f' [label="{edge_index}", dir=none];'
        if isinstance(child, EWNode):
            put(f"{newline}  {name} -> {_emit_dot(child, put, newline, names)}{edge}")
            continue
        # each leaf of the run: its node line, then its edge line, the parts
        # around its numbers formatted once; zip stops at the end of the
        # numbers before it draws from the counter
        mult = "" if child.multiplicity is None else f" (mult {child.multiplicity})"
        head, opening = f"{newline}  n", f' [label="{child.prefix}'
        tail = f'{mult}", shape=none];{newline}  {name} -> n'
        put(head + (edge + head).join([f"{i}{opening}{j}{tail}{i}"
                                       for j, i in zip(child.numbers, names)]) + edge)
    return name


def _edge_index(run: EWRun, parent_contact: Fraction) -> int:
    dens = [e.denominator for e in run.char_exponents if e <= parent_contact]
    return lcm(*dens) if dens else 1


def _finish(node, include_branch: bool):
    """Turn a vertex (contact, children) or a run into (subtree, its first
    run), or None when nothing is left.

    Drops f and the f_l unless ``include_branch``, contracts vertices left
    with one leaf or one vertex, a run of r leaves counting as r children,
    orders children by their first leaf and labels each edge with its
    index, once per run."""
    if isinstance(node, EWRun):
        return (node, node) if include_branch or node.multiplicity is not None else None
    contact, children = node
    kept = [sub for sub in (_finish(child, include_branch) for child in children) if sub]
    if sum(len(tree.numbers) if isinstance(tree, EWRun) else 1 for tree, _ in kept) <= 1:
        return kept[0] if kept else None
    kept.sort(key=lambda sub: sub[1].sort_key)
    edges = [(_edge_index(first, contact), tree) for tree, first in kept]
    return EWNode(contact, edges), kept[0][1]


def export_eggers_wall(p: PolarPrediction, include_branch: bool = True) -> EggersWallExport:
    """Eggers-Wall tree of the predicted factors and, when ``include_branch``
    is set, of the branch f and its semiroots f_l (see the module docstring)."""
    cs = p.char
    # runs come in label order, so a run's place among them sorts it as its
    # first label would; group l is by_group[l - 1], the position of its
    # runs, and the levels past the prediction's groups are empty
    order = itertools.count()
    by_group = [[(f, EWRun(prefix, numbers, (2, next(order)), chars, f.multiplicity))
                 for f, prefix, numbers, chars in group_runs]
                for group_runs in p._runs()] + [[]] * cs.h

    # vertices are (contact, children) until _finish; the trunk grows from
    # the leaf f toward the root and each f_l path from f_l toward the trunk
    exponents = cs.char_exponents()
    trunk = EWRun("f", ("",), (0,), exponents)
    for l in range(cs.h, 0, -1):
        path = EWRun("f_", (l,), (1, l), exponents[:l - 1])
        # Z-runs come by descending semiroot contact (CanonicalRep order)
        zs = [(f.contact_with_semiroot, run) for f, run in by_group[l - 1] if f.kind == "Z"]
        for contact, same in groupby(zs, key=itemgetter(0)):
            path = (contact, [path, *(run for _, run in same)])
        ws = [run for f, run in by_group[l - 1] if f.kind == "W"]
        trunk = (exponents[l - 1], [trunk, path, *ws])

    tree, _ = _finish(trunk, include_branch)
    return EggersWallExport(EWNode(None, [(1, tree)]))
