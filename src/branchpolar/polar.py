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

So a prediction records each group l as the pair (parts, w): the parts, in
canonical order with repeats kept, and the W-count w.  Everything else a
writer prints follows from that pair and the group's position l, which is
the one record of the group's contact with f, b_l/b0.  A factor's
characteristic exponents are b_1/b0, ..., b_(l-1)/b0, then its semiroot
contact when that raises the index, that is when its multiplicity exceeds
b0/e_(l-1), the index of the exponents before it: a Z-factor's contact when
N_j > 1 and every W-factor's b_l/b0.

``PolarPrediction.check`` holds every check on the record, stated on the
parts and compared in integers: no group lies past the class's h levels,
each part is primitive, so that its factor is a branch (its index, the lcm
of b0/e_(l-1) and the denominator of its semiroot contact, is its
multiplicity), the parts of a group never rise in M/N and lie beyond
b_l/b0, and no W-count is negative.  ``predict`` calls it before it
returns and every writer before its first piece.

Pairwise contacts inside a group are the minimum of the semiroot contacts;
across groups they are the minimum of the contacts with the branch.  In
label order both minima are known without comparing pairs: inside a group
the semiroot contacts weakly decrease and never fall below b_l/b0, where
the W-factors sit, and across groups b_l/b0 increases with l.  So the row
(i, j), j after i, takes factor j's semiroot contact when both lie in one
group and b_l/b0 of factor i's group l otherwise.  One walk of the record,
``_runs``, cuts each group into runs of equal factors (the Z-factors of
equal parts, the W-factors) and derives each run's values: its kind, part,
multiplicity and semiroot contact, its label prefix, z^(l)_ or w^(l)_, the
range of its numbers, each kind counted apart in its group, and its
characteristic exponents.  Every writer reads that walk and formats a run
once, with only the number changing from factor to factor.

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
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

from . import diagram as diagram_mod
from .charclass import CharSequence
from .errors import InvariantViolation, OrderOutOfRange, integers
from .jsontext import dumps, write

__all__ = [
    "PolarPrediction",
    "EggersWallExport",
    "check_order",
    "predict",
    "export_eggers_wall",
]


# a run of equal factors of one group: their kind, "Z" or "W", part (M, N)
# or None, multiplicity, semiroot contact, label prefix, the range of their
# numbers and their characteristic exponents
Run = namedtuple("Run", "kind part multiplicity contact_with_semiroot prefix numbers exponents")


@dataclass(frozen=True)
class PolarPrediction:
    char: CharSequence
    k: int
    # tuple over l = 1..i_k of (parts, w): group l's parts in canonical
    # order, repeats kept, and its W-count; the group's position is its one
    # record of l
    groups: tuple

    @property
    def i_k(self) -> int:
        return len(self.groups)

    def factors(self) -> list:
        """One entry per factor, in label order: the ``Run`` it belongs to."""
        return [run for runs in self._runs() for run in runs for _ in run.numbers]

    def multiplicity_total(self) -> int:
        b0, e = self.char.b0, self.char.e
        return sum(sum(n for _, n in parts) * (b0 // e[l - 1]) + w * (b0 // e[l])
                   for l, (parts, w) in enumerate(self.groups, start=1))

    def check(self) -> None:
        """Raise ``InvariantViolation`` unless the record is one the writers
        can print: no group past the class's h levels and, in each group l,
        primitive parts (each factor a branch) whose M/N never rises and
        whose semiroot contacts M/((b0/e_(l-1)) N) lie beyond b_l/b0, and a
        W-count that is not negative.  Compared in integers, one run of equal
        parts at a time, the first fault in label order named."""
        cs = self.char
        if self.i_k > cs.h:
            raise InvariantViolation(f"group {cs.h + 1} lies past the {cs.h} levels of K{cs}")
        for l, (parts, w) in enumerate(self.groups, start=1):
            # prev is the contact M/(nsub N) of the run before, as (M, nsub N)
            nsub, j, prev = cs.b0 // cs.e[l - 1], 1, None
            for (m, n), same in groupby(parts):
                if n < 1 or gcd(m, n) != 1:
                    fault = f"not a branch: the part {(m, n)} is not primitive"
                elif prev and m * prev[1] > prev[0] * nsub * n:
                    fault = (f"semiroot contact rises from {Fraction(*prev)} to "
                             f"{Fraction(m, nsub * n)}")
                elif m * cs.b0 <= cs.b[l] * nsub * n:
                    fault = (f"semiroot contact {Fraction(m, nsub * n)} does not lie beyond "
                             f"{Fraction(cs.b[l], cs.b0)}")
                else:
                    j, prev = j + len(list(same)), (m, nsub * n)
                    continue
                raise InvariantViolation(f"{fault} at z^({l})_{j}")
            if w < 0:
                raise InvariantViolation(f"group {l} has {w} W-factors")

    def _runs(self) -> list:
        """Each group's runs of equal factors, in label order, after
        ``check``: ``_runs()[l - 1]`` lists the ``Run`` of each run of equal
        parts of group l, then that of its W-factors, if it has any.  A
        run's factors are named prefix + j for j in ``numbers``, each kind
        counted apart in its group; their exponents are b_1/b0, ...,
        b_(l-1)/b0, then the semiroot contact when the multiplicity exceeds
        b0/e_(l-1), the index of the exponents before it."""
        self.check()
        runs, b, b0, e, head = [], self.char.b, self.char.b0, self.char.e, ()
        for l, (parts, w) in enumerate(self.groups, start=1):
            if l > 1:  # head is b_1/b0, ..., b_(l-1)/b0, of index b0/e_(l-1)
                head += (Fraction(b[l - 1], b0),)
            nsub, group_runs, first = b0 // e[l - 1], [], 1
            for (m, n), same in groupby(parts):
                stop = first + len(list(same))
                semi = Fraction(m, nsub * n)
                group_runs.append(Run("Z", (m, n), nsub * n, semi, f"z^({l})_",
                                      range(first, stop), head + (semi,) if n > 1 else head))
                first = stop
            if w:
                cont_f = Fraction(b[l], b0)
                group_runs.append(Run("W", None, b0 // e[l], cont_f, f"w^({l})_",
                                      range(1, w + 1), head + (cont_f,)))
            runs.append(group_runs)
        return runs

    def to_json(self, put, newline: str = "\n") -> None:
        """Put the prediction document, indent-2 JSON text (``tests/oracles``
        builds it as a dict), piece by piece through ``put``, with
        ``newline`` ending every line, so that it lands at any depth of an
        enclosing document.  ``_runs`` checks the record before the first
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
            for run in group_runs:
                blocks.append(partial(_factor_blocks, run, l, cont_f))
                # row (i, j) ends in j's semiroot contact when j is in i's
                # group, and in the group's b_l/b0 when j is in a later one
                own = f'"{run.contact_with_semiroot}"{row}]'
                run_cells = [f'"{run.prefix}{j}",{row}  ' for j in run.numbers]
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
        the record before the first piece; each group's lines are one
        piece, and each run's line is formatted once with all its names."""
        runs = self._runs()
        put(f"class K{self.char}, k = {self.k}: d^{self.k}f/dy^{self.k} = "
            + " * ".join(f"G^({l})" for l in range(1, self.i_k + 1)))
        for l, group_runs in enumerate(runs, start=1):
            cont = Fraction(self.char.b[l], self.char.b0)
            lines = [f"{newline}group {l}: cont(f, v) = {cont} for every irreducible factor v"]
            for run in group_runs:
                chars = run.exponents
                desc = "Char = {" + ", ".join(map(str, chars)) + "}" if chars else "smooth"
                # the run's line, formatted once, takes each of its names
                lead = f"{newline}  - {run.prefix}"
                line = (f": mult {run.multiplicity}, "
                        f"cont(f_{l}, .) = {run.contact_with_semiroot}, {desc}")
                lines += [f"{lead}{j}{line}" for j in run.numbers]
            put("".join(lines))
        put(f"{newline}total multiplicity {self.multiplicity_total()} = b0 - k")


def _factor_blocks(run: Run, l: int, cont_f: str, put, newline: str) -> None:
    """Put the blocks of one run of factors of group ``l``, whose contact
    with f is ``cont_f``, as items of a ``factors`` list, at the depth of
    ``newline``: the run's block labelled its prefix + j for each j of its
    numbers, written once and cut between the quotes of its label."""
    text = dumps({
        "kind": run.kind,
        "group": l,
        "part": list(run.part) if run.part else None,
        "multiplicity": run.multiplicity,
        "cont_f": cont_f,
        "cont_semiroot": str(run.contact_with_semiroot),
        "char": [str(e) for e in run.exponents],
        "label": "",
    }, len(newline) - 1)
    cut = text.rindex('""') + 1
    lead, tail = text[:cut] + run.prefix, text[cut:]
    put(lead)
    put((tail + "," + newline + lead).join(map(str, run.numbers)))
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


def check_order(cs: CharSequence, k) -> int:
    """The polar order ``k`` as an int with 1 <= k < b0, or OrderOutOfRange;
    a bool or a float is refused, not read as a number."""
    [k] = integers([k], OrderOutOfRange)
    if not 1 <= k < cs.b0:
        raise OrderOutOfRange(f"polar order must satisfy 1 <= k < {cs.b0}, got {k}")
    return k


def predict(cs: CharSequence, k: int) -> PolarPrediction:
    """Equisingularity data of the generic k-th polar of the class ``cs``,
    for an int k with 1 <= k < b0 (``check_order``), checked by
    ``PolarPrediction.check`` and against the total multiplicity b0 - k."""
    k = check_order(cs, k)
    groups = []
    for l in range(1, cs.h + 1):
        if cs.e[l - 1] <= k:
            break
        n_l = cs.n_seq[l - 1]
        m_l = cs.m_seq[l - 1]
        e_l = cs.e[l]
        t = ((k - 1) % n_l) + 1
        derived = diagram_mod.elementary(m_l, n_l).symbolic_derivative(t)
        w_count = min(e_l, k) - (-(-k // n_l))
        groups.append((derived.canonical_rep(long=True).parts, w_count))

    prediction = PolarPrediction(cs, k, tuple(groups))
    prediction.check()
    if prediction.multiplicity_total() != cs.b0 - k:
        raise InvariantViolation(f"multiplicities {prediction.multiplicity_total()} != {cs.b0 - k}")
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
    by_group = [[(run, EWRun(run.prefix, run.numbers, (2, next(order)), run.exponents,
                             run.multiplicity))
                 for run in group_runs]
                for group_runs in p._runs()] + [[]] * cs.h

    # vertices are (contact, children) until _finish; the trunk grows from
    # the leaf f toward the root and each f_l path from f_l toward the trunk
    exponents = cs.char_exponents()
    trunk = EWRun("f", ("",), (0,), exponents)
    for l in range(cs.h, 0, -1):
        path = EWRun("f_", (l,), (1, l), exponents[:l - 1])
        # Z-runs come by descending semiroot contact (CanonicalRep order)
        zs = [(run.contact_with_semiroot, leaf) for run, leaf in by_group[l - 1]
              if run.kind == "Z"]
        for contact, same in groupby(zs, key=itemgetter(0)):
            path = (contact, [path, *(leaf for _, leaf in same)])
        ws = [leaf for run, leaf in by_group[l - 1] if run.kind == "W"]
        trunk = (exponents[l - 1], [trunk, path, *ws])

    tree, _ = _finish(trunk, include_branch)
    return EggersWallExport(EWNode(None, [(1, tree)]))
