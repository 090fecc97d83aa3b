import gc
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchpolar
from branchpolar.charclass import new_char_sequence
from branchpolar.diagram import NewtonDiagram, elementary
from branchpolar.errors import InvariantViolation, OrderOutOfRange
from branchpolar.jsontext import dumps
from branchpolar.polar import Run, export_eggers_wall, predict
from branchpolar.verify import SeedRun, VerificationReport, verify_prediction
from oracles import (
    char_exponents,
    contact_table_oracle,
    eggers_wall_oracle,
    factor_labels,
    prediction_document_oracle,
    prediction_text_oracle,
    random_char_sequence,
    staircase_trunc_oracle,
)

EX1 = new_char_sequence([12, 16, 31])
EX2 = new_char_sequence([10, 14, 15])


def q(a, b=1):
    return Fraction(a, b)


def summary(p):
    """(kind, part, mult, cont_f, cont_semiroot, char) per factor, by group,
    as the writers derive them from the record, where cont_f is b_l/b0 of
    the factor's group l, its position, and char its characteristic
    exponents by the paper's statement."""
    return [
        [
            (f.kind, f.part, f.multiplicity, q(p.char.b[l], p.char.b0),
             f.contact_with_semiroot, char_exponents(p, l, f))
            for f in runs for _ in f.numbers
        ]
        for l, runs in enumerate(p._runs(), start=1)
    ]


def test_ex1_first_polar():
    p = predict(EX1, 1)
    assert summary(p) == [
        [("Z", (3, 2), 2, q(4, 3), q(3, 2), (q(3, 2),))],
        [("Z", (8, 1), 3, q(31, 12), q(8, 3), (q(4, 3),))] * 3,
    ]


def test_ex1_second_polar():
    p = predict(EX1, 2)
    assert summary(p) == [
        [
            ("Z", (2, 1), 1, q(4, 3), q(2), ()),
            ("W", None, 3, q(4, 3), q(4, 3), (q(4, 3),)),
        ],
        [("Z", (8, 1), 3, q(31, 12), q(8, 3), (q(4, 3),))] * 2,
    ]


def test_ex1_tenth_polar():
    p = predict(EX1, 10)
    assert p.i_k == 1
    assert summary(p) == [[("Z", (3, 2), 2, q(4, 3), q(3, 2), (q(3, 2),))]]


def test_ex2_first_polar():
    p = predict(EX2, 1)
    assert summary(p) == [
        [("Z", (3, 2), 2, q(7, 5), q(3, 2), (q(3, 2),))] * 2,
        [("Z", (8, 1), 5, q(3, 2), q(8, 5), (q(7, 5),))],
    ]


def test_ex2_second_polar():
    p = predict(EX2, 2)
    assert summary(p) == [
        [
            ("Z", (2, 1), 1, q(7, 5), q(2), ()),
            ("Z", (3, 2), 2, q(7, 5), q(3, 2), (q(3, 2),)),
            ("W", None, 5, q(7, 5), q(7, 5), (q(7, 5),)),
        ]
    ]


def test_whole_rationals_print_without_a_denominator():
    # z^(1)_1's semiroot contact at k = 2 is the Fraction 2, printed as "2"
    ex1, ex2 = predict(EX1, 2), predict(EX2, 2)
    assert type(ex1.factors()[0].contact_with_semiroot) is Fraction
    text, doc = dumps(ex1.to_text), dumps(ex1.to_json)
    dot = dumps(export_eggers_wall(ex2).to_dot)
    assert "cont(f_1, .) = 2," in text
    assert '"cont_semiroot": "2"' in doc
    assert '[label="2", shape=circle]' in dot
    for out in (text, doc, dot):
        assert '/1"' not in out and "/1," not in out


def test_order_out_of_range():
    # an order that is not an int is refused, not read as a number: True
    # would reach the JSON as "k": true, which the schema refuses
    for k in (True, 2.0, "2", 0, 12):
        with pytest.raises(OrderOutOfRange):
            predict(EX1, k)


def test_multiplicity_conservation_random():
    rng = random.Random(41)
    for _ in range(40):
        cs = random_char_sequence(rng, b0_max=36)
        for k in range(1, cs.b0):
            p = predict(cs, k)
            assert p.multiplicity_total() == cs.b0 - k


def test_semiroot_contacts_sit_at_or_beyond_their_group_contact():
    # group l's contact with f is b_l/b0: its W-factors meet the semiroot
    # f_l there and its Z-factors beyond it, which the contact rows and
    # the tree rely on
    rng = random.Random(43)
    for _ in range(40):
        cs = random_char_sequence(rng, b0_max=36)
        for k in range(1, cs.b0):
            for l, runs in enumerate(predict(cs, k)._runs(), start=1):
                cont_f = q(cs.b[l], cs.b0)
                for f in runs:
                    semi = f.contact_with_semiroot
                    assert (semi == cont_f) if f.kind == "W" else (semi > cont_f), (cs.b, k, l, f)


def test_parts_match_lattice_oracle():
    rng = random.Random(47)
    for _ in range(40):
        cs = random_char_sequence(rng, b0_max=36)
        k = rng.randint(1, cs.b0 - 1)
        p = predict(cs, k)
        for l, (parts, _) in enumerate(p.groups, start=1):
            n_l, m_l = cs.n_seq[l - 1], cs.m_seq[l - 1]
            t = ((k - 1) % n_l) + 1
            expected = staircase_trunc_oracle(elementary(m_l, n_l), t).translate(0, -t)
            assert parts == expected.canonical_rep(long=True).parts


# -- wrong symbolic derivatives must trip predict's invariants -----------------

_DERIVE = NewtonDiagram.symbolic_derivative


def _derivative_undone(d, k):
    return d


def _one_order_too_many(d, k):
    return _DERIVE(d, k + 1)


def _cut_edge_rounded_down(d, k):
    (_, n), (m, _) = d.vertices  # predict derives elementary diagrams only
    return elementary(m * (n - k) // n, n - k)


@pytest.mark.parametrize(
    "mutant", [_derivative_undone, _one_order_too_many, _cut_edge_rounded_down],
    ids=lambda f: f.__name__,
)
def test_predict_rejects_wrong_derivative(monkeypatch, mutant):
    monkeypatch.setattr(NewtonDiagram, "symbolic_derivative", mutant)
    for cs, k in ((EX1, 1), (EX1, 2), (EX2, 1), (EX2, 2)):
        with pytest.raises(InvariantViolation):
            predict(cs, k)


def test_predict_rejects_wrong_derivative_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_predict_rejects_wrong_derivative"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "3 passed" in run.stdout


def test_prediction_json_deterministic():
    a = dumps(predict(EX1, 2).to_json)
    b = dumps(predict(new_char_sequence([12, 16, 31]), 2).to_json)
    assert a == b


def test_pairwise_contacts_examples():
    p = predict(EX1, 2)
    table = {(a, b): c for a, b, c in contact_table_oracle(p)}
    assert table[("z^(1)_1", "w^(1)_1")] == q(4, 3)      # within group 1
    assert table[("z^(2)_1", "z^(2)_2")] == q(8, 3)      # within group 2
    assert table[("z^(1)_1", "z^(2)_1")] == q(4, 3)      # across groups
    assert table[("w^(1)_1", "z^(2)_2")] == q(4, 3)


# -- contact rows from the group structure ------------------------------------------


def assert_document_matches_oracle(p):
    # the oracle takes its rows from contact_table_oracle, one pair at a time
    assert dumps(p.to_json) == json.dumps(prediction_document_oracle(p), indent=2)


@pytest.mark.parametrize("cs,k", [(EX1, 1), (EX1, 2), (EX1, 10), (EX2, 1), (EX2, 2)])
def test_contact_rows_match_oracle_on_goldens(cs, k):
    assert_document_matches_oracle(predict(cs, k))


@pytest.mark.parametrize("name,k", [("ex1", 1), ("ex1", 2), ("ex1", 10), ("ex2", 1), ("ex2", 2)])
def test_text_oracle_writes_the_text_goldens(name, k):
    # the one-line-per-factor oracle is pinned to the goldens, so the grid
    # test below compares to_text with text known to be right
    p = predict({"ex1": EX1, "ex2": EX2}[name], k)
    golden = Path(__file__).parent / "golden" / f"{name}_k{k}.txt"
    assert prediction_text_oracle(p) + "\n" == golden.read_text()


@st.composite
def char_sequences(draw):
    """Classes with b0 <= 64 and 1-4 levels, plus the Z-heavy K(b0, 2b0-1)
    and the W-heavy K(2e, 3e, 3e+1)."""
    shape = draw(st.sampled_from(["random", "z-heavy", "w-heavy"]))
    if shape == "z-heavy":
        b0 = draw(st.integers(2, 64))
        return new_char_sequence([b0, 2 * b0 - 1])
    if shape == "w-heavy":
        e = draw(st.integers(2, 32))
        return new_char_sequence([2 * e, 3 * e, 3 * e + 1])
    levels = draw(st.integers(1, 4))
    n_seq = []
    while len(n_seq) < levels:
        # leave room for n_l >= 2 at every level still to come
        n_seq.append(draw(st.integers(2, 64 // prod(n_seq) >> (levels - len(n_seq) - 1))))
    b = [prod(n_seq)]
    for l in range(1, len(n_seq) + 1):
        e_l = prod(n_seq[l:])
        c = b[-1] // e_l + 1 + draw(st.integers(0, 2 * n_seq[l - 1]))
        while gcd(c, n_seq[l - 1]) > 1:
            c += 1
        b.append(c * e_l)
    return new_char_sequence(b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(char_sequences())
def test_contact_rows_match_oracle(cs):
    for k in range(1, cs.b0):
        assert_document_matches_oracle(predict(cs, k))


def _replace_group(p, l, parts=None, w=None):
    """``p`` with group l's parts or W-count replaced."""
    old_parts, old_w = p.groups[l - 1]
    group = (old_parts if parts is None else parts, old_w if w is None else w)
    return replace(p, groups=p.groups[:l - 1] + (group,) + p.groups[l:])


def _swap_two_z(p):
    # the first two neighbouring parts of a group that differ, swapped
    for l, (parts, _) in enumerate(p.groups, start=1):
        for i in range(len(parts) - 1):
            if parts[i] != parts[i + 1]:
                swapped = parts[:i] + (parts[i + 1], parts[i]) + parts[i + 2:]
                return _replace_group(p, l, parts=swapped)
    raise ValueError("no two Z-factors of one group differ in semiroot contact")


def _swap_groups(p):
    return replace(p, groups=p.groups[::-1])


def _first_part_at_its_group(p):
    # group 1's first part moved to b_1/b0 itself, where the W-factors sit
    cs = p.char
    parts, _ = p.groups[0]
    return _replace_group(p, 1, parts=((cs.b[1] // cs.e[1], cs.b0 // cs.e[1]),) + parts[1:])


def _unsplit_part(p):
    # the last group's parts merged into one, (8, 1) three times read as
    # (24, 3): the total multiplicity is kept, but the factor is no branch
    parts, _ = p.groups[-1]
    merged = (sum(m for m, _ in parts), sum(n for _, n in parts))
    return _replace_group(p, p.i_k, parts=(merged,))


def _last_w_count_below_zero(p):
    # the W-count of the last group that has W-factors, lowered below zero
    l = max(l for l, (_, w) in enumerate(p.groups, start=1) if w)
    return _replace_group(p, l, w=-1)


def _w_above_the_levels(p):
    # a W-factor in a group above the class's h levels
    return replace(p, groups=p.groups + (((), 1),) * (p.char.h + 1 - p.i_k))


def _not_ints(parts=None, w=None):
    # group 1's parts or W-count replaced by numbers that are not all ints
    return lambda p: _replace_group(p, 1, parts=parts, w=w)


@pytest.mark.parametrize("mutant,cs,k,message", [
    (_swap_two_z, EX2, 2, "semiroot contact rises from 3/2 to 2 at z^(1)_2"),
    (_swap_two_z, new_char_sequence([16, 23]), 1,
     "semiroot contact rises from 13/9 to 3/2 at z^(1)_4"),
    (_swap_groups, EX1, 1, "semiroot contact 1/2 does not lie beyond 31/12 at z^(2)_1"),
    (_first_part_at_its_group, EX1, 2, "semiroot contact 4/3 does not lie beyond 4/3 at z^(1)_1"),
    (_unsplit_part, EX1, 1, "not a branch: the part (24, 3) is not primitive at z^(2)_1"),
    (_last_w_count_below_zero, EX1, 3, "group 1 has -1 W-factors"),
    (_last_w_count_below_zero, new_char_sequence([16, 24, 28, 30, 31]), 4,
     "group 2 has -1 W-factors"),
    (_w_above_the_levels, EX1, 2, "group 3 lies past the 2 levels of K(12,16,31)"),
    (_not_ints(w=1.5), new_char_sequence([16, 24, 28, 30, 31]), 2,
     "group 1 has the W-count 1.5, not an int"),
    (_not_ints(parts=((3.0, 2),)), new_char_sequence([16, 24, 28, 30, 31]), 2,
     "group 1 has the part (3.0, 2), not two ints"),
    (_not_ints(w=True), new_char_sequence([16, 24, 28, 30, 31]), 2,
     "group 1 has the W-count True, not an int"),
], ids=["z-order-ex2", "z-order-K(16,23)", "group-order-ex1", "z-at-its-group-ex1-k2",
        "unsplit-ex1-k1",
        "w-below-ex1-k3", "w-below-K(16,24,28,30,31)-k4", "w-above-ex1-k2",
        "w-float-K(16,24,28,30,31)-k2", "part-float-K(16,24,28,30,31)-k2",
        "w-bool-K(16,24,28,30,31)-k2"])
def test_contact_writers_reject_wrong_order(mutant, cs, k, message):
    # the JSON rows and the tree both rest on the orderings of each group's
    # parts, their M/N never rising and their semiroot contacts beyond
    # b_l/b0, and the text names its factors and builds their exponents off
    # the same walk of the record: no writer draws a record that breaks one,
    # nor one with a part that is not primitive, a negative W-count ("w
    # below"), a group above the class's levels ("w above") or a number
    # that is not an int, which check reads before comparing any.  Each
    # refuses before its first piece, since the command line opens --output
    # at that piece, and a writer that refused after one would empty an
    # existing file
    p = mutant(predict(cs, k))
    writers = ([p.to_text, p.to_json, VerificationReport(p).to_json]
               + [lambda put, b=b: export_eggers_wall(p, b).to_dot(put) for b in (True, False)])
    for write in writers:
        pieces = []
        with pytest.raises(InvariantViolation) as err:
            write(pieces.append)
        assert str(err.value) == message
        assert pieces == [], write


def test_every_writer_ends_its_lines_with_the_newline_it_is_given():
    # a writer is a callable (put, newline), and jsontext.write calls it
    # with the newline of the depth where it lands
    p = predict(EX1, 2)
    report = verify_prediction(EX1, 2, [1])
    failed = VerificationReport(p, (SeedRun(1, failures=("level 1: initial form mismatch",)),))
    for write in (p.to_text, p.to_json, export_eggers_wall(p).to_dot,
                  export_eggers_wall(p, False).to_dot, report.to_text, report.to_json,
                  failed.to_text):
        assert dumps(write, 4) == dumps(write).replace("\n", "\n    "), write


@pytest.mark.parametrize("cs,k", [
    (EX1, 1),
    (EX1, 2),
    (new_char_sequence([64, 96, 112, 120, 124, 125]), 5),
], ids=["ex1-k1", "ex1-k2", "K(64,96,112,120,124,125)-k5"])
def test_runs_of_copied_factors_write_the_same(cs, k):
    # the writers find a run of equal factors by the value of its parts, not
    # by their identity: a prediction whose every part is a copy of its own
    # writes the same bytes
    p = predict(cs, k)
    copied = replace(p, groups=tuple((tuple(tuple(list(part)) for part in parts), w)
                                     for parts, w in p.groups))
    pairs = [(a, b) for (old, _), (new, _) in zip(p.groups, copied.groups)
             for a, b in zip(old, new)]
    assert all(a == b and a is not b for a, b in pairs)
    assert all(len(parts) == len(set(map(id, parts))) for parts, _ in copied.groups)
    assert dumps(copied.to_json) == dumps(p.to_json)
    assert dumps(copied.to_text) == dumps(p.to_text)
    for include_branch in (True, False):
        assert (dumps(export_eggers_wall(copied, include_branch).to_dot)
                == dumps(export_eggers_wall(p, include_branch).to_dot))


def test_merle_first_polar_multiplicities():
    # Merle: group l of the generic first polar has total multiplicity
    # (n_l - 1) * b0 / e_(l-1)
    rng = random.Random(61)
    classes = [EX1, EX2] + [random_char_sequence(rng, b0_max=64) for _ in range(400)]
    for cs in classes:
        p = predict(cs, 1)
        assert p.i_k == cs.h
        for l, runs in enumerate(p._runs(), start=1):
            expected = (cs.n_seq[l - 1] - 1) * cs.b0 // cs.e[l - 1]
            assert sum(f.multiplicity * len(f.numbers) for f in runs) == expected, (cs.b, l)


def test_labels_canonical_order():
    p = predict(EX2, 2)
    # two runs of one Z-factor, numbered on, then the W-run, numbered apart
    assert [(run.prefix, list(run.numbers)) for run in p._runs()[0]] == [
        ("z^(1)_", [1]), ("z^(1)_", [2]), ("w^(1)_", [1])]
    assert factor_labels(p) == ["z^(1)_1", "z^(1)_2", "w^(1)_1"]
    # Z-factors come sorted by descending semiroot contact
    zs = [f for f in p.factors() if f.kind == "Z"]
    assert zs[0].contact_with_semiroot > zs[1].contact_with_semiroot


# -- Eggers-Wall export ------------------------------------------------------------


def leaf_names(node):
    """The leaves under ``node`` in order, a run child standing for its r leaves."""
    if isinstance(node, Run):
        return [f"{node.prefix}{j}" for j in node.numbers]
    out = []
    for _, child in node.children:
        out.extend(leaf_names(child))
    return out


def find_node(node, contact):
    if isinstance(node, Run):
        return None
    if node.contact == contact:
        return node
    for _, child in node.children:
        hit = find_node(child, contact)
        if hit is not None:
            return hit
    return None


def all_node_contacts(node):
    if isinstance(node, Run) or node.contact is None:
        contacts = []
    else:
        contacts = [node.contact]
    if not isinstance(node, Run):
        for _, child in node.children:
            contacts.extend(all_node_contacts(child))
    return contacts


def walk_contacts(node, parent):
    """Yield (parent_contact, node_contact) for consecutive internal nodes."""
    if isinstance(node, Run):
        return
    if parent is not None and node.contact is not None:
        yield parent, node.contact
    for _, child in node.children:
        yield from walk_contacts(child, node.contact)


def test_eggers_wall_ex1_k1_structure():
    tree = export_eggers_wall(predict(EX1, 1))
    # trunk nodes at 4/3 and 31/12, side nodes at 3/2 and 8/3
    n43 = find_node(tree.root, q(4, 3))
    n3112 = find_node(tree.root, q(31, 12))
    n32 = find_node(tree.root, q(3, 2))
    n83 = find_node(tree.root, q(8, 3))
    assert n43 and n3112 and n32 and n83
    assert sorted(leaf_names(n32)) == ["f_1", "z^(1)_1"]
    assert sorted(leaf_names(n83)) == ["f_2", "z^(2)_1", "z^(2)_2", "z^(2)_3"]
    assert sorted(leaf_names(n3112)) == ["f", "f_2", "z^(2)_1", "z^(2)_2", "z^(2)_3"]
    # edge index annotations: 1, 3, 12 along the trunk, 2 on the z-leaf
    dot = dumps(tree.to_dot)
    assert 'label="12"' in dot and 'label="2"' in dot


@pytest.mark.parametrize("b,k", [((12, 16, 31), 2), ((512, 1023), 1)],
                         ids=["K(12,16,31)-k2", "K(512,1023)-k1"])
def test_to_dot_leaves_no_reference_cycle(b, k):
    # a cycle would keep the lines of each document alive until the cyclic
    # collector runs, and raise the peak memory of a long run of DOT queries
    tree = export_eggers_wall(predict(new_char_sequence(b), k))
    gc.collect()
    gc.disable()
    try:
        dumps(tree.to_dot)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eggers_wall_ex2_k2_nodes():
    tree = export_eggers_wall(predict(EX2, 2))
    values = set(all_node_contacts(tree.root))
    assert q(7, 5) in values and q(3, 2) in values and q(2) in values


def test_eggers_wall_two_node_tree():
    cs = new_char_sequence([2, 3])
    tree = export_eggers_wall(predict(cs, 1), include_branch=False)
    root = tree.root
    assert len(root.children) == 1
    assert isinstance(root.children[0][1], Run)
    run = root.children[0][1]
    assert (run.prefix, list(run.numbers)) == ("z^(1)_", [1])


def test_eggers_wall_contacts_increase_toward_leaves():
    rng = random.Random(53)
    for _ in range(25):
        cs = random_char_sequence(rng, b0_max=30)
        p = predict(cs, rng.randint(1, cs.b0 - 1))
        tree = export_eggers_wall(p)
        for parent, child in walk_contacts(tree.root, None):
            assert child > parent


def test_eggers_wall_distinct_nodes_same_value():
    # Ex2, k=2: the trunk node 15/10 = 3/2 where f_2 attaches and the z-node
    # 3/2 on the f_1 path carry the same contact but are different vertices
    tree = export_eggers_wall(predict(EX2, 2))
    assert all_node_contacts(tree.root).count(q(3, 2)) == 2


def oracle_grid():
    """(class, k) for every order of 80 random classes with b0 <= 40, and
    for long runs."""
    rng = random.Random(59)
    cases = []
    for _ in range(80):
        cs = random_char_sequence(rng, b0_max=40)
        cases += [(cs, k) for k in range(1, cs.b0)]
    # random classes seldom have long runs: K(b0, 2b0 - 1) at k = 1 is one
    # Z-run of b0 - 1 factors, and K(2e, 3e, 3e + 1) at e/2 <= k < e puts a
    # run of W-factors next to a single Z-factor
    cases += [(new_char_sequence([b0, 2 * b0 - 1]), 1) for b0 in (64, 128)]
    for e in (20, 40):
        cs = new_char_sequence([2 * e, 3 * e, 3 * e + 1])
        cases += [(cs, k) for k in range(e // 2, e)]
    return cases


def test_document_and_text_match_their_oracles_on_the_grid():
    # the oracles name every factor one at a time and build the document
    # and the text one factor and one pair at a time
    for cs, k in oracle_grid():
        p = predict(cs, k)
        assert dumps(p.to_json) == json.dumps(prediction_document_oracle(p), indent=2), (cs.b, k)
        assert dumps(p.to_text) == prediction_text_oracle(p), (cs.b, k)


def test_text_names_a_total_other_than_b0_minus_k():
    # K(16,24,28,30,31) at k = 2 with group 1's W-factor, of multiplicity 2,
    # moved to group 2, where it weighs 4: check passes the record, whose
    # total is 16 where b0 - k is 14, and the text says so
    p = replace(predict(new_char_sequence([16, 24, 28, 30, 31]), 2),
                groups=(((), 0), ((), 2), ((), 1)))
    p.check()
    text = dumps(p.to_text)
    assert text.endswith("\ntotal multiplicity 16 != b0 - k = 14")
    assert text == prediction_text_oracle(p)


def test_eggers_wall_matches_clustering_oracle():
    for cs, k in oracle_grid():
        p = predict(cs, k)
        for include_branch in (True, False):
            assert dumps(export_eggers_wall(p, include_branch).to_dot) == \
                eggers_wall_oracle(p, include_branch).to_dot(), (cs.b, k, include_branch)
