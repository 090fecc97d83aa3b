"""Plausible bugs put into the program, each of which must be killed: by a
typed error from ``predict``, or by FAIL from ``verify``."""

import inspect
import json
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest

from branchpolar import cli, polar, verify
from branchpolar.charclass import new_char_sequence
from branchpolar.diagram import NewtonDiagram, from_support
from branchpolar.errors import InvariantViolation
from branchpolar.jsontext import dumps
from branchpolar.polar import predict
from branchpolar.verify import verify_prediction
from oracles import grid_classes

EX1 = new_char_sequence([12, 16, 31])
EX2 = new_char_sequence([10, 14, 15])
CLASSES = [(12, 16, 31), (10, 14, 15), (9, 12, 13), (7, 17)]


def mutant(module, name, right, wrong):
    """``module.name`` recompiled from its source with the one occurrence
    of ``right`` replaced by ``wrong``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(right) == 1
    scope = dict(vars(module))
    exec(source.replace(right, wrong), scope)
    return scope[name]


# -- factors that are not branches ----------------------------------------------


_CANONICAL_REP = NewtonDiagram.canonical_rep


def _parts_doubled(self, long=False):
    # every part (M, N) read as (2M, 2N): each Z-factor keeps its semiroot
    # contact, and so its index, but doubles its multiplicity
    rep = _CANONICAL_REP(self, long)
    return replace(rep, parts=tuple((2 * m, 2 * n) for m, n in rep.parts))


@pytest.mark.parametrize("cs,k", [(EX1, 2), (EX2, 2)], ids=["mult-ex1-k2", "mult-ex2-k2"])
def test_predict_rejects_a_factor_that_is_not_a_branch(monkeypatch, cs, k):
    # a part that is not primitive makes a factor whose index, fixed by its
    # group and its semiroot contact, is below its multiplicity
    monkeypatch.setattr(NewtonDiagram, "canonical_rep", _parts_doubled)
    with pytest.raises(InvariantViolation, match="not a branch"):
        predict(cs, k)
    # with the record check off, the total b0 - k sees the doubled
    # multiplicities too
    monkeypatch.setattr(polar.PolarPrediction, "check", lambda self: None)
    with pytest.raises(InvariantViolation, match="multiplicities"):
        predict(cs, k)


# -- an unsplit canonical representation -----------------------------------------


@pytest.mark.parametrize("b,k,line", [
    ((12, 16, 31), 1, "level 2: z^(2)_1 observed ((8, 1), 8/3, 3), predicted ((24, 3), 8/3, 9)"),
    ((12, 16, 31), 2, "level 2: z^(2)_1 observed ((8, 1), 8/3, 3), predicted ((16, 2), 8/3, 6)"),
    ((10, 14, 15), 1, "level 1: z^(1)_1 observed ((3, 2), 3/2, 2), predicted ((6, 4), 3/2, 4)"),
    ((7, 17), 2, "level 1: z^(1)_2 observed ((5, 2), 5/2, 2), predicted ((10, 4), 5/2, 4)"),
    ((16, 23), 1, "level 1: z^(1)_1 observed ((3, 2), 3/2, 2), predicted ((9, 6), 3/2, 6)"),
    ((16, 23), 3, "level 1: z^(1)_1 observed ((3, 2), 3/2, 2), predicted ((6, 4), 3/2, 4)"),
], ids=["b0-1", "b1-2", "b2-1", "b3-2", "b4-1", "b5-3"])
def test_verify_fails_when_canonical_rep_does_not_split(monkeypatch, b, k, line):
    # predict splits equal parts into primitive copies through
    # canonical_rep(long=True).  With the short form in its place it predicts
    # fewer Z-factors of doubled multiplicity; the verifier reads its steep
    # parts off the edges themselves, so the wrong prediction must FAIL.  A
    # merged part is not primitive, and makes a factor whose index is below
    # its multiplicity, which predict's record check refuses first; with that
    # check switched off the verifier must still catch it
    cs = new_char_sequence(b)
    right = dumps(predict(cs, k).to_json)
    real = NewtonDiagram.canonical_rep
    monkeypatch.setattr(NewtonDiagram, "canonical_rep", lambda self, long=False: real(self))
    with pytest.raises(InvariantViolation, match="not a branch"):
        predict(cs, k)
    monkeypatch.setattr(polar.PolarPrediction, "check", lambda self: None)
    assert dumps(predict(cs, k).to_json) != right
    report = verify_prediction(cs, k, [1, 2, 3, 4, 5])
    assert report.verdict == "FAIL", dumps(report.to_text)
    assert [f for run in report.runs for f in run.failures] == [line]


# -- the factor counts and the steep parts ----------------------------------------


@pytest.mark.parametrize("b", CLASSES, ids=lambda b: "K" + str(b).replace(" ", ""))
def test_predict_rejects_a_w_count_off_by_one(b):
    # one W-factor too many in every group: the total multiplicity b0 - k is
    # the only check that sees it, at every order
    right = "w_count = min(e_l, k) - (-(-k // n_l))"
    wrong_predict = mutant(polar, "predict", right, right + " + 1")
    cs = new_char_sequence(b)
    for k in range(1, cs.b0):
        predict(cs, k)
        with pytest.raises(InvariantViolation, match="multiplicities"):
            wrong_predict(cs, k)


def _w_moved_to_the_next_group(p, l):
    # one W-factor of group l moved to group l + 1, a group of its own when
    # the prediction ends at l: it sits at b_(l+1)/b0, off its class edge,
    # and weighs b0/e_(l+1) where it weighed b0/e_l
    groups = list(p.groups) + [((), 0)] * (l + 1 - p.i_k)
    (parts, w), (after, w_after) = groups[l - 1], groups[l]
    groups[l - 1:l + 1] = [(parts, w - 1), (after, w_after + 1)]
    return replace(p, groups=tuple(groups))


def _w_unit_moved_to_group_2(cs, k):
    # one W-factor of group 1 moved to group 2
    return _w_moved_to_the_next_group(predict(cs, k), 1)


def test_verify_fails_when_a_w_unit_moves_to_the_next_group(monkeypatch, capsys):
    # K(16,24,28,30,31) at k = 2 has one W-factor in each group, of
    # multiplicity 2, 4 and 8.  Group 1's moved to group 2 weighs 4: the
    # edges at m_1/n_1 and m_2/n_2 carry 14 and 12 scaled by 1/2, where the
    # prediction says 16 and 16 scaled by 1/2, so a FAIL with their failure
    # lines, exit 2, and not an internal error, exit 4
    cs = new_char_sequence([16, 24, 28, 30, 31])
    assert _w_unit_moved_to_group_2(cs, 2).groups == (((), 0), ((), 2), ((), 1))
    monkeypatch.setattr(verify, "predict", _w_unit_moved_to_group_2)
    report = verify_prediction(cs, 2, [1])
    assert report.verdict == "FAIL", dumps(report.to_text)
    [run] = report.runs
    assert run.failures == ("level 1: edge length 14 != predicted 16",
                            "level 2: edge length 6 != predicted 8")
    levels = json.loads(dumps(report.to_json))["runs"][0]["levels"]
    assert [lv["aggregate_edge"] for lv in levels] == [
        {"observed": 14, "predicted": 16, "ok": False},
        {"observed": 6, "predicted": 8, "ok": False},
        {"observed": 2, "predicted": 2, "ok": True},
    ]
    assert cli.main(["verify", "16,24,28,30,31", "--k", "2", "--seeds", "1",
                     "--quiet"]) == cli.EXIT_FAIL
    assert capsys.readouterr().err == ""


def _last_w_off_the_class_edge(cs, k):
    # a W-factor of the last group that has one moved to the next group, off
    # its own class edge: every Z-factor is kept
    p = predict(cs, k)
    return _w_moved_to_the_next_group(p, max(l for l, (_, w) in enumerate(p.groups, 1) if w))


def test_verify_fails_on_every_grid_prediction_with_a_w_factor_off_the_class_edge(
        monkeypatch, capsys):
    # a W-factor of group l has the form (b_l/b0, b0/e_l) of a root on
    # level l's class edge, so one moved to group l + 1 changes the length
    # of the edge at m_l/n_l: all 375 pairs of the b0 <= 12 grid that have
    # a W-factor read FAIL, exit 2, in text, a degenerate seed retried
    pairs = [(cs, k) for cs in grid_classes(12) for k in range(1, cs.b0)
             if any(w for _, w in predict(cs, k).groups)]
    assert len(pairs) == 375
    monkeypatch.setattr(verify, "predict", _last_w_off_the_class_edge)
    for cs, k in pairs:
        argv = ["verify", ",".join(map(str, cs.b)), "--k", str(k), "--seeds", "1", "--quiet"]
        assert cli.main(argv) == cli.EXIT_FAIL, (cs.b, k)
        out, err = capsys.readouterr()
        assert err == "" and "  FAIL: " in out, (cs.b, k)
    # the record is one the writers print: the JSON report is a FAIL too
    argv = ["verify", "12,16,31", "--k", "2", "--seeds", "1", "--quiet", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["runs"][0]["failures"] == [
        "level 1: edge length 9 != predicted 18", "level 2: edge length 0 != predicted 4"]


def _every_factor_in_group_1(cs, k):
    # every group's parts and W-factors moved into the first group, followed
    # by empty groups so that the group count is unchanged
    p = predict(cs, k)
    parts = tuple(part for group, _ in p.groups for part in group)
    return replace(p, groups=((parts, sum(w for _, w in p.groups)),) + (((), 0),) * (p.i_k - 1))


@pytest.mark.parametrize("b,k,line", [
    ((12, 16, 31), 2, "level 1: z^(1)_2 observed none, predicted ((8, 1), 8, 1)"),
    ((10, 14, 15), 1, "level 1: z^(1)_3 observed none, predicted ((8, 1), 8, 1)"),
    ((16, 24, 28, 30, 31), 3, "level 1: z^(1)_2 observed none, predicted ((4, 1), 4, 1)"),
], ids=["b0-2", "b1-1", "b2-3"])
def test_verify_reads_each_factor_at_its_position(monkeypatch, b, k, line):
    # a factor's group is the position of its record, which the labels and
    # the JSON show: a part of a deeper group moved into group 1 is read at
    # level 1, with its contact and multiplicity there, meets level 1's
    # steep parts and FAILs, at the first Z-factor past them
    monkeypatch.setattr(verify, "predict", _every_factor_in_group_1)
    report = verify_prediction(new_char_sequence(b), k, [1, 2])
    assert report.verdict == "FAIL", dumps(report.to_text)
    assert line in report.runs[-1].failures


def _groups_reversed(cs, k):
    # every group kept whole, but in reverse order
    p = predict(cs, k)
    return replace(p, groups=p.groups[::-1])


@pytest.mark.parametrize("b,k,message", [
    ((12, 16, 31), 2, "semiroot contact 2/3 does not lie beyond 31/12 at z^(2)_1"),
    ((16, 24, 28, 30, 31), 3, "semiroot contact 1/2 does not lie beyond 15/8 at z^(3)_1"),
], ids=["K(12,16,31)-k2", "K(16,24,28,30,31)-k3"])
def test_verify_fails_when_predict_reverses_its_groups(monkeypatch, capsys, b, k, message):
    # group l is the l-th group, whatever its factors' contacts say: each
    # reversed group meets another level's steep parts and edge, a FAIL in
    # text, exit 2.  The JSON writer refuses the prediction first, since a
    # part read at its new level gives a semiroot contact that does not lie
    # beyond that group's b_l/b0, and that is the program's fault, exit 4
    monkeypatch.setattr(verify, "predict", _groups_reversed)
    report = verify_prediction(new_char_sequence(b), k, [1, 2])
    assert report.verdict == "FAIL", dumps(report.to_text)
    argv = ["verify", ",".join(map(str, b)), "--k", str(k), "--seeds", "1,2", "--quiet"]
    assert cli.main([*argv, "--format", "text"]) == cli.EXIT_FAIL
    assert capsys.readouterr().err == ""
    assert cli.main([*argv, "--format", "json"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    blob = json.loads(captured.err)
    assert captured.out == "" and blob["error"] == "InvariantViolation"
    assert blob["message"] == message, blob


@pytest.mark.parametrize("b", [*CLASSES, (16, 24, 28, 30, 31)],
                         ids=lambda b: "K" + str(b).replace(" ", ""))
def test_verify_fails_when_the_exact_inclination_counts_as_steep(monkeypatch, b):
    # the edge of inclination exactly m_l/n_l read as a steep part: its
    # W-factors and deeper groups become Z-factors, and the aggregate edge
    # reads 0.  The mutant changes nothing where the polar has no such edge,
    # no W-factor and a single group; everywhere else it must FAIL
    monkeypatch.setattr(verify, "_steep_data", mutant(
        verify, "_steep_data", "if m * n_l > n * m_l:", "if m * n_l >= n * m_l:"))
    cs = new_char_sequence(b)
    for k in range(1, cs.b0):
        p = predict(cs, k)
        exact_edge = p.i_k > 1 or any(w for _, w in p.groups)
        report = verify_prediction(cs, k, [1, 2, 3])
        assert report.verdict == ("FAIL" if exact_edge else "PASS"), (k, dumps(report.to_text))


# -- a group at a level whose e_(l-1) is k ------------------------------------------


def _group_at_e_equal_to_k():
    # e_(l-1) = k gives t = n_l and min(e_l, k) = ceil(k/n_l): an empty group
    return mutant(polar, "predict", "if cs.e[l - 1] <= k:", "if cs.e[l - 1] < k:")


@pytest.mark.parametrize("b,k", [((6, 9, 10), 3), ((12, 16, 31), 4), ((10, 14, 15), 2)],
                         ids=["K(6,9,10)-k3", "K(12,16,31)-k4", "K(10,14,15)-k2"])
def test_verify_fails_when_predict_adds_a_group_where_e_is_k(monkeypatch, capsys, b, k):
    # verify takes its levels from the class, so the extra group is a FAIL,
    # exit 2, and no longer OrderTooLarge at a level the class lacks, exit 4
    wrong = _group_at_e_equal_to_k()
    cs = new_char_sequence(b)
    p = wrong(cs, k)
    assert p.groups == predict(cs, k).groups + (((), 0),)
    monkeypatch.setattr(verify, "predict", wrong)
    report = verify_prediction(cs, k, [1, 2, 3])
    assert report.verdict == "FAIL", dumps(report.to_text)
    assert report.runs[-1].failures[0].startswith(f"group count {p.i_k} != {p.i_k - 1}, ")
    char = ",".join(map(str, b))
    assert cli.main(["verify", char, "--k", str(k), "--seeds", "1", "--quiet"]) == cli.EXIT_FAIL
    assert capsys.readouterr().err == ""


def test_verify_fails_on_every_grid_prediction_the_extra_group_changes(monkeypatch):
    # the census over the b0 <= 12 grid: 76 (class, k) pairs change, and
    # every one reads FAIL with seeds 1-3
    wrong = _group_at_e_equal_to_k()
    changed = [(cs, k) for cs in grid_classes(12) for k in range(1, cs.b0)
               if wrong(cs, k) != predict(cs, k)]
    monkeypatch.setattr(verify, "predict", wrong)
    verdicts = {(cs.b, k): verify_prediction(cs, k, [1, 2, 3]).verdict for cs, k in changed}
    assert len(verdicts) == 76
    assert set(verdicts.values()) == {"FAIL"}


# -- a chain that drops what a deeper level reads -----------------------------------


@pytest.mark.parametrize("b", [(8, 12, 14, 15), (8, 12, 14, 17), (12, 18, 21, 22),
                               (16, 24, 28, 30, 31), (27, 36, 39, 40)],
                         ids=lambda b: "K" + str(b).replace(" ", ""))
def test_verify_rejects_middle_levels_cut_inside_the_deepest_intercept(monkeypatch, b):
    # levels 2..L-1 capped one lattice step, N_L as cut_bound counts it,
    # inside the deepest level's intercept bbar_L + 1: the next level is
    # substituted into a hat that lacks terms of its class edge
    monkeypatch.setattr(verify, "_level_cuts", mutant(
        verify, "_level_cuts", "top = bound - n_top + 1",
        "top = bound - n_top + 1 - n_top * (l < depth)"))
    cs = new_char_sequence(b)
    for seed in (1, 2):
        with pytest.raises(InvariantViolation, match="class edge"):
            verify_prediction(cs, 1, [seed])


# -- a truncation without its lattice hull ------------------------------------------


def _trunc_without_lattice_hull(self, k):
    # the vertices at heights >= k and the crossing edge's point at row k,
    # rounded right, with no lattice point in between
    v = self.vertices
    if k <= v[-1][1]:
        return self
    if k > v[0][1]:
        return NewtonDiagram(((v[0][0], k),))
    points = [(x, y) for x, y in v if y >= k]
    (xa, ya), (xb, yb) = next(e for e in self.compact_edges() if e[1][1] < k)
    points.append((xa + ceil(Fraction((ya - k) * (xb - xa), ya - yb)), k))
    return from_support(points)


@pytest.mark.parametrize("b,k,verdict", [
    ((12, 16, 31), 1, "PASS"), ((12, 16, 31), 2, "PASS"), ((10, 14, 15), 1, "PASS"),
    ((10, 14, 15), 2, "FAIL"), ((9, 12, 13), 1, "PASS"), ((7, 17), 2, "FAIL"),
    ((16, 24, 28, 30, 31), 3, "PASS"), ((16, 23), 1, "FAIL"), ((16, 23), 3, "FAIL"),
])
def test_verify_fails_where_a_truncation_without_its_lattice_hull_changes_predict(
        monkeypatch, b, k, verdict):
    # predict derives every polar diagram through trunc, verify reads its
    # expected diagram by rows off the witness: where the mutant changes the
    # prediction the verifier must FAIL, and elsewhere it must still PASS.
    # Read through trunc, every case was UNKNOWN, all eight seeds degenerate
    cs = new_char_sequence(b)
    right = dumps(predict(cs, k).to_json)
    monkeypatch.setattr(NewtonDiagram, "trunc", _trunc_without_lattice_hull)
    assert (dumps(predict(cs, k).to_json) != right) == (verdict == "FAIL")
    report = verify_prediction(cs, k, range(1, 9))
    assert report.verdict == verdict, dumps(report.to_text)
