import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchpolar
from branchpolar.charclass import new_char_sequence, semiroot_degree
from branchpolar.diagram import elementary, from_support
from branchpolar.errors import (
    InvariantViolation,
    OrderOutOfRange,
    OrderTooLarge,
)
from branchpolar.puiseux import PuiseuxSeries, derivative_y, diagram_of, hat_transform, min_poly
from branchpolar.verify import (
    WitnessBranch,
    allowed_exponents,
    check_initial_form,
    check_lemma_nd,
    cut_bound,
    expected_hat_diagram,
    hat_chain,
    sample_witness,
    verify_prediction,
    witness_from_root,
)
from oracles import (
    AllSeedsDegenerate,
    find_generic_witness,
    full_hat,
    minkowski_sum,
    split_derivative,
)

EX1 = new_char_sequence([12, 16, 31])
EX2 = new_char_sequence([10, 14, 15])
CUSP = new_char_sequence([2, 3])

REGRESSION = [(2, 3), (4, 6, 7), (6, 9, 11), (12, 16, 31), (10, 14, 15), (12, 16, 30, 31)]


def nongeneric_g():
    return witness_from_root(EX1, PuiseuxSeries.from_string("x^(4/3)+x^2+x^(31/12)"))


# -- witness sampling ------------------------------------------------------------


def test_allowed_exponents():
    # multiples of 12 up to 16, of 4 up to 31, everything afterwards
    exps = allowed_exponents(EX1, 34)
    assert exps == [12, 16, 20, 24, 28, 31, 32, 33, 34]


def test_sample_witness_members_of_class():
    for seed in range(1, 6):
        w = sample_witness(EX1, seed)
        assert w.root.characteristic().b == (12, 16, 31)
        assert min_poly(w.root).degree_y() == 12
        # nonzero coefficients at every characteristic exponent
        for b in EX1.b[1:]:
            assert w.root.coefficient(Fraction(b, EX1.b0)) != 0
        allowed = set(allowed_exponents(EX1, EX1.b[-1] + EX1.b0))
        assert all(i in allowed for i, _ in w.root.terms)


def test_sample_witness_deterministic():
    a = sample_witness(EX2, 7)
    b = sample_witness(EX2, 7)
    assert a.root == b.root
    assert min_poly(a.root) == min_poly(b.root)
    assert a.root != sample_witness(EX2, 8).root


def test_witness_from_root_validates():
    with pytest.raises(ValueError):
        witness_from_root(EX2, PuiseuxSeries.from_string("x^(3/2)"))


# -- expected hat diagrams ----------------------------------------------------------


def test_expected_hat_diagram_ex1_level2():
    w = nongeneric_g()
    hat = diagram_of(full_hat(w, 2))
    expected = expected_hat_diagram(EX1, 2, 1, hat)
    steep = [p for p in expected.canonical_rep(long=True).parts
             if p[0] * 4 > p[1] * 31]
    assert steep == [(8, 1)] * 3
    # k = 0 keeps the hat diagram unchanged
    assert expected_hat_diagram(EX1, 2, 0, hat) == hat


def test_expected_hat_diagram_ex2_level1():
    w = sample_witness(EX2, 1)
    hat = diagram_of(full_hat(w, 1))
    expected = expected_hat_diagram(EX2, 1, 2, hat)
    steep = [p for p in expected.canonical_rep(long=True).parts
             if p[0] * 5 > p[1] * 7]
    assert steep == [(2, 1), (3, 2)]


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (16, 24, 28, 30, 31)])
def test_expected_hat_diagram_is_the_split_sum(b):
    # the k-th derivative of the hat diagram is R^(k) + L for every k < e_(l-1),
    # R the e_l rightmost long-canonical parts (m_l, n_l)
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    for l, fhat in enumerate(hat_chain(w, cs.h), start=1):
        hat = diagram_of(fhat)
        for k in range(cs.e[l - 1]):
            r_deriv, low = split_derivative(hat, k, cs.e[l])
            assert expected_hat_diagram(cs, l, k, hat) == minkowski_sum(r_deriv, low), (b, l, k)


def test_expected_hat_diagram_rejects_a_wrong_steep_part():
    # level 1 of K(12,16,31) must start with e_1 = 4 copies of (4, 3)
    with pytest.raises(InvariantViolation):
        expected_hat_diagram(EX1, 1, 1, elementary(17, 12))
    with pytest.raises(InvariantViolation):
        expected_hat_diagram(EX1, 1, 1, from_support([(0, 12), (12, 3), (17, 0)]))
    # nothing steeper, but three copies of (4, 3) under a shallower part
    with pytest.raises(InvariantViolation):
        expected_hat_diagram(EX1, 1, 1, from_support([(0, 12), (2, 9), (14, 0)]))


def test_expected_hat_diagram_order_too_large():
    w = sample_witness(EX1, 1)
    hat = diagram_of(full_hat(w, 2))
    with pytest.raises(OrderTooLarge):
        expected_hat_diagram(EX1, 2, 4, hat)  # e_1 = 4


@pytest.mark.parametrize("l", [1, 2])
def test_check_lemma_nd_order_too_large(l):
    # k = e_(l-1): 12 at level 1, 4 at level 2; expected_hat_diagram refuses it
    w = sample_witness(EX1, 1)
    with pytest.raises(OrderTooLarge):
        check_lemma_nd(w, l, EX1.e[l - 1], hat_chain(w, l)[-1])


# -- one hat transform per level: hat(d^k f) = d^k hat(f) ----------------------------


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (4, 6, 7), (8, 12, 14, 15),
                               (12, 16, 30, 31), (16, 24, 28, 30, 31)])
def test_hat_commutes_with_y_derivatives(b):
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    f = min_poly(w.root)
    for l in range(1, cs.h + 1):
        fhat = full_hat(w, l)
        for k in range(1, cs.e[l - 1]):
            direct = hat_transform(derivative_y(f, k), semiroot_degree(cs, l), w.lam(l))
            derived = derivative_y(fhat, k)
            assert derived.terms == direct.terms, (b, l, k)


# -- a wrongly straightened hat must trip expected_hat_diagram's invariant ------------

_LAM = WitnessBranch.lam


def _lam_one_level_short(w, l):
    """The truncation below b_(l-1)/b0 instead of b_l/b0."""
    return _LAM(w, l - 1) if l > 1 else PuiseuxSeries(1, [])


def _lam_last_term_dropped(w, l):
    lam = _LAM(w, l)
    return PuiseuxSeries(lam.denom, lam.terms[:-1])


def _lam_doubled(w, l):
    lam = _LAM(w, l)
    return PuiseuxSeries(lam.denom, [(i, 2 * c) for i, c in lam.terms])


@pytest.mark.parametrize(
    "mutant", [_lam_one_level_short, _lam_last_term_dropped, _lam_doubled],
    ids=lambda f: f.__name__,
)
def test_lemma_rejects_wrong_straightening(monkeypatch, mutant):
    monkeypatch.setattr(WitnessBranch, "lam", mutant)
    for cs, k in ((EX1, 1), (EX1, 2), (EX2, 1)):
        w = sample_witness(cs, 1)
        for l in range(1, cs.h + 1):
            with pytest.raises(InvariantViolation):
                check_lemma_nd(w, l, k, hat_chain(w, l, k)[-1])
        with pytest.raises(InvariantViolation):
            verify_prediction(cs, k, [1])


def test_lemma_rejects_wrong_straightening_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_lemma_rejects_wrong_straightening"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "3 passed" in run.stdout


# -- the hat chain: cut to the Newton triangle, certified, widened when needed --------


def _edge_terms(f, edge):
    (xa, ya), (xb, yb) = edge
    return {(i, j): c for (i, j), c in f.terms.items()
            if yb <= j <= ya and (xb - xa) * (j - ya) == (yb - ya) * (i - xa)}


def _assert_chain_reads_like_full_expansion(w, k):
    cs = w.cs
    depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
    for l, fhat in enumerate(hat_chain(w, depth, k), start=1):
        full = full_hat(w, l)
        m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
        assert diagram_of(fhat) == diagram_of(full), (cs.b, w.seed, l, k)
        polar, full_polar = derivative_y(fhat, k), derivative_y(full, k)
        observed = diagram_of(polar)
        assert observed == diagram_of(full_polar), (cs.b, w.seed, l, k)
        for edge in observed.compact_edges():
            (xa, ya), (xb, yb) = edge
            if (xb - xa) * n_l > (ya - yb) * m_l:
                assert _edge_terms(polar, edge) == _edge_terms(full_polar, edge)
        assert (fhat.initial_form((n_l, m_l)).terms
                == full.initial_form((n_l, m_l)).terms), (cs.b, w.seed, l)


@st.composite
def small_classes(draw):
    """Classes with 1-4 levels and b0 <= 32, each m_l within 2 n_l of its
    smallest value, and a witness seed."""
    n_seq = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4)
                 .filter(lambda ns: math.prod(ns) <= 32))
    m_seq = []
    for n in n_seq:
        m = draw(st.integers(1, 2 * n)) + (m_seq[-1] * n if m_seq else n)
        while math.gcd(m, n) != 1:
            m += 1
        m_seq.append(m)
    e = [math.prod(n_seq[i:]) for i in range(len(n_seq) + 1)]
    cs = new_char_sequence([e[0]] + [m * e[i + 1] for i, m in enumerate(m_seq)])
    return cs, draw(st.integers(1, 10 ** 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_classes())
def test_hat_chain_matches_full_expansion(case):
    cs, seed = case
    w = sample_witness(cs, seed)
    for k in range(1, cs.b0):
        _assert_chain_reads_like_full_expansion(w, k)


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (10, 15, 17), (8, 12, 14, 15),
                               (16, 24, 28, 30, 31)])
def test_first_hat_is_the_conjugate_product_of_the_shifted_root(b):
    # lam_1 has integer exponents: f(x, y + lam_1) = min_poly(root - lam_1)
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    shifted = w.root - w.lam(1)
    oracle = hat_transform(min_poly(w.root), 1, w.lam(1))
    assert min_poly(shifted) == oracle
    for depth in range(1, cs.h + 1):
        n_top = semiroot_degree(cs, depth)
        # the chain's f^_1: every term of level-depth weight within the cap
        fhat = hat_chain(w, depth)[0]
        s = min([Fraction(cs.bbar[depth - 1], cs.b0)]
                + [n_top * Fraction(cs.b[l - 1], cs.b0) for l in range(2, depth + 1)])
        light = {(i, j): c for (i, j), c in oracle.terms.items()
                 if n_top * i + s * j <= cut_bound(cs, depth)}
        assert fhat.terms == light, (b, depth)


def _cut_inside_the_corner(cs, depth):
    """A cut one lattice step inside the corner (bbar_L, 0) of the triangle."""
    return cs.bbar[depth - 1] - 1


def test_chain_rejects_a_cut_too_tight(monkeypatch):
    import branchpolar.verify as verify_mod

    monkeypatch.setattr(verify_mod, "cut_bound", _cut_inside_the_corner)
    for cs, k in ((EX1, 1), (EX1, 2), (EX1, 10), (EX2, 1), (new_char_sequence([10, 15, 17]), 2)):
        w = sample_witness(cs, 1)
        for l in range(1, cs.h + 1):
            if cs.e[l - 1] > k:
                with pytest.raises(InvariantViolation):
                    check_lemma_nd(w, l, k, hat_chain(w, l, k)[-1])
        with pytest.raises(InvariantViolation):
            verify_prediction(cs, k, [1])


def test_chain_rejects_a_cut_too_tight_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_chain_rejects_a_cut_too_tight"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout


def test_chain_widens_for_a_degenerate_witness(monkeypatch):
    # the all-ones witness at k = 10: d^10 f = 6*11!*(y - x^2)^2 has the vertex
    # (4, 0), which shifted up by k weighs 4 + (4/3)*10 > bbar_1 + 1 = 17, so
    # the cut chain cannot certify it and is recomputed in full
    import branchpolar.verify as verify_mod

    g = nongeneric_g()
    calls = []
    real_min_poly = verify_mod.min_poly

    def spy(a, cut=None):
        calls.append(cut is not None)
        return real_min_poly(a, cut)

    monkeypatch.setattr(verify_mod, "min_poly", spy)
    monkeypatch.setattr(verify_mod, "sample_witness", lambda cs, seed, extra=None: g)
    chained = verify_prediction(EX1, 10, [1]).to_json()
    # every retry samples the same witness: one cut chain and one full chain each
    assert calls == [True, False] * len(chained["runs"])

    monkeypatch.setattr(verify_mod, "hat_chain",
                        lambda w, depth, k=0: [full_hat(w, l) for l in range(1, depth + 1)])
    assert verify_prediction(EX1, 10, [1]).to_json() == chained
    assert chained["runs"][0]["levels"][0]["status"] == "degenerate"


# -- the all-ones non-generic witness for K(12,16,31) ----------------------------------


def test_nongeneric_witness_min_poly_coefficients():
    g = min_poly(nongeneric_g().root)
    assert {k: v for k, v in g.terms.items() if k[1] == 11} == {(2, 11): -12}
    assert {k: v for k, v in g.terms.items() if k[1] == 10} == {(4, 10): 66}


def test_nongeneric_witness_tenth_derivative():
    g = min_poly(nongeneric_g().root)
    c = 6 * math.factorial(11)
    assert derivative_y(g, 10).terms == {(0, 2): c, (2, 1): -2 * c, (4, 0): c}


def test_nongeneric_witness_flagged_degenerate():
    g = nongeneric_g()
    res = check_lemma_nd(g, 1, 10, hat_chain(g, 1, 10)[-1])
    assert res.status == "degenerate"
    assert any("degenerate" in r for r in res.reasons)
    # and never a silent pass: the diagram itself already differs
    assert res.observed != res.expected


def test_nongeneric_witness_degenerate_at_k1_too():
    # the (y - x^2)^2 structure of g already shows in its first polar: the
    # steep edge carries a double root where the generic branch has a single
    # factor of contact 3/2
    g = nongeneric_g()
    res = check_lemma_nd(g, 1, 1, hat_chain(g, 1, 1)[-1])
    assert res.status == "degenerate"
    assert res.observed == ((0, 11), (12, 2), (16, 0))
    assert res.expected == ((0, 11), (12, 2), (15, 0))


# -- initial forms ----------------------------------------------------------------------


def test_initial_form_cusp():
    w = witness_from_root(CUSP, PuiseuxSeries.from_string("x^(3/2)"))
    assert min_poly(w.root).terms == {(0, 2): 1, (3, 0): -1}
    assert check_initial_form(w, 1, hat_chain(w, 1)[-1])


def test_initial_form_nongeneric_witness_level2():
    w = nongeneric_g()
    fhat = full_hat(w, 2)
    # in_omega(fhat) = 3^4 * x^32 * (y^4 - x^31) for the all-ones witness
    observed = fhat.initial_form((4, 31))
    assert observed.terms == {(32, 4): 81, (63, 0): -81}
    assert check_initial_form(w, 2, fhat)


def test_hat_polygon_anchors_at_intersection_numbers():
    # the straightened polygon runs from (0, b0) down to (bbar_l, 0): the
    # x-axis vertex recomputes the semiroot intersection number geometrically
    rng = random.Random(59)
    for b in REGRESSION:
        cs = new_char_sequence(b)
        w = sample_witness(cs, rng.randint(1, 10 ** 6))
        for l in range(1, cs.h + 1):
            d = diagram_of(full_hat(w, l))
            assert d.top == (0, cs.b0)
            assert d.bottom == (cs.bbar[l - 1], 0), (b, l)


def test_initial_form_all_levels_random():
    rng = random.Random(61)
    for b in REGRESSION:
        cs = new_char_sequence(b)
        w = sample_witness(cs, rng.randint(1, 10 ** 6))
        for l in range(1, cs.h + 1):
            assert check_initial_form(w, l, hat_chain(w, l)[-1]), (b, l, w.seed)


# -- end-to-end verification ---------------------------------------------------------------


def test_verify_ex1_all_orders():
    for k in (1, 2, 10):
        report = verify_prediction(EX1, k, [1, 2, 3, 4, 5])
        assert report.verdict == "PASS"
        assert report.passing_seed is not None
        for run in report.runs:
            for lv in run.levels:
                assert lv.status == "ok"
                assert lv.prediction_match is True
                assert lv.initial_form_ok is True
                assert lv.aggregate_ok is True


def test_verify_ex2_all_orders():
    for k in (1, 2):
        report = verify_prediction(EX2, k, [1, 2, 3, 4, 5])
        assert report.verdict == "PASS"


def test_verify_extracted_contacts_ex2():
    report = verify_prediction(EX2, 1, [1])
    by_level = {lv.level: lv for run in report.runs for lv in run.levels}
    assert by_level[1].contacts == (Fraction(3, 2), Fraction(3, 2))
    assert by_level[1].multiplicities == (2, 2)
    assert by_level[2].contacts == (Fraction(8, 5),)
    assert by_level[2].multiplicities == (5,)


def test_verify_regression_grid():
    for b in REGRESSION:
        cs = new_char_sequence(b)
        for k in range(1, cs.b0):
            report = verify_prediction(cs, k, [1, 2])
            assert report.verdict == "PASS", (b, k, report.to_text())


def test_verify_rejects_bad_order():
    with pytest.raises(OrderOutOfRange):
        verify_prediction(EX1, 0, [1])
    with pytest.raises(OrderOutOfRange):
        verify_prediction(EX1, 12, [1])
    with pytest.raises(ValueError):
        verify_prediction(EX1, 1, [])


def test_verify_report_deterministic():
    a = json.dumps(verify_prediction(EX2, 2, [3, 4]).to_json())
    b = json.dumps(verify_prediction(EX2, 2, [3, 4]).to_json())
    assert a == b


def test_find_generic_witness():
    w = find_generic_witness(EX2, 2, [1, 2, 3])
    assert w.root.characteristic().b == EX2.b
    with pytest.raises(AllSeedsDegenerate):
        find_generic_witness(EX2, 2, [])


def test_hard_contradiction_reports_fail(monkeypatch):
    # tamper with one predicted multiplicity: the witness data no longer
    # matches, which must surface as FAIL (exit 2), not as degeneracy
    import dataclasses

    import branchpolar.verify as verify_mod

    real = verify_mod.predict

    def tampered(cs, k):
        p = real(cs, k)
        group = list(p.groups[0])
        group[0] = dataclasses.replace(group[0], multiplicity=group[0].multiplicity + 1)
        return dataclasses.replace(p, groups=(tuple(group),) + p.groups[1:])

    monkeypatch.setattr(verify_mod, "predict", tampered)
    report = verify_mod.verify_prediction(EX2, 1, [1])
    assert report.verdict == "FAIL"
    assert any("disagree" in f for run in report.runs for f in run.failures)


def test_aggregate_edge_accounting_ex1_k2():
    # at level 1 the edge of inclination m_1/n_1 = 4/3 collects the W-factor
    # (mult 3) and both group-2 Z-factors (mult 3 each): vertical length 9
    report = verify_prediction(EX1, 2, [1])
    lv = report.runs[0].levels[0]
    assert lv.level == 1
    assert lv.aggregate_edge_length == 9
    assert lv.aggregate_predicted == 9
