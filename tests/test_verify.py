import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branchpolar
from branchpolar.charclass import new_char_sequence, semiroot_degree
from branchpolar.diagram import NewtonDiagram, elementary, from_support
from branchpolar.errors import (
    BranchPolarError,
    IndexOutOfRange,
    InvariantViolation,
    OrderOutOfRange,
    OrderTooLarge,
)
from branchpolar.jsontext import dumps
from branchpolar.puiseux import (
    BivariatePoly,
    PuiseuxSeries,
    derivative_y,
    diagram_of,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
    row_starts,
)
from branchpolar.polar import predict
from branchpolar.verify import (
    HatLevel,
    LevelReport,
    SeedRun,
    WitnessBranch,
    allowed_exponents,
    check_initial_form,
    check_lemma_nd,
    cut_bound,
    hat_chain,
    sample_witness,
    verify_prediction,
)
from oracles import (
    AllSeedsDegenerate,
    coefficient,
    difference,
    find_generic_witness,
    full_hat,
    grid_classes,
    initial_form,
    lam,
    minkowski_sum,
    prediction_document_oracle,
    random_char_sequence,
    split_derivative,
)

EX1 = new_char_sequence([12, 16, 31])
EX2 = new_char_sequence([10, 14, 15])
CUSP = new_char_sequence([2, 3])

REGRESSION = [(2, 3), (4, 6, 7), (6, 9, 11), (12, 16, 31), (10, 14, 15), (12, 16, 30, 31)]


def nongeneric_g():
    return WitnessBranch(EX1, PuiseuxSeries.from_string("x^(4/3)+x^2+x^(31/12)"))


# -- witness sampling ------------------------------------------------------------


def test_allowed_exponents():
    # multiples of 12 up to 16, of 4 up to 31, everything afterwards
    exps = allowed_exponents(EX1, 34)
    assert exps == [12, 16, 20, 24, 28, 31, 32, 33, 34]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_allowed_exponents_follow_their_definition(seed):
    # i >= b0 is allowed exactly when e_j divides it, j the number of
    # b_1, ..., b_h at or below i, one exponent at a time
    rng = random.Random(seed)
    cs = random_char_sequence(rng, 64)
    b = cs.b
    for upto in {0, b[0] - 1, b[0], b[1] - 1, b[1], b[-1] - 1, b[-1], b[-1] + b[0],
                 rng.randint(b[0], b[-1]), rng.randint(0, 3 * b[-1])}:
        wanted = [i for i in range(b[0], upto + 1)
                  if i % cs.e[sum(i >= bj for bj in b[1:])] == 0]
        assert allowed_exponents(cs, upto) == wanted, (b, upto)


def test_sample_witness_members_of_class():
    for seed in range(1, 6):
        w = sample_witness(EX1, seed)
        assert w.root.characteristic().b == (12, 16, 31)
        assert max(j for _, j in min_poly(w.root).terms) == 12
        # nonzero coefficients at every characteristic exponent
        for b in EX1.b[1:]:
            assert coefficient(w.root, Fraction(b, EX1.b0)) != 0
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
        WitnessBranch(EX2, PuiseuxSeries.from_string("x^(3/2)"))


@pytest.mark.parametrize("cs,root", [
    (EX2, "x^(4/3)+x^2+x^(31/12)"),
    (EX1, "x^(7/5)+x^(3/2)"),
    (EX1, "x^(4/3)+x^(3/2)+x^(11/6)"),
], ids=["ex1-root-as-ex2", "ex2-root-as-ex1", "index-6-root-as-ex1"])
def test_witness_of_another_class_is_refused(cs, root):
    # hat_chain slices the root by numerator over b0 at the class's b_l, so a
    # root of another class would be read as if it were a member
    with pytest.raises(BranchPolarError):
        WitnessBranch(cs, PuiseuxSeries.from_string(root))


# -- expected hat diagrams ----------------------------------------------------------


def _full_level(w, l, k):
    return HatLevel.read(w.cs, l, full_hat(w, l), k)


def test_expected_hat_diagram_ex1_level2():
    w = nongeneric_g()
    level = _full_level(w, 2, 1)
    expected = NewtonDiagram(check_lemma_nd(w, level).expected)
    steep = [p for p in expected.canonical_rep(long=True).parts
             if p[0] * 4 > p[1] * 31]
    assert steep == [(8, 1)] * 3
    # k = 0 keeps the hat diagram unchanged
    unchanged = HatLevel.read(w.cs, 2, level.fhat, 0)
    assert unchanged.polar == diagram_of(level.starts)
    assert check_lemma_nd(w, unchanged).expected == diagram_of(level.starts).vertices


def test_expected_hat_diagram_ex2_level1():
    w = sample_witness(EX2, 1)
    expected = NewtonDiagram(check_lemma_nd(w, _full_level(w, 1, 2)).expected)
    steep = [p for p in expected.canonical_rep(long=True).parts
             if p[0] * 5 > p[1] * 7]
    assert steep == [(2, 1), (3, 2)]


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (16, 24, 28, 30, 31)])
def test_expected_hat_diagram_is_the_split_sum(b):
    # the k-th derivative of the hat diagram is R^(k) + L for every k < e_(l-1),
    # R the e_l rightmost long-canonical parts (m_l, n_l)
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    for l, level in enumerate(hat_chain(w, cs.h, 1), start=1):
        hat = diagram_of(level.starts)
        for k in range(cs.e[l - 1]):
            at_k = HatLevel.read(cs, l, level.fhat, k)
            r_deriv, low = split_derivative(hat, k, cs.e[l])
            assert (check_lemma_nd(w, at_k).expected
                    == minkowski_sum(r_deriv, low).vertices), (b, l, k)


def test_expected_hat_diagram_rejects_a_wrong_steep_part(monkeypatch):
    # level 1 of K(12,16,31) must end with e_1 = 4 copies of (4, 3), the class
    # edge from (0, 12) to (16, 0); hat_chain refuses any other hat
    import branchpolar.verify as verify_mod

    w = sample_witness(EX1, 1)
    for support in ([(0, 12), (17, 0)], [(0, 12), (12, 3), (17, 0)],
                    # the right corner, reached by a steeper part
                    [(0, 12), (4, 6), (16, 0)],
                    # nothing steeper, but three copies of (4, 3) under a shallower part
                    [(0, 12), (2, 9), (14, 0)]):
        wrong = BivariatePoly(dict.fromkeys(support, 1))
        monkeypatch.setattr(verify_mod, "min_poly", lambda a, cut=None: wrong)
        with pytest.raises(InvariantViolation):
            hat_chain(w, 1, 1)
    right = BivariatePoly({(0, 12): 1, (16, 0): 1})
    monkeypatch.setattr(verify_mod, "min_poly", lambda a, cut=None: right)
    assert diagram_of(hat_chain(w, 1, 1)[0].starts) == elementary(16, 12)


def test_expected_hat_diagram_order_too_large():
    w = sample_witness(EX1, 1)
    with pytest.raises(OrderTooLarge):
        _full_level(w, 2, 4)  # e_1 = 4


@pytest.mark.parametrize("l", [1, 2])
def test_check_lemma_nd_order_too_large(l):
    # k = e_(l-1): 12 at level 1, 4 at level 2; HatLevel.read, the one place
    # a level is built, refuses it, so check_lemma_nd never meets one
    w = sample_witness(EX1, 1)
    with pytest.raises(OrderTooLarge):
        HatLevel.read(EX1, l, hat_chain(w, l, 1)[-1].fhat, EX1.e[l - 1])


def test_hat_chain_refuses_a_depth_or_an_order_out_of_range(monkeypatch):
    # depth in 1..h and k < e_(depth-1), or a typed refusal before any work:
    # no conjugate product is taken
    import branchpolar.verify as verify_mod

    w = sample_witness(EX1, 1)
    assert len(hat_chain(w, 2, 3)) == 2 and len(hat_chain(w, 1, 11)) == 1
    monkeypatch.setattr(verify_mod, "min_poly", lambda a, cut=None: pytest.fail("min_poly ran"))
    for depth, k, error in ((3, 1, IndexOutOfRange), (0, 1, IndexOutOfRange),
                            (2, 4, OrderTooLarge), (1, 12, OrderTooLarge)):
        with pytest.raises(error):
            hat_chain(w, depth, k)


@pytest.mark.parametrize("l", [-1, 0, 3])
def test_a_level_out_of_range_is_refused_before_any_work(monkeypatch, l):
    # l outside 1..h is an IndexOutOfRange before any work, as hat_chain and
    # semiroot_degree raise it; unchecked, l = 0 and -1 would read the
    # class's last entries through a negative index
    import branchpolar.verify as verify_mod

    w = sample_witness(EX1, 1)
    level = hat_chain(w, 1, 1)[-1]
    monkeypatch.setattr(verify_mod, "row_starts", lambda p: pytest.fail("row_starts ran"))
    monkeypatch.setattr(verify_mod, "edge_poly", lambda p, edge: pytest.fail("edge_poly ran"))
    with pytest.raises(IndexOutOfRange, match=f"^level {l} not in 1..2$"):
        HatLevel.read(EX1, l, level.fhat, 1)
    with pytest.raises(IndexOutOfRange, match=f"^level {l} not in 1..2$"):
        check_initial_form(w, l, level.starts)


def _not_an_int(text, call, error, name):
    return pytest.param(call, error, name, id=text)


@pytest.mark.parametrize("call,error,name", [
    _not_an_int("hat_chain(w, True, 1)", lambda w, lv: hat_chain(w, True, 1),
                IndexOutOfRange, "depth"),
    _not_an_int("hat_chain(w, 2.0, 1)", lambda w, lv: hat_chain(w, 2.0, 1),
                IndexOutOfRange, "depth"),
    _not_an_int("hat_chain(w, 2, 1.0)", lambda w, lv: hat_chain(w, 2, 1.0),
                OrderOutOfRange, "order k"),
    _not_an_int("hat_chain(w, 2, True)", lambda w, lv: hat_chain(w, 2, True),
                OrderOutOfRange, "order k"),
    _not_an_int("hat_chain(w, 2, -1)", lambda w, lv: hat_chain(w, 2, -1),
                OrderOutOfRange, "order k"),
    _not_an_int("HatLevel.read(cs, True, fhat, 1)", lambda w, lv: HatLevel.read(EX1, True, lv.fhat, 1),
                IndexOutOfRange, "level"),
    _not_an_int("HatLevel.read(cs, 1, fhat, 2.0)", lambda w, lv: HatLevel.read(EX1, 1, lv.fhat, 2.0),
                OrderOutOfRange, "order k"),
    _not_an_int("check_initial_form(w, True, starts)",
                lambda w, lv: check_initial_form(w, True, lv.starts), IndexOutOfRange, "level"),
    _not_an_int("check_initial_form(w, 1.0, starts)",
                lambda w, lv: check_initial_form(w, 1.0, lv.starts), IndexOutOfRange, "level"),
    _not_an_int("semiroot_degree(cs, True)", lambda w, lv: semiroot_degree(EX1, True),
                IndexOutOfRange, "semiroot index"),
    _not_an_int("semiroot_degree(cs, 2.0)", lambda w, lv: semiroot_degree(EX1, 2.0),
                IndexOutOfRange, "semiroot index"),
    _not_an_int("cut_bound(cs, True)", lambda w, lv: cut_bound(EX1, True),
                IndexOutOfRange, "depth"),
    _not_an_int("sample_witness(cs, 1.5)", lambda w, lv: sample_witness(EX1, 1.5),
                ValueError, "witness seed"),
    _not_an_int("sample_witness(cs, True)", lambda w, lv: sample_witness(EX1, True),
                ValueError, "witness seed"),
])
def test_a_level_depth_order_or_seed_that_is_no_int_is_refused_before_any_work(
        monkeypatch, call, error, name):
    # a bool is not read as 1 and a float not as the int it equals, nor is
    # a negative order taken: each is refused with an error that names the
    # argument, before a conjugate product, a hat, a row start or a random
    # draw is taken
    import branchpolar.verify as verify_mod

    w = sample_witness(EX1, 1)
    level = hat_chain(w, 1, 1)[-1]
    for fn in ("min_poly", "hat_transform", "row_starts", "edge_poly", "derivative_y"):
        monkeypatch.setattr(verify_mod, fn, lambda *a, fn=fn, **kw: pytest.fail(f"{fn} ran"))
    monkeypatch.setattr(verify_mod.random, "Random", lambda *a: pytest.fail("Random ran"))
    with pytest.raises(error, match=f"^{name} must be an int( in 1..2| >= 0)?, got "):
        call(w, level)


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
            direct = hat_transform(derivative_y(f, k), semiroot_degree(cs, l), lam(w, l))
            derived = derivative_y(fhat, k)
            assert derived.terms == direct.terms, (b, l, k)


# -- a wrongly straightened hat must trip hat_chain's class-edge check -----------------


def _substitution(w, l, lam_of):
    """The series hat_chain hands on for level l when lam_j = lam_of(j), by
    series arithmetic: the root minus lam_1 to min_poly at l = 1, and
    delta_l = lam_l - lam_(l-1) in the level-(l-1) variable x^N_(l-1) to
    hat_transform at l >= 2."""
    if l == 1:
        return difference(w.root, lam_of(1))
    delta = difference(lam_of(l), lam_of(l - 1))
    n_prev = semiroot_degree(w.cs, l - 1)
    return PuiseuxSeries(delta.denom, {i * n_prev: c for i, c in delta.terms})


def _lam_one_level_short(w, l):
    """The truncation below b_(l-1)/b0 instead of b_l/b0."""
    return _substitution(w, l, lambda j: lam(w, j - 1))


def _lam_last_term_dropped(w, l):
    def dropped(j):
        s = lam(w, j)
        return PuiseuxSeries(s.denom, dict(s.terms[:-1]))

    return _substitution(w, l, dropped)


def _lam_doubled(w, l):
    def doubled(j):
        s = lam(w, j)
        return PuiseuxSeries(s.denom, {i: 2 * c for i, c in s.terms})

    return _substitution(w, l, doubled)


def _delta_one_level_low(w, l):
    """delta_l read from [b_(l-2), b_(l-1)) instead of [b_(l-1), b_l); f^_1
    stays right."""
    return _substitution(w, l, partial(lam, w) if l == 1 else lambda j: lam(w, j - 1))


def _substitute(monkeypatch, w, mutant):
    """Hand mutant(w, l) to verify.min_poly (l = 1) and verify.hat_transform
    (l >= 2) in place of the series hat_chain passes for level l."""
    import branchpolar.verify as verify_mod

    real_min_poly, real_hat = verify_mod.min_poly, verify_mod.hat_transform
    level = [1]

    def min_poly_of(a, cut=None):
        level[0] = 1  # a chain starts here
        return real_min_poly(mutant(w, 1), cut)

    def hat_of(f, n_sub, delta, cut=None):
        level[0] += 1
        return real_hat(f, n_sub, mutant(w, level[0]), cut)

    monkeypatch.setattr(verify_mod, "min_poly", min_poly_of)
    monkeypatch.setattr(verify_mod, "hat_transform", hat_of)


@pytest.mark.parametrize(
    "mutant", [_lam_one_level_short, _lam_last_term_dropped, _lam_doubled],
    ids=lambda f: f.__name__,
)
def test_lemma_rejects_wrong_straightening(monkeypatch, mutant):
    for cs, k in ((EX1, 1), (EX1, 2), (EX2, 1)):
        w = sample_witness(cs, 1)
        with monkeypatch.context() as patched:
            _substitute(patched, w, mutant)
            for l in range(1, cs.h + 1):
                with pytest.raises(InvariantViolation):
                    check_lemma_nd(w, hat_chain(w, l, k)[-1])
            # verify_prediction samples the same witness at seed 1
            with pytest.raises(InvariantViolation):
                verify_prediction(cs, k, [1])


def test_chain_rejects_a_delta_one_level_low(monkeypatch):
    # delta_l read from [b_(l-2), b_(l-1)): its x^(b_(l-2)/b0) term lowers the
    # chain's weight, which hat_transform refuses, and without that term the
    # level misses its class edge
    for cs, k in ((EX1, 1), (EX1, 2), (EX2, 1), (new_char_sequence([16, 24, 28, 30, 31]), 1)):
        w = sample_witness(cs, 1)
        with monkeypatch.context() as patched:
            _substitute(patched, w, _delta_one_level_low)
            hat_chain(w, 1, k)  # f^_1 is left alone
            for l in range(2, cs.h + 1):
                with pytest.raises((InvariantViolation, ValueError),
                                   match="lowers the weight|class edge"):
                    hat_chain(w, l, k)
            with pytest.raises((InvariantViolation, ValueError),
                               match="lowers the weight|class edge"):
                verify_prediction(cs, k, [1])


def test_lemma_rejects_wrong_straightening_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_lemma_rejects_wrong_straightening",
         f"{__file__}::test_chain_rejects_a_delta_one_level_low"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "4 passed" in run.stdout


# -- the hat chain: cut to the Newton triangle, once, and read within the cut ----------


def _edge_terms(f, edge):
    (xa, ya), (xb, yb) = edge
    return {(i, j): c for (i, j), c in f.terms.items()
            if yb <= j <= ya and (xb - xa) * (j - ya) == (yb - ya) * (i - xa)}


def _assert_chain_reads_like_full_expansion(w, k):
    cs = w.cs
    depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
    n_top = semiroot_degree(cs, depth)
    for l, level in enumerate(hat_chain(w, depth, k), start=1):
        fhat = level.fhat
        full = full_hat(w, l)
        m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
        case = (cs.b, w.seed, l, k)
        assert diagram_of(fhat) == diagram_of(full), case
        assert initial_form(fhat, (n_l, m_l)) == initial_form(full, (n_l, m_l)), case
        polar, full_polar = derivative_y(fhat, k), derivative_y(full, k)
        # the polar's row starts are the full polar's whose weight, shifted up
        # by k, is within the level's cut
        scale, slope, intercept = Fraction(n_top, semiroot_degree(cs, l)), *_level_cut(cs, depth, l)
        assert row_starts(polar).terms == {
            (i, j): c for (i, j), c in row_starts(full_polar).terms.items()
            if scale * i + slope * (j + k) <= intercept}, case
        observed, full_observed = diagram_of(polar), diagram_of(full_polar)
        assert (level.polar, level.expected) == (observed, diagram_of(level.starts).symbolic_derivative(k)), case
        # the cut polar misses E exactly when the full one does, and then the
        # level is degenerate either way
        assert (observed == level.expected) == (full_observed == level.expected), case
        if observed != level.expected:
            continue
        assert observed == full_observed, case
        for edge in observed.compact_edges():
            (xa, ya), (xb, yb) = edge
            if (xb - xa) * n_l > (ya - yb) * m_l:
                assert _edge_terms(polar, edge) == _edge_terms(full_polar, edge), case


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


def _level_cut(cs, depth, l):
    """Slope and intercept of level l's cut in the chain for levels
    1..depth, in level-depth x-units, from the class: level 1 has the slope
    b_1/e_(L-1) through bbar_L + N_L, each deeper level
    min(bbar_L/b0, b_(l-1)/e_(L-1)) through bbar_L + 1."""
    e_top, corner = cs.e[depth - 1], cs.bbar[depth - 1]
    if l == 1:
        return Fraction(cs.b[1], e_top), corner + semiroot_degree(cs, depth)
    return min(Fraction(corner, cs.b0), Fraction(cs.b[l - 1], e_top)), corner + 1


def _within(f, scale, slope, intercept):
    """The terms x^i y^j of f with scale i + slope j <= intercept."""
    return {(i, j): c for (i, j), c in f.terms.items() if scale * i + slope * j <= intercept}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_classes())
def test_chain_reads_its_substitutions_and_weight_off_the_class(case):
    # the slices of the root that hat_chain substitutes are the differences
    # lam_l - lam_(l-1) of series arithmetic.  Level 1's weight, the class
    # constant b_1/e_(L-1), is min(bbar_L/b0, N_L ord delta_l for l = 2..L),
    # and each deeper level l has min(bbar_L/b0, N_L ord delta_l): no
    # substitution after it lowers its weight, and it is no less than the
    # level before's
    import branchpolar.verify as verify_mod

    cs, seed = case
    w = sample_witness(cs, seed)
    real_min_poly, real_hat = verify_mod.min_poly, verify_mod.hat_transform
    for depth in range(1, cs.h + 1):
        seen = []
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(verify_mod, "min_poly", lambda a, cut=None: (
                seen.append((a, cut)) or real_min_poly(a, cut)))
            patched.setattr(verify_mod, "hat_transform", lambda f, n_sub, delta, cut=None: (
                seen.append((delta, cut)) or real_hat(f, n_sub, delta, cut)))
            hat_chain(w, depth, 1)
        assert [a for a, _ in seen[:depth]] == [
            _substitution(w, l, partial(lam, w)) for l in range(1, depth + 1)], (cs.b, depth)
        n_top = semiroot_degree(cs, depth)
        deltas = [difference(lam(w, l), lam(w, l - 1)) for l in range(2, depth + 1)]
        orders = [n_top * Fraction(d.terms[0][0], d.denom) for d in deltas]
        chord = Fraction(cs.bbar[depth - 1], cs.b0)
        slopes = [min([chord] + orders)] + [min(chord, order) for order in orders]
        cuts = [cut for _, cut in seen[:depth]]
        for l, ((wx, wy, cap), slope) in enumerate(zip(cuts, slopes), start=1):
            # level l is cut at weight (q N_L/N_l, q s_l) and cap q times its intercept
            scale = Fraction(n_top, semiroot_degree(cs, l))
            expected = _level_cut(cs, depth, l)
            assert (Fraction(wy, wx) * scale, Fraction(cap, wx) * scale) == expected, (
                cs.b, depth, l)
            assert slope == expected[0], (cs.b, depth, l)
        assert slopes == sorted(slopes), (cs.b, depth)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(small_classes())
@example((new_char_sequence([8, 12, 14, 15]), 1))
@example((new_char_sequence([16, 24, 28, 30, 31]), 1))
def test_each_level_is_exact_within_its_own_cut(case):
    # every level of the chain is the full hat transform restricted to its
    # own cut
    cs, seed = case
    w = sample_witness(cs, seed)
    full = [full_hat(w, l) for l in range(1, cs.h + 1)]
    for k in range(1, cs.b0):
        depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
        n_top = semiroot_degree(cs, depth)
        chain = [level.fhat.terms for level in hat_chain(w, depth, k)]
        cut = [_within(full[l - 1], Fraction(n_top, semiroot_degree(cs, l)),
                       *_level_cut(cs, depth, l)) for l in range(1, depth + 1)]
        assert chain == cut, (cs.b, seed, k)


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (10, 15, 17), (8, 12, 14, 15),
                               (16, 24, 28, 30, 31)])
def test_first_hat_is_the_conjugate_product_of_the_shifted_root(b):
    # lam_1 has integer exponents: f(x, y + lam_1) = min_poly(root - lam_1)
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    shifted = difference(w.root, lam(w, 1))
    oracle = hat_transform(min_poly(w.root), 1, lam(w, 1))
    assert min_poly(shifted) == oracle
    for depth in range(1, cs.h + 1):
        n_top = semiroot_degree(cs, depth)
        # the chain's f^_1: every term of level-depth weight within the cap
        fhat = hat_chain(w, depth, 1)[0].fhat
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
                    check_lemma_nd(w, hat_chain(w, l, k)[-1])
        with pytest.raises(InvariantViolation):
            verify_prediction(cs, k, [1])


def test_chain_rejects_a_cut_too_tight_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_chain_rejects_a_cut_too_tight",
         f"{__file__}::test_chain_rejects_an_expected_vertex_beyond_the_cut"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "2 passed" in run.stdout


def _cap_at_the_class_edge(real_cuts):
    """``_level_cuts`` with level 1's cap lowered to its class edge's
    heaviest vertex: the edge from (0, b0) to (b_1, 0) stays within it."""
    def cuts(cs, depth):
        out = real_cuts(cs, depth)
        wx, wy, _ = out[0]
        out[0] = (wx, wy, max(wy * cs.b0, wx * cs.b[1]))
        return out

    return cuts


def test_chain_rejects_an_expected_vertex_beyond_the_cut(monkeypatch):
    # K(2,3) at k = 1: the cap goes from 8 to 6, the class edge's vertices
    # weigh 6, and E's vertex (2, 0), shifted up to (2, 1), weighs 7.  E's
    # last vertex is heavier than the class edge exactly when m_1 k mod n_1 > 0
    import branchpolar.verify as verify_mod

    assert verify_mod._level_cuts(CUSP, 1) == [(2, 3, 8)]
    monkeypatch.setattr(verify_mod, "_level_cuts", _cap_at_the_class_edge(verify_mod._level_cuts))
    assert verify_mod._level_cuts(CUSP, 1) == [(2, 3, 6)]
    for cs, k in ((CUSP, 1), (EX1, 1), (EX1, 2), (EX2, 1), (new_char_sequence([9, 15, 17]), 1),
                  (new_char_sequence([16, 24, 28, 30, 31]), 3)):
        assert cs.m_seq[0] * k % cs.n_seq[0]
        w = sample_witness(cs, 1)
        depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
        for l in range(1, depth + 1):
            with pytest.raises(InvariantViolation, match="expected polar diagram of level 1"):
                hat_chain(w, l, k)
        with pytest.raises(InvariantViolation, match="expected polar diagram of level 1"):
            verify_prediction(cs, k, [1])


def test_expected_diagram_lies_within_the_cut_on_the_grid():
    # every vertex of E, shifted up by k, within the bounds hat_chain proves,
    # in level-L x-units: below bbar_L + N_L at level 1, at most bbar_L below it
    checked = 0
    for cs, seed in itertools.product(grid_classes(12), range(1, 5)):
        w = sample_witness(cs, seed)
        for k in range(1, cs.b0):
            depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
            n_top, corner = semiroot_degree(cs, depth), cs.bbar[depth - 1]
            for l, level in enumerate(hat_chain(w, depth, k), start=1):
                scale, slope, _ = Fraction(n_top, semiroot_degree(cs, l)), *_level_cut(cs, depth, l)
                heaviest = max(scale * x + slope * (y + k) for x, y in level.expected.vertices)
                assert (heaviest < corner + n_top if l == 1 else heaviest <= corner), (
                    cs.b, seed, k, l)
                checked += 1
    assert checked == 4 * 1094


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_classes())
@example((new_char_sequence([12, 20, 23]), 4780))
def test_verify_never_builds_an_uncut_hat(case):
    import branchpolar.verify as verify_mod

    cs, seed = case
    cuts = []
    real_min_poly, real_hat = verify_mod.min_poly, verify_mod.hat_transform
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(verify_mod, "min_poly", lambda a, cut=None: (
            cuts.append(cut) or real_min_poly(a, cut)))
        patched.setattr(verify_mod, "hat_transform", lambda f, n_sub, delta, cut=None: (
            cuts.append(cut) or real_hat(f, n_sub, delta, cut)))
        for k in range(1, cs.b0):
            verify_prediction(cs, k, [seed])
    assert cuts and None not in cuts, (cs.b, seed)


def _statuses(report):
    return (report.verdict, [(run.status, [lv.status for lv in run.levels]) for run in report.runs])


def test_degenerate_witness_reads_within_the_cut(monkeypatch):
    # the all-ones witness at k = 10: d^10 f = 6*11!*(y - x^2)^2 has the vertex
    # (4, 0), which shifted up by k weighs 4 + (4/3)*10 > bbar_1 + 1 = 17, so
    # the polar within the cut misses E, and so does the full one
    import branchpolar.verify as verify_mod

    g = nongeneric_g()
    calls = []
    real_min_poly = verify_mod.min_poly

    def spy(a, cut=None):
        calls.append(cut)
        return real_min_poly(a, cut)

    monkeypatch.setattr(verify_mod, "min_poly", spy)
    monkeypatch.setattr(verify_mod, "sample_witness", lambda cs, seed, extra=None: g)
    chained = verify_prediction(EX1, 10, [1])
    # every retry samples the same witness, and each reads it once, cut
    assert len(chained.runs) == verify_mod.MAX_SEED_RUNS
    assert calls == [verify_mod._level_cuts(EX1, 1)[0]] * len(chained.runs)
    assert all(run.status == "degenerate" for run in chained.runs)

    monkeypatch.setattr(verify_mod, "hat_chain",
                        lambda w, depth, k: [_full_level(w, l, k) for l in range(1, depth + 1)])
    assert _statuses(verify_prediction(EX1, 10, [1])) == _statuses(chained)


def _assert_levels_carry_their_diagrams(chain, k):
    # each reading of a level against one of its full hat
    for l, level in enumerate(chain, start=1):
        assert diagram_of(level.starts) == diagram_of(level.fhat), l
        assert level.polar == diagram_of(derivative_y(level.fhat, k)), (l, k)


@pytest.mark.parametrize("b", [(12, 16, 31), (10, 14, 15), (16, 24, 28, 30, 31)])
def test_hat_chain_hands_on_both_diagrams(b):
    cs = new_char_sequence(b)
    w = sample_witness(cs, 1)
    for k in range(cs.b0):
        depth = max(l for l in range(1, cs.h + 1) if cs.e[l - 1] > k)
        _assert_levels_carry_their_diagrams(hat_chain(w, depth, k), k)


def test_degenerate_chain_hands_on_both_diagrams():
    # the degenerate witness at k = 10: its chain stays cut, and both
    # diagrams are read off the cut hat.  Row 0 of d^10 f^_1, x^4 times a
    # constant, weighs 3*4 + 4*10 = 52 > 51 and has no start within the cut
    g = nongeneric_g()
    chain = hat_chain(g, 1, 10)
    assert chain[0].fhat == hat_chain(g, 1, 2)[0].fhat != full_hat(g, 1)
    assert chain[0].polar.vertices == ((0, 2), (2, 1))
    assert 0 not in chain[0].polar_starts.rows
    _assert_levels_carry_their_diagrams(chain, 10)


@pytest.mark.parametrize("b,k,seeds", [((12, 16, 31), 1, [1, 2]), ((12, 16, 31), 2, [3]),
                                       ((16, 24, 28, 30, 31), 3, [1, 2]),
                                       ((10, 14, 15), 1, [1])])
def test_verify_builds_two_diagrams_per_checked_level(monkeypatch, b, k, seeds):
    import branchpolar.verify as verify_mod

    calls = []
    real_diagram_of = verify_mod.diagram_of

    def spy(f):
        calls.append(all(len(row) == 1 for row in f.rows.values()))
        return real_diagram_of(f)

    monkeypatch.setattr(verify_mod, "diagram_of", spy)
    report = verify_prediction(new_char_sequence(b), k, seeds)
    checked = sum(len(run.levels) for run in report.runs)
    assert checked
    # N(f^_l) and N(d^k f^_l) once each, in the chain, each off a polynomial
    # of one term per row, and none in the checks
    assert calls == [True, True] * checked


@settings(max_examples=10, deadline=None, derandomize=True)
@given(small_classes())
def test_no_check_reads_the_full_hat(case):
    # the checks get every level with its hat taken out, and read the same:
    # all they use is what HatLevel.read took off the row starts
    import dataclasses

    import branchpolar.verify as verify_mod

    cs, seed = case
    real_hat_chain = verify_mod.hat_chain

    def without_hats(w, depth, k):
        return [dataclasses.replace(level, fhat=None) for level in real_hat_chain(w, depth, k)]

    for k in range(1, cs.b0):
        report = verify_prediction(cs, k, [seed])
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(verify_mod, "hat_chain", without_hats)
            blind = verify_prediction(cs, k, [seed])
        assert ((dumps(blind.to_json), dumps(blind.to_text))
                == (dumps(report.to_json), dumps(report.to_text))), (cs.b, seed, k)


# -- the all-ones non-generic witness for K(12,16,31) ----------------------------------


def test_nongeneric_witness_min_poly_coefficients():
    g = min_poly(nongeneric_g().root)
    assert {k: v for k, v in g.terms.items() if k[1] == 11} == {(2, 11): -12}
    assert {k: v for k, v in g.terms.items() if k[1] == 10} == {(4, 10): 66}


def test_nongeneric_witness_tenth_derivative():
    g = min_poly(nongeneric_g().root)
    c = 6 * math.factorial(11)
    assert derivative_y(g, 10).terms == {(0, 2): c, (2, 1): -2 * c, (4, 0): c}


_NONGENERIC_REASONS = (
    "steep diagram region ((2, 1),) differs from expected ((3, 2),)",
    "full hat diagram differs from the symbolic derivative",
)


def test_nongeneric_witness_flagged_degenerate():
    g = nongeneric_g()
    res = check_lemma_nd(g, hat_chain(g, 1, 10)[-1])
    assert res.status == "degenerate"
    assert res.reasons == _NONGENERIC_REASONS
    # and never a silent pass: the diagram within the cut already differs
    assert res.observed == ((0, 2), (2, 1))
    assert res.observed != res.expected == ((0, 2), (3, 0))
    # the full polar, (y - x^2)^2 times a constant, carries a double root
    assert not edge_poly_squarefree(derivative_y(min_poly(g.root), 10), ((0, 2), (4, 0)))


def test_nongeneric_witness_degenerate_at_k1_too():
    # the (y - x^2)^2 structure of g already shows in its first polar: the
    # full polar's steep edge carries a double root where the generic branch
    # has a single factor of contact 3/2
    g = nongeneric_g()
    res = check_lemma_nd(g, hat_chain(g, 1, 1)[-1])
    assert res.status == "degenerate"
    assert res.reasons == _NONGENERIC_REASONS
    assert res.observed == ((0, 11), (12, 2), (14, 1))
    assert res.expected == ((0, 11), (12, 2), (15, 0))
    assert not edge_poly_squarefree(derivative_y(min_poly(g.root), 1), ((12, 2), (16, 0)))


def test_degenerate_steep_edge_on_the_expected_diagram():
    # seed 2 of K(9,15,17) at k = 1: level 1's polar has the expected
    # diagram, but its steep edge carries a repeated factor
    cs = new_char_sequence([9, 15, 17])
    run = verify_prediction(cs, 1, [2]).runs[0]
    level = run.levels[0]
    assert (run.status, level.status) == ("degenerate", "degenerate")
    assert level.observed == level.expected
    assert level.reasons == ("steep edge ((10, 2), (14, 0)) is degenerate",)


# -- initial forms ----------------------------------------------------------------------


def test_initial_form_cusp():
    w = WitnessBranch(CUSP, PuiseuxSeries.from_string("x^(3/2)"))
    assert min_poly(w.root).terms == {(0, 2): 1, (3, 0): -1}
    assert check_initial_form(w, 1, hat_chain(w, 1, 1)[-1].fhat)


def test_initial_form_nongeneric_witness_level2():
    w = nongeneric_g()
    fhat = full_hat(w, 2)
    # in_omega(fhat) = 3^4 * x^32 * (y^4 - x^31) for the all-ones witness
    assert initial_form(fhat, (4, 31)) == {(32, 4): 81, (63, 0): -81}
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


@pytest.mark.parametrize("w,exact", [
    (sample_witness(EX1, 5), int),
    (WitnessBranch(EX1, PuiseuxSeries.from_string("1/3*x^(4/3)+x^2+1/2*x^(31/12)")),
     Fraction),
], ids=["integer", "rational"])
def test_initial_form_mismatch_on_the_face_only(w, exact):
    # the check compares every coefficient on the (n_l, m_l) face and nothing else
    cs = w.cs
    # the characteristic coefficients it reads come back as stored
    assert all(type(dict(w.root.terms)[b]) is exact for b in cs.b[1:])
    for l in range(1, cs.h + 1):
        fhat = hat_chain(w, l, 1)[-1].fhat
        assert check_initial_form(w, l, fhat)
        face = initial_form(fhat, (cs.n_seq[l - 1], cs.m_seq[l - 1]))
        on = next(iter(face))
        off = next(key for key in fhat.terms if key not in face)
        for key, ok in ((on, False), (off, True)):
            changed = dict(fhat.terms)
            changed[key] += 1
            assert check_initial_form(w, l, BivariatePoly(changed)) is ok, (l, key)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_classes(), st.data())
def test_initial_form_check_agrees_with_the_oracle(case, data):
    # one coefficient changed, on the face, elsewhere in the support or at a
    # new point of the triangle's box (below the face, on its line past an
    # end, or above it): the check passes exactly when the oracle's initial
    # form is still the witness's own
    cs, seed = case
    w = sample_witness(cs, seed)
    l = data.draw(st.integers(1, cs.h), label="level")
    fhat = hat_chain(w, l, 1)[-1].fhat
    omega = (cs.n_seq[l - 1], cs.m_seq[l - 1])
    face = initial_form(fhat, omega)
    assert check_initial_form(w, l, fhat)
    key = data.draw(st.one_of(
        st.sampled_from(sorted(face)),
        st.sampled_from(sorted(fhat.terms)),
        st.tuples(st.integers(0, cs.bbar[l - 1] + 1), st.integers(0, cs.b0)),
    ), label="key")
    changed = dict(fhat.terms)
    changed[key] = changed.get(key, 0) + data.draw(st.integers(-3, 3).filter(bool), label="delta")
    g = BivariatePoly(changed)
    assert check_initial_form(w, l, g) is (initial_form(g, omega) == face), (cs.b, seed, l, key)


def test_initial_form_all_levels_random():
    rng = random.Random(61)
    for b in REGRESSION:
        cs = new_char_sequence(b)
        w = sample_witness(cs, rng.randint(1, 10 ** 6))
        for l in range(1, cs.h + 1):
            assert check_initial_form(w, l, hat_chain(w, l, 1)[-1].fhat), (b, l, w.seed)


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
            assert report.verdict == "PASS", (b, k, dumps(report.to_text))


def test_verify_rejects_bad_order(monkeypatch):
    import branchpolar.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sample_witness", None)  # refused before any witness
    with pytest.raises(OrderOutOfRange):
        verify_prediction(EX1, True, [1])
    with pytest.raises(OrderOutOfRange):
        verify_prediction(EX1, 0, [1])
    with pytest.raises(OrderOutOfRange):
        verify_prediction(EX1, 12, [1])
    with pytest.raises(ValueError):
        verify_prediction(EX1, 1, [])


def test_verify_rejects_a_negative_seed():
    # random.Random(-s) and random.Random(s) are one generator, so a negative
    # seed would report a run of a witness already sampled
    cs = new_char_sequence([6, 7])
    assert sample_witness(cs, -7).root == sample_witness(cs, 7).root
    for seeds in ([-5, 5], [-1], [3, -2]):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_prediction(cs, 1, seeds)
    assert verify_prediction(cs, 1, [0]).verdict == "PASS"


def test_verify_rejects_a_repeated_or_non_integer_seed():
    # a repeated seed runs one witness twice and counts it twice; a seed that
    # is not an int would be written into the report, where 1.5 is no JSON
    # integer and True is no number
    cs = new_char_sequence([6, 7])
    for seeds, match in (([17, 17], "distinct"), ([5, 3, 5], "distinct"),
                         ([1.5], "integers"), ([2, 2.0], "integers"),
                         ([True], "integers"), ([1, False], "integers")):
        with pytest.raises(ValueError, match=match):
            verify_prediction(cs, 1, seeds)
    assert dumps(verify_prediction(cs, 1, (s for s in [3, 5])).to_json)


def test_verify_report_deterministic():
    a = dumps(verify_prediction(EX2, 2, [3, 4]).to_json)
    b = dumps(verify_prediction(EX2, 2, [3, 4]).to_json)
    assert a == b


def test_verify_report_embeds_the_prediction_document():
    # three groups, five factors and their ten contact rows, one level deeper
    report = verify_prediction(new_char_sequence([16, 24, 28, 30, 31]), 3, [1, 2])
    text = dumps(report.to_json)
    blob = json.loads(text)
    blob["prediction"] = prediction_document_oracle(report.prediction)
    assert text == json.dumps(blob, indent=2)
    assert blob["verdict"] == "PASS" and len(blob["prediction"]["pairwise_contacts"]) == 10


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
    assert [f for run in report.runs for f in run.failures] == [
        "level 1: z^(1)_1 observed ((3, 2), 3/2, 2), predicted ((3, 2), 3/2, 3)"]


@pytest.mark.parametrize("extra", [True, False], ids=["extra-empty-group", "last-group-missing"])
def test_a_wrong_group_count_reads_fail(monkeypatch, extra):
    # verify checks the levels of the class, the l with e_(l-1) > k, whatever
    # the prediction's group count: a level beyond its groups meets an empty
    # group, and the run names both counts.  An extra group used to raise
    # IndexError, a bare crash
    import dataclasses

    import branchpolar.verify as verify_mod

    real = verify_mod.predict

    def wrong(cs, k):
        p = real(cs, k)
        return dataclasses.replace(p, groups=p.groups + ((),) if extra else p.groups[:-1])

    monkeypatch.setattr(verify_mod, "predict", wrong)
    report = verify_prediction(EX1, 1, [1, 2])
    assert report.verdict == "FAIL"
    [run] = report.runs
    assert [lv.level for lv in run.levels] == [1, 2]
    assert run.failures[0] == (f"group count {3 if extra else 1} != 2, "
                               "the number of levels l with e_(l-1) > 1")
    assert run.failures[1:] == (() if extra else (
        "level 1: edge length 9 != predicted 0",
        "level 2: z^(2)_1 observed ((8, 1), 8/3, 3), predicted none",
    ))


def _stub_runs(monkeypatch, statuses):
    """Each seed's run read off ``statuses``, degenerate where it names none."""
    import branchpolar.verify as verify_mod

    def run(w, prediction, depth):
        status = statuses.get(w.seed, "degenerate")
        level = LevelReport(1, (), (), reasons=("stub",) if status == "degenerate" else ())
        return SeedRun(w.seed, (level,), ("stub",) if status == "fail" else ())

    monkeypatch.setattr(verify_mod, "_run_seed", run)


@pytest.mark.parametrize("seeds,statuses,ran,passing", [
    # a fail among the given seeds stops the run there
    ([1, 2, 3], {2: "fail", 3: "pass"}, [1, 2], None),
    ([1, 2, 3], {1: "pass", 2: "fail"}, [1, 2], 1),
    # nine given degenerate seeds all run, and no fresh one
    (list(range(1, 10)), {}, list(range(1, 10)), None),
    # two given degenerate seeds get fresh seeds up to eight runs
    ([4, 2], {}, [4, 2, 5, 6, 7, 8, 9, 10], None),
    # a fresh seed that passes ends the loop
    ([1, 2], {4: "pass", 5: "pass"}, [1, 2, 3, 4], 4),
    # a given seed that passes leaves the given ones to run, and no fresh one
    ([1, 2], {1: "pass"}, [1, 2], 1),
], ids=["fail-stops", "fail-after-pass", "nine-degenerate", "two-degenerate",
        "fresh-pass", "given-pass"])
def test_seed_policy(monkeypatch, seeds, statuses, ran, passing):
    _stub_runs(monkeypatch, statuses)
    report = verify_prediction(new_char_sequence([6, 7]), 1, seeds)
    assert [run.seed for run in report.runs] == ran
    failed = any(statuses.get(seed) == "fail" for seed in ran)
    assert report.verdict == ("FAIL" if failed else "PASS" if passing else "UNKNOWN")
    assert report.passing_seed == passing
    assert report.degenerate_count == sum(seed not in statuses for seed in ran)


def test_aggregate_edge_accounting_ex1_k2():
    # at level 1 the edge of inclination m_1/n_1 = 4/3 collects the W-factor
    # (mult 3) and both group-2 Z-factors (mult 3 each): vertical length 9
    report = verify_prediction(EX1, 2, [1])
    lv = report.runs[0].levels[0]
    assert lv.level == 1
    assert lv.aggregate_edge_length == 9
    assert lv.aggregate_predicted == 9
