import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchpolar
from branchpolar import puiseux
from branchpolar.charclass import new_char_sequence
from branchpolar.diagram import elementary, from_support
from branchpolar.errors import (
    EdgeNotOnPolygon,
    InvalidCharacteristic,
    InvariantViolation,
    NonIntegralSubstitution,
    OrderExceedsDegree,
    ZeroPolynomial,
)
from branchpolar.puiseux import (
    BivariatePoly,
    PuiseuxSeries,
    derivative_y,
    diagram_of,
    edge_poly,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
    row_starts,
    _univariate_gcd_degree,
)
from branchpolar.verify import WitnessBranch, hat_chain, sample_witness
from oracles import (
    coefficient,
    conjugate,
    derivative_y_oracle,
    diagram_of_oracle,
    dict_mul,
    difference,
    edge_poly_oracle,
    evaluate,
    full_hat,
    gcd_degree_oracle,
    hat_horner_oracle,
    min_poly_laplace_oracle,
    min_poly_oracle,
    random_char_sequence,
    series_text,
    truncate_below,
    truncation_orbit,
)

EX1_ROOT = "x^(4/3)+x^2+x^(31/12)"
INF = float("inf")


# -- series basics -------------------------------------------------------------


def test_parse_and_str_round_trip():
    s = PuiseuxSeries.from_string("3/2*x^(7/5)-x^2+x")
    assert s.denom == 5
    assert dict(s.terms) == {5: 1, 7: Fraction(3, 2), 10: -1}
    assert series_text(s) == "x+3/2*x^(7/5)-x^2"
    assert PuiseuxSeries.from_string(series_text(s)) == s
    # a negative fraction prints with its sign and denominator, a whole Fraction without one
    s = PuiseuxSeries(6, {8: Fraction(-3, 2), 9: Fraction(6, 2)})
    assert series_text(s) == "-3/2*x^(4/3)+3*x^(3/2)"
    assert PuiseuxSeries.from_string(series_text(s)) == s


@pytest.mark.parametrize("text", ["x^(1/0)", "1/0*x", "x^2+", "--x", "2x", "x^(3/00)",
                                  "x^(3/2", "x^3/2)", "x^3/2"])
def test_malformed_series_is_refused_with_value_error(text):
    # a zero denominator is a malformed term, not a ZeroDivisionError; a
    # fractional exponent needs its parentheses as a pair
    with pytest.raises(ValueError, match="cannot parse Puiseux term"):
        PuiseuxSeries.from_string(text)


@pytest.mark.parametrize("text", ["0", "", " 0 "])
def test_zero_series_parses_prints_and_has_min_poly_y(text):
    zero = PuiseuxSeries.from_string(text)
    assert (zero.denom, zero.terms) == (1, ())
    assert series_text(zero) == "0"
    # the one conjugate of 0 is 0 itself: its minimal polynomial is y
    assert min_poly(zero) == BivariatePoly({(0, 1): 1})


def test_denominators_with_leading_zeros_still_parse():
    assert PuiseuxSeries.from_string("3/02*x^(7/05)") == PuiseuxSeries.from_string("3/2*x^(7/5)")


def order(s):
    """Smallest exponent of a nonzero series, +inf for the zero series."""
    return Fraction(s.terms[0][0], s.denom) if s.terms else INF


def test_contact_examples():
    # the oracle the tests check the root slices of hat_chain with
    a = PuiseuxSeries.from_string("x^(3/2)")
    b = PuiseuxSeries.from_string("x^(3/2)+x^2")
    assert order(difference(a, b)) == 2
    assert order(difference(a, a)) == INF
    c = PuiseuxSeries.from_string("x^(4/3)+x^2")
    d = PuiseuxSeries.from_string("x^(4/3)+2*x^2")
    assert order(difference(c, d)) == 2
    assert difference(b, c) == PuiseuxSeries.from_string("x^(3/2)-x^(4/3)")


def test_characteristic_examples():
    assert PuiseuxSeries.from_string(EX1_ROOT).characteristic().b == (12, 16, 31)
    assert PuiseuxSeries.from_string("x^(3/2)").characteristic().b == (2, 3)
    s = PuiseuxSeries.from_string("x^(7/5)+x^(3/2)")
    assert s.denom == 10
    assert s.characteristic().b == (10, 14, 15)


def test_characteristic_errors():
    with pytest.raises(InvalidCharacteristic):
        PuiseuxSeries(2, {1: 1}).characteristic()   # order 1/2 < 1
    with pytest.raises(InvalidCharacteristic):
        PuiseuxSeries(1, {2: 1}).characteristic()   # smooth
    with pytest.raises(InvalidCharacteristic):
        PuiseuxSeries(1, {}).characteristic()       # zero


def test_constructors_refuse_exponents_out_of_range():
    with pytest.raises(ValueError, match="positive"):
        PuiseuxSeries(3, {0: 1})
    with pytest.raises(ValueError, match="nonnegative"):
        BivariatePoly({(-1, 0): 1})


_series_terms = st.dictionaries(st.integers(1, 60), st.integers(-3, 3), max_size=6)


def _over_index(s):
    return gcd(s.denom, *(i for i, _ in s.terms)) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), _series_terms, st.integers(1, 12), _series_terms,
       st.integers(1, 6), st.fractions(0, 8, max_denominator=12))
def test_every_series_is_stored_over_its_index(n, terms, m, other_terms, scale, cutoff):
    a = PuiseuxSeries(n, terms)
    b = PuiseuxSeries(m, other_terms)
    for s in (a, b, truncate_below(a, cutoff)):
        assert _over_index(s), (s.denom, s.terms)
    # the same series written over a multiple of n is the same object
    same = PuiseuxSeries(scale * n, {scale * i: c for i, c in terms.items()})
    assert (same.denom, same.terms) == (a.denom, a.terms)
    assert same == a and hash(same) == hash(a)


def test_series_and_polynomials_cannot_be_changed():
    s = PuiseuxSeries.from_string(EX1_ROOT)
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    for obj, fields in ((s, ("denom", "terms")), (f, ("rows",))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        # frozen slotted dataclasses of Python 3.10-3.13 refuse a new
        # attribute with a TypeError from their generated __setattr__
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
    assert s == PuiseuxSeries.from_string(EX1_ROOT)
    assert f == BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(TypeError):
        hash(f)  # its rows are a dict


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (4, 6, 7), (10, 14, 15), (12, 16, 31), (8, 12, 14, 15)]),
       st.integers(1, 10 ** 6), st.integers(2, 6))
def test_characteristic_of_a_series_over_a_multiple_of_its_index(b, seed, scale):
    root = sample_witness(new_char_sequence(b), seed).root
    widened = PuiseuxSeries(scale * root.denom, {scale * i: c for i, c in root.terms})
    assert widened.denom == b[0]
    assert widened.characteristic().b == b


def test_truncate_below():
    # the oracle the tests build lam_l with
    s = PuiseuxSeries.from_string(EX1_ROOT)
    assert truncate_below(s, Fraction(31, 12)) == PuiseuxSeries.from_string("x^(4/3)+x^2")
    assert truncate_below(s, Fraction(4, 3)).terms == ()
    assert truncate_below(s, INF) == s


@pytest.mark.parametrize("call", [
    lambda s: truncate_below(s, 0.1),
    lambda s: truncate_below(s, 2.0),
    lambda s: coefficient(s, 0.1),
    lambda s: coefficient(s, 2.0),
    lambda s: coefficient(s, True),
], ids=["truncate-0.1", "truncate-2.0", "coefficient-0.1", "coefficient-2.0", "coefficient-bool"])
def test_exponent_arguments_must_be_exact(call):
    # the oracles that read a series by exponent refuse floats: coefficient(0.1)
    # would look up the binary value of 0.1 and return 0
    with pytest.raises(ValueError):
        call(PuiseuxSeries.from_string(EX1_ROOT))


def test_coefficient_is_the_stored_value():
    # verify reads a root's coefficients by numerator over its index, as stored
    s = PuiseuxSeries.from_string("1/2*x^(3/2)+x^2")
    assert dict(s.terms) == {3: Fraction(1, 2), 4: 1}
    assert type(dict(s.terms)[3]) is Fraction and type(dict(s.terms)[4]) is int
    # the oracle reads the same values by exponent
    assert coefficient(s, Fraction(3, 2)) == Fraction(1, 2)
    assert type(coefficient(s, Fraction(3, 2))) is Fraction
    assert coefficient(s, 2) == 1 and type(coefficient(s, 2)) is int
    assert coefficient(s, Fraction(4, 2)) == 1
    assert coefficient(s, Fraction(5, 3)) == 0 and coefficient(s, 3) == 0


def test_conjugates():
    s = PuiseuxSeries.from_string("x^(3/2)")
    assert conjugate(s, 0).is_identity
    assert conjugate(s, 1).materialize() == PuiseuxSeries.from_string("-x^(3/2)")
    twelve = PuiseuxSeries(12, {16: 1})
    assert truncation_orbit(twelve, Fraction(4, 3)) == 3
    with pytest.raises(ValueError):
        conjugate(twelve, 1).materialize()


# -- minimal polynomials ---------------------------------------------------------


def test_min_poly_cusp():
    f = min_poly(PuiseuxSeries.from_string("x^(3/2)"))
    assert f.terms == {(0, 2): 1, (3, 0): -1}


def test_min_poly_reduces_index():
    f = min_poly(PuiseuxSeries(12, {16: 1}))
    assert f.terms == {(0, 3): 1, (4, 0): -1}


def test_min_poly_known_coefficients():
    g = min_poly(PuiseuxSeries.from_string(EX1_ROOT))
    assert max(j for _, j in g.terms) == 12
    assert g.terms[(0, 12)] == 1
    assert {k: v for k, v in g.terms.items() if k[1] == 11} == {(2, 11): -12}
    assert {k: v for k, v in g.terms.items() if k[1] == 10} == {(4, 10): 66}


def test_min_poly_against_cyclotomic_oracle():
    rng = random.Random(17)
    cases = [
        PuiseuxSeries.from_string("x^(3/2)+x^2"),
        PuiseuxSeries.from_string("x^(4/3)+x^2"),
        PuiseuxSeries.from_string("2*x^(5/4)+x^(3/2)"),
        PuiseuxSeries.from_string("x^(7/6)"),
        PuiseuxSeries.from_string("1/2*x^(5/3)-x^2"),
    ]
    for _ in range(5):
        n = rng.choice([2, 3, 4, 6])
        terms = {n + rng.randint(0, 4): rng.randint(-3, 3) for _ in range(3)}
        terms[n + 1] = 1  # gcd(n, n + 1) = 1 forces index exactly n
        cases.append(PuiseuxSeries(n, terms))
    for s in cases:
        expected = min_poly_oracle(s)
        got = min_poly(s)
        assert got.terms == {k: v for k, v in expected.items()}, series_text(s)


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _light_terms(terms: dict, cut) -> dict:
    """The terms x^i y^j of weight wx*i + wy*j at most the cap."""
    if cut is None:
        return dict(terms)
    wx, wy, cap = cut
    return {(i, j): c for (i, j), c in terms.items() if wx * i + wy * j <= cap}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    # odd n take no Graeffe step; 12 = 4 * 3 takes two after an odd part of
    # index 3, and 16 four after one of index 1.  Fewer terms at 12 and 16
    # keep the cyclotomic oracle quick.
    st.sampled_from([2, 3, 4, 5, 6, 7, 8, 12, 16]).flatmap(lambda n: st.tuples(
        st.just(n),
        # one exponent prime to n keeps the index at n
        st.integers(1, 4 * n).filter(lambda i: gcd(i, n) == 1),
        _coefficients.filter(bool),
        st.dictionaries(st.integers(1, 4 * n), _coefficients,
                        max_size=4 if n <= 8 else 16 // n),
        # a weight cut (wx, wy, wy * n + extra); a negative extra puts the cap
        # below the weight of y^n, which is kept all the same
        st.none() | st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(-20, 40)),
    ))
)
def test_min_poly_matches_cyclotomic_oracle(case):
    n, i0, c0, terms, weights = case
    s = PuiseuxSeries(n, {**terms, i0: c0})
    cut = None
    if weights is not None:
        wx, wy, extra = weights
        cut = (wx, wy, wy * n + extra)
    got = min_poly(s, cut)
    assert got.terms == {**_light_terms(min_poly_oracle(s), cut), (0, n): 1}


def test_min_poly_matches_laplace_oracle_on_witness_roots():
    rng = random.Random(53)
    tried = 0
    while tried < 12:
        cs = random_char_sequence(rng, b0_max=20)
        if cs.h < 2:
            continue
        tried += 1
        root = sample_witness(cs, rng.randint(1, 10 ** 6)).root
        oracle = min_poly_laplace_oracle(root)
        # x-weight b0 and y-weight 1: every term below x^(b_h / n_1), and
        # the constant term at x^(b_h / n_1)
        for cut in (None, (cs.b0, 1, cs.b0 * (cs.b[-1] // cs.n_seq[0]))):
            got = min_poly(root, cut)
            assert got.terms == _light_terms(oracle.terms, cut), (cs.b, cut)


# -- wrong power sums must trip min_poly's invariants ------------------------------

_POWER_SUMS = puiseux._power_sums


def _power_sums_from_zero(scaled, n, *window):
    # p_0, ..., p_n instead of p_1, ..., p_(n+1); p_0 = n
    return [n] + _POWER_SUMS(scaled, n, *window)[:-1]


def _power_sums_without_n(scaled, n, *window):
    return [p // n for p in _POWER_SUMS(scaled, n, *window)]


@pytest.mark.parametrize(
    "mutant", [_power_sums_from_zero, _power_sums_without_n], ids=lambda f: f.__name__,
)
def test_min_poly_rejects_wrong_power_sums(monkeypatch, mutant):
    roots = [PuiseuxSeries.from_string(EX1_ROOT), PuiseuxSeries.from_string("x^(7/5)+x^(3/2)")]
    roots += [sample_witness(new_char_sequence(b), 1).root for b in ((12, 16, 31), (11, 13))]
    monkeypatch.setattr(puiseux, "_power_sums", mutant)
    for root in roots:
        with pytest.raises(InvariantViolation):
            min_poly(root)


# these keep every p_j a multiple of n, so only the identity at j = n + 1 sees them


def _power_sums_losing_p_n(scaled, n, *window):
    sums = _POWER_SUMS(scaled, n, *window)
    sums[n - 1] = 0
    return sums


def _power_sums_negated(scaled, n, *window):
    return [-p for p in _POWER_SUMS(scaled, n, *window)]


def _power_sums_doubled(scaled, n, *window):
    return [2 * p for p in _POWER_SUMS(scaled, n, *window)]


@pytest.mark.parametrize(
    "mutant", [_power_sums_losing_p_n, _power_sums_negated, _power_sums_doubled],
    ids=lambda f: f.__name__,
)
def test_min_poly_rejects_power_sums_kept_multiples_of_n(monkeypatch, mutant):
    # uncut results, even of series whose exponents span a narrow range, are
    # checked by f(x, a) = 0; cut ones by e_(n+1) = 0 over its window, as in
    # the first link of the verifier's hat chain
    witnesses = [sample_witness(new_char_sequence(b), 1)
                 for b in ((12, 16, 31), (10, 14, 15), (8, 12, 14, 15), (2, 3))]
    roots = [w.root for w in witnesses]
    roots += [PuiseuxSeries.from_string(s) for s in ("x^(3/2)", "x^(7/5)+x^(3/2)", EX1_ROOT)]
    monkeypatch.setattr(puiseux, "_power_sums", mutant)
    for root in roots:
        with pytest.raises(InvariantViolation):
            min_poly(root)
    for root in roots[:3]:
        n = root.denom
        with pytest.raises(InvariantViolation):
            min_poly(root, cut=(1, 1, n + 10))
    for w in witnesses:
        for depth in range(1, w.cs.h + 1):
            with pytest.raises(InvariantViolation):
                hat_chain(w, depth, 1)


def test_min_poly_rejects_wrong_power_sums_without_asserts():
    src = str(Path(branchpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_min_poly_rejects_wrong_power_sums",
         f"{__file__}::test_min_poly_rejects_power_sums_kept_multiples_of_n"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "5 passed" in run.stdout


# -- wrong Graeffe steps must be caught -------------------------------------------

_GRAEFFE_STEP = puiseux._graeffe_step


def _step_adding_odd_square(even, odd, cap, size):
    # E^2 + T^2 O^2 instead of E^2 - T^2 O^2
    out = _GRAEFFE_STEP(even, [], cap, size)
    for key, c in _GRAEFFE_STEP([], odd, cap, size).items():
        out[key] = out.get(key, 0) - c
    return out


def _step_dropping_odd_square(even, odd, cap, size):
    return _GRAEFFE_STEP(even, [], cap, size)


# n = 2^s q: 2 = 2 * 1, 4 = 4 * 1, 6 = 2 * 3, 8 = 8 * 1 and 12 = 4 * 3
_TOWER_ROOTS = ["x^(3/2)+x^2", "2*x^(5/4)+x^(3/2)-x^2", "x^(7/6)+1/2*x^(4/3)",
                "x^(9/8)-x^(5/4)+3*x^(3/2)", EX1_ROOT]


@pytest.mark.parametrize(
    "mutant", [_step_adding_odd_square, _step_dropping_odd_square], ids=lambda f: f.__name__,
)
def test_min_poly_rejects_wrong_graeffe_steps(monkeypatch, mutant):
    roots = [PuiseuxSeries.from_string(r) for r in _TOWER_ROOTS]
    oracles = [min_poly_oracle(root) for root in roots]
    monkeypatch.setattr(puiseux, "_graeffe_step", mutant)
    for root, oracle in zip(roots, oracles):
        # uncut, f(x, a) = 0 fails
        with pytest.raises(InvariantViolation):
            min_poly(root)
        # cut, nothing certifies the result, and it is wrong: the cap keeps
        # every term x^i y^j, whose i is at most the last numerator of a
        cut = (1, 1, root.terms[-1][0] + root.denom)
        assert min_poly(root, cut).terms != {**oracle, (0, root.denom): 1}


def test_min_poly_needs_every_intermediate_cap(monkeypatch):
    # the first of two or more steps, cut one unit below its cap
    # cap - m (n - d), loses terms of the result within the cap.  The cut
    # keeps the terms on and under the edge from (0, n) to (v, 0), v the
    # first numerator of a.
    for text in _TOWER_ROOTS:
        root = PuiseuxSeries.from_string(text)
        n, v = root.denom, root.terms[0][0]
        if n % 4:
            continue
        cut = (n, v, n * v)
        expected = {**_light_terms(min_poly_oracle(root), cut), (0, n): 1}
        assert min_poly(root, cut).terms == expected
        calls = []

        def tight_first_step(even, odd, cap, size):
            calls.append(cap)
            return _GRAEFFE_STEP(even, odd, cap - (len(calls) == 1), size)

        monkeypatch.setattr(puiseux, "_graeffe_step", tight_first_step)
        assert min_poly(root, cut).terms != expected
        assert len(calls) >= 2
        monkeypatch.undo()


# -- derivatives ------------------------------------------------------------------


def test_tenth_derivative_known_witness():
    g = min_poly(PuiseuxSeries.from_string(EX1_ROOT))
    d10 = derivative_y(g, 10)
    c = 6 * math.factorial(11)
    assert d10.terms == {(0, 2): c, (2, 1): -2 * c, (4, 0): c}


def test_derivative_simple():
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    assert derivative_y(f, 1).terms == {(0, 1): 2}
    assert derivative_y(f, 2).terms == {(0, 0): 2}
    with pytest.raises(OrderExceedsDegree):
        derivative_y(f, 3)
    # a Fraction that the factor j!/(j-k)! makes whole is stored as an int
    half = derivative_y(BivariatePoly({(0, 2): Fraction(1, 2)}), 2)
    assert half.rows == {0: {0: 1}} and type(half.rows[0][0]) is int


def test_derivative_composes():
    rng = random.Random(23)
    for _ in range(30):
        f = BivariatePoly(
            {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-5, 5) for _ in range(8)}
        )
        if f.is_zero():
            continue
        d = max(j for _, j in f.terms)
        k = rng.randint(0, d)
        l = rng.randint(0, d - k)
        assert derivative_y(derivative_y(f, k), l) == derivative_y(f, k + l)


# -- hat transforms ------------------------------------------------------------------


def test_hat_examples():
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    zero = PuiseuxSeries(1, {})
    assert hat_transform(f, 2, zero).terms == {(0, 2): 1, (6, 0): -1}
    lam = PuiseuxSeries.from_string("x^(3/2)")
    assert hat_transform(f, 2, lam).terms == {(0, 2): 1, (3, 1): 2}


def test_hat_nonintegral_substitution():
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(NonIntegralSubstitution):
        hat_transform(f, 3, PuiseuxSeries.from_string("x^(3/2)"))


def test_hat_witness_horizontal_vertex():
    # straightening the level-2 truncation of the (12,16,31) witness puts the
    # x-axis vertex of the polygon at the intersection number 63
    root = PuiseuxSeries.from_string(EX1_ROOT)
    f = min_poly(root)
    lam = truncate_below(root, Fraction(31, 12))
    fhat = hat_transform(f, 3, lam)
    d = diagram_of(fhat)
    assert d.bottom == (63, 0)


def test_hat_multiplicative():
    rng = random.Random(29)
    lam = PuiseuxSeries.from_string("x+2*x^2")
    for _ in range(20):
        f = BivariatePoly({(rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-4, 4) for _ in range(5)})
        g = BivariatePoly({(rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-4, 4) for _ in range(5)})
        product = BivariatePoly(dict_mul(f.terms, g.terms))
        hats = dict_mul(hat_transform(f, 2, lam).terms, hat_transform(g, 2, lam).terms)
        assert hat_transform(product, 2, lam).terms == hats


def test_hat_agrees_with_evaluation():
    rng = random.Random(31)
    lam = PuiseuxSeries.from_string("x-1/2*x^3")
    f = BivariatePoly({(i, j): rng.randint(-5, 5) for i in range(4) for j in range(3)})
    fhat = hat_transform(f, 2, lam)
    for x0, y0 in [(Fraction(1, 2), Fraction(2)), (Fraction(-1, 3), Fraction(1, 5))]:
        mu = sum(c * x0 ** (i * 2 // lam.denom) for i, c in lam.terms)
        assert evaluate(fhat, x0, y0) == evaluate(f, x0 ** 2, y0 + mu)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_hat_cut_keeps_exactly_the_light_terms(data):
    # with wx * ord(mu) >= wy the cut result is the full one without the
    # terms of weight above the cap, term for term
    draw = data.draw
    n_sub = draw(st.integers(1, 3))
    denom = draw(st.sampled_from([d for d in (1, 2, 3) if n_sub % d == 0]))
    f = BivariatePoly({(draw(st.integers(0, 6)), draw(st.integers(0, 5))): draw(st.integers(-4, 4))
                       for _ in range(draw(st.integers(1, 10)))})
    lam = PuiseuxSeries(denom, {draw(st.integers(1, 3 * denom)): draw(st.integers(-3, 3))
                                for _ in range(draw(st.integers(0, 3)))})
    mu_ord = lam.terms[0][0] * n_sub // denom if lam.terms else 10
    wy = draw(st.integers(1, 5))
    wx = draw(st.integers(-(-wy // mu_ord), 5))
    cap = draw(st.integers(0, 40))
    full = hat_transform(f, n_sub, lam)
    light = {(i, j): c for (i, j), c in full.terms.items() if wx * i + wy * j <= cap}
    assert hat_transform(f, n_sub, lam, (wx, wy, cap)).terms == light


_small_q = st.fractions(-3, 3, max_denominator=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_hat_taylor_matches_horner(data):
    # the Taylor expansion and Horner's scheme agree term for term, cut or not
    draw = data.draw
    n_sub = draw(st.integers(1, 3))
    denom = draw(st.sampled_from([d for d in (1, 2, 3) if n_sub % d == 0]))
    f = BivariatePoly({(draw(st.integers(0, 6)), draw(st.integers(0, 5))): draw(_small_q)
                       for _ in range(draw(st.integers(0, 10)))})
    lam = PuiseuxSeries(denom, {draw(st.integers(1, 3 * denom)): draw(_small_q)
                                for _ in range(draw(st.integers(0, 3)))})
    assert hat_transform(f, n_sub, lam).terms == hat_horner_oracle(f, n_sub, lam).terms
    mu_ord = lam.terms[0][0] * n_sub // lam.denom if lam.terms else 10
    wy = draw(st.integers(1, 5))
    cut = (draw(st.integers(-(-wy // mu_ord), 5)), wy, draw(st.integers(-10, 40)))
    assert hat_transform(f, n_sub, lam, cut).terms == hat_horner_oracle(f, n_sub, lam, cut).terms


_SLOPE_POLY = BivariatePoly({(0, 4): 1, (1, 3): -2, (3, 2): Fraction(1, 2), (0, 2): 3,
                             (5, 1): -1, (2, 1): 4, (7, 0): 1, (4, 0): Fraction(-2, 3)})


@pytest.mark.parametrize("n_sub,lam,cut", [
    (2, "x", (1, 2, 9)),
    (1, "1/2*x+2/3*x^2", (1, 1, 7)),
    (1, "3*x^2", (1, 2, 7)),
], ids=["one-term", "two-terms", "cap-above-the-top-row"])
def test_hat_at_the_cut_slope_matches_horner(n_sub, lam, cut):
    # wx * ord(mu) = wy, the slope of the verifier's hats: no step of the
    # shift by mu's first term raises a weight, and in "two-terms" each step
    # of the second, x^2, raises it by 1
    lam = PuiseuxSeries.from_string(lam)
    wx, wy, cap = cut
    assert wx * lam.terms[0][0] * n_sub == wy * lam.denom
    hat = hat_transform(_SLOPE_POLY, n_sub, lam, cut)
    assert hat.terms == hat_horner_oracle(_SLOPE_POLY, n_sub, lam, cut).terms
    # the cap passes through a row of the full result: it keeps a part of it
    full = hat_transform(_SLOPE_POLY, n_sub, lam).rows
    assert any(0 < len(hat.rows.get(j, {})) < len(row) for j, row in full.items())


@pytest.mark.parametrize("cut", [(1, 1, 2), (2, 1, 3), (2, 1, 4)])
def test_a_hat_whose_lower_rows_cancel_keeps_no_zero_and_no_empty_row(cut):
    # (y - x)^2 at y + x is exactly y^2, cut at the slope or above it: (2, 1, 3)
    # keeps y^2 and -2xy, and the shift's 2xy cancels the second
    square = BivariatePoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    assert hat_transform(square, 1, PuiseuxSeries.from_string("x"), cut).rows == {2: {0: 1}}


@pytest.mark.parametrize("cut", [None, (1, 1, -1), (1, 1, 0), (2, 1, 10)])
def test_hat_of_the_zero_polynomial(cut):
    zero = BivariatePoly({})
    lam = PuiseuxSeries.from_string("1/2*x+x^2")
    assert hat_transform(zero, 2, lam, cut).is_zero()
    assert hat_horner_oracle(zero, 2, lam, cut).is_zero()


@pytest.mark.parametrize("weights", [(0, 1), (1, 0), (-1, 2), (2, -3)])
def test_hat_cut_rejects_weights_that_are_not_positive(weights):
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(ValueError, match="cut weights must be positive"):
        hat_transform(f, 1, PuiseuxSeries.from_string("x^2"), (*weights, 10))


@pytest.mark.parametrize("cut, message", [
    ((-1, 1, 40), "cut weights must be positive"),
    ((0, 1, 40), "cut weights must be positive"),
    ((1, 0, 40), "cut weights must be positive"),
    ((1, -1, 40), "cut weights must be positive"),
    ((True, 1, 40), "expected an integer"),
    ((1, 1, 40.0), "expected an integer"),
    ((1, Fraction(1), 40), "expected an integer"),
], ids=["negative-wx", "zero-wx", "zero-wy", "negative-wy", "bool", "float-cap", "fraction"])
def test_min_poly_and_hat_read_a_cut_alike(cut, message):
    # one reading of a cut for both: int entries (no bool, float or
    # Fraction) and both weights at least 1, whatever the cap
    with pytest.raises(ValueError, match=message):
        min_poly(PuiseuxSeries.from_string(EX1_ROOT), cut=cut)
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(ValueError, match=message):
        hat_transform(f, 1, PuiseuxSeries.from_string("x^2"), cut)


def test_hat_cut_rejects_a_lowering_substitution():
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(ValueError):
        hat_transform(f, 1, PuiseuxSeries.from_string("x"), (1, 2, 10))


# -- diagrams and edge polynomials -----------------------------------------------------


def test_diagram_of_examples():
    assert diagram_of(BivariatePoly({(0, 2): 1, (3, 0): -1})) == elementary(3, 2)
    g = min_poly(PuiseuxSeries.from_string(EX1_ROOT))
    d = diagram_of(g)
    assert d.vertices == ((0, 12), (16, 0))
    ray = diagram_of(BivariatePoly({(0, 1): 2}))
    assert ray.vertices == ((0, 1),)
    assert not ray.compact_edges()
    with pytest.raises(ZeroPolynomial):
        diagram_of(BivariatePoly({}))


SUPPORTS = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SUPPORTS)
def test_diagram_of_a_derivative_is_read_off_the_rows(terms):
    # verify differentiates a hat's row starts only: they are the row starts
    # of the derivative, so every compact edge of the derivative's diagram
    # carries the same coefficients as on the whole derivative
    f = BivariatePoly(terms)
    starts = row_starts(f)
    assert all(len(row) == 1 for row in starts.rows.values())
    degree = max(j for _, j in terms)
    for k in range(degree + 1):
        polar, polar_starts = derivative_y(f, k), derivative_y(starts, k)
        assert polar_starts == row_starts(polar), (terms, k)
        for edge in diagram_of(polar).compact_edges():
            assert (_typed(edge_poly(polar_starts, edge))
                    == _typed(edge_poly(polar, edge))), (terms, k, edge)
    with pytest.raises(OrderExceedsDegree):
        derivative_y(starts, degree + 1)


def test_edge_poly_examples():
    # y^4 - 3/2 x^3 y^2 + 2 x^6 + x^7 y: the edge reads its own rows, 0 in between
    f = BivariatePoly({(0, 4): 1, (3, 2): Fraction(-3, 2), (6, 0): 2, (7, 1): 1})
    coeffs = edge_poly(f, ((0, 4), (6, 0)))
    assert coeffs == [2, 0, Fraction(-3, 2), 0, 1]
    assert [type(c) for c in coeffs] == [int, int, Fraction, int, int]
    for segment in (((0, 4), (3, 2)), ((6, 0), (0, 4)), ((0, 4), (7, 1)), ((0, 4), (0, 4))):
        with pytest.raises(EdgeNotOnPolygon):
            edge_poly(f, segment)
    # the right line, but run past the last term on it
    with pytest.raises(EdgeNotOnPolygon):
        edge_poly(BivariatePoly({(0, 4): 1, (3, 2): 1}), ((0, 4), (6, 0)))


@pytest.mark.parametrize("edge", [((0, 2), (3.0, 0)), ((0, 2.0), (3, 0)), ((0, 2), (3, False))],
                         ids=["float-x", "float-y", "bool"])
def test_edge_readers_refuse_an_endpoint_that_is_not_a_lattice_point(edge):
    # a ValueError, not EdgeNotOnPolygon, which check_initial_form reads as False
    cusp = BivariatePoly({(0, 2): 1, (3, 0): -1})
    for reader in (edge_poly, edge_poly_squarefree):
        with pytest.raises(ValueError, match="lattice points") as caught:
            reader(cusp, edge)
        assert not isinstance(caught.value, EdgeNotOnPolygon)


def test_edge_squarefree_examples():
    cusp = BivariatePoly({(0, 2): 1, (3, 0): -1})
    assert edge_poly_squarefree(cusp, ((0, 2), (3, 0))) is True
    double = BivariatePoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})  # (y - x)^2
    assert edge_poly_squarefree(double, ((0, 2), (2, 0))) is False
    biquad = BivariatePoly({(0, 4): 1, (2, 2): -2, (4, 0): 1})  # (y^2 - x^2)^2
    assert edge_poly_squarefree(biquad, ((0, 4), (4, 0))) is False
    with pytest.raises(EdgeNotOnPolygon):
        edge_poly_squarefree(cusp, ((0, 2), (1, 1)))


def test_edge_squarefree_rejects_segments_off_the_polygon():
    # (y^2 - x^3)(y^2 - 2 x^3): one edge (0,4)-(6,0) through the term (3,2)
    f = BivariatePoly({(0, 4): 1, (3, 2): -3, (6, 0): 2})
    assert edge_poly_squarefree(f, ((0, 4), (6, 0))) is True
    for part in (((0, 4), (3, 2)), ((3, 2), (6, 0)), ((6, 0), (0, 4))):
        with pytest.raises(EdgeNotOnPolygon):
            edge_poly_squarefree(f, part)
    # y^4 - x^3 y^2 + x^7: edges (0,4)-(3,2) and (3,2)-(7,0)
    g = BivariatePoly({(0, 4): 1, (3, 2): -1, (7, 0): 1})
    assert edge_poly_squarefree(g, ((0, 4), (3, 2))) is True
    with pytest.raises(EdgeNotOnPolygon):
        edge_poly_squarefree(g, ((0, 4), (6, 0)))  # runs past the vertex (3, 2)
    with pytest.raises(EdgeNotOnPolygon):
        edge_poly_squarefree(g, ((0, 4), (7, 0)))  # (3, 2) lies below its line


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SUPPORTS)
def test_edge_squarefree_accepts_exactly_the_compact_edges(terms):
    # edge_poly reads the terms on the line of a compact edge, and both
    # readers refuse every other segment: between terms, or to points next
    # to them that carry none
    f = BivariatePoly(terms)
    edges = set(from_support(terms).compact_edges())
    ends = set(terms) | {(i + 1, j) for i, j in terms} | {(i, j + 1) for i, j in terms}
    for a in ends:
        for b in ends:
            if (a, b) not in edges:
                for read in (edge_poly, edge_poly_squarefree):
                    with pytest.raises(EdgeNotOnPolygon):
                        read(f, (a, b))
                continue
            (xa, ya), (xb, yb) = a, b
            on_line = {j: c for (i, j), c in terms.items()
                       if (xb - xa) * (j - ya) == (yb - ya) * (i - xa)}
            assert edge_poly(f, (a, b)) == [on_line.get(j, 0) for j in range(yb, ya + 1)]
            assert edge_poly_squarefree(f, (a, b)) in (True, False)


# -- the row form against term-scan oracles ----------------------------------------

# zero coefficients and whole Fractions (2v/2) among the ints and Fractions
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda v: Fraction(2 * v, 2)),
                   st.fractions(-3, 3, max_denominator=4))
TERMS = st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)), COEFFS, max_size=16)
POINTS = st.tuples(st.integers(0, 9), st.integers(0, 9))


def _typed(values):
    return [(type(c), c) for c in values]


def _typed_terms(terms):
    return sorted((key, type(c), c) for key, c in terms.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TERMS)
def test_terms_round_trip_through_the_rows(terms):
    f = BivariatePoly(terms)
    stored = {key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
              for key, c in terms.items() if c}
    assert _typed_terms(f.terms) == _typed_terms(stored)
    assert all(f.rows.values())  # no empty row
    assert f == BivariatePoly(dict(f.terms))
    with pytest.raises(TypeError):
        f.terms[(0, 0)] = 1  # a read-only view


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TERMS, st.integers(0, 9))
def test_derivative_y_matches_the_term_scan(terms, k):
    f = BivariatePoly(terms)
    if 0 < k and k > max(f.rows, default=-1):
        with pytest.raises(OrderExceedsDegree):
            derivative_y(f, k)
        return
    got, want = derivative_y(f, k), derivative_y_oracle(f, k)
    assert got == want and _typed_terms(got.terms) == _typed_terms(want.terms), (terms, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TERMS)
def test_diagram_of_matches_the_term_scan(terms):
    f = BivariatePoly(terms)
    if f.is_zero():
        with pytest.raises(ZeroPolynomial):
            diagram_of(f)
        return
    assert diagram_of(f) == diagram_of_oracle(f), terms
    starts = row_starts(f)
    for k in range(max(f.rows) + 1):
        assert diagram_of(derivative_y(starts, k)) == diagram_of_oracle(f, k), (terms, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TERMS, st.lists(st.tuples(POINTS, POINTS), max_size=8))
def test_edge_poly_matches_the_term_scan(terms, segments):
    # on the compact edges, on every segment between two terms, and on
    # random segments: edge_poly raises EdgeNotOnPolygon exactly when the
    # scan of every term does, and otherwise reads the same coefficients
    f = BivariatePoly(terms)
    edges = [] if f.is_zero() else diagram_of_oracle(f).compact_edges()
    for edge in edges:
        assert _typed(edge_poly(f, edge)) == _typed(edge_poly_oracle(f, edge)), (terms, edge)
    support = list(f.terms)
    for edge in [*((a, b) for a in support for b in support), *segments]:
        try:
            want = edge_poly_oracle(f, edge)
        except EdgeNotOnPolygon:
            with pytest.raises(EdgeNotOnPolygon):
                edge_poly(f, edge)
        else:
            assert _typed(edge_poly(f, edge)) == _typed(want), (terms, edge)


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


SMALL_INTS = st.integers(-50, 50)
BIG_INTS = st.integers(-(2 ** 80), 2 ** 80)
RATIONALS = st.fractions(max_denominator=30)


@st.composite
def gcd_inputs(draw):
    """Coefficient lists of degree <= 12, low to high: small integers,
    integers of up to 81 bits (edge polynomials of witnesses reach 76) or
    rationals, half of them built as g*h^2 so that repeated factors occur,
    some padded with zero high coefficients."""
    coeff = draw(st.sampled_from([SMALL_INTS, BIG_INTS, RATIONALS]))
    if draw(st.booleans()):
        g = draw(st.lists(coeff, min_size=1, max_size=5))
        h = draw(st.lists(coeff, min_size=2, max_size=4))
        p = _poly_product(g, _poly_product(h, h))
    else:
        p = draw(st.lists(coeff, max_size=13))
    return p + draw(st.lists(st.just(0), max_size=2))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(gcd_inputs())
def test_gcd_degree_matches_euclid_over_q(p):
    assert _univariate_gcd_degree(p) == gcd_degree_oracle(p)


def test_gcd_degree_examples():
    # (y - 1)^2 (y + 2), y^3 - y, 1/4 - y^2 + y^4 = (y^2 - 1/2)^2, 0 and 5
    assert _univariate_gcd_degree([2, -3, 0, 1]) == 1
    assert _univariate_gcd_degree([0, -1, 0, 1]) == 0
    assert _univariate_gcd_degree([Fraction(1, 4), 0, -1, 0, 1]) == 2
    assert _univariate_gcd_degree([]) == _univariate_gcd_degree([0, 0]) == -1
    assert _univariate_gcd_degree([5]) == 0


def test_min_poly_root_orders_recover_gcd_chain():
    # vertical height of the polygon is the index; the steepest inclination is
    # the order of the root
    for text in ["x^(3/2)", "x^(7/5)+x^(3/2)", EX1_ROOT]:
        s = PuiseuxSeries.from_string(text)
        f = min_poly(s)
        d = diagram_of(f)
        assert d.top == (0, s.denom)
        first_edge = d.compact_edges()[0]
        (xa, ya), (xb, yb) = first_edge
        assert Fraction(xb - xa, ya - yb) == order(s)


@pytest.mark.parametrize("build", [
    lambda: PuiseuxSeries(2, {3.5: 1}),
    lambda: PuiseuxSeries(2, {True: 1}),
    lambda: BivariatePoly({(1.5, 0): 1}),
    lambda: BivariatePoly({(True, 0): 1}),
], ids=["series-float", "series-bool", "poly-float", "poly-bool"])
def test_constructors_reject_exponents_that_are_not_integers(build):
    # int() used to read 3.5 as 3 and True as 1; a float printed as x^1.5
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda c: PuiseuxSeries(2, {3: c}),
    lambda c: BivariatePoly({(1, 0): c}),
], ids=["series", "poly"])
@pytest.mark.parametrize("coeff", [0.1, True, 1.0])
def test_constructors_reject_float_and_bool_coefficients(build, coeff):
    # 0.1 used to become 3602879701896397/36028797018963968, True stayed a bool
    with pytest.raises(ValueError):
        build(coeff)


@pytest.mark.parametrize("denom", [True, 2.0, 1.5, 0, -2])
def test_series_rejects_a_denominator_that_is_not_a_positive_integer(denom):
    # True used to be read as 1, so x^3; 2.0 and 1.5 raised a bare TypeError in gcd
    with pytest.raises(ValueError, match="positive integer"):
        PuiseuxSeries(denom, {3: 1})
    assert PuiseuxSeries(2, {3: 1}).denom == 2


@pytest.mark.parametrize("k", [True, 1.5, 1.0, -1])
def test_derivative_order_must_be_a_nonnegative_integer(k):
    # True used to differentiate once; 1.5 raised a bare TypeError
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    with pytest.raises(ValueError, match="nonnegative integer"):
        derivative_y(f, k)
    assert derivative_y(f, 1).terms == {(0, 1): 2}


@pytest.mark.parametrize("n_sub", [2.0, True, 0])
def test_substitution_exponent_must_be_a_positive_integer(n_sub):
    # 2.0 used to store the float exponent x^3.0
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})
    lam = PuiseuxSeries(1, {1: 1})
    with pytest.raises(ValueError, match="positive integer"):
        hat_transform(f, n_sub, lam)
    assert hat_transform(f, 1, lam).terms == {(0, 2): 1, (1, 1): 2, (2, 0): 1, (3, 0): -1}


def test_constructors_take_exact_rational_coefficients():
    third = Fraction(1, 3)
    assert PuiseuxSeries(2, {3: third}).terms == ((3, third),)
    assert BivariatePoly({(1, 0): third}).terms == {(1, 0): third}
    # a Fraction that is an integer is stored as an int
    assert type(BivariatePoly({(1, 0): Fraction(4, 2)}).terms[(1, 0)]) is int


def _stored_like_public(p):
    # what BivariatePoly(...) stores for the same terms, row for row, key for
    # key and type for type: no empty row, no zero coefficient, and an int
    # for a whole Fraction
    public = BivariatePoly(dict(p.terms))
    return p.rows == public.rows and _typed_terms(p.terms) == _typed_terms(public.terms)


@pytest.mark.parametrize("b,root", [
    ((12, 16, 31), None),
    ((8, 12, 14, 15), None),
    ((2, 3), "1/2*x^(3/2)+x^2"),
    ((4, 6, 7), "1/2*x^(3/2)+2/3*x^(7/4)+3/2*x^2"),
    ((12, 16, 31), "1/3*x^(4/3)+x^2+1/2*x^(31/12)"),
], ids=["ex1", "K(8,12,14,15)", "cusp-rational", "K(4,6,7)-rational", "ex1-rational"])
def test_built_polynomials_are_stored_like_public_ones(b, root):
    cs = new_char_sequence(b)
    w = (sample_witness(cs, 3) if root is None
         else WitnessBranch(cs, PuiseuxSeries.from_string(root)))
    shifted = difference(w.root, truncate_below(w.root, Fraction(cs.b[1], cs.b0)))
    built = [min_poly(w.root), min_poly(w.root, cut=(1, 1, cs.bbar[0])),
             min_poly(shifted), min_poly(shifted, cut=(2, 1, cs.bbar[-1]))]
    for depth in range(1, cs.h + 1):
        built += [level.fhat for level in hat_chain(w, depth, 1)] + [full_hat(w, depth)]
    built += [derivative_y(p, k) for p in built[-2:] for k in (1, 2)]
    # a hat whose sum 1/2 + 1/2 is whole
    half = BivariatePoly({(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
    built.append(hat_transform(half, 1, PuiseuxSeries.from_string("x")))
    assert built[-1].terms == {(0, 1): Fraction(1, 2), (1, 0): 1}
    # a hat whose lower rows cancel: (y - x)^2 at y + x is y^2
    square = BivariatePoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    built.append(hat_transform(square, 1, PuiseuxSeries.from_string("x")))
    assert built[-1].terms == {(0, 2): 1}
    for p in built:
        assert _stored_like_public(p), p


# -- roots-of-unity identities (complex floating arithmetic) ---------------------------


def _roots_of_unity(n):
    return [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]


def _valid_triples(max_e_prev=24):
    for e_prev in range(2, max_e_prev + 1):
        for n_l in range(2, e_prev + 1):
            if e_prev % n_l:
                continue
            e_l = e_prev // n_l
            for b_l in range(1, e_prev + 1):
                if gcd(e_prev, b_l) == e_l:
                    yield e_prev, n_l, e_l, b_l


def test_roots_of_unity_product_identity():
    tol = 1e-9
    for e_prev, n_l, e_l, b_l in _valid_triples():
        for c in (1.0, 0.5, 0.75 * cmath.exp(0.3j)):
            poly = [1.0 + 0j]
            for eps in _roots_of_unity(e_prev):
                r = c * eps ** b_l
                nxt = [0j] * (len(poly) + 1)
                for i, a in enumerate(poly):
                    nxt[i + 1] += a
                    nxt[i] -= r * a
                poly = nxt
            rhs = [0j] * (e_prev + 1)
            for t in range(e_l + 1):
                rhs[n_l * (e_l - t)] += comb(e_l, t) * (-(c ** n_l)) ** t
            assert max(abs(a - b) for a, b in zip(poly, rhs)) < tol


def test_roots_of_unity_norm_identity():
    tol = 1e-9
    for e_prev, n_i, e_i, b_i in _valid_triples():
        inner = {k * n_i % e_prev for k in range(e_i)}
        prod = 1.0 + 0j
        for k in range(e_prev):
            if k in inner:
                continue
            eps = cmath.exp(2j * cmath.pi * k / e_prev)
            prod *= 1 - eps ** b_i
        assert abs(prod - n_i ** e_i) < tol


def test_roots_of_unity_power_sums():
    tol = 1e-9
    for n_l in range(1, 25):
        for i in range(0, 2 * n_l + 1):
            total = sum(eps ** i for eps in _roots_of_unity(n_l))
            expected = n_l if i % n_l == 0 else 0
            assert abs(total - expected) < tol
