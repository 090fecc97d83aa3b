import cmath
import json
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
    IndexMismatch,
    InvalidCharacteristic,
    InvariantViolation,
    NonIntegralSubstitution,
    OrderExceedsDegree,
    ZeroPolynomial,
)
from branchpolar.puiseux import (
    INF,
    BivariatePoly,
    PuiseuxSeries,
    derivative_y,
    diagram_of,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
)
from branchpolar.verify import hat_chain, sample_witness
from oracles import (
    conjugate,
    dict_mul,
    evaluate,
    min_poly_laplace_oracle,
    min_poly_oracle,
    random_char_sequence,
    truncation_orbit,
)

EX1_ROOT = "x^(4/3)+x^2+x^(31/12)"


# -- series basics -------------------------------------------------------------


def test_parse_and_str_round_trip():
    s = PuiseuxSeries.from_string("3/2*x^(7/5)-x^2+x")
    assert s.denom == 5
    assert s.coefficient(Fraction(7, 5)) == Fraction(3, 2)
    assert s.coefficient(2) == -1
    assert PuiseuxSeries.from_string(str(s)) == s


def test_ord_examples():
    s = PuiseuxSeries.from_string(EX1_ROOT)
    assert s.ord() == Fraction(4, 3)
    assert PuiseuxSeries(1, []).ord() == INF


def test_contact_examples():
    a = PuiseuxSeries.from_string("x^(3/2)")
    b = PuiseuxSeries.from_string("x^(3/2)+x^2")
    assert (a - b).ord() == 2
    assert (a - a).ord() == INF
    c = PuiseuxSeries.from_string("x^(4/3)+x^2")
    d = PuiseuxSeries.from_string("x^(4/3)+2*x^2")
    assert (c - d).ord() == 2


def test_characteristic_examples():
    assert PuiseuxSeries.from_string(EX1_ROOT).characteristic().b == (12, 16, 31)
    assert PuiseuxSeries.from_string("x^(3/2)").characteristic().b == (2, 3)
    s = PuiseuxSeries.from_string("x^(7/5)+x^(3/2)")
    assert s.denom == 10
    assert s.characteristic().b == (10, 14, 15)


def test_characteristic_errors():
    with pytest.raises(IndexMismatch):
        PuiseuxSeries(2, {4: 1}).characteristic()   # really lives in Q[[x]]
    with pytest.raises(InvalidCharacteristic):
        PuiseuxSeries(2, {1: 1}).characteristic()   # order 1/2 < 1
    with pytest.raises(InvalidCharacteristic):
        PuiseuxSeries(1, {2: 1}).characteristic()   # smooth


def test_truncate_below():
    s = PuiseuxSeries.from_string(EX1_ROOT)
    assert s.truncate_below(Fraction(31, 12)) == PuiseuxSeries.from_string("x^(4/3)+x^2")
    assert s.truncate_below(Fraction(4, 3)).is_zero()
    assert s.truncate_below(INF) == s


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
    assert g.degree_y() == 12
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
        assert got.terms == {k: v for k, v in expected.items()}, str(s)


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _light_terms(terms: dict, cut) -> dict:
    """The terms x^i y^j of weight wx*i + wy*j at most the cap."""
    if cut is None:
        return dict(terms)
    wx, wy, cap = cut
    return {(i, j): c for (i, j), c in terms.items() if wx * i + wy * j <= cap}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        # one exponent prime to n keeps the index at n
        st.integers(1, 4 * n).filter(lambda i: gcd(i, n) == 1),
        _coefficients.filter(bool),
        st.dictionaries(st.integers(1, 4 * n), _coefficients, max_size=4),
        # a weight cut (wx, wy, wy * n + extra) that keeps the monic term y^n
        st.none() | st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 40)),
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
    assert got.terms == _light_terms(min_poly_oracle(s), cut)


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
        n = root.reduce().denom
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


def test_derivative_composes():
    rng = random.Random(23)
    for _ in range(30):
        f = BivariatePoly(
            {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-5, 5) for _ in range(8)}
        )
        if f.is_zero():
            continue
        d = f.degree_y()
        k = rng.randint(0, d)
        l = rng.randint(0, d - k)
        assert derivative_y(derivative_y(f, k), l) == derivative_y(f, k + l)


# -- hat transforms ------------------------------------------------------------------


def test_hat_examples():
    f = BivariatePoly({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    zero = PuiseuxSeries(1, [])
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
    lam = root.truncate_below(Fraction(31, 12)).reduce()
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
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=8))
def test_edge_squarefree_accepts_exactly_the_compact_edges(terms):
    f = BivariatePoly(terms)
    edges = set(from_support(terms).compact_edges())
    for a in terms:
        for b in terms:
            try:
                edge_poly_squarefree(f, (a, b))
                accepted = True
            except EdgeNotOnPolygon:
                accepted = False
            assert accepted == ((a, b) in edges), (terms, a, b)


def test_min_poly_root_orders_recover_gcd_chain():
    # vertical height of the polygon is the index; the steepest inclination is
    # the order of the root
    for text in ["x^(3/2)", "x^(7/5)+x^(3/2)", EX1_ROOT]:
        s = PuiseuxSeries.from_string(text)
        f = min_poly(s)
        d = diagram_of(f)
        assert d.top == (0, s.reduce().denom)
        first_edge = d.compact_edges()[0]
        (xa, ya), (xb, yb) = first_edge
        assert Fraction(xb - xa, ya - yb) == s.ord()


def test_bivariate_json_round_trip():
    f = BivariatePoly({(0, 2): 1, (3, 0): Fraction(-1, 2)})
    assert BivariatePoly.from_json(f.to_json()) == f


def test_bivariate_from_json_later_entry_wins():
    assert BivariatePoly.from_json({"terms": [[1, 0, "1"], [1, 0, "0"]]}).is_zero()
    assert BivariatePoly.from_json({"terms": [[1, 0, "0"], [1, 0, "2"]]}).terms == {(1, 0): 2}


@pytest.mark.parametrize("terms", [[[1.5, 0, "1"]], [[0, True, "2"]],
                                   [[1.5, 0, "1"], [0, True, "2"]]])
def test_bivariate_from_json_rejects_exponents_that_are_not_integers(terms):
    with pytest.raises(ValueError):
        BivariatePoly.from_json({"terms": terms})


@pytest.mark.parametrize("build", [
    lambda: PuiseuxSeries(2, {3.5: 1}),
    lambda: PuiseuxSeries(2, {True: 1}),
    lambda: BivariatePoly({(1.5, 0): 1}),
    lambda: BivariatePoly({(True, 0): 1}),
    # true after 1 in the JSON list: one dict key, so every entry is checked
    lambda: BivariatePoly.from_json({"terms": [[1, 0, "1"], [True, 0, "2"]]}),
], ids=["series-float", "series-bool", "poly-float", "poly-bool", "json-bool-after-int"])
def test_constructors_reject_exponents_that_are_not_integers(build):
    # int() used to read 3.5 as 3 and True as 1; a float printed as x^1.5
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("b", [(12, 16, 31), (16, 24, 28, 30, 31)])
def test_bivariate_json_matches_schema(b):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(puiseux.__file__).parent / "schemas"
                         / "bivariate_poly.schema.json").read_text())
    cs = new_char_sequence(b)
    fhat = hat_chain(sample_witness(cs, 1), cs.h)[0]  # the seed-1 f^_1
    blob = fhat.to_json()
    jsonschema.validators.validator_for(schema)(schema).validate(blob)
    assert BivariatePoly.from_json(blob) == fhat


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
