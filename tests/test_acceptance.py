"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) and enforces
the stated runtime budget where one is given.
"""

import cmath
import json
import math
import random
import time
from math import comb, gcd

from branchpolar import cli
from branchpolar.charclass import new_char_sequence
from branchpolar.diagram import elementary
from branchpolar.jsontext import dumps
from branchpolar.polar import predict
from branchpolar.puiseux import PuiseuxSeries, derivative_y, edge_poly_squarefree, min_poly
from branchpolar.verify import WitnessBranch, check_lemma_nd, hat_chain, verify_prediction
from oracles import (
    elementary_derivative_closed_form,
    random_char_sequence,
    random_diagram,
    rep_to_diagram,
    staircase_trunc_oracle,
)

EX1 = new_char_sequence([12, 16, 31])
EX2 = new_char_sequence([10, 14, 15])


def _timed(budget):
    start = time.time()

    def done(label):
        elapsed = time.time() - start
        if budget is not None:
            assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")

    return done


def _cli_prediction(char, k):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["predict", char, "--k", str(k), "--format", "json", "--quiet"])
    assert code == 0
    return json.loads(buf.getvalue())


def _factors(blob, l):
    return blob["groups"][l - 1]["factors"]


def test_criterion_1_example1_first_polar():
    done = _timed(1.0)
    blob = _cli_prediction("12,16,31", 1)
    g1, g2 = _factors(blob, 1), _factors(blob, 2)
    assert len(g1) == 1 and g1[0]["kind"] == "Z"
    assert g1[0]["cont_semiroot"] == "3/2" and g1[0]["char"] == ["3/2"]
    assert g1[0]["multiplicity"] == 2
    assert len(g2) == 3
    for f in g2:
        assert f["kind"] == "Z" and f["cont_semiroot"] == "8/3"
        assert f["char"] == ["4/3"] and f["multiplicity"] == 3
    assert all(f["kind"] == "Z" for f in g1 + g2)  # zero W-factors
    done("1 [example ex1, k=1]")


def test_criterion_2_example1_higher_polars():
    done = _timed(1.0)
    blob = _cli_prediction("12,16,31", 2)
    g1, g2 = _factors(blob, 1), _factors(blob, 2)
    assert [f["kind"] for f in g1] == ["Z", "W"]
    assert g1[0]["char"] == [] and g1[0]["cont_semiroot"] == "2"
    assert g1[1]["char"] == ["4/3"] and g1[1]["multiplicity"] == 3
    assert len(g2) == 2 and all(f["kind"] == "Z" for f in g2)

    blob = _cli_prediction("12,16,31", 10)
    assert blob["i_k"] == 1
    (z,) = _factors(blob, 1)
    assert z["char"] == ["3/2"] and z["cont_f"] == "4/3"
    assert z["cont_semiroot"] == "3/2" and z["multiplicity"] == 2
    done("2 [example ex1, k=2 and k=10]")


def test_criterion_3_example2():
    done = _timed(1.0)
    blob = _cli_prediction("10,14,15", 1)
    g1, g2 = _factors(blob, 1), _factors(blob, 2)
    assert [(f["kind"], f["part"]) for f in g1] == [("Z", [3, 2])] * 2
    assert [(f["kind"], f["part"]) for f in g2] == [("Z", [8, 1])]
    assert g2[0]["cont_semiroot"] == "8/5" and g2[0]["char"] == ["7/5"]

    blob = _cli_prediction("10,14,15", 2)
    (g1,) = blob["groups"]
    assert [(f["kind"], f["part"]) for f in g1["factors"]] == [
        ("Z", [2, 1]), ("Z", [3, 2]), ("W", None),
    ]
    assert g1["factors"][2]["char"] == ["7/5"]

    # the symbolic derivatives behind the factor counts
    assert elementary(7, 5).symbolic_derivative(1).canonical_rep(long=True).parts == ((3, 2),) * 2
    assert elementary(7, 5).symbolic_derivative(2).canonical_rep(long=True).parts == ((2, 1), (3, 2))
    assert elementary(15, 2).symbolic_derivative(1).canonical_rep(long=True).parts == ((8, 1),)
    done("3 [example ex2, k=1 and k=2]")


def test_criterion_4_nongeneric_witness():
    done = _timed(10.0)
    w = WitnessBranch(EX1, PuiseuxSeries.from_string("x^(4/3)+x^2+x^(31/12)"))
    f = min_poly(w.root)
    by_degree = {}
    for (i, j), c in f.terms.items():
        by_degree.setdefault(j, {})[i] = c
    assert by_degree[11] == {2: -12}
    assert by_degree[10] == {4: 66}
    c = 6 * math.factorial(11)
    assert derivative_y(f, 10).terms == {(0, 2): c, (2, 1): -2 * c, (4, 0): c}
    result = check_lemma_nd(w, hat_chain(w, 1, 10)[-1])
    assert result.status == "degenerate"
    assert result.reasons == (
        "steep diagram region ((2, 1),) differs from expected ((3, 2),)",
        "full hat diagram differs from the symbolic derivative",
    )
    # the polar within the cut misses the expected diagram
    assert result.observed == ((0, 2), (2, 1))
    assert result.observed != result.expected == ((0, 2), (3, 0))
    # the full polar, c (y - x^2)^2, has a double root on its steep edge
    assert not edge_poly_squarefree(derivative_y(f, 10), ((0, 2), (4, 0)))
    done("4 [non-generic witness detection]")


def test_criterion_5_closed_form_equals_lattice_oracle():
    done = _timed(30.0)
    mismatches = 0
    for m in range(2, 51):
        for n in range(1, m):
            if gcd(m, n) != 1:
                continue
            d = elementary(m, n)
            if rep_to_diagram(elementary_derivative_closed_form(m, n)) != d.symbolic_derivative(1):
                mismatches += 1
            for t in range(n + 1):
                if d.symbolic_derivative(t) != staircase_trunc_oracle(d, t).translate(0, -t):
                    mismatches += 1
    assert mismatches == 0
    done("5 [elementary derivatives == closed form (t=1) and lattice oracle (every t), m,n <= 50]")


def test_criterion_6_derivative_composition():
    done = _timed(None)
    rng = random.Random(606)
    mismatches = 0
    for count in range(1000):
        ymax = 200 if count % 14 == 0 else 22
        d = random_diagram(rng, xmax=200, ymax=ymax)
        h = d.top[1] - d.bottom[1]
        cache = {k: d.symbolic_derivative(k) for k in range(h + 1)}
        for k in range(h + 1):
            dk = cache[k]
            for l in range(h - k + 1):
                if dk.symbolic_derivative(l) != cache[k + l]:
                    mismatches += 1
    assert mismatches == 0
    done("6 [derivative composition on 1000 random diagrams]")


def test_criterion_7_multiplicity_conservation():
    done = _timed(None)
    rng = random.Random(707)
    mismatches = 0
    for _ in range(200):
        cs = random_char_sequence(rng, b0_max=64)
        for k in range(1, cs.b0):
            if predict(cs, k).multiplicity_total() != cs.b0 - k:
                mismatches += 1
    assert mismatches == 0
    done("7 [multiplicity conservation, 200 random classes]")


def test_criterion_8_end_to_end_verification():
    seeds = [1, 2, 3, 4, 5]
    # the initial-form check anchors at the semiroot intersection numbers
    assert EX1.bbar[1] == 63 and EX2.bbar[1] == 71
    for cs, orders, label in [(EX1, (1, 2, 10), "K(12,16,31)"), (EX2, (1, 2), "K(10,14,15)")]:
        done = _timed(60.0)
        for k in orders:
            report = verify_prediction(cs, k, seeds)
            assert report.verdict == "PASS", dumps(report.to_text)
            for run in report.runs:
                assert run.status == "pass"
                for lv in run.levels:
                    assert lv.status == "ok"
                    assert lv.prediction_match is True
                    assert lv.initial_form_ok is True
                    assert lv.aggregate_ok is True
        done(f"8 [end-to-end verification, {label}]")


def test_criterion_9_roots_of_unity_identities():
    done = _timed(None)
    tol = 1e-9

    def roots(n):
        return [cmath.exp(2j * cmath.pi * t / n) for t in range(n)]

    for e_prev in range(2, 25):
        for n_l in range(2, e_prev + 1):
            if e_prev % n_l:
                continue
            e_l = e_prev // n_l
            for b_l in range(1, e_prev + 1):
                if gcd(e_prev, b_l) != e_l:
                    continue
                for c in (1.0, 0.5, 0.75 * cmath.exp(0.3j)):
                    poly = [1.0 + 0j]
                    for eps in roots(e_prev):
                        r = c * eps ** b_l
                        nxt = [0j] * (len(poly) + 1)
                        for idx, a in enumerate(poly):
                            nxt[idx + 1] += a
                            nxt[idx] -= r * a
                        poly = nxt
                    rhs = [0j] * (e_prev + 1)
                    for t in range(e_l + 1):
                        rhs[n_l * (e_l - t)] += comb(e_l, t) * (-(c ** n_l)) ** t
                    assert max(abs(a - b) for a, b in zip(poly, rhs)) < tol

                inner = {t * n_l % e_prev for t in range(e_l)}
                prod = 1.0 + 0j
                for t in range(e_prev):
                    if t not in inner:
                        prod *= 1 - roots(e_prev)[t] ** b_l
                assert abs(prod - n_l ** e_l) < tol

        for i in range(0, 2 * e_prev + 1):
            total = sum(eps ** i for eps in roots(e_prev))
            expected = e_prev if i % e_prev == 0 else 0
            assert abs(total - expected) < tol
    done("9 [roots-of-unity identity suite, e <= 24]")
