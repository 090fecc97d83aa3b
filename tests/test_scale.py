import json
import re
import time
from fractions import Fraction

import pytest

from branchpolar import cli
from branchpolar.charclass import bbar, new_char_sequence
from branchpolar.diagram import elementary
from branchpolar.polar import export_eggers_wall, predict
from branchpolar.puiseux import PuiseuxSeries, diagram_of, min_poly
from branchpolar.verify import (
    check_initial_form,
    check_lemma_nd,
    hat_chain,
    sample_witness,
    witness_from_root,
)
from oracles import elementary_derivative_closed_form


def test_charclass_beyond_machine_words():
    big = 10 ** 30
    cs = new_char_sequence([4 * big, 6 * big, 7 * big, 7 * big + 1])
    assert cs.e == (4 * big, 2 * big, big, 1)
    assert cs.n_seq == (2, 2, big)
    assert bbar(cs, 2) == 7 * big + ((4 * big - 2 * big) // (2 * big)) * 6 * big
    assert all(v > 0 for v in cs.bbar)


def test_predict_beyond_machine_words():
    big = 10 ** 30
    cs = new_char_sequence([4 * big, 6 * big, 7 * big, 7 * big + 1])
    start = time.time()
    preds = {k: predict(cs, k) for k in range(1, 9)}
    assert time.time() - start < 1.0
    for l, group in enumerate(preds[1].groups, start=1):
        expected = elementary_derivative_closed_form(cs.m_seq[l - 1], cs.n_seq[l - 1]).parts
        assert tuple(f.part for f in group if f.kind == "Z") == expected


def test_derivative_composition_at_a_million():
    d = elementary(10 ** 6 + 1, 10 ** 6)
    derived = {t: d.symbolic_derivative(t) for t in range(9)}
    for b in range(9):
        for a in range(9 - b):
            assert derived[b].symbolic_derivative(a) == derived[a + b], (a, b)


def test_diagram_derivative_thousands():
    start = time.time()
    d = elementary(40009, 3000)
    d1 = d.symbolic_derivative(1)
    assert d1.height == 2999
    assert d.symbolic_derivative(1500).height == 1500
    parts = d1.canonical_rep(long=True).parts
    assert sum(n for _, n in parts) == 2999
    assert all(m * 3000 > n * 40009 for m, n in parts)
    assert time.time() - start < 5.0


def test_predict_large_multiplicity():
    cs = new_char_sequence([2048, 3072, 3073])
    for k in (1, 2, 1000, 2047):
        p = predict(cs, k)
        assert p.multiplicity_total() == 2048 - k


def test_predict_hundred_thousand_factors():
    cs = new_char_sequence([203278, 304917, 406555])
    p = predict(cs, 6)
    assert len(p.factors()) == 101636
    assert p.multiplicity_total() == cs.b0 - 6


def test_eggers_wall_dot_thousands_of_leaves():
    p = predict(new_char_sequence([4096, 8191]), 1)
    for include_branch in (True, False):
        dot = export_eggers_wall(p, include_branch).to_dot()
        assert len(re.findall(r'label="[zw]\^', dot)) == 4095
        assert ('label="f"' in dot) == include_branch


def test_prediction_json_with_half_a_million_contact_rows(capsys):
    # K(1024, 2047), k = 1: 1023 factors in one group, 522753 contact rows
    start = time.time()
    code = cli.main(["predict", "1024,2047", "--k", "1", "--format", "json", "--quiet"])
    assert time.time() - start < 1.0
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == predict(new_char_sequence([1024, 2047]), 1).to_json()
    assert len(blob["pairwise_contacts"]) == 1023 * 1022 // 2


def test_verify_five_levels_without_expanding_f(capsys):
    # every level of K(48,72,76,78,79) is checked at k = 1; the chain never
    # expands the degree-48 minimal polynomial of the witness
    start = time.time()
    code = cli.main(["verify", "48,72,76,78,79", "--k", "1", "--seeds", "1"])
    assert time.time() - start < 2.0
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_witness_with_rational_coefficients():
    cs = new_char_sequence([2, 3])
    w = witness_from_root(cs, PuiseuxSeries.from_string("1/2*x^(3/2)+x^2"))
    assert min_poly(w.root).terms[(3, 0)] == Fraction(-1, 4)
    fhat = hat_chain(w, 1, 1)[-1]
    res = check_lemma_nd(w, 1, 1, fhat)
    assert res.status == "ok"
    assert check_initial_form(w, 1, fhat)


@pytest.mark.parametrize("b,limit", [((20, 21), 1.0), ((40, 41), 3.0), ((40, 45, 47), 3.0)])
def test_witness_minimal_polynomial_at_high_index(b, limit):
    cs = new_char_sequence(b)
    start = time.time()
    w = sample_witness(cs, 1)
    assert time.time() - start < limit
    f = min_poly(w.root)
    assert f.degree_y() == cs.b0
    assert f.terms[(0, cs.b0)] == 1
    # every conjugate has the order of the root: one edge down to (b0 * ord, 0)
    assert diagram_of(f).vertices == ((0, cs.b0), (w.root.terms[0][0], 0))
