import json
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from branchpolar import cli
from branchpolar.charclass import new_char_sequence
from branchpolar.diagram import elementary
from branchpolar.jsontext import dumps
from branchpolar.polar import export_eggers_wall, predict
from branchpolar.puiseux import PuiseuxSeries, diagram_of, min_poly
from branchpolar.verify import (
    WitnessBranch,
    check_initial_form,
    check_lemma_nd,
    hat_chain,
    sample_witness,
    verify_prediction,
)
from oracles import elementary_derivative_closed_form, prediction_document_oracle


def test_charclass_beyond_machine_words():
    big = 10 ** 30
    cs = new_char_sequence([4 * big, 6 * big, 7 * big, 7 * big + 1])
    assert cs.e == (4 * big, 2 * big, big, 1)
    assert cs.n_seq == (2, 2, big)
    assert cs.bbar[1] == 7 * big + ((4 * big - 2 * big) // (2 * big)) * 6 * big
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
    assert d1.top[1] - d1.bottom[1] == 2999
    d1500 = d.symbolic_derivative(1500)
    assert d1500.top[1] - d1500.bottom[1] == 1500
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
        dot = dumps(export_eggers_wall(p, include_branch).to_dot)
        assert len(re.findall(r'label="[zw]\^', dot)) == 4095
        assert ('label="f"' in dot) == include_branch


def test_prediction_json_with_half_a_million_contact_rows(capsys):
    # K(1024, 2047), k = 1: 1023 factors in one group, 522753 contact rows
    start = time.time()
    code = cli.main(["predict", "1024,2047", "--k", "1", "--format", "json", "--quiet"])
    assert time.time() - start < 1.0
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == prediction_document_oracle(predict(new_char_sequence([1024, 2047]), 1))
    assert len(blob["pairwise_contacts"]) == 1023 * 1022 // 2


@pytest.mark.parametrize("b,k", [
    ((512, 1023), 1),          # Z-heavy: 511 equal Z-factors, 130305 rows
    ((512, 768, 769), 128),    # W-heavy: runs of equal W-factors
    ((512, 768, 769), 255),
    ((2, 3), 1),               # one factor, no rows; its char is empty
    ((4, 6, 7), 2),            # a group of W-factors only; part is null
], ids=["K(512,1023)-k1", "K(512,768,769)-k128", "K(512,768,769)-k255", "K(2,3)-k1",
        "K(4,6,7)-k2"])
def test_prediction_json_text_at_export_scale(b, k):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(cli.__file__).parent / "schemas"
                         / "prediction.schema.json").read_text())
    p = predict(new_char_sequence(list(b)), k)
    text = dumps(p.to_json)
    assert text == json.dumps(prediction_document_oracle(p), indent=2)
    jsonschema.validators.validator_for(schema)(schema).validate(json.loads(text))


def test_prediction_json_streams_to_its_output(tmp_path):
    # K(512,1023), k = 1: an 8,033,648-byte document put piece by piece
    # straight to the file, never held whole
    target = tmp_path / "out.json"
    argv = ["predict", "512,1023", "--k", "1", "--format", "json", "--output", str(target),
            "--quiet"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    text = target.read_text()
    assert len(text) == 8033648
    assert peak < len(text) / 4, peak
    assert text == dumps(predict(new_char_sequence([512, 1023]), 1).to_json) + "\n"


def test_prediction_json_edge_cases_are_reached():
    # the shapes above reach every branch of the factor templates
    one = predict(new_char_sequence([2, 3]), 1)
    assert len(one.factors()) == 1 and one.factors()[0].char_exponents == ()
    w_only = predict(new_char_sequence([4, 6, 7]), 2)
    assert [f.kind for f in w_only.factors()] == ["W"] and w_only.factors()[0].part is None


def test_verify_five_levels_without_expanding_f(capsys):
    # every level of K(48,72,76,78,79) is checked at k = 1; the chain never
    # expands the degree-48 minimal polynomial of the witness
    start = time.time()
    code = cli.main(["verify", "48,72,76,78,79", "--k", "1", "--seeds", "1"])
    assert time.time() - start < 2.0
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_at_index_two_to_the_eighth():
    # f^_1 of K(256,257) is the product of 256 conjugates: the odd part of
    # index 1, then eight Graeffe steps.  Power sums over all 256 conjugates
    # took about 35 s on a 2-vCPU VM.
    start = time.time()
    report = verify_prediction(new_char_sequence([256, 257]), 1, seeds=[1])
    assert time.time() - start < 5.0
    assert report.verdict == "PASS"


def test_witness_with_rational_coefficients():
    cs = new_char_sequence([2, 3])
    w = WitnessBranch(cs, PuiseuxSeries.from_string("1/2*x^(3/2)+x^2"))
    assert min_poly(w.root).terms[(3, 0)] == Fraction(-1, 4)
    level = hat_chain(w, 1, 1)[-1]
    res = check_lemma_nd(w, level)
    assert res.status == "ok"
    assert check_initial_form(w, 1, level.starts)


@pytest.mark.parametrize("b,limit", [((20, 21), 1.0), ((40, 41), 3.0), ((40, 45, 47), 3.0)])
def test_witness_minimal_polynomial_at_high_index(b, limit):
    cs = new_char_sequence(b)
    start = time.time()
    w = sample_witness(cs, 1)
    assert time.time() - start < limit
    f = min_poly(w.root)
    assert max(j for _, j in f.terms) == cs.b0
    assert f.terms[(0, cs.b0)] == 1
    # every conjugate has the order of the root: one edge down to (b0 * ord, 0)
    assert diagram_of(f).vertices == ((0, cs.b0), (w.root.terms[0][0], 0))
