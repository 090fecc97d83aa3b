"""Tests of the benchmark itself: inputs, output checks, tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import OutputChecker  # noqa: E402
from tracing import COUNT_NAMES, SPAN_NAMES  # noqa: E402

Query = workloads.Query


@pytest.fixture(scope="module")
def program():
    return run.Program()


@pytest.fixture(scope="module")
def checker(program):
    return OutputChecker(program.schema_dir)


def output(program, query) -> str:
    _, rc, out = run.call(program.cli.main, query)
    assert rc == 0
    return out


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    other = workloads.generate(workload, 8)
    assert [q.argv for q in other] != [q.argv for q in first]
    assert Counter(q.stratum for q in other) == Counter(q.stratum for q in first)
    assert workloads.generate(workload, 7, 1) != first       # every round draws afresh


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_valid_classes_and_orders(workload, program):
    from branchpolar.charclass import new_char_sequence

    for seed in (1, 2, 3):
        for query in workloads.generate(workload, seed):
            cs = new_char_sequence(query.char)
            assert 1 <= query.k < cs.b0


def test_stratum_shapes_follow_the_workload_rules():
    for q in workloads.generate("predict-deep", 3):
        n_seq = [a // b for a, b in zip(_gcd_chain(q.char), _gcd_chain(q.char)[1:])]
        assert 1 <= len(n_seq) <= 3 and 10_000 <= max(n_seq) < 104_000 and q.k <= 8
    for q in workloads.generate("verify-multilevel", 3):
        n_seq = [a // b for a, b in zip(_gcd_chain(q.char), _gcd_chain(q.char)[1:])]
        assert 2 <= len(n_seq) <= 4 and q.char[0] <= 24 and max(n_seq) <= 9
        assert len(q.seeds) in (2, 3)
    for q in workloads.generate("verify-singlelevel", 3):
        n, m = q.char
        assert 10 <= n <= 11 and n < m < 2 * n and len(q.seeds) == 2


def _gcd_chain(char):
    from math import gcd

    chain = [char[0]]
    for b in char[1:]:
        chain.append(gcd(chain[-1], b))
    return chain


def test_char_from_pairs_rejects_broken_pairs():
    assert workloads.char_from_pairs([2, 3], [3, 10]) == (6, 9, 10)
    with pytest.raises(ValueError):
        workloads.char_from_pairs([2, 3], [3, 12])      # gcd(12, 3) != 1
    with pytest.raises(ValueError):
        workloads.char_from_pairs([2, 3], [3, 8])       # 8 <= 3 * 3
    with pytest.raises(ValueError):
        workloads.char_from_pairs([2], [1])             # m_1 <= n_1


# -- output checks ----------------------------------------------------------------

PREDICT_JSON = Query("t", "predict", "json", (12, 16, 31), 2)
PREDICT_TEXT = Query("t", "predict", "text", (12, 16, 31), 2)
PREDICT_DOT = Query("t", "predict", "dot", (12, 16, 31), 1)
VERIFY_JSON = Query("t", "verify", "json", (12, 16, 31), 2, (1, 2))


@pytest.mark.parametrize("query", [PREDICT_JSON, PREDICT_TEXT, PREDICT_DOT, VERIFY_JSON,
                                   Query("t", "predict", "json", (40, 60, 61), 25),
                                   Query("t", "predict", "dot", (40, 60, 61), 25)])
def test_correct_outputs_pass(program, checker, query):
    assert checker.check(query, 0, output(program, query)) == []


def test_nonzero_exit_fails(program, checker):
    assert checker.check(PREDICT_TEXT, 3, output(program, PREDICT_TEXT))


@pytest.mark.parametrize("old,new", [
    ('"multiplicity": 3', '"multiplicity": 4'),     # a wrong multiplicity
    ('"cont_semiroot": "8/3"', '"cont_semiroot": "8/5"'),
    ('"z^(2)_2",\n      "8/3"', '"z^(2)_2",\n      "4/3"'),  # a pairwise contact
    ('"k": 2', '"k": 3'),
    ('"i_k": 2', '"i_k": 1'),
    ('{', '['),                                      # not JSON any more
])
def test_corrupted_predict_json_fails(program, checker, old, new):
    out = output(program, PREDICT_JSON)
    assert old in out
    assert checker.check(PREDICT_JSON, 0, out.replace(old, new, 1))


def test_every_single_byte_change_in_a_predict_json_fails(program, checker):
    out = output(program, PREDICT_JSON)
    blob = json.loads(out)
    # flip each digit of the document to another digit; the change survives
    # parsing, so only the checks can catch it
    missed = []
    for pos, ch in enumerate(out):
        if ch.isdigit():
            bad = out[:pos] + str((int(ch) + 1) % 10) + out[pos + 1:]
            if json.loads(bad) != blob and not checker.check(PREDICT_JSON, 0, bad):
                missed.append(pos)
    assert missed == []


@pytest.mark.parametrize("old,new", [
    ("mult 3, cont(f_2", "mult 4, cont(f_2"),
    ("total multiplicity 10", "total multiplicity 11"),
    ("  - w^(1)_1: mult 3, cont(f_1, .) = 4/3, Char = {4/3}\n", ""),
])
def test_wrong_text_multiplicity_fails(program, checker, old, new):
    out = output(program, PREDICT_TEXT)
    assert old in out
    assert checker.check(PREDICT_TEXT, 0, out.replace(old, new, 1))


@pytest.mark.parametrize("old,new", [
    ('  n11 [label="z^(1)_1 (mult 2)", shape=none];\n  n9 -> n11 [label="2", dir=none];\n', ""),
    ("z^(2)_3 (mult 3)", "z^(2)_3 (mult 2)"),
    ("z^(2)_3 (mult 3)", "z^(2)_4 (mult 3)"),
    ('label="f_2"', 'label="f_3"'),
    ('n2 -> n4', 'n9 -> n4'),
    ('n1 [label="4/3"', 'n1 [label="7/2"'),
    ('n1 [label="4/3"', 'n1 [label="x"'),             # malformed, not a crash
    ('  n0 -> n1', '  n4 -> n1'),                      # a cycle, cut off from n0
])
def test_changed_dot_fails(program, checker, old, new):
    out = output(program, PREDICT_DOT)
    assert old in out
    assert checker.check(PREDICT_DOT, 0, out.replace(old, new, 1))


def test_a_w_leaf_passed_off_as_z_fails(program, checker):
    query = Query("t", "predict", "dot", (12, 16, 31), 2)
    out = output(program, query)
    assert "w^(1)_1 (mult 3)" in out
    assert checker.check(query, 0, out.replace("w^(1)_1 (mult 3)", "z^(1)_2 (mult 3)"))


@pytest.mark.parametrize("verdict", ["UNKNOWN", "FAIL"])
def test_non_pass_verdict_fails(program, checker, verdict):
    blob = json.loads(output(program, VERIFY_JSON))
    blob["verdict"] = verdict
    assert checker.check(VERIFY_JSON, 0, json.dumps(blob, indent=2))


def test_verify_report_with_a_dirty_passing_run_fails(program, checker):
    blob = json.loads(output(program, VERIFY_JSON))
    run_ = next(r for r in blob["runs"] if r["seed"] == blob["passing_seed"])
    run_["levels"][0]["initial_form_ok"] = False
    assert checker.check(VERIFY_JSON, 0, json.dumps(blob))


def test_a_changed_output_in_a_repeated_pass_fails(program):
    bench = run.Bench("verify-multilevel", 1)
    queries = [PREDICT_TEXT, PREDICT_JSON]
    _, _, failed, reference = bench.run_round(queries, program.cli.main)
    assert failed == 0
    real = program.cli.main

    def wrong(argv):
        rc = real(argv)
        print("extra line")
        return rc

    _, _, failed, _ = bench.run_round(queries, wrong, reference)
    assert failed == 2 and len(bench.problems) == 2


def test_a_crash_or_a_bad_exit_is_a_failed_query(program):
    bench = run.Bench("predict-deep", 1)

    def crash(argv):
        raise RuntimeError("boom")

    _, times, failed, digests = bench.run_round([PREDICT_TEXT], crash)
    assert failed == 1 and len(times) == 1 and digests == ["failed"]
    _, _, failed, _ = bench.run_round([PREDICT_TEXT], lambda argv: 3)
    assert failed == 1


def test_a_query_past_the_abort_time_fails_instead_of_hanging():
    previous = signal.signal(signal.SIGALRM, run._abort)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        seconds, rc, out = run.call(lambda argv: time.sleep(5), PREDICT_TEXT)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == -1 and out.startswith("QueryAborted") and seconds < 2


def test_no_query_starts_after_the_deadline(program):
    bench = run.Bench("predict-deep", 1, deadline=time.perf_counter())
    _, times, failed, _ = bench.run_round([PREDICT_TEXT, PREDICT_JSON], program.cli.main)
    assert times == [] and failed == 0 and bench.ran == 0


def test_a_digest_other_than_the_recorded_one_fails(monkeypatch):
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: "0" * 64)
    assert not run.check_digest("predict-deep", 1, ["a", "b"])
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: None)
    assert run.check_digest("predict-deep", 1, ["a", "b"])


# -- tracing ----------------------------------------------------------------------

TRACE_QUERIES = [PREDICT_TEXT, PREDICT_JSON, PREDICT_DOT, VERIFY_JSON,
                 Query("t", "verify", "json", (10, 13), 3, (5, 6))]


def traced(program) -> dict:
    bench = run.Bench("verify-multilevel", 1)
    _, _, failed, reference = bench.run_round(TRACE_QUERIES, program.cli.main)
    tracer, wall, bad = run.run_traced(bench, TRACE_QUERIES, reference)
    assert failed == bad == 0
    return tracer.metrics(wall, wall)


def test_two_traced_runs_give_identical_counts(program):
    first, second = traced(program), traced(program)
    counted = list(COUNT_NAMES) + [f"{name}.calls" for name in SPAN_NAMES] + ["trace.spans"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["polar.contact_pairs"] > 0 and first["puiseux.min_poly.terms"] > 0
    assert first["verify.seeds_tried"] >= 4 and first["verify.useful_seed_ratio"] > 0


def test_self_times_and_unattributed_add_up_to_the_wall(program):
    m = traced(program)
    self_sum = sum(m[f"{name}.self_s"] for name in SPAN_NAMES)
    assert self_sum + m["trace.unattributed_s"] == pytest.approx(m["trace.traced_wall_s"])
    assert m["cli.main.s"] <= m["trace.traced_wall_s"]
    assert m["trace.unattributed_s"] >= 0


def test_tracer_puts_the_originals_back(program):
    before = program.verify.min_poly, program.diagram.NewtonDiagram.canonical_rep
    traced(program)
    assert (program.verify.min_poly, program.diagram.NewtonDiagram.canonical_rep) == before


# -- the command ---------------------------------------------------------------------


def test_speed_gauge_scales_each_query_by_the_readings_around_it(monkeypatch):
    import speed

    gauge = speed.SpeedGauge(every=0)
    readings = iter([0.02, 0.01, 0.005])
    monkeypatch.setattr(gauge, "read", lambda: gauge.readings.append(next(readings)))
    gauge.before_query()
    gauge.before_query()
    assert gauge.scales() == pytest.approx([2 * speed.REFERENCE_S / 0.03,
                                            2 * speed.REFERENCE_S / 0.015])


def test_speed_gauge_reads_only_when_due():
    import speed

    gauge = speed.SpeedGauge(every=3600)
    for _ in range(3):
        gauge.before_query()
    assert len(gauge.readings) == 1 and gauge.marks == [0, 0, 0]
    assert len(gauge.scales()) == 3 and len(gauge.readings) == 2


def test_timed_run_takes_its_rounds_from_the_seconds_and_runs_them_each_pass(
        monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed, probes: ([0.2], [0.2]))
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: None)
    monkeypatch.setattr(workloads, "generate",
                        lambda workload, seed, index=0: [PREDICT_TEXT, PREDICT_JSON])
    monkeypatch.setitem(workloads.ROUND_S, "predict-deep", 0.1)
    assert run.timed_run("predict-deep", 1, 0.6, float("inf")) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert result["attempted"] == run.PASSES * 2 * 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_tail_leaves_ten_samples_above():
    times = list(range(1, 41))
    assert run.tail(times) == (30, 75.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
