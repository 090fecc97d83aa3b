#!/usr/bin/env python3
"""Benchmark of branchpolar through its user entry point ``branchpolar.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload, one process each
    python3 perfbench/run.py --curve

Run from the root of a source checkout; the program is imported from ./src.

Load is a closed loop: one client in one process, no threads, and the next
query goes out when the previous one returns.  The queries come in rounds
from ``workloads.generate(workload, seed, round)``.  A timed run takes as
many rounds as fill ``--seconds`` when run PASSES times on the host the
round times of ``workloads.ROUND_S`` were measured on, and runs them PASSES
times.  Every output is checked (``checks.py``), outside the timed calls.
The run stays on one CPU; each query's time is scaled to a reference host
speed by the speed gauge of ``speed.py``, and its median over the passes
counts.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs round 0 three times - checked, untraced, traced - and
reports the per-layer metrics of ``tracing.py``.  ``--curve`` records layer
time against input size and is not part of the checked runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import workloads  # noqa: E402  (this directory is on sys.path as the script's own)
from speed import REFERENCE_S, SpeedGauge  # noqa: E402

SETUP_PROBES = 7          # fresh interpreters timed for setup_s
TAIL_ABOVE = 10           # the tail leaves at least this many samples above it
PASSES = 3                # times a timed run runs each of its queries
RUN_LIMIT_S = 150         # no query starts later than this after start-up
ABORT_S = 170             # a query still running then is aborted and fails
CURVE_CAP_S = 10.0        # no curve point should run much longer than this

# Small fixed queries run once before timing, so lazy imports and schema
# compilation are paid in set-up, on every workload alike.
WARMUP = {
    "predict-deep": [workloads.Query("warm-up", "predict", "text", (12, 16, 31), 2)],
    "export-wide": [workloads.Query("warm-up", "predict", fmt, (12, 16, 31), 1)
                    for fmt in ("json", "dot")],
    "verify-multilevel": [workloads.Query("warm-up", "verify", "json", (12, 16, 31), 2, (1,))],
    "verify-singlelevel": [workloads.Query("warm-up", "verify", "json", (6, 7), 1, (1,))],
}

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


class QueryAborted(Exception):
    """A query ran past ABORT_S; raised from the alarm signal handler."""


def _abort(signum, frame):
    raise QueryAborted(f"still running {ABORT_S} s after start-up")


class Program:
    """The modules of the program under test, imported from ./src."""

    def __init__(self):
        if not (SRC / "branchpolar" / "cli.py").is_file():
            raise BenchError(f"no branchpolar sources under {SRC}; run from a source checkout")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from branchpolar import cli, contfrac, diagram, polar, verify

        self.cli, self.contfrac, self.diagram = cli, contfrac, diagram
        self.polar, self.verify = polar, verify
        self.schema_dir = SRC / "branchpolar" / "schemas"


def call(main, query) -> tuple:
    """Run one query; returns (seconds, exit code, stdout).  An exception is
    exit code -1 with the exception as output."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(query.argv)
    except Exception as exc:  # a crash is a failed query, not a crashed run
        return time.perf_counter() - start, -1, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, buf.getvalue()


def digest(query, rc: int, out: str) -> str:
    blob = "\0".join([" ".join(query.argv), str(rc), out])
    return hashlib.sha256(blob.encode()).hexdigest()


class Bench:
    """A set-up workload: program, checker, warm-up done, round 0 generated."""

    def __init__(self, workload: str, seed: int, deadline: float = float("inf")):
        from checks import OutputChecker

        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.ran = 0              # queries run by run_round
        self.gauge = None         # a SpeedGauge read between the queries, when set
        self.program = Program()
        self.checker = OutputChecker(self.program.schema_dir)
        self.first_round = workloads.generate(workload, seed, 0)
        self.problems = []
        for query in WARMUP[workload]:
            _, rc, out = call(self.program.cli.main, query)
            if self.checker.check(query, rc, out):
                raise BenchError(f"warm-up query {query.argv} failed its check")

    def round(self, index: int) -> list:
        if index == 0:
            return self.first_round
        return workloads.generate(self.workload, self.seed, index)

    def run_round(self, queries, main, reference=None, on_output=None) -> tuple:
        """Run queries one after another and check each output, in full or,
        when ``reference`` holds digests from an earlier pass, byte for byte.
        Returns (query seconds, per-query seconds, failures, digests)."""
        times, digests, failed = [], [], 0
        for index, query in enumerate(queries):
            if time.perf_counter() > self.deadline:
                break
            if self.gauge is not None:
                self.gauge.before_query()
            seconds, rc, out = call(main, query)
            self.ran += 1
            times.append(seconds)
            seen = digest(query, rc, out)
            if reference is None:
                problems = self.checker.check(query, rc, out)
            else:
                same = seen == reference[index]
                problems = [] if same else ["output differs from the first pass"]
            if problems:
                self.problems.append((query.argv, problems[:3]))
                failed += 1
                seen = "failed"
            elif on_output is not None:
                on_output(query, out)
            digests.append(seen)
        return sum(times), times, failed, digests


def round_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def measure_setup(workload: str, seed: int, probes: int) -> tuple:
    """Seconds from starting a fresh interpreter to the first query being
    ready (import, schemas, inputs, warm-up), once per probe: as measured,
    and scaled by speed gauge readings taken just before and after it."""
    times, gauge = [], SpeedGauge(every=0)
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        gauge.before_query()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise BenchError(f"set-up probe failed (exit {rc})")
        times.append(elapsed)
    return times, [t * scale for t, scale in zip(times, gauge.scales())]


def pin_to_one_cpu():
    """Run this process, and the set-up probes it starts, on one CPU.  The
    speed of the CPUs of a shared host drifts apart; the gauge only tells the
    speed of the CPU it ran on, so queries and probes must run there too."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(times: list) -> tuple:
    """(value, percentile): the highest order statistic that leaves at least
    TAIL_ABOVE samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_ABOVE
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def recorded_digest(workload: str, seed: int):
    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text())
    entry = table.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


def check_digest(workload: str, seed: int, digests) -> bool:
    """Round 0 of the recorded seed must reproduce the recorded outputs."""
    want = recorded_digest(workload, seed)
    got = round_digest(digests)
    if want is None:
        print(f"output digest   {got} (round 0; none recorded for seed {seed})")
        return True
    print(f"output digest   {got} (round 0; {'matches' if got == want else 'DIFFERS from'} "
          f"the recorded one)")
    return got == want


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    })


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> int:
    bench = Bench(workload, seed, deadline)
    setups, scaled_setups = measure_setup(workload, seed, SETUP_PROBES)
    main = bench.program.cli.main
    bench.gauge = SpeedGauge()
    # The first pass checks every output in full; the later passes repeat the
    # same queries and compare the outputs byte for byte.
    rounds = max(1, round(seconds / (PASSES * workloads.ROUND_S[workload])))
    queries = [q for index in range(rounds) for q in bench.round(index)]
    busy, took, failed, reference = bench.run_round(queries, main)
    queries, order, times, passes = queries[:len(took)], list(range(len(took))), took, 1
    broken = {i for i, seen in enumerate(reference) if seen == "failed"}
    while queries and passes < PASSES and time.perf_counter() < deadline:
        spent, took, bad, digests = bench.run_round(queries, main, reference)
        order += range(len(took))
        times += took
        broken.update(i for i, seen in enumerate(digests) if seen == "failed")
        busy += spent
        failed += bad
        passes += 1
    if not queries:
        raise BenchError("no query ran before the deadline")
    # A query's time is its median over the passes, as measured and scaled by
    # the speed gauge; the metrics are of the scaled times.  Not the best
    # pass: that would pick the passes whose gauge readings ran slow, and so
    # scaled the query down too far.
    measured, scaled = [[] for _ in queries], [[] for _ in queries]
    for i, took, scale in zip(order, times, bench.gauge.scales()):
        measured[i].append(took)
        scaled[i].append(took * scale)
    measured = [statistics.median(ts) for ts in measured]
    scaled = [statistics.median(ts) for ts in scaled]
    attempted = bench.ran
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_ms, tail_pct = tail(scaled)
    metrics = {
        "queries_per_s": (len(scaled) - len(broken)) / sum(scaled),
        "query_p50_ms": statistics.median(scaled) * 1e3,
        "query_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(scaled_setups),
    }
    readings = bench.gauge.readings
    print(f"workload {workload}, seed {seed}: {len(queries)} queries, {passes} passes, "
          f"{busy:.3f} s in queries; "
          f"speed gauge {min(readings) * 1e3:.2f}-{max(readings) * 1e3:.2f} ms over "
          f"{len(readings)} readings, reference {REFERENCE_S * 1e3:g} ms")
    print("metric          at the reference speed (as measured)")
    print(f"queries_per_s   {metrics['queries_per_s']:.4f} 1/s "
          f"({(len(scaled) - len(broken)) / sum(measured):.4f})")
    print(f"query_p50_ms    {metrics['query_p50_ms']:.4f} ms "
          f"({statistics.median(measured) * 1e3:.4f})")
    print(f"query_tail_ms   {metrics['query_tail_ms']:.4f} ms "
          f"({tail(measured)[0] * 1e3:.4f}; p{tail_pct:.1f} of {len(scaled)} queries)")
    print(f"failed_share    {failed / attempted:.4f} ({failed} of {attempted})")
    print(f"peak_rss_mb     {metrics['peak_rss_mb']:.4f} MB")
    print(f"setup_s         {metrics['setup_s']:.4f} s ({statistics.median(setups):.4f}; "
          f"median of {len(setups)} fresh interpreters)")
    correct = check_digest(workload, seed, reference[:len(bench.first_round)]) and failed == 0
    report_problems(bench)
    print(result_line(correct, attempted, failed, metrics, END_TO_END_UNITS.get))
    return 0 if correct else 1


def run_traced(bench: Bench, queries, reference) -> tuple:
    """One traced pass, outputs compared with ``reference``:
    (tracer, query seconds, failures)."""
    from tracing import Tracer

    tracer = Tracer(bench.program)
    traced_main = tracer.wrap("cli.main", bench.program.cli.main)

    def on_output(query, out):
        if query.kind == "verify":
            tracer.count_report(json.loads(out))

    def next_query(argv):
        tracer.query_id += 1
        return traced_main(argv)

    tracer.install()
    try:
        seconds, _, failed, _ = bench.run_round(queries, next_query, reference, on_output)
    finally:
        tracer.uninstall()
    return tracer, seconds, failed


def traced_run(workload: str, seed: int, deadline: float) -> int:
    from tracing import metric_names, metric_unit

    bench = Bench(workload, seed, deadline)
    main = bench.program.cli.main
    queries = bench.first_round
    # The first pass checks every output in full and pays first-touch costs;
    # the untraced reference is the second pass, the traced one the third.
    _, _, failed, reference = bench.run_round(queries, main)
    untraced, _, bad, _ = bench.run_round(queries, main, reference)
    failed += bad

    tracer, traced, bad = run_traced(bench, queries, reference)
    failed += bad
    attempted = 3 * len(queries)
    failed += attempted - bench.ran        # queries skipped at the deadline

    values = tracer.metrics(untraced, traced)
    metrics = {name: values[name] for name in metric_names()}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    print(f"workload {workload}, seed {seed}: round 0 ({len(queries)} queries) "
          f"untraced ({untraced:.3f} s) and traced ({traced:.3f} s); spans in "
          f"{spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {metric_unit(name)}")
    correct = check_digest(workload, seed, reference) and failed == 0
    report_problems(bench)
    print(result_line(correct, attempted, failed, metrics, metric_unit))
    return 0 if correct else 1


def report_problems(bench: Bench):
    for argv, problems in bench.problems[:10]:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}")


# -- scaling curves ---------------------------------------------------------------

def _curve(spans, size_name, points):
    return {"spans": spans, "size": size_name, "points": points}


# name -> the spans whose total time is the layer time, and the points
CURVES = {
    "symbolic_derivative": _curve(
        ("diagram.symbolic_derivative",), "b0",
        [(2 ** j, workloads.Query("curve", "predict", "text", (2 ** j, 2 ** j + 1), 1))
         for j in range(10, 18)]),
    "to_json": _curve(
        ("polar.to_json",), "factors",
        [(2 ** j - 1, workloads.Query("curve", "predict", "json", (2 ** j, 2 ** (j + 1) - 1), 1))
         for j in range(6, 10)]),
    "dot_export": _curve(
        ("polar.export_eggers_wall", "polar.to_dot"), "factors",
        [(2 ** j - 1, workloads.Query("curve", "predict", "dot", (2 ** j, 2 ** (j + 1) - 1), 1))
         for j in range(6, 10)]),
    # the derived diagram of K(b0, 2b0-1) has b0-1 parts
    "canonical_rep": _curve(
        ("diagram.canonical_rep",), "parts",
        [(2 ** j - 1, workloads.Query("curve", "predict", "text", (2 ** j, 2 ** (j + 1) - 1), 1))
         for j in range(10, 15)]),
    "min_poly": _curve(
        ("puiseux.min_poly",), "n",
        [(n, workloads.Query("curve", "verify", "json", (n, n + 1), 1, (1,)))
         for n in range(6, 15)]),
}


def curve_run() -> int:
    """Layer time against size, one traced query per point.  A curve stops
    after a point slower than CURVE_CAP_S / 2, since each step at least
    doubles the work."""
    from checks import OutputChecker
    from tracing import Tracer

    program = Program()
    checker = OutputChecker(program.schema_dir)
    curves, correct = {}, True
    for name, curve in CURVES.items():
        rows = []
        for size, query in curve["points"]:
            tracer = Tracer(program)
            main = tracer.wrap("cli.main", program.cli.main)
            tracer.install()
            try:
                seconds, rc, out = call(main, query)
            finally:
                tracer.uninstall()
            problems = checker.check(query, rc, out)
            correct = correct and not problems
            times = tracer.self_times()
            layer_s = sum(times[span][0] for span in curve["spans"])
            rows.append({curve["size"]: size, "layer_s": layer_s, "query_s": seconds,
                         "ok": not problems})
            print(f"{name:20s} {curve['size']:>8s} {size:<8d} layer {layer_s:9.4f} s   "
                  f"query {seconds:9.4f} s{'' if not problems else '  FAILED'}", flush=True)
            if seconds * 2 > CURVE_CAP_S:
                break
        curves[name] = {"spans": list(curve["spans"]), "points": rows}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "curves.json").write_text(json.dumps(curves, indent=2) + "\n")
    print(json.dumps({"correct": correct, "curves": curves}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process; the last line combines the
    result lines."""
    results, code = {}, 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--curve", action="store_true", help="record scaling curves")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.curve:
        parser.error("--workload is required")
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.curve:
            return curve_run()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        signal.signal(signal.SIGALRM, _abort)
        signal.alarm(ABORT_S)
        pin_to_one_cpu()
        if args.setup_probe:
            Bench(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.trace:
            return traced_run(args.workload, args.seed, deadline)
        return timed_run(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, QueryAborted) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
