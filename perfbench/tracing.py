"""Spans and counts at the boundaries between branchpolar's modules.

The tracer wraps, at run time, the functions and methods one module calls in
another (verify -> puiseux, polar -> diagram, cli -> polar, ...).  Each call
becomes a span (name, start, end, parent, query id) kept in memory; counts
are computed from the call's arguments and result only, so they repeat
exactly for the same inputs.  Nothing in the program is edited: the
originals are put back by ``uninstall``.
"""

from __future__ import annotations

import json
from math import gcd
from time import perf_counter

# one span name per wrapped boundary, "<module>.<function>", in reporting order
SPAN_NAMES = (
    "cli.main",
    "polar.predict",
    "diagram.symbolic_derivative",
    "diagram.canonical_rep",
    "contfrac.expand",
    "polar.to_text",
    "polar.to_json",
    "polar.export_eggers_wall",
    "polar.to_dot",
    "verify.sample_witness",
    "puiseux.min_poly",
    "verify.check_lemma_nd",
    "puiseux.hat_transform",
    "puiseux.derivative_y",
    "puiseux.diagram_of",
    "puiseux.edge_poly_squarefree",
    "verify.check_initial_form",
)

COUNT_NAMES = (
    "diagram.symbolic_derivative.rows",
    "polar.factors",
    "polar.contact_pairs",
    "puiseux.min_poly.norm_dim_max",
    "puiseux.min_poly.terms",
    "puiseux.min_poly.coeff_bits_max",
    "puiseux.hat_transform.terms",
    "verify.seeds_tried",
    "verify.seeds_degenerate",
    "verify.useful_seed_ratio",
)

TRACE_NAMES = (
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "trace.spans",
)


def metric_names() -> list:
    """Every per-layer metric, in reporting order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.s", f"{span}.self_s", f"{span}.calls"]
    return names + list(COUNT_NAMES) + list(TRACE_NAMES)


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_max") and "bits" in name:
        return "bits"
    return "count"


# -- counters: (counts, args, result) -> None ---------------------------------


def _count_rows(counts, args, result):
    diagram, k = args[0], args[1]
    top, bottom = diagram.top[1], diagram.bottom[1]
    if bottom < k <= top:
        counts["diagram.symbolic_derivative.rows"] += top - k


def _count_factors(counts, args, result):
    counts["polar.factors"] += len(result.factors())


def _count_pairs(counts, args, result):
    f = len(args[0].factors())
    counts["polar.contact_pairs"] += f * (f - 1) // 2


def _count_min_poly(counts, args, result):
    series = args[0]
    chain = [series.denom]
    for i, _ in series.terms:
        g = gcd(chain[-1], i)
        if g < chain[-1]:
            chain.append(g)
    dims = [a // b for a, b in zip(chain, chain[1:])] or [1]
    counts["puiseux.min_poly.norm_dim_max"] = max(counts["puiseux.min_poly.norm_dim_max"],
                                                 max(dims))
    counts["puiseux.min_poly.terms"] += len(result.terms)
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in result.terms.values()), default=0)
    counts["puiseux.min_poly.coeff_bits_max"] = max(counts["puiseux.min_poly.coeff_bits_max"],
                                                   bits)


def _count_hat_terms(counts, args, result):
    counts["puiseux.hat_transform.terms"] += len(result.terms)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self, program):
        self.program = program
        self.spans = []            # [name, start, end, parent index, query id]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.query_id = 0
        self._stack = []
        self._saved = []
        self._runs = 0
        self._useful = 0

    def _targets(self):
        p = self.program
        verify, polar, diagram = p.verify, p.polar, p.diagram
        return [
            (polar, "predict", "polar.predict", _count_factors),
            (polar, "export_eggers_wall", "polar.export_eggers_wall", None),
            (polar.PolarPrediction, "to_json", "polar.to_json", _count_pairs),
            (polar.PolarPrediction, "to_text", "polar.to_text", None),
            (polar.EggersWallExport, "to_dot", "polar.to_dot", None),
            (diagram.NewtonDiagram, "symbolic_derivative", "diagram.symbolic_derivative",
             _count_rows),
            (diagram.NewtonDiagram, "canonical_rep", "diagram.canonical_rep", None),
            (p.contfrac, "expand", "contfrac.expand", None),
            # verify's own names for what it imported from polar and puiseux
            (verify, "predict", "polar.predict", _count_factors),
            (verify, "min_poly", "puiseux.min_poly", _count_min_poly),
            (verify, "hat_transform", "puiseux.hat_transform", _count_hat_terms),
            (verify, "derivative_y", "puiseux.derivative_y", None),
            (verify, "diagram_of", "puiseux.diagram_of", None),
            (verify, "edge_poly_squarefree", "puiseux.edge_poly_squarefree", None),
            (verify, "sample_witness", "verify.sample_witness", None),
            (verify, "check_lemma_nd", "verify.check_lemma_nd", None),
            (verify, "check_initial_form", "verify.check_initial_form", None),
        ]

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count_report(self, report: dict):
        """Seed counts from a verify report, the result of the CLI call."""
        runs = report["runs"]
        self.counts["verify.seeds_tried"] += len(runs)
        self.counts["verify.seeds_degenerate"] += report["degenerate_count"]
        self._runs += len(runs)
        self._useful += sum(run["status"] == "pass" for run in runs)
        self.counts["verify.useful_seed_ratio"] = self._useful / self._runs

    def self_times(self) -> dict:
        """Per span name: total time, self time and calls.  A span's self
        time is its duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - child_time[i]
            acc[2] += 1
        return out

    def metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        values = {}
        times = self.self_times()
        for name in SPAN_NAMES:
            total, self_s, calls = times[name]
            values[f"{name}.s"] = total
            values[f"{name}.self_s"] = self_s
            values[f"{name}.calls"] = calls
        values.update(self.counts)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.unattributed_s"] = traced_wall - sum(t[1] for t in times.values())
        values["trace.spans"] = len(self.spans)
        return values

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")
