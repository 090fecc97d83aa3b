"""The benchmark's tracer reads a per-layer metric off each name it wraps.

A name that is no longer defined fails the tracer's install with KeyError,
but a name that is still imported and no longer called would set its
metric to zero without any error; these tests catch that second case.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# every span the tracer wraps on verify's path, through verify's namespace
VERIFY_SPANS = (
    "puiseux.min_poly",
    "puiseux.hat_transform",
    "puiseux.derivative_y",
    "puiseux.diagram_of",
    "puiseux.edge_poly_squarefree",
    "verify.sample_witness",
    "verify.check_lemma_nd",
    "verify.check_initial_form",
)

# every span the tracer wraps on predict's path; contfrac.expand is wrapped
# too, but nothing in the package calls it
PREDICT_SPANS = (
    "polar.predict",
    "diagram.symbolic_derivative",
    "diagram.canonical_rep",
    "polar.to_text",
    "polar.to_json",
    "polar.export_eggers_wall",
    "polar.to_dot",
)


def traced_calls(*workload_names):
    """Span name -> calls over round 0 of each workload at seed 1, as a
    traced benchmark run has it."""
    program = run.Program()
    tracer = Tracer(program)
    tracer.install()
    try:
        for workload in workload_names:
            for query in workloads.generate(workload, 1, 0):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert program.cli.main(query.argv) == 0, query.argv
    finally:
        tracer.uninstall()
    return {name: count for name, (_, _, count) in tracer.self_times().items()}


def test_every_span_on_verify_path_is_called():
    calls = traced_calls("verify-multilevel")
    assert [name for name in VERIFY_SPANS if not calls[name]] == []


def test_every_span_on_predict_path_is_called():
    # predict-deep writes text; export-wide writes JSON and DOT
    calls = traced_calls("predict-deep", "export-wide")
    assert [name for name in PREDICT_SPANS if not calls[name]] == []
