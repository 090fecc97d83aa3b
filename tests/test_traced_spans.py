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


def test_every_span_on_verify_path_is_called():
    # round 0 of verify-multilevel at seed 1, as a traced benchmark run has it
    program = run.Program()
    tracer = Tracer(program)
    tracer.install()
    try:
        for query in workloads.generate("verify-multilevel", 1, 0):
            with contextlib.redirect_stdout(io.StringIO()):
                assert program.cli.main(query.argv) == 0, query.argv
    finally:
        tracer.uninstall()
    calls = {name: count for name, (_, _, count) in tracer.self_times().items()}
    assert [name for name in VERIFY_SPANS if not calls[name]] == []
