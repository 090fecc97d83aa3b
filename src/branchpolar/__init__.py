"""Equisingularity data of generic higher-order polars of plane branches.

The package predicts the full factor structure (contacts, characteristic
exponents, multiplicities, Eggers-Wall tree) of the generic k-th polar of any
equisingularity class of plane branches, and verifies the prediction at desk
scale with an exact-arithmetic oracle built from explicit Puiseux witnesses.
"""

from .charclass import CharSequence, new_char_sequence, parse_char, semiroot_degree
from .contfrac import ContinuedFraction, expand, to_even_length
from .diagram import CanonicalRep, NewtonDiagram, elementary, from_support
from .polar import PolarFactor, PolarPrediction, export_eggers_wall, predict
from .puiseux import (
    BivariatePoly,
    PuiseuxSeries,
    derivative_y,
    diagram_of,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
)
from .verify import (
    VerificationReport,
    WitnessBranch,
    check_initial_form,
    check_lemma_nd,
    sample_witness,
    verify_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "CharSequence", "new_char_sequence", "parse_char", "semiroot_degree",
    "ContinuedFraction", "expand", "to_even_length",
    "NewtonDiagram", "CanonicalRep", "from_support", "elementary",
    "PuiseuxSeries", "BivariatePoly", "min_poly",
    "derivative_y", "hat_transform", "diagram_of", "edge_poly_squarefree",
    "PolarFactor", "PolarPrediction", "predict", "export_eggers_wall",
    "WitnessBranch", "VerificationReport", "sample_witness",
    "check_lemma_nd", "check_initial_form", "verify_prediction",
    "__version__",
]
