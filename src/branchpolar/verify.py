"""Brute-force verification of polar predictions on explicit witnesses.

A witness is a branch with seeded random integer coefficients in a given
equisingularity class, given by an explicit Puiseux root.  Its minimal
polynomial f is never expanded.  The checks of level l read the hat
transform f^_l = f(x^N_l, y + lam_l(x^N_l)), N_l = b0/e_(l-1), and only on
or just under the chord from (0, b0) to (bbar_l, 0), so ``hat_chain``
builds the levels 1..L one from the other and cut to that triangle:

* f^_1 = min_poly(root - lam_1), since lam_1 has integer exponents and every
  conjugation fixes it;
* f^_l = f^_(l-1)(x^n_(l-1), y + delta_l(x^N_l)), delta_l = lam_l - lam_(l-1);
* a term x^i y^j of level l weighs (N_L/N_l) i + s j in level-L x-units,
  s = min(bbar_L/b0, N_L ord delta_l), which no later substitution lowers,
  and every step drops the terms heavier than bbar_L + N_L;
* the cut certifies itself: every level meets the x-axis at (bbar_l, 0),
  or InvariantViolation is raised, and the diagram of d^k f^_l must reach
  both axes with its vertices within the cap, or the chain is recomputed
  without a cut.  Then every dropped term lies inside the Newton polyhedra
  and off their compact edges, which is all the checks read.

For every level l and order k the checks are:

* the hat diagram of f starts with e_l copies of (m_l, n_l), and the Newton
  diagram of the hat transform of the k-th polar equals the k-th symbolic
  derivative of that hat diagram, both on the region of inclination above
  m_l/n_l and as a whole (for k < e_(l-1), the height of the steep part R,
  this is the splitting R^(k) + L of the lemma on Newton diagrams of
  polars); both diagrams are hulls of row starts;
* every edge above that inclination carries a squarefree edge polynomial
  (non-degeneracy), so the steep parts (M_i, N_i) can be read off and turned
  into contacts M_i/((b0/e_{l-1}) N_i) and multiplicities, which must agree
  with the predicted Z-factors;
* the weighted initial form of the hat transform of f equals
  a x^b (y^(n_l) - a_{b_l}^(n_l) x^(m_l))^(e_l) with a, b determined by the
  earlier coefficients - exactly, coefficient by coefficient;
* the vertical length of the edge at inclination exactly m_l/n_l equals the
  aggregate multiplicity of the W-factors of group l and of everything in
  deeper groups (individual W-factors are not separable without factoring).

Diagram mismatches and degenerate steep edges mean the witness is not
generic (the failure of an open Zariski condition) and the seed is retried;
any other disagreement is a hard failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import diagram as diagram_mod
from .charclass import CharSequence, bbar, semiroot_degree
from .errors import (
    InvariantViolation,
    NonIntegralSubstitution,
    OrderOutOfRange,
    OrderTooLarge,
)
from .polar import PolarPrediction, predict
from .puiseux import (
    BivariatePoly,
    PuiseuxSeries,
    binomial_power,
    derivative_y,
    diagram_of,
    edge_poly_squarefree,
    hat_transform,
    min_poly,
    row_starts,
)
from .rational import fmt_q

__all__ = [
    "WitnessBranch",
    "LevelReport",
    "SeedRun",
    "VerificationReport",
    "sample_witness",
    "witness_from_root",
    "cut_bound",
    "hat_chain",
    "expected_hat_diagram",
    "check_lemma_nd",
    "check_initial_form",
    "verify_prediction",
]

COEFF_RANGE = 9  # sampled coefficients live in [-9, 9]
MAX_SEED_RUNS = 8  # degenerate witnesses are retried up to this many runs in total


@dataclass(frozen=True)
class WitnessBranch:
    cs: CharSequence
    root: PuiseuxSeries
    seed: int | None

    def lam(self, l: int) -> PuiseuxSeries:
        """The truncation of the root below b_l/b0, over its own index."""
        cutoff = Fraction(self.cs.b[l], self.cs.b0)
        return self.root.truncate_below(cutoff).reduce()


def allowed_exponents(cs: CharSequence, upto: int) -> list:
    """Exponent numerators that keep the characteristic intact: multiples of
    e_j between b_j and b_{j+1}, everything past b_h."""
    out = []
    for i in range(cs.b0, upto + 1):
        level = 0
        for bj in cs.b[1:]:
            if i >= bj:
                level += 1
            else:
                break
        if i % cs.e[level] == 0:
            out.append(i)
    return out


def sample_witness(cs: CharSequence, seed: int) -> WitnessBranch:
    """Random branch in the class: nonzero integer coefficients at the
    characteristic exponents, arbitrary ones elsewhere, all in [-9, 9], at
    every allowed exponent numerator up to b_h + b0."""
    rng = random.Random(seed)
    upto = cs.b[-1] + cs.b0
    nonzero = [v for v in range(-COEFF_RANGE, COEFF_RANGE + 1) if v]
    coeffs = {}
    char_positions = set(cs.b[1:])
    for i in allowed_exponents(cs, upto):
        if i in char_positions:
            coeffs[i] = rng.choice(nonzero)
        else:
            coeffs[i] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    root = PuiseuxSeries(cs.b0, coeffs)
    got = root.characteristic().b
    if got != cs.b:
        raise InvariantViolation(f"sampled root has characteristic {got}, not {cs.b}")
    return WitnessBranch(cs, root, seed)


def witness_from_root(cs: CharSequence, root: PuiseuxSeries,
                      seed: int | None = None) -> WitnessBranch:
    """Wrap an explicit Puiseux root (e.g. the non-generic all-ones example)."""
    got = root.reduce().characteristic()
    if got.b != cs.b:
        raise ValueError(f"root has characteristic {got.b}, expected {cs.b}")
    return WitnessBranch(cs, root, seed)


# ---------------------------------------------------------------------------
# hat transforms, chained level to level and cut to the Newton triangle
# ---------------------------------------------------------------------------


def cut_bound(cs: CharSequence, depth: int) -> int:
    """Weight cap of the chain for levels 1..depth, in level-depth x-units:
    the corner (bbar_L, 0) of the Newton triangle plus one level-1 lattice
    step, N_L units."""
    return cs.bbar[depth - 1] + semiroot_degree(cs, depth)


def hat_chain(w: WitnessBranch, depth: int, k: int = 0) -> list:
    """The hat transforms f^_l = f(x^N_l, y + lam_l(x^N_l)) of the levels
    l = 1..depth, cut to what the checks of order k read (N_l = b0/e_(l-1)).

    f^_1 = min_poly(root - lam_1): lam_1 has integer exponents, so every
    conjugation fixes it and the conjugate product is f(x, y + lam_1).  Then
    f^_l = f^_(l-1)(x^n_(l-1), y + delta_l(x^N_l)), delta_l = lam_l - lam_(l-1).
    In level-L x-units (L = depth) a term x^i y^j of level l weighs
    (N_L/N_l) i + s j, s = min(bbar_L/b0, N_L ord delta_l for l = 2..L), so
    no later substitution lowers a weight, and each step drops every term
    heavier than ``cut_bound``.

    The cut certifies itself.  Every level must meet the x-axis at
    (bbar_l, 0), as every member of the class does, or InvariantViolation
    is raised; the diagram of f^_l then lies in the triangle under the chord
    from (0, b0), within the cap.  The diagram of d^k f^_l, shifted up by k,
    must reach both axes with its vertices within the cap.  Then each
    dropped term lies inside both Newton polyhedra and off their compact
    edges, so no diagram, edge polynomial or initial form changes.  If a
    derivative diagram fails, the chain is recomputed without a cut.
    """
    cs = w.cs
    n_top = semiroot_degree(cs, depth)
    lams = [w.lam(l) for l in range(1, depth + 1)]
    if lams[0].denom != 1:
        raise NonIntegralSubstitution(f"lam_1 = {lams[0]} has fractional exponents")
    diff = w.root - lams[0]
    weight = Fraction(cs.bbar[depth - 1], cs.b0)
    steps = []
    for l in range(2, depth + 1):
        delta = lams[l - 1] - lams[l - 2]
        if delta.terms:
            weight = min(weight, n_top * Fraction(delta.terms[0][0], delta.denom))
        delta = delta.rescale(semiroot_degree(cs, l))
        # delta_l(x^N_l) as a series in the level-(l-1) variable x^N_(l-1)
        steps.append(PuiseuxSeries(cs.n_seq[l - 2], delta.terms))
    wy, q = weight.numerator, weight.denominator
    wxs = [q * n_top // semiroot_degree(cs, l) for l in range(1, depth + 1)]

    def build(cap):
        cuts = [None if cap is None else (wx, wy, cap) for wx in wxs]
        hats = [min_poly(diff, cut=cuts[0])]
        for step, n_sub, cut in zip(steps, cs.n_seq, cuts[1:]):
            hats.append(hat_transform(hats[-1], n_sub, step, cut))
        return hats

    cap = q * cut_bound(cs, depth)
    hats = build(cap)
    certified = True
    for l, (fhat, wx) in enumerate(zip(hats, wxs), start=1):
        starts = row_starts(fhat)
        corner = cs.bbar[l - 1]
        if starts.get(0) != corner:
            raise InvariantViolation(
                f"hat transform of level {l} meets the x-axis at x^{starts.get(0)}, "
                f"not at x^{corner} = x^bbar_{l}"
            )
        if k and certified:
            d = diagram_mod.from_support((i, j) for j, i in starts.items() if j >= k)
            certified = (d.top[0] == 0 and d.bottom[1] == k
                         and all(wx * x + wy * y <= cap for x, y in d.vertices))
    return hats if certified else build(None)


def _steep_data(d: diagram_mod.NewtonDiagram, m_l: int, n_l: int):
    """Long-canonical parts of inclination > m_l/n_l and the vertical length
    of the edge at inclination exactly m_l/n_l."""
    steep = []
    exact_len = 0
    for m, n in d.canonical_rep(long=True).parts:
        if m * n_l > n * m_l:
            steep.append((m, n))
        elif m * n_l == n * m_l:
            exact_len += n
    return tuple(steep), exact_len


def expected_hat_diagram(cs: CharSequence, l: int, k: int,
                         hat_diagram: diagram_mod.NewtonDiagram) -> diagram_mod.NewtonDiagram:
    """The k-th symbolic derivative of the witness's hat diagram, once its
    steep part R is checked to be e_l copies of (m_l, n_l): no part steeper
    than m_l/n_l, and height e_l n_l = e_(l-1) at m_l/n_l (long-canonical
    parts are primitive).

    Only the steep part is theory; the rest, L, is taken from the witness
    itself.  R is the bottom part of the diagram, of height e_(l-1) > k, so
    the derivative cuts into R alone and equals the splitting R^(k) + L of
    the lemma on Newton diagrams of polars.
    """
    if k >= cs.e[l - 1]:
        raise OrderTooLarge(f"order {k} >= e_{l - 1} = {cs.e[l - 1]}")
    m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
    steep, exact_len = _steep_data(hat_diagram, m_l, n_l)
    if steep or exact_len != cs.e[l - 1]:
        raise InvariantViolation(
            f"hat diagram of a class member must start with {cs.e[l]} copies of "
            f"({m_l},{n_l}), got steeper parts {list(steep)} and height "
            f"{exact_len} at {m_l}/{n_l}"
        )
    return hat_diagram.symbolic_derivative(k)


@dataclass
class LevelReport:
    """What the checks of one level and order found.  ``check_lemma_nd``
    fills the diagram fields; for an ok level ``_run_seed`` then compares
    them with the prediction."""

    level: int
    k: int
    expected: tuple                   # vertices of N(fhat)^(k)
    observed: tuple                   # vertices of N(d^k fhat / dy^k)
    status: str = "ok"                # ok, or degenerate with reasons
    reasons: list = field(default_factory=list)
    steep_parts: tuple = ()
    contacts: tuple = ()
    multiplicities: tuple = ()
    aggregate_edge_length: int | None = None
    initial_form_ok: bool | None = None
    prediction_match: bool | None = None
    aggregate_predicted: int | None = None
    aggregate_ok: bool | None = None

    def failures(self) -> list:
        out = []
        if self.initial_form_ok is False:
            out.append(f"level {self.level}: initial form mismatch")
        if self.prediction_match is False:
            out.append(f"level {self.level}: extracted factors disagree with prediction")
        if self.aggregate_ok is False:
            out.append(
                f"level {self.level}: edge length {self.aggregate_edge_length} "
                f"!= predicted {self.aggregate_predicted}"
            )
        return out

    def to_json(self) -> dict:
        return {
            "l": self.level,
            "status": self.status,
            "reasons": list(self.reasons),
            "expected": [list(v) for v in self.expected],
            "observed": [list(v) for v in self.observed],
            "steep_parts": [list(p) for p in self.steep_parts],
            "contacts": [fmt_q(c) for c in self.contacts],
            "multiplicities": list(self.multiplicities),
            "initial_form_ok": self.initial_form_ok,
            "prediction_match": self.prediction_match,
            "aggregate_edge": {
                "observed": self.aggregate_edge_length,
                "predicted": self.aggregate_predicted,
                "ok": self.aggregate_ok,
            },
        }


def check_lemma_nd(w: WitnessBranch, l: int, k: int, fhat: BivariatePoly) -> LevelReport:
    """Diagram equality and steep-edge non-degeneracy for one level and order,
    read off the level's hat transform ``fhat`` (see ``hat_chain``): the
    level's report with its diagram fields filled in."""
    cs = w.cs
    m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
    n_sub = semiroot_degree(cs, l)
    expected = expected_hat_diagram(cs, l, k, diagram_of(fhat))
    # the hat transform commutes with d/dy: hat(d^k f) = d^k hat(f)
    polar_hat = derivative_y(fhat, k)
    observed = diagram_of(polar_hat)
    steep_obs, exact_len = _steep_data(observed, m_l, n_l)
    steep_exp, _ = _steep_data(expected, m_l, n_l)
    res = LevelReport(
        level=l, k=k, expected=expected.vertices, observed=observed.vertices,
        steep_parts=steep_obs,
        contacts=tuple(Fraction(m, n_sub * n) for m, n in steep_obs),
        multiplicities=tuple(n_sub * n for _, n in steep_obs),
        aggregate_edge_length=exact_len,
    )
    if steep_obs != steep_exp:
        res.status = "degenerate"
        res.reasons.append(
            f"steep diagram region {steep_obs} differs from expected {steep_exp}"
        )
    if observed != expected:
        res.status = "degenerate"
        res.reasons.append("full hat diagram differs from the symbolic derivative")

    for edge in observed.compact_edges():
        (xa, ya), (xb, yb) = edge
        if (xb - xa) * n_l > (ya - yb) * m_l:
            if not edge_poly_squarefree(polar_hat, edge):
                res.status = "degenerate"
                res.reasons.append(f"steep edge {edge} is degenerate")
    return res


def check_initial_form(w: WitnessBranch, l: int, fhat: BivariatePoly) -> bool:
    """Exact comparison of in_omega(fhat) with a x^b (y^n_l - a_{b_l}^n_l x^m_l)^e_l
    for the level's hat transform ``fhat`` (see ``hat_chain``).

    Holds for every conjugate-product witness (unit 1), generic or not.
    """
    cs = w.cs
    m_l, n_l = cs.m_seq[l - 1], cs.n_seq[l - 1]
    e_l = cs.e[l]
    observed = fhat.initial_form((n_l, m_l))

    scale = Fraction(1)
    for j in range(1, l):
        a_bj = w.root.coefficient(Fraction(cs.b[j], cs.b0))
        scale *= Fraction(cs.n_seq[j - 1]) ** cs.e[j] * a_bj ** (cs.e[j - 1] - cs.e[j])
    a_bl = w.root.coefficient(Fraction(cs.b[l], cs.b0))
    shift = bbar(cs, l) - cs.b[l]
    wanted = binomial_power(scale, a_bl, n_l, m_l, e_l, shift)
    return observed.terms == wanted.terms


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


@dataclass
class SeedRun:
    seed: int
    status: str                      # pass, degenerate (some level is) or fail
    levels: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "status": self.status,
            "levels": [lv.to_json() for lv in self.levels],
            "failures": list(self.failures),
        }


@dataclass
class VerificationReport:
    cs: CharSequence
    k: int
    prediction: PolarPrediction
    runs: list = field(default_factory=list)
    verdict: str = "UNKNOWN"
    passing_seed: int | None = None
    degenerate_count: int = 0

    def to_json(self) -> dict:
        return {
            "char": list(self.cs.b),
            "k": self.k,
            "verdict": self.verdict,
            "passing_seed": self.passing_seed,
            "degenerate_count": self.degenerate_count,
            "seeds": [run.seed for run in self.runs],
            "prediction": self.prediction.to_json(),
            "runs": [run.to_json() for run in self.runs],
        }

    def to_text(self) -> str:
        lines = [f"verify K{self.cs} k={self.k}: {self.verdict}"]
        if self.passing_seed is not None:
            lines.append(f"witness seed {self.passing_seed} confirms the prediction")
        if self.degenerate_count:
            lines.append(f"{self.degenerate_count} seed(s) hit a degenerate witness")
        for run in self.runs:
            lines.append(f"seed {run.seed}: {run.status}")
            for lv in run.levels:
                bits = [f"  l={lv.level} {lv.status}"]
                if lv.status == "ok":
                    parts = "+".join(f"({m},{n})" for m, n in lv.steep_parts) or "-"
                    bits.append(f"steep {parts}")
                    bits.append(f"contacts {{{', '.join(fmt_q(c) for c in lv.contacts)}}}")
                    bits.append(f"initial form {'ok' if lv.initial_form_ok else 'MISMATCH'}")
                    bits.append(
                        f"edge@(m/n) {lv.aggregate_edge_length}={lv.aggregate_predicted}"
                        if lv.aggregate_ok
                        else f"edge@(m/n) {lv.aggregate_edge_length}!={lv.aggregate_predicted}"
                    )
                lines.append(" ".join(bits))
            for fail in run.failures:
                lines.append(f"  FAIL: {fail}")
        return "\n".join(lines)


def _aggregate_predicted(prediction: PolarPrediction, cs: CharSequence, l: int) -> int:
    """Vertical length at inclination exactly m_l/n_l in the l-th hat chart:
    W-factors of group l plus every factor of deeper groups, each scaled by
    e_{l-1}/b0."""
    total = 0
    for f in prediction.factors():
        if f.group_index == l and f.kind == "W":
            total += f.multiplicity
        elif f.group_index > l:
            total += f.multiplicity
    scaled, rest = divmod(total * cs.e[l - 1], cs.b0)
    if rest:
        raise InvariantViolation(
            f"predicted multiplicity {total} at level {l} is not a multiple of "
            f"b0/e_{l - 1} = {cs.b0 // cs.e[l - 1]}"
        )
    return scaled


def _run_seed(w: WitnessBranch, prediction: PolarPrediction, levels) -> SeedRun:
    cs = w.cs
    run = SeedRun(seed=w.seed, status="pass")
    for l, fhat in zip(levels, hat_chain(w, levels[-1], prediction.k)):
        report = check_lemma_nd(w, l, prediction.k, fhat)
        run.levels.append(report)
        if report.status != "ok":
            continue
        report.initial_form_ok = check_initial_form(w, l, fhat)
        predicted_z = [f for f in prediction.groups[l - 1] if f.kind == "Z"]
        report.prediction_match = (
            list(report.steep_parts) == [f.part for f in predicted_z]
            and list(report.contacts) == [f.contact_with_semiroot for f in predicted_z]
            and list(report.multiplicities) == [f.multiplicity for f in predicted_z]
        )
        report.aggregate_predicted = _aggregate_predicted(prediction, cs, l)
        report.aggregate_ok = report.aggregate_edge_length == report.aggregate_predicted
        run.failures.extend(report.failures())

    if run.failures:
        run.status = "fail"
    elif any(lv.status == "degenerate" for lv in run.levels):
        run.status = "degenerate"
    return run


def verify_prediction(cs: CharSequence, k: int, seeds) -> VerificationReport:
    """Check the prediction for every level against sampled witnesses.

    PASS needs one fully passing seed and no hard contradiction anywhere;
    degenerate witnesses are retried with fresh seeds up to
    ``MAX_SEED_RUNS`` runs in total.
    """
    if not 1 <= k < cs.b0:
        raise OrderOutOfRange(f"polar order must satisfy 1 <= k < {cs.b0}, got {k}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    prediction = predict(cs, k)
    levels = [l for l in range(1, cs.h + 1) if cs.e[l - 1] > k]
    report = VerificationReport(cs=cs, k=k, prediction=prediction)

    queue = list(seeds)
    next_extra = max(seeds) + 1
    while queue:
        seed = queue.pop(0)
        run = _run_seed(sample_witness(cs, seed), prediction, levels)
        report.runs.append(run)
        if run.status == "fail":
            report.verdict = "FAIL"
            return report
        if run.status == "pass" and report.passing_seed is None:
            report.passing_seed = run.seed
        if run.status == "degenerate":
            report.degenerate_count += 1
            # open Zariski condition: retry with fresh seeds, within policy
            if not queue and report.passing_seed is None and len(report.runs) < MAX_SEED_RUNS:
                queue.append(next_extra)
                next_extra += 1

    report.verdict = "PASS" if report.passing_seed is not None else "UNKNOWN"
    return report

