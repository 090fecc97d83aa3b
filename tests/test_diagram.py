import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchpolar import diagram as diagram_mod
from branchpolar.diagram import NewtonDiagram, elementary, from_support
from branchpolar.errors import EmptySupport, InvalidRange, InvariantViolation
from oracles import (
    Face,
    NotCoprime,
    SplitTooDeep,
    elementary_derivative_closed_form,
    face_sum,
    hull_vertices_oracle,
    inclination,
    initial_part,
    minkowski_sum,
    on_polygon,
    quadrant,
    random_diagram,
    rep_to_diagram,
    split_derivative,
    staircase_trunc_oracle,
)


# -- hulls of supports -------------------------------------------------------


def test_from_support_examples():
    assert from_support({(0, 2), (1, 1), (3, 0)}).vertices == ((0, 2), (1, 1), (3, 0))
    assert from_support({(0, 5), (12, 0)}).vertices == ((0, 5), (12, 0))
    assert from_support({(2, 3)}).vertices == ((2, 3),)


def test_from_support_drops_interior_points():
    # (1, 2) sits above the chord from (0, 2) to (3, 0)
    assert from_support({(0, 2), (1, 2), (3, 0)}).vertices == ((0, 2), (3, 0))


def test_from_support_reads_off_its_canonical_rep():
    assert str(from_support([(0, 2), (1, 1), (3, 0)])) == "(2,1)+(1,1)"


def test_from_support_empty():
    # NewtonDiagram refuses the empty chain, a generator's too
    with pytest.raises(EmptySupport, match="^a diagram needs at least one vertex$"):
        from_support([])
    with pytest.raises(EmptySupport):
        from_support(p for p in ())
    with pytest.raises(EmptySupport):
        NewtonDiagram(())


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
def test_an_elementary_diagram_with_a_zero_leg_is_the_quadrant(m, n):
    assert elementary(m, n) == quadrant()


@pytest.mark.parametrize("point", [(-1, 2), (3, -1)])
def test_from_support_rejects_a_negative_point(point):
    with pytest.raises(ValueError, match="support points must be nonnegative"):
        from_support({(0, 2), point})


@pytest.mark.parametrize("support", [
    [(0, 2.0), (3, 0)], [(True, 0), (0, 2)], [(1.5, 0), (0, 2)], [(0, 0), (5, 2.0)],
    [("2", 0), (0, 2)], [(None, 0), (0, 2)],
], ids=["float-vertex", "bool-vertex", "fraction-vertex", "float-above-the-hull",
        "str-vertex", "none-vertex"])
def test_from_support_rejects_a_point_that_is_not_a_lattice_point(support):
    # a usage error, even for a point that the hull would drop or one that
    # cannot be sorted with the others
    with pytest.raises(ValueError, match="^support points must be integers"):
        from_support(support)


# small coordinates, so repeated points, several points in one column or
# row, collinear runs and points on both axes are all common
_small_supports = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_small_supports, st.data())
def test_from_support_matches_hull_oracle(support, data):
    assert from_support(support).vertices == hull_vertices_oracle(support)
    # a generator of lists is unpacked the same way
    assert from_support([x, y] for x, y in support).vertices == hull_vertices_oracle(support)
    # a negative coordinate is refused wherever it sits in the input
    x, y = data.draw(st.sampled_from([(-1, 0), (0, -1), (-3, 5), (5, -3)]))
    at = data.draw(st.integers(0, len(support)))
    with pytest.raises(ValueError, match=rf"^support points must be nonnegative, got \({x}, {y}\)$"):
        from_support([*support[:at], (x, y), *support[at:]])


def test_vertex_chain_validation():
    with pytest.raises(ValueError):
        NewtonDiagram(((0, 2), (1, 2)))          # y not decreasing
    with pytest.raises(ValueError):
        NewtonDiagram(((0, 4), (1, 2), (2, 0)))  # collinear middle vertex
    for chain in (((0, 2.5), (3, 0)), ((0, 2), (True, 0)), ((0.0, 0),)):
        with pytest.raises(ValueError, match="^vertices must be lattice points"):
            NewtonDiagram(chain)


# -- Minkowski sums -----------------------------------------------------------


def test_minkowski_worked_example():
    s = minkowski_sum(elementary(10, 4), elementary(8, 6))
    assert s.vertices == ((0, 10), (8, 4), (18, 0))


def test_minkowski_merges_equal_inclinations():
    s = minkowski_sum(elementary(5, 2), elementary(5, 2))
    assert s.vertices == ((0, 4), (10, 0))


def test_minkowski_identity():
    d = from_support({(0, 3), (2, 1), (5, 0)})
    assert minkowski_sum(d, quadrant()) == d
    assert minkowski_sum(quadrant(), d) == d


def test_minkowski_against_support_oracle():
    rng = random.Random(33)
    for _ in range(60):
        a = random_diagram(rng, xmax=30, ymax=30)
        b = random_diagram(rng, xmax=30, ymax=30)
        sums = [(xa + xb, ya + yb) for xa, ya in a.vertices for xb, yb in b.vertices]
        assert minkowski_sum(a, b) == from_support(sums)


# -- weighted initial faces ----------------------------------------------------


def test_initial_part_examples():
    d = elementary(3, 2)
    assert initial_part(d, (1, 1)) == Face((0, 2), (0, 2))
    assert initial_part(d, (2, 3)) == Face((0, 2), (3, 0))
    single = quadrant((4, 7))
    assert initial_part(single, (5, 1)).is_vertex


def test_initial_part_additive_over_sum():
    rng = random.Random(55)
    for _ in range(80):
        a = random_diagram(rng, xmax=25, ymax=25)
        b = random_diagram(rng, xmax=25, ymax=25)
        w = (Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        assert initial_part(minkowski_sum(a, b), w) == face_sum(initial_part(a, w), initial_part(b, w))


# -- canonical representations --------------------------------------------------


def test_canonical_rep_worked_example():
    d = minkowski_sum(elementary(10, 4), elementary(8, 6))
    assert d.canonical_rep().parts == ((10, 4), (8, 6))
    assert d.canonical_rep(long=True).parts == ((5, 2), (5, 2), (4, 3), (4, 3))


def test_canonical_rep_quadrant_offset():
    rep = quadrant((2, 3)).canonical_rep()
    assert rep.offset == (2, 3)
    assert rep.parts == ()
    assert str(rep) == "quadrant at (2,3)"


def test_canonical_rep_text_with_an_offset_and_parts():
    # offset first, then the parts from the rightmost edge up
    d = from_support({(1, 5), (3, 2), (7, 1)})
    assert d.canonical_rep().offset == (1, 1)
    assert str(d.canonical_rep()) == "(1,1)+(4,1)+(2,3)"
    assert str(d) == "(1,1)+(4,1)+(2,3)"


def test_canonical_rep_round_trip():
    rng = random.Random(77)
    for _ in range(60):
        d = random_diagram(rng, xmax=40, ymax=40)
        for long in (False, True):
            rep = d.canonical_rep(long=long)
            assert rep_to_diagram(rep) == d
        # long -> short -> long is the identity
        long_rep = d.canonical_rep(long=True)
        short_again = rep_to_diagram(long_rep).canonical_rep()
        assert short_again == d.canonical_rep()


def test_canonical_rep_inclination_order():
    rng = random.Random(78)
    for _ in range(40):
        d = random_diagram(rng, xmax=60, ymax=60)
        parts = d.canonical_rep().parts
        incl = [Fraction(m, n) for m, n in parts]
        assert all(a > b for a, b in zip(incl, incl[1:]))
        long_incl = [Fraction(m, n) for m, n in d.canonical_rep(long=True).parts]
        assert all(a >= b for a, b in zip(long_incl, long_incl[1:]))


# -- truncation and symbolic derivatives ------------------------------------------


def test_trunc_examples():
    d = elementary(12, 5)
    assert d.trunc(5).vertices == ((0, 5),)
    assert d.trunc(1).vertices == ((0, 5), (10, 1))
    assert d.trunc(2).vertices == ((0, 5), (5, 3), (8, 2))
    assert d.trunc(0) == d


def test_symbolic_derivative_known_values():
    d = elementary(12, 5)
    assert d.symbolic_derivative(1) == elementary(10, 4)
    assert d.symbolic_derivative(2) == minkowski_sum(elementary(3, 1), elementary(5, 2))
    assert elementary(9, 1).symbolic_derivative(1) == quadrant()


def test_symbolic_derivative_reads_off_its_canonical_rep():
    assert str(elementary(12, 5).symbolic_derivative(2)) == "(3,1)+(5,2)"


def test_symbolic_derivative_vertices_and_long_canonical_rep():
    derived = elementary(12, 5).symbolic_derivative(1)
    assert derived.vertices == ((0, 4), (10, 0))
    assert derived.canonical_rep().parts == ((10, 4),)
    assert derived.canonical_rep(long=True).parts == ((5, 2), (5, 2))
    assert derived.canonical_rep().offset == (0, 0)


def test_symbolic_derivative_above_extent():
    d = elementary(7, 3)
    assert d.symbolic_derivative(3) == quadrant()
    assert d.symbolic_derivative(5) == quadrant()
    assert quadrant((2, 1)).symbolic_derivative(4).vertices == ((2, 0),)


# random diagrams up to 400 x 400, offsets from the axes included; k runs
# over 0..top+1, so it meets every vertex height, the bottom and the top
_supports = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=7
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_supports)
def test_trunc_matches_staircase_oracle(support):
    steepest, steps = diagram_mod._steepest_step, []

    def recorded(*args):
        steps.append(steepest(*args))
        return steps[-1]

    d = from_support(support)
    with mock.patch.object(diagram_mod, "_steepest_step", recorded):
        for k in range(d.top[1] + 2):
            expected = staircase_trunc_oracle(d, k)
            assert d.trunc(k) == expected, (d.vertices, k)
            assert d.symbolic_derivative(k) == expected.translate(0, -k), (d.vertices, k)
    # no gift-wrapping step is steeper than the cut edge, so none spends slack
    assert all(step_d <= 0 for _, _, step_d in steps), (d.vertices, steps)


def test_trunc_runs_down_a_non_primitive_edge():
    # g copies of the primitive step (m, n): where a copy fits above the cut,
    # the first gift-wrapping step runs down the edge to its last lattice point
    for g in range(2, 6):
        for m in range(1, 13):
            for n in (n for n in range(1, 9) if gcd(m, n) == 1):
                d = elementary(g * m, g * n)
                for k in range(g * n + 1):
                    cut = d.trunc(k)
                    assert cut == staircase_trunc_oracle(d, k), (g, m, n, k)
                    j = (g * n - k) // n
                    if 0 < j < g:
                        assert cut.vertices[1] == (j * m, (g - j) * n), (g, m, n, k)


@contextmanager
def _alarm(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_trunc_refuses_a_step_that_descends_no_row(monkeypatch):
    # a step taller than the rows left runs c = 0 times; unbounded, the
    # gift-wrapping loop would take it again forever
    monkeypatch.setattr(diagram_mod, "_steepest_step", lambda p, q, s, height: (1, height + 1, 0))
    with _alarm(10), pytest.raises(InvariantViolation, match="missed height 2"):
        elementary(12, 5).trunc(2)


def test_steepest_step_refuses_a_descent_past_its_pass_count():
    # a negative slack breaks the precondition that L overruns it, and an
    # unbounded descent would loop on it forever
    with _alarm(10), pytest.raises(InvariantViolation, match="no steepest step"):
        diagram_mod._steepest_step(1, 1, -6, 2)


def test_derivative_composition_smoke():
    rng = random.Random(99)
    for _ in range(60):
        d = random_diagram(rng, xmax=40, ymax=25)
        h = d.top[1] - d.bottom[1]
        for _ in range(6):
            k = rng.randint(0, h)
            l = rng.randint(0, h - k)
            assert d.symbolic_derivative(k).symbolic_derivative(l) == d.symbolic_derivative(k + l)


def test_closed_form_examples():
    assert elementary_derivative_closed_form(4, 3).parts == ((3, 2),)
    assert elementary_derivative_closed_form(31, 4).parts == ((8, 1),) * 3
    assert elementary_derivative_closed_form(7, 5).parts == ((3, 2),) * 2
    assert elementary_derivative_closed_form(9, 1).parts == ()


def test_closed_form_matches_lattice_oracle_small():
    for m in range(2, 26):
        for n in range(1, m):
            from math import gcd
            if gcd(m, n) != 1:
                continue
            rep = elementary_derivative_closed_form(m, n)
            assert rep_to_diagram(rep) == elementary(m, n).symbolic_derivative(1), (m, n)


def test_closed_form_errors():
    with pytest.raises(NotCoprime):
        elementary_derivative_closed_form(10, 4)
    with pytest.raises(InvalidRange):
        elementary_derivative_closed_form(3, 3)
    with pytest.raises(InvalidRange):
        elementary_derivative_closed_form(3, 5)


# -- splitting -------------------------------------------------------------------


def test_split_derivative_identity_at_zero():
    d = minkowski_sum(elementary(4, 3), elementary(31, 4))
    r, l = split_derivative(d, 0, 2)
    assert minkowski_sum(r, l) == d


def test_split_derivative_examples():
    d = minkowski_sum(elementary(4, 3), elementary(31, 4))
    # rightmost long part is one copy of (31, 4)
    r, l = split_derivative(d, 1, 1)
    assert r == elementary(31, 4).symbolic_derivative(1)
    assert minkowski_sum(r, l) == d.symbolic_derivative(1)

    d2 = minkowski_sum(elementary(7, 5), elementary(15, 2))
    r2, l2 = split_derivative(d2, 2, 1)
    assert r2 == quadrant()
    assert l2 == elementary(7, 5)
    assert minkowski_sum(r2, l2) == d2.symbolic_derivative(2)


def test_split_derivative_random_against_oracle():
    rng = random.Random(101)
    for _ in range(80):
        d = random_diagram(rng, xmax=30, ymax=20)
        if d.bottom[1] != 0:
            d = d.translate(0, -d.bottom[1])
        parts = d.canonical_rep(long=True).parts
        if not parts:
            continue
        s = rng.randint(0, len(parts))
        cap = sum(n for _, n in parts[:s])
        k = rng.randint(0, cap)
        r, l = split_derivative(d, k, s)
        assert minkowski_sum(r, l) == d.symbolic_derivative(k), (d.vertices, k, s)


def test_split_derivative_too_deep():
    d = minkowski_sum(elementary(4, 3), elementary(31, 4))
    with pytest.raises(SplitTooDeep):
        split_derivative(d, 5, 1)


# -- corner points of decompositions -----------------------------------------------


def test_corner_points_on_polygon():
    rng = random.Random(202)
    for _ in range(40):
        d = random_diagram(rng, xmax=50, ymax=50)
        for long in (False, True):
            rep = d.canonical_rep(long=long)
            total_m = sum(m for m, _ in rep.parts)
            acc_n = 0
            seen_m = 0
            for j in range(len(rep.parts) + 1):
                a_j = (rep.offset[0] + total_m - seen_m, rep.offset[1] + acc_n)
                assert on_polygon(d, a_j)
                if j < len(rep.parts):
                    seen_m += rep.parts[j][0]
                    acc_n += rep.parts[j][1]


def test_inclination_helper():
    assert inclination(((0, 2), (3, 0))) == Fraction(3, 2)


def test_elementary_rejects_legs_that_are_not_integers():
    # elementary(3.5, 2) built a diagram whose str() raised InvariantViolation
    for m, n in ((3.5, 2), (3, 2.0), (True, 2), (3, False)):
        with pytest.raises(ValueError, match="integer"):
            elementary(m, n)
    assert str(elementary(3, 2)) == "(3,2)"


@pytest.mark.parametrize("k", [True, 1.5, 0.5, 1.0, -1])
def test_derivative_and_truncation_orders_must_be_nonnegative_integers(k):
    # True used to act as 1; 1.5 and 0.5 raised ZeroDivisionError
    d = elementary(5, 3)
    with pytest.raises(ValueError, match="nonnegative integer"):
        d.symbolic_derivative(k)
    with pytest.raises(ValueError, match="nonnegative integer"):
        d.trunc(k)
    assert d.symbolic_derivative(1) == d.trunc(1).translate(0, -1)
