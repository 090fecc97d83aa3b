import random
from fractions import Fraction
from math import gcd

import pytest

from branchpolar.contfrac import expand, from_quotients, to_even_length
from branchpolar.errors import InvalidRange


def test_expand_12_5():
    cf = expand(12, 5)
    assert cf.h == (2, 2, 2)
    assert list(zip(cf.p, cf.q)) == [(2, 1), (5, 2), (12, 5)]


def test_expand_31_4():
    cf = expand(31, 4)
    assert cf.h == (7, 1, 3)
    assert list(zip(cf.p, cf.q)) == [(7, 1), (8, 1), (31, 4)]


def test_expand_31_4_value_and_even_length_of_15_2():
    cf = expand(31, 4)
    assert cf.h == (7, 1, 3)
    assert [f"{p}/{q}" for p, q in zip(cf.p, cf.q)] == ["7/1", "8/1", "31/4"]
    assert cf.value == Fraction(31, 4)
    assert to_even_length(expand(15, 2)).h == (7, 1, 1)


def test_expand_integer():
    cf = expand(9, 1)
    assert cf.h == (9,)
    assert cf.s == 0


def test_expand_rejects_bad_range():
    with pytest.raises(InvalidRange):
        expand(4, 4)
    with pytest.raises(InvalidRange):
        expand(4, 0)
    with pytest.raises(InvalidRange):
        expand(3, 5)


def test_minimal_length_last_quotient():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 200)
        m = n + rng.randint(1, 400)
        cf = expand(m, n)
        if cf.s >= 1:
            assert cf.h[-1] > 1
        assert cf.value == Fraction(m, n)


def test_even_length_identity_when_even():
    assert to_even_length(expand(12, 5)).h == (2, 2, 2)


def test_even_length_rewrite():
    cf = to_even_length(expand(15, 2))
    assert cf.h == (7, 1, 1)
    assert cf.value == Fraction(15, 2)
    # 31/4 = [7,1,3] already has even s; the rewrite applies to odd s only
    assert to_even_length(expand(31, 4)).h == (7, 1, 3)
    odd = expand(7, 5)  # [1,2,2], s = 2
    assert to_even_length(odd) is odd


def test_even_length_refuses_a_last_quotient_of_1():
    with pytest.raises(InvalidRange, match="canonical"):
        to_even_length(from_quotients([2, 1]))


def test_even_length_preserves_value_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 99)
        m = n + rng.randint(1, 300)
        cf = expand(m, n)
        even = to_even_length(cf)
        assert even.s % 2 == 0
        assert even.value == cf.value == Fraction(m, n)


def test_recurrence_determinant_coprimality():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 150)
        m = n + rng.randint(1, 400)
        cf = expand(m, n)
        p = (1,) + cf.p  # prepend p_{-1}, q_{-1}
        q = (0,) + cf.q
        for i in range(1, len(cf.h)):
            assert cf.p[i] == cf.h[i] * cf.p[i - 1] + p[i - 1]
            assert cf.q[i] == cf.h[i] * cf.q[i - 1] + q[i - 1]
        for i in range(len(cf.h)):
            assert cf.p[i] * q[i] - p[i] * cf.q[i] == (-1) ** (i + 1)
            assert gcd(cf.p[i], cf.q[i]) == 1


def test_convergent_interleaving():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 150)
        m = n + rng.randint(1, 400)
        cf = expand(m, n)
        value = Fraction(m, n)
        evens = [Fraction(cf.p[i], cf.q[i]) for i in range(0, cf.s + 1, 2)]
        odds = [Fraction(cf.p[i], cf.q[i]) for i in range(1, cf.s + 1, 2)]
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))
        assert all(v <= value for v in evens)
        assert all(v >= value for v in odds)


def test_from_quotients_validates():
    with pytest.raises(InvalidRange):
        from_quotients([2, 0, 2])
    with pytest.raises(InvalidRange):
        from_quotients([])


def test_quotients_and_ratios_that_are_not_integers_rejected():
    # int() read [2.9, 3] as [2; 3], and expand ran on floats
    for h in ([2.9, 3], [2, 3.0], [True, 2]):
        with pytest.raises(InvalidRange, match="integer"):
            from_quotients(h)
    for m, n in ((31.0, 4), (31, 4.5), (3, True)):
        with pytest.raises(InvalidRange, match="integer"):
            expand(m, n)
    assert from_quotients(iter([7, 1, 3])).h == (7, 1, 3)
