import random
from math import gcd

import pytest

from branchpolar.charclass import new_char_sequence, parse_char, semiroot_degree
from branchpolar.errors import (
    GcdChainViolation,
    IndexOutOfRange,
    InvalidCharacteristic,
    NotStrictlyIncreasing,
    TrailingGcdNotOne,
)
from oracles import bbar_by_sum, grid_classes, random_char_sequence


def test_class_12_16_31():
    cs = new_char_sequence([12, 16, 31])
    assert cs.e == (12, 4, 1)
    assert cs.n_seq == (3, 4)
    assert cs.m_seq == (4, 31)


def test_class_10_14_15():
    cs = new_char_sequence([10, 14, 15])
    assert cs.e == (10, 2, 1)
    assert cs.n_seq == (5, 2)
    assert cs.m_seq == (7, 15)


def test_trailing_gcd_rejected():
    with pytest.raises(TrailingGcdNotOne):
        new_char_sequence([12, 16, 30])


def test_not_strictly_increasing():
    with pytest.raises(NotStrictlyIncreasing):
        new_char_sequence([12, 12, 31])
    with pytest.raises(NotStrictlyIncreasing):
        new_char_sequence([12, 10])


def test_gcd_chain_violation():
    # 8 does not lower gcd(4, .) = 4
    with pytest.raises(GcdChainViolation):
        new_char_sequence([4, 8, 9])


def test_smooth_and_empty_rejected():
    with pytest.raises(InvalidCharacteristic):
        new_char_sequence([1, 3])
    with pytest.raises(InvalidCharacteristic):
        new_char_sequence([])
    # no gcd step at all: the chain ends where it starts
    with pytest.raises(TrailingGcdNotOne) as info:
        new_char_sequence([4])
    assert str(info.value) == "gcd chain of (4,) ends at 4, not 1"


def test_entries_that_are_not_integers_rejected():
    # int() read 12.7 as 12, so [12.7, 16, 31] was K(12,16,31)
    for b in ([12.7, 16, 31], [12, 16.0, 31], [True, 3], [2, "3"]):
        with pytest.raises(InvalidCharacteristic, match="integer"):
            new_char_sequence(b)
    assert new_char_sequence(v for v in (12, 16, 31)).b == (12, 16, 31)


def test_bbar_values():
    cs = new_char_sequence([12, 16, 31])
    assert cs.bbar[0] == 16          # empty sum
    assert cs.bbar[1] == 31 + ((12 - 4) // 4) * 16 == 63
    cs2 = new_char_sequence([10, 14, 15])
    assert cs2.bbar[1] == 15 + ((10 - 2) // 2) * 14 == 71


def test_bbar_recurrence_matches_the_defining_sum():
    # bbar_(l+1) = n_l bbar_l - b_l + b_(l+1) against the sum over the earlier
    # exponents, on random classes of up to b0 = 512 and on the b0 <= 24 grid
    rng = random.Random(11)
    classes = [random_char_sequence(rng, b0_max=512) for _ in range(20000)]
    for cs in classes + list(grid_classes(24)):
        assert cs.bbar == bbar_by_sum(cs), cs.b


def test_semiroot_degree():
    cs = new_char_sequence([12, 16, 31])
    assert semiroot_degree(cs, 1) == 1
    assert semiroot_degree(cs, 2) == 3
    cs2 = new_char_sequence([10, 14, 15])
    assert semiroot_degree(cs2, 2) == 5
    with pytest.raises(IndexOutOfRange):
        semiroot_degree(cs, 3)


def test_derived_identities_random():
    rng = random.Random(7)
    for _ in range(100):
        cs = random_char_sequence(rng)
        for i in range(1, cs.h + 1):
            assert cs.e[i - 1] == cs.n_seq[i - 1] * cs.e[i]
            assert cs.b[i] == cs.m_seq[i - 1] * cs.e[i]
            assert gcd(cs.m_seq[i - 1], cs.n_seq[i - 1]) == 1
            assert cs.m_seq[i - 1] > cs.n_seq[i - 1]
            assert cs.bbar[i - 1] > 0
        # round trip through (e, m)
        rebuilt = [cs.b0] + [m * e for m, e in zip(cs.m_seq, cs.e[1:])]
        assert tuple(rebuilt) == cs.b


def test_parse_char():
    assert parse_char("12,16,31").b == (12, 16, 31)
    with pytest.raises(InvalidCharacteristic):
        parse_char("12,sixteen")
