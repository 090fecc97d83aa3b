"""Seeded, stratified inputs for the benchmark workloads.

A workload is a fixed list of strata.  A stratum fixes everything that sets a
query's cost - class shape, size band, rule for k, output format and number
of witness seeds - and the seed only picks the concrete numbers inside it.
A run is a sequence of rounds with one query per stratum slot.  Every seed
therefore yields the same count of queries per stratum, and the cost of a
round barely moves between seeds.

The program sees only what ends up in ``Query.argv``: the characteristic,
k, the format and, for ``verify``, the witness seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, prod

DEFAULT_SEED = 1

WORKLOADS = ("predict-deep", "export-wide", "verify-multilevel", "verify-singlelevel")

# Seconds one round takes on a 2-vCPU Xeon VM.  A timed run of S seconds
# takes round(S / (3 * ROUND_S)) rounds and runs them three times, so the
# count of distinct queries follows --seconds only: the median and the tail
# are the same order statistics of the same strata for every seed and every
# host speed.
ROUND_S = {"predict-deep": 2.0, "export-wide": 2.4, "verify-multilevel": 1.3,
           "verify-singlelevel": 0.8}


@dataclass(frozen=True)
class Query:
    stratum: str
    kind: str                 # "predict" or "verify"
    fmt: str                  # "text", "json" or "dot"
    char: tuple
    k: int
    seeds: tuple = ()         # witness seeds, verify only

    @property
    def argv(self) -> list:
        char = ",".join(map(str, self.char))
        if self.kind == "predict":
            return ["predict", char, "--k", str(self.k), "--format", self.fmt, "--quiet"]
        return ["verify", char, "--k", str(self.k),
                "--seeds", ",".join(map(str, self.seeds)), "--format", self.fmt, "--quiet"]


def char_from_pairs(n_seq, m_seq) -> tuple:
    """Characteristic (b0,...,bh) with b_i = m_i * e_i and e_i = n_{i+1}...n_h.

    Needs n_i >= 2, gcd(m_i, n_i) = 1, m_1 > n_1 and m_i > m_{i-1} n_i, which
    is exactly what makes (b0,...,bh) a characteristic with these pairs.
    """
    h = len(n_seq)
    if h != len(m_seq) or h == 0:
        raise ValueError("need one m per n")
    for i, (n, m) in enumerate(zip(n_seq, m_seq)):
        floor = n if i == 0 else m_seq[i - 1] * n
        if n < 2 or gcd(n, m) != 1 or m <= floor:
            raise ValueError(f"pair {i + 1} = ({m}, {n}) breaks the characteristic rules")
    e = [prod(n_seq[i:]) for i in range(h + 1)]
    return (e[0],) + tuple(m * e[i + 1] for i, m in enumerate(m_seq))


def _coprime_above(rng: random.Random, n: int, lo: int, width: int) -> int:
    """A value in [lo, lo + width) coprime to n.  Callers pass lo = 1 mod n,
    so lo itself qualifies and the search ends."""
    while True:
        m = rng.randrange(lo, lo + width)
        if gcd(m, n) == 1:
            return m


def random_char(rng: random.Random, n_seq, width=None) -> tuple:
    """A class with the given n_1..n_h: m_1 just above n_1 and each later m_i
    just above m_{i-1} n_i, among the next ``width`` integers (default n_i,
    which spans all residues)."""
    m_seq = []
    for n in n_seq:
        floor = m_seq[-1] * n if m_seq else n
        m_seq.append(_coprime_above(rng, n, floor + 1, width or n))
    return char_from_pairs(n_seq, m_seq)


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


def _predict_deep(rng: random.Random) -> list:
    # Cost is one lattice row per unit of the largest n_l, so the size band of
    # that n_l is the stratum; shapes differ in where the deep level sits.
    # Four of every six queries are in the 10^5 band, so the median and the
    # tail both fall well inside it.  Each m_l sits at most 8 above its minimum:
    # then m_l/n_l is just above an integer and the derived diagrams have few
    # parts.  Just below an integer they have about n_l parts - a large
    # output, which is export-wide's dimension, not this workload's.
    out = []
    for levels in (1, 2, 3):
        for band in (10_000, 30_000, 100_000, 100_000, 100_000, 100_000):
            big = rng.randrange(band, band + band // 25)
            n_seq = [rng.choice((2, 3)) for _ in range(levels - 1)]
            n_seq.insert(rng.randrange(levels), big)
            char = random_char(rng, n_seq, width=8)
            k = rng.randint(1, 8)
            out.append(Query(f"deep-h{levels}-n{band}", "predict", "text", char, k))
    return out


def _z_heavy(rng: random.Random, lo: int, hi: int) -> tuple:
    b0 = rng.randrange(lo, hi)
    return (b0, 2 * b0 - 1), 1


def _w_heavy(rng: random.Random, lo: int, hi: int) -> tuple:
    e = rng.randrange(lo, hi)
    return (2 * e, 3 * e, 3 * e + 1), rng.randrange(-(-e // 2), e)


def _export_wide(rng: random.Random) -> list:
    # Z-heavy K(b0, 2b0-1) at k=1 has b0-1 factors; W-heavy K(2e,3e,3e+1) with
    # e/2 <= k < e has about k/2 W-factors.  The export cost grows with the
    # square of the factor count, so each band is a stratum of its own.
    # The counts per round keep the median inside the f128 JSON block and the
    # tail (10 samples above it) inside the f256 block for any plausible
    # number of rounds; the f512 queries carry a third of the time.
    plan = [
        ("w-e256", _w_heavy, 200, 257, {"json": 2, "dot": 2}),
        ("z-f128", _z_heavy, 126, 131, {"json": 8}),
        ("z-f256", _z_heavy, 252, 261, {"json": 3, "dot": 3}),
        ("z-f512", _z_heavy, 504, 513, {"json": 1}),
    ]
    out = []
    for name, shape, lo, hi, copies in plan:
        for fmt, count in copies.items():
            for _ in range(count):
                char, k = shape(rng, lo, hi)
                out.append(Query(f"{name}-{fmt}", "predict", fmt, char, k))
    return out


def _witness_seeds(rng: random.Random, count: int) -> tuple:
    return tuple(rng.sample(range(1, 10_000), count))


def _verify_multilevel(rng: random.Random) -> list:
    # Shapes with 2-4 levels, b0 <= 24 and every n_l <= 9.  For each class a
    # low, a middle and a high order k run, with 2 or 3 witness seeds.
    shapes = [(3, 4), (2, 5), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 3, 3), (2, 2, 5),
              (2, 2, 2, 2)]
    out = []
    for n_seq in shapes:
        char = random_char(rng, list(n_seq))
        b0 = char[0]
        tag = "x".join(map(str, n_seq))
        for rule, lo, hi in (("low", 1, 2), ("mid", 2, b0 // 2), ("high", b0 // 2, b0)):
            k = rng.randrange(lo, max(hi, lo + 1))
            count = 2 if rule == "high" else 3
            out.append(Query(f"ml-{tag}-{rule}", "verify", "json", char, k,
                             _witness_seeds(rng, count)))
    return out


def _verify_singlelevel(rng: random.Random) -> list:
    # One-level K(n, m), n < m < 2n coprime; one k and 2 witness seeds per
    # class.  min_poly costs 2^n; two thirds of the queries are n = 11, so
    # both the median and the tail fall among them.
    plan = [(10, 1), (11, 2)]
    out = []
    for n, copies in plan:
        for _ in range(copies):
            char = (n, _coprime_above(rng, n, n + 1, n))
            k = rng.randrange(1, n)
            out.append(Query(f"sl-n{n}", "verify", "json", char, k, _witness_seeds(rng, 2)))
    return out


_BUILDERS = {
    "predict-deep": _predict_deep,
    "export-wide": _export_wide,
    "verify-multilevel": _verify_multilevel,
    "verify-singlelevel": _verify_singlelevel,
}


def generate(workload: str, seed: int, round_index: int = 0) -> list:
    """Round ``round_index`` of ``workload`` for ``seed``: one query per
    stratum slot, in shuffled order.  Every round draws fresh inputs, so a
    run averages over many draws of each stratum instead of repeating one."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    queries = _BUILDERS[workload](rng)
    rng.shuffle(queries)
    return queries
