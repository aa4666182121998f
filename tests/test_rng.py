"""Determinism and independence of the labeled stream derivation, and the
distributions of the draws made from raw words."""

import math
import tracemalloc
from collections import Counter
from itertools import combinations
from statistics import NormalDist

import numpy as np
import pytest

from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem, dumps_instance
from fgcount.rng import RngStream, _distinct_rows, derive_stream
from fgcount.satcount import sample_hash


def test_same_seed_label_identical_bits():
    a = RngStream(12345, b"x").bytes(64)
    b = RngStream(12345, b"x").bytes(64)
    assert a == b


def test_generator_is_fresh_per_call():
    s = RngStream(7, b"halve")
    first = s.generator().integers(0, 2, size=100)
    second = s.generator().integers(0, 2, size=100)
    assert (first == second).all()


def test_distinct_labels_differ():
    m = RngStream(2024)
    a = derive_stream(m, "a").bytes(16)
    b = derive_stream(m, "b").bytes(16)
    assert a != b
    # regression pin: these exact streams feed every seeded experiment
    assert a.hex() == "8b96fff5d561587e949ba0a36755d929"
    assert b.hex() == "49fc764f02eb26026000e21e3c1ac603"


def test_empty_label_is_a_valid_distinct_stream():
    m = RngStream(2024)
    empty = derive_stream(m, "").bytes(16)
    zero = derive_stream(m, "0").bytes(16)
    assert empty != zero
    assert empty.hex() == "474f585900890241095d6ef20fe5331e"


def test_derivation_composes_by_label_path():
    m = RngStream(5)
    ab = derive_stream(derive_stream(m, "a"), "b")
    assert ab.stream_label == b"/a/b"
    assert ab.seed == 5


def test_distinct_seeds_differ():
    assert RngStream(1).bytes(32) != RngStream(2).bytes(32)


def test_fingerprint_stable_and_positive():
    s = derive_stream(RngStream(9), "trial-3")
    assert s.fingerprint() == s.fingerprint()
    assert s.fingerprint() >= 0


def test_streams_feed_numpy_generators():
    gen = RngStream(11).generator()
    x = gen.random(1000)
    assert 0.0 <= x.min() and x.max() <= 1.0
    assert abs(x.mean() - 0.5) < 0.05


@pytest.mark.parametrize("seed", [np.uint64(3), np.int64(3), np.int32(3), np.int64(-3)])
def test_numpy_integer_seed_is_the_stream_of_its_value(seed):
    stream = derive_stream(RngStream(seed, b"x"), "y")
    plain = derive_stream(RngStream(int(seed), b"x"), "y")
    assert type(stream.seed) is int and stream == plain
    assert stream.bytes(32) == plain.bytes(32)
    assert stream.fingerprint() == plain.fingerprint()


def test_non_integer_seed_is_rejected():
    with pytest.raises(TypeError):
        RngStream(3.0)


def test_generate_takes_a_numpy_integer_seed():
    spec = GeneratorSpec(problem=Problem.OV, n=10, d=4, seed=np.uint64(3))
    plain = GeneratorSpec(problem=Problem.OV, n=10, d=4, seed=3)
    assert dumps_instance(generate(spec)) == dumps_instance(generate(plain))


# -- draws from raw words ------------------------------------------------------


def assert_binomial(counts: dict, trials: int, p: dict, alpha: float = 1e-3) -> None:
    """Each ``counts[c]`` lies within the two-sided normal slack of
    Binomial(trials, p[c]), Bonferroni-split so that a uniform source fails
    the whole check with probability about ``alpha``."""
    z = NormalDist().inv_cdf(1 - alpha / (2 * len(p)))
    for cell, q in p.items():
        slack = z * math.sqrt(trials * q * (1 - q))
        assert abs(counts.get(cell, 0) - trials * q) <= slack, (cell, counts.get(cell, 0), trials * q)


def test_distinct_rows_are_uniform_sorted_subsets():
    # ranked keys (4k^2 > n), then indices redrawn on a repeat (4k^2 <= n)
    for n, k, rows, seed in ((8, 3, 20_000, 41), (16, 2, 60_000, 45)):
        drawn = _distinct_rows(RngStream(seed).generator().bit_generator, rows, k, n)
        assert drawn.shape == (rows, k) and drawn.dtype == np.int64
        assert (np.diff(drawn, axis=1) > 0).all() and drawn.min() >= 0 and drawn.max() < n
        subsets = list(combinations(range(n), k))
        counts = Counter(map(tuple, drawn.tolist()))
        assert_binomial(counts, rows, {c: 1 / len(subsets) for c in subsets})


def test_distinct_rows_do_not_depend_on_the_block_size(monkeypatch):
    bits = lambda: RngStream(42).generator().bit_generator
    whole = _distinct_rows(bits(), 50, 2, 7)
    monkeypatch.setattr("fgcount.rng._KEY_BLOCK", 15)  # two rows a block
    assert (_distinct_rows(bits(), 50, 2, 7) == whole).all()
    assert _distinct_rows(bits(), 0, 2, 7).shape == (0, 2)


def test_distinct_rows_from_keys_rank_bounded_blocks():
    # 4k^2 > n: 4096 rows of 4096 keys would be 128 MB ranked at once
    tracemalloc.start()
    try:
        drawn = _distinct_rows(RngStream(50).generator().bit_generator, 4096, 40, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn.shape == (4096, 40) and (np.diff(drawn, axis=1) > 0).all()
    assert peak < 16 * 2**20


def test_distinct_rows_from_indices_follow_their_draw_order():
    # rows*k words in order, word w giving floor(w n / 2^64); then the rows
    # with a repeat, in increasing row order, redrawn from the next words
    n, k, rows = 37, 3, 400
    raw = RngStream(46).generator().bit_generator.random_raw
    expected, redo, redrawn = [None] * rows, list(range(rows)), 0
    while redo:
        words = [int(w) for w in raw(len(redo) * k)]
        for j, i in enumerate(redo):
            expected[i] = sorted(w * n >> 64 for w in words[j * k : (j + 1) * k])
        redo = [i for i in redo if len(set(expected[i])) < k]
        redrawn += len(redo)
    assert redrawn > 0
    drawn = _distinct_rows(RngStream(46).generator().bit_generator, rows, k, n)
    assert drawn.tolist() == expected
    # the 32-bit halves keep floor(w n / 2^64) exact up to n = 2^32
    words = [int(w) for w in RngStream(47).generator().bit_generator.random_raw(50)]
    drawn = _distinct_rows(RngStream(47).generator().bit_generator, 50, 1, 2**32)
    assert drawn.ravel().tolist() == [w >> 32 for w in words]


def test_sample_hash_rows_are_uniform_below_full_support():
    # s < n: a row's mask is its support's variables with coefficient 1, so
    # its size is Binomial(s, 1/2) exactly when the support has s variables
    # and the coefficients are fair, and each variable is in it with
    # probability s/n * 1/2.  Supports from ranked keys, then from indices.
    for s, n, seed in ((3, 8, 43), (2, 16, 48)):
        master = RngStream(seed)
        masks = [mask for i in range(2_000)
                 for mask, _ in sample_hash(s, n, n, derive_stream(master, f"h-{i}")).rows]
        rows = len(masks)
        sizes = Counter(mask.bit_count() for mask in masks)
        assert set(sizes) <= set(range(s + 1))
        assert_binomial(sizes, rows, {c: math.comb(s, c) / 2**s for c in range(s + 1)})
        members = Counter(v for mask in masks for v in range(n) if mask >> v & 1)
        assert_binomial(members, rows, {v: s / n / 2 for v in range(n)})


def test_generated_cnf_clauses_are_uniform():
    # clause variables from ranked keys, then from indices
    k, m = 3, 20_000
    for n, seed in ((8, 44), (64, 49)):
        f = generate(GeneratorSpec(problem=Problem.CNF, n=n, clause_count=m, width_k=k, seed=seed))
        variables = [tuple(abs(lit) for lit in clause) for clause in f.clauses]
        assert len(variables) == m and all(len(set(vs)) == k for vs in variables)
        members = Counter(v for vs in variables for v in vs)
        assert_binomial(members, m, {v: k / n for v in range(1, n + 1)})
        positive = Counter(j for clause in f.clauses for j, lit in enumerate(clause) if lit > 0)
        assert_binomial(positive, m, {j: 1 / 2 for j in range(k)})

