"""Determinism and independence of the labeled stream derivation."""

import numpy as np
import pytest

from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem, dumps_instance
from fgcount.rng import RngStream, derive_stream


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
