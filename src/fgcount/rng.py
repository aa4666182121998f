"""Deterministic, splittable randomness.

Every randomized routine in this package takes an explicit stream handle so a
whole run (instance generation, all trials, all halvings) replays bit-for-bit
from one master seed.  A stream is an immutable (seed, label) pair; child
streams are derived by extending the label, and the actual bit source is a
fresh PCG64 generator keyed by a hash of the pair.  Two consequences worth
knowing:

* ``stream.generator()`` returns a *fresh* generator every time, so calling a
  routine twice with the same stream gives the same output.  Routines that
  need several independent draws derive labeled sub-streams instead of
  sharing one generator.
* labels are plain byte strings; distinct labels give statistically
  independent streams (they key a BLAKE2 hash of the label).

The XOR hashes and the CNF generator read the bit generator's raw 64-bit
words (``_raw_bits``, ``_distinct_rows``) rather than ``Generator``
methods: NEP 19 keeps a seeded bit generator's raw stream fixed across numpy
releases, but lets the methods change how they turn it into values.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "derive_stream"]

_SEED_MASK = (1 << 64) - 1
# Raw keys ranked per block of rows in _distinct_rows: 2 MB of uint64.
_KEY_BLOCK = 1 << 18


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for a deterministic random bit stream."""

    seed: int
    stream_label: bytes = b""

    def __post_init__(self) -> None:
        if type(self.seed) is not int:  # a numpy integer keys the same stream as its value
            object.__setattr__(self, "seed", operator.index(self.seed))
        if not isinstance(self.stream_label, bytes):
            object.__setattr__(self, "stream_label", bytes(self.stream_label))

    def _digest(self) -> bytes:
        key = (self.seed & _SEED_MASK).to_bytes(8, "little")
        return hashlib.blake2b(self.stream_label, key=key, digest_size=16).digest()

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream (same stream, same bits)."""
        entropy = int.from_bytes(self._digest(), "little")
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def fingerprint(self) -> int:
        """Stable 63-bit identifier of this stream, for logs and CSV output."""
        return int.from_bytes(self._digest()[:8], "little") >> 1

    def bytes(self, n: int) -> bytes:
        """First ``n`` bytes of the stream (regression-pin friendly)."""
        return self.generator().bytes(n)


def derive_stream(master: RngStream, label: bytes | str) -> RngStream:
    """Child stream of ``master`` under ``label``.

    Deterministic in (master.seed, master.stream_label, label); distinct
    labels yield distinct, independent streams.
    """
    if isinstance(label, str):
        label = label.encode("utf-8")
    return RngStream(master.seed, master.stream_label + b"/" + label)


def _raw_bits(source: np.random.BitGenerator, count: int) -> np.ndarray:
    """``count`` uniform bits (uint8 0/1) from the next ceil(count/64) raw words.

    Bit i is bit i % 64 of word i // 64, least significant first.
    """
    words = source.random_raw(-(-count // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=count, bitorder="little")


def _distinct_rows(source: np.random.BitGenerator, rows: int, k: int, n: int) -> np.ndarray:
    """A (rows, k) int64 array whose rows are independent uniform k-subsets
    of range(n), each in increasing order.

    When 4k^2 <= n, a row is drawn as k indices, raw word w giving
    floor(w * n / 2^64), and drawn again from the next raw words while two
    of them coincide (``_index_rows``): at most k(k-1)/2n <= 1/8 of the rows
    repeat, so a row reads about k words.  Otherwise row i reads raw words
    i*n .. i*n + n - 1 as keys for 0 .. n-1 and keeps the k variables with
    the smallest keys, ranked in blocks of at most ``_KEY_BLOCK`` keys,
    which bounds the memory and does not change the result.  The only
    biases, unequal index weights and equal keys, are below n^2 / 2^64 a row.
    """
    if 4 * k * k <= n:
        return _index_rows(source, rows, k, n)
    out = np.empty((rows, k), dtype=np.int64)
    step = max(1, _KEY_BLOCK // n)
    for lo in range(0, rows, step):
        keys = source.random_raw(min(step, rows - lo) * n).reshape(-1, n)
        out[lo : lo + step] = np.sort(keys.argpartition(k - 1, axis=1)[:, :k], axis=1)
    return out


def _index_rows(source: np.random.BitGenerator, rows: int, k: int, n: int) -> np.ndarray:
    """``_distinct_rows`` for 4k^2 <= n: rows*k raw words make the rows, in
    order; then the rows holding a repeated index, in increasing row order,
    take the next words, until none repeats."""
    out = np.sort(_indices(source, rows * k, n).reshape(rows, k), axis=1)
    redo = np.flatnonzero((np.diff(out, axis=1) == 0).any(axis=1))
    while redo.size:
        out[redo] = np.sort(_indices(source, redo.size * k, n).reshape(-1, k), axis=1)
        redo = redo[(np.diff(out[redo], axis=1) == 0).any(axis=1)]
    return out


def _indices(source: np.random.BitGenerator, count: int, n: int) -> np.ndarray:
    """floor(w * n / 2^64) for the next ``count`` raw words w (n <= 2^32),
    multiplied in 32-bit halves so that uint64 does not overflow."""
    words = source.random_raw(count)
    high, low = words >> np.uint64(32), words & np.uint64(0xFFFFFFFF)
    n64 = np.uint64(n)
    return ((high * n64 + (low * n64 >> np.uint64(32))) >> np.uint64(32)).astype(np.int64)
