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
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "derive_stream"]

_SEED_MASK = (1 << 64) - 1


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
