"""Span accounting for the traced benchmark run.

A ``Tracer`` wraps library entry points from the outside.  Each wrapped call
is one span: its duration is added to the span name's inclusive total, and to
the enclosing span's child time, so that a span's self time is its duration
minus the part covered by spans nested inside it.  Spans are aggregated per
name as they close (one tracer per count), which is all the per-layer
metrics need.

Only seams whose default is the same code are used: wrappers on one
``BipartiteOracles`` instance, the ``find_core_impl`` / ``halve_impl`` and
``decision`` / ``oracle`` arguments, and, for the duration of one traced
count, the module attributes ``satcount.sparse_count`` / ``sample_hash`` /
``conjoin`` and the class attribute ``RngStream.generator``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from fgcount import satcount
from fgcount.rng import RngStream

_ORACLE_METHODS = {
    "independence_query": "oracles.independence",
    "adjacency_query": "oracles.adjacency",
    "adjacency_row": "oracles.adjacency",
    "adjacency_block": "oracles.adjacency",
}

_SATCOUNT_FUNCTIONS = ("sparse_count", "sample_hash", "conjoin")


class Tracer:
    """Per-name span totals: calls, inclusive seconds and self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.hash_rows: list[int] = []  # row count of every sampled hash
        self._child_s: list[float] = []  # one accumulator per open span

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._child_s.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - child
                if self._child_s:
                    self._child_s[-1] += duration

        return traced

    def wrap_oracles(self, oracles) -> None:
        """Trace the query entry points of one ``BipartiteOracles`` object.

        Instance attributes shadow the class's methods, so the library's own
        internal calls (``count_edges_incident`` -> ``adjacency_block``) go
        through the wrappers too.
        """
        for method, name in _ORACLE_METHODS.items():
            setattr(oracles, method, self.wrap(name, getattr(oracles, method)))

    @contextlib.contextmanager
    def patched(self):
        """Trace the hashing stage and RNG construction for one count.

        Edge-estimator counts call none of the ``satcount`` functions, so
        patching them there records nothing and costs nothing.
        """
        originals = {attr: getattr(satcount, attr) for attr in _SATCOUNT_FUNCTIONS}
        generator = RngStream.__dict__["generator"]

        def sample_hash(s, m, n, rng):
            self.hash_rows.append(m)
            return originals["sample_hash"](s, m, n, rng)

        try:
            for attr in _SATCOUNT_FUNCTIONS:
                fn = sample_hash if attr == "sample_hash" else originals[attr]
                setattr(satcount, attr, self.wrap(f"satcount.{attr}", fn))
            RngStream.generator = self.wrap("rng.generator", generator)
            yield self
        finally:
            RngStream.generator = generator
            for attr, fn in originals.items():
                setattr(satcount, attr, fn)
