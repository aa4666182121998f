"""Canonical instance encodings and file round-trips.

JSON for the list/graph problems, DIMACS (with an ``x`` line extension for
XOR rows) for CNF.  Serialization is byte-deterministic for a given
instance so generated files can be compared verbatim.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Union

import numpy as np

from .reductions import NwtInstance, OvInstance, ThreeSumInstance
from .satcount import AugmentedFormula, CnfFormula, parse_dimacs, write_dimacs

__all__ = ["Problem", "ProblemInstance", "problem_kind", "dumps_instance", "loads_instance",
           "save_instance", "load_instance"]


class Problem(Enum):
    THREESUM = "3sum"
    OV = "ov"
    NWT = "nwt"
    CNF = "cnf"


ProblemInstance = Union[ThreeSumInstance, OvInstance, NwtInstance, CnfFormula]


def problem_kind(inst: ProblemInstance) -> Problem:
    if isinstance(inst, ThreeSumInstance):
        return Problem.THREESUM
    if isinstance(inst, OvInstance):
        return Problem.OV
    if isinstance(inst, NwtInstance):
        return Problem.NWT
    if isinstance(inst, (CnfFormula, AugmentedFormula)):
        return Problem.CNF
    raise TypeError(f"not a problem instance: {type(inst)!r}")


def dumps_instance(inst: ProblemInstance) -> str:
    kind = problem_kind(inst)
    if kind is Problem.CNF:
        return write_dimacs(inst)
    if kind is Problem.THREESUM:
        payload = {"A": inst.a.tolist(), "B": inst.b.tolist(), "C": inst.c.tolist()}
    elif kind is Problem.OV:
        payload = {"d": inst.d, "A": inst.a.tolist(), "B": inst.b.tolist()}
    else:
        parts = (inst.part_a, inst.part_b, inst.part_c)
        payload = {"parts": {k: p.tolist() for k, p in zip("ABC", parts)},
                   "edges": inst.edge_list()}
    return json.dumps({"type": kind.value, **payload}) + "\n"


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an integer array; JSON floats, booleans, strings and
    integers beyond 64 bits raise ``ValueError`` instead of being cast."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold 64-bit integers only")
    return arr


def loads_instance(text: str) -> ProblemInstance:
    """Parse an instance file; a malformed one raises ``ValueError``."""
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        aug = parse_dimacs(text)
        # Plain CNFs round-trip as CnfFormula; augmented ones keep their rows.
        return aug.cnf if not aug.xors.rows else aug
    payload = json.loads(text)
    kind = payload.get("type")
    try:
        if kind == "3sum":
            return ThreeSumInstance(*(_integers(payload[k], k) for k in "ABC"))
        if kind == "ov":
            d = payload["d"]
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(f"ov d must be a non-negative integer, got {d!r}")
            a, b = (_integers(payload[k], k) for k in "AB")
            if any(v.ndim == 2 and v.shape[1] != d for v in (a, b)):
                raise ValueError(f"ov vectors must have d = {d} entries")
            # an empty list keeps d as its width, so the file round-trips
            return OvInstance(*(v.reshape(0, d) if v.shape == (0,) else v for v in (a, b)))
        if kind == "nwt":
            parts = payload["parts"]
            edges = _integers(payload["edges"], "edges")
            if edges.size and (edges.ndim != 2 or edges.shape[1] != 3):
                raise ValueError("edges must be [u, v, w] triples")
            return NwtInstance.from_edges(
                tuple(_integers(parts[k], f"part {k}") for k in "ABC"),
                [(int(u), int(v), int(w)) for u, v, w in edges.reshape(-1, 3)],
            )
    except KeyError as exc:
        raise ValueError(f"{kind} instance lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed {kind} instance: {exc}") from exc
    raise ValueError(f"unknown instance type {kind!r}")


def save_instance(inst: ProblemInstance, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_instance(inst))


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    return loads_instance(Path(path).read_text())
