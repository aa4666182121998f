"""Ground-truth witness counting by full enumeration.

These are the reference oracles the statistical tests compare against.
Caps bound the enumeration cost (the 3SUM/NWT caps are expressed as the
work of a cubic scan at 400 elements; OV caps the instance size) and raise
``satcount.CapExceeded`` rather than silently grinding.  A CNF is counted
by ``brute_force_count`` under its own cap of 26 free variables, the one
``approx_count_cnf``'s brute-force branch uses too; its docstring gives
the enumeration timings.
"""

from __future__ import annotations

from .instances import Problem, ProblemInstance, problem_kind
from .reductions import count_3sum_exact, count_nwt_exact, count_ov_exact
from .satcount import CapExceeded, CnfFormula, augment, brute_force_count

__all__ = ["exact_count"]

CUBIC_WORK_CAP = 400**3  # enumeration work equivalent to a cubic scan at n=400
OV_SIZE_CAP = 8192


def exact_count(inst: ProblemInstance) -> int:
    """Exact witness count by full enumeration (within per-problem caps)."""
    kind = problem_kind(inst)
    if kind is Problem.THREESUM:
        if inst.n**3 > CUBIC_WORK_CAP:
            raise CapExceeded(f"3SUM instance of size {inst.n} exceeds the cubic cap")
        return count_3sum_exact(inst)
    if kind is Problem.OV:
        if inst.n > OV_SIZE_CAP:
            raise CapExceeded(f"OV instance of size {inst.n} exceeds the cap {OV_SIZE_CAP}")
        return count_ov_exact(inst)
    if kind is Problem.NWT:
        work = int(inst.part_a.size) * int(inst.part_b.size) * int(inst.part_c.size)
        if work > CUBIC_WORK_CAP:
            raise CapExceeded(f"NWT triangle scan of {work} steps exceeds the cubic cap")
        return count_nwt_exact(inst)
    if isinstance(inst, CnfFormula):
        inst = augment(inst)
    return brute_force_count(inst)
