"""Instance generation: exact plants, determinism, infeasibility."""

import numpy as np
import pytest

from fgcount.exact import exact_count
from fgcount.generators import GeneratorSpec, InfeasiblePlant, generate
from fgcount.instances import Problem, dumps_instance
from fgcount.reductions import (
    count_3sum_exact,
    count_nwt_exact,
    count_ov_exact,
    decide_3sum,
    decide_nwt,
    decide_ov,
)


def test_planted_3sum_counts_verify():
    for n, k in ((30, 5), (30, 0), (90, 40), (300, 777), (600, 4000)):
        inst = generate(GeneratorSpec(problem=Problem.THREESUM, n=n, planted_count=k, seed=n + k))
        assert count_3sum_exact(inst) == k


def test_planted_3sum_small_example_through_exact_oracle():
    inst = generate(GeneratorSpec(problem=Problem.THREESUM, n=30, planted_count=5, seed=1))
    assert exact_count(inst) == 5


def test_planted_zero_means_decision_false():
    inst = generate(GeneratorSpec(problem=Problem.THREESUM, n=60, planted_count=0, seed=2))
    assert decide_3sum(inst) is False
    ov = generate(GeneratorSpec(problem=Problem.OV, n=40, d=16, planted_count=0, seed=3))
    assert decide_ov(ov) is False
    nwt = generate(GeneratorSpec(problem=Problem.NWT, n=30, planted_count=0, seed=4))
    assert decide_nwt(nwt) is False


def test_planted_ov_counts_verify():
    for k in (0, 1, 7, 15):
        inst = generate(GeneratorSpec(problem=Problem.OV, n=64, d=32, planted_count=k, seed=k))
        assert count_ov_exact(inst) == k


def test_planted_nwt_counts_verify():
    for k in (0, 1, 5, 9):
        inst = generate(GeneratorSpec(problem=Problem.NWT, n=30, planted_count=k, seed=k))
        assert count_nwt_exact(inst) == k


def test_generation_is_deterministic_in_spec():
    for spec in (
        GeneratorSpec(problem=Problem.THREESUM, n=45, planted_count=6, seed=9),
        GeneratorSpec(problem=Problem.OV, n=30, d=16, seed=9),
        GeneratorSpec(problem=Problem.NWT, n=24, seed=9, density=0.5),
        GeneratorSpec(problem=Problem.CNF, n=12, clause_count=30, seed=9),
    ):
        assert dumps_instance(generate(spec)) == dumps_instance(generate(spec))


def test_different_seeds_differ():
    a = generate(GeneratorSpec(problem=Problem.OV, n=30, d=16, seed=1))
    b = generate(GeneratorSpec(problem=Problem.OV, n=30, d=16, seed=2))
    assert dumps_instance(a) != dumps_instance(b)


def test_infeasible_plants_rejected():
    with pytest.raises(InfeasiblePlant):
        generate(GeneratorSpec(problem=Problem.OV, n=8, d=4, planted_count=50, seed=1))
    with pytest.raises(InfeasiblePlant):
        generate(GeneratorSpec(problem=Problem.NWT, n=9, planted_count=10, seed=1))
    with pytest.raises(InfeasiblePlant):
        generate(GeneratorSpec(problem=Problem.THREESUM, n=9, planted_count=10**6, seed=1))
    with pytest.raises(InfeasiblePlant):
        generate(GeneratorSpec(problem=Problem.CNF, n=10, planted_count=3, seed=1))


def test_cnf_generator_shape():
    f = generate(GeneratorSpec(problem=Problem.CNF, n=14, clause_count=50, width_k=3, seed=5))
    assert f.n_vars == 14
    assert len(f.clauses) == 50
    assert all(len(c) == 3 for c in f.clauses)
    assert all(len({abs(l) for l in c}) == 3 for c in f.clauses)


def test_nwt_parts_override():
    inst = generate(
        GeneratorSpec(problem=Problem.NWT, n=40, parts=(20, 10, 10), seed=6, density=0.5)
    )
    assert inst.part_a.size == 20
    assert inst.part_b.size == 10
    assert inst.part_c.size == 10


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(problem=Problem.OV, n=0)
    with pytest.raises(ValueError):
        GeneratorSpec(problem=Problem.OV, n=10, planted_count=-1)
    # the smallest valid bounds are the bounds of what is generated
    three_sum = generate(GeneratorSpec(problem=Problem.THREESUM, n=9, value_bound=5, seed=1))
    assert max(np.abs(v).max() for v in (three_sum.a, three_sum.b, three_sum.c)) <= 5
    nwt = generate(GeneratorSpec(problem=Problem.NWT, n=30, density=0.5, weight_bound=1, seed=1))
    assert np.abs(nwt.weights[nwt.adjacency]).max() == 1


@pytest.mark.parametrize("field, value", [
    ("d", -3),
    ("density", -0.1),
    ("density", 2.0),
    ("density", float("nan")),
    ("clause_count", -3),
    ("width_k", 0),
    ("value_bound", -5),
    ("value_bound", 0),
    ("weight_bound", -1),
    ("weight_bound", 0),
])
def test_spec_rejects_out_of_range_fields_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        GeneratorSpec(problem=Problem.CNF, n=5, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("problem", "ov"),
    ("n", 10.5),
    ("seed", "x"),
    ("planted_count", True),
    ("d", 3.5),
    ("density", "x"),
    ("density", True),
    ("value_bound", 2.0),
    ("clause_count", 2.5),
    ("width_k", 2.5),
    ("parts", (2, 3)),
    ("parts", (-1, 3, 3)),
    ("parts", (1.0, 2, 2)),
    ("parts", [1, 2, 2]),
])
def test_spec_rejects_mistyped_fields_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        GeneratorSpec(**{"problem": Problem.NWT, "n": 5, field: value})


def test_spec_takes_numpy_integers():
    spec = GeneratorSpec(problem=Problem.OV, n=np.int64(10), d=np.int32(4), seed=3)
    plain = GeneratorSpec(problem=Problem.OV, n=10, d=4, seed=3)
    assert dumps_instance(generate(spec)) == dumps_instance(generate(plain))
