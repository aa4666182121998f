"""Instance file encodings round-trip and stay byte-deterministic."""

import numpy as np
import pytest

from fgcount.exact import exact_count
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import (
    Problem,
    dumps_instance,
    loads_instance,
    load_instance,
    problem_kind,
    save_instance,
)
from fgcount.reductions import NwtInstance, OvInstance, ThreeSumInstance
from fgcount.satcount import CapExceeded, CnfFormula


def test_3sum_json_round_trip(tmp_path):
    inst = ThreeSumInstance([1, -2], [3], [4, 0])
    path = tmp_path / "i.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert problem_kind(back) is Problem.THREESUM
    np.testing.assert_array_equal(back.a, inst.a)
    np.testing.assert_array_equal(back.b, inst.b)
    np.testing.assert_array_equal(back.c, inst.c)


def test_ov_json_round_trip():
    inst = OvInstance([[1, 0, 1]], [[0, 1, 1], [1, 1, 0]])
    back = loads_instance(dumps_instance(inst))
    assert back.d == 3
    np.testing.assert_array_equal(back.a, inst.a)
    np.testing.assert_array_equal(back.b, inst.b)


def test_ov_without_vectors_keeps_its_dimension():
    text = '{"type": "ov", "d": 5, "A": [], "B": []}\n'
    back = loads_instance(text)
    assert back.d == 5 and back.n == 0
    assert dumps_instance(back) == text


def test_nwt_json_round_trip():
    inst = NwtInstance.from_edges(([0], [1], [2]), [(0, 1, -5), (1, 2, 3)], n_vertices=3)
    back = loads_instance(dumps_instance(inst))
    assert problem_kind(back) is Problem.NWT
    assert back.edge_list() == inst.edge_list()


def test_cnf_dimacs_round_trip():
    f = CnfFormula(4, 3, ((1, -3), (2, 4, -1)))
    back = loads_instance(dumps_instance(f))
    assert isinstance(back, CnfFormula)
    assert back.clauses == f.clauses


def test_serialization_is_byte_stable():
    inst = generate(GeneratorSpec(problem=Problem.NWT, n=21, seed=5, density=0.4))
    assert dumps_instance(inst) == dumps_instance(inst)


@pytest.mark.parametrize("inst, text", [
    (ThreeSumInstance([1, -2], [3], [4, 0]),
     '{"type": "3sum", "A": [1, -2], "B": [3], "C": [4, 0]}\n'),
    (OvInstance([[1, 0, 1]], [[0, 1, 1], [1, 1, 0]]),
     '{"type": "ov", "d": 3, "A": [[1, 0, 1]], "B": [[0, 1, 1], [1, 1, 0]]}\n'),
    (NwtInstance.from_edges(([0], [1], [2]), [(0, 1, -5), (1, 2, 3)], n_vertices=3),
     '{"type": "nwt", "parts": {"A": [0], "B": [1], "C": [2]}, '
     '"edges": [[0, 1, -5], [1, 2, 3]]}\n'),
    (NwtInstance.from_edges(([], [], []), []),
     '{"type": "nwt", "parts": {"A": [], "B": [], "C": []}, "edges": []}\n'),
], ids=["3sum", "ov", "nwt", "nwt-empty"])
def test_instance_file_bytes_are_pinned(inst, text):
    assert dumps_instance(inst) == text


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        loads_instance('{"type": "mystery"}')


# -- exact_count caps ---------------------------------------------------------


def test_exact_count_basics():
    assert exact_count(ThreeSumInstance([], [], [])) == 0
    assert exact_count(ThreeSumInstance([0, 0], [0, 0], [0])) == 4
    assert exact_count(CnfFormula(2, 2, ((1, 2),))) == 3
    assert exact_count(OvInstance([[0, 1]], [[1, 0]])) == 1


def test_exact_count_caps():
    big = ThreeSumInstance(
        np.zeros(200, dtype=np.int64), np.zeros(200, dtype=np.int64),
        np.zeros(200, dtype=np.int64),
    )
    with pytest.raises(CapExceeded):
        exact_count(big)
    with pytest.raises(CapExceeded):
        exact_count(CnfFormula(30, 3, ()))
    with pytest.raises(CapExceeded):
        exact_count(OvInstance(np.zeros((9000, 4), np.uint8), np.zeros((9000, 4), np.uint8)))


def test_exact_count_nwt_cap_is_work_based():
    # 1000 x 32 x 32 triangle scans are fine; 400^3-equivalent work is the cap
    parts = (np.arange(64), np.arange(64, 64 + 400), np.arange(464, 464 + 400))
    inst = NwtInstance.from_edges(parts, [], n_vertices=864)
    assert exact_count(inst) == 0  # 64*400*400 = 10.2M <= 400^3
    parts = (np.arange(500), np.arange(500, 1000), np.arange(1000, 1500))
    big = NwtInstance.from_edges(parts, [], n_vertices=1500)
    with pytest.raises(CapExceeded):
        exact_count(big)
