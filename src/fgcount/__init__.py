"""fgcount: approximate counting through decision oracles.

Three layers:

* a generic estimator for the number of edges of a hidden bipartite graph,
  driven by independence and adjacency queries (``edgecount``);
* an approximate #CNF-SAT counter built on sparse XOR hashing and a
  satisfiability oracle (``satcount``);
* concrete #3SUM / #OV / #NWT counters instantiating the edge estimator,
  with baseline deciders and a negative-triangle-to-APSP reduction
  (``reductions``);

plus seeded generators, exact brute-force oracles, an experiment harness,
and the ``fgcount`` CLI.
"""

from .rng import RngStream, derive_stream
from .oracles import (
    BipartiteOracles,
    amplify,
    amplified_independence,
    edge_set_oracles,
    matrix_oracles,
    repetitions_for,
)
from .edgecount import (
    Core,
    CoreClass,
    CoreParams,
    DegreeSketch,
    EdgeCountConfig,
    EdgeCountStats,
    ExactCount,
    FindCoreOutcome,
    IterationBudgetExceeded,
    classify_core,
    edge_count,
    find_core,
    halve,
)
from .satcount import (
    AugmentedFormula,
    CapExceeded,
    CnfFormula,
    Count,
    EnumerationDecider,
    FAIL,
    SatSolveConfig,
    SatSolveParams,
    SparseXorSystem,
    XorRow,
    approx_count_cnf,
    augment,
    brute_force_count,
    conjoin,
    decide_pi_ks,
    parse_dimacs,
    sample_hash,
    sat_solve,
    solution_codes,
    sparse_count,
    write_dimacs,
)
from .reductions import (
    ApspMatrix,
    CountStats,
    LayeredDigraph,
    NwtInstance,
    OvInstance,
    ThreeSumInstance,
    count_3sum,
    count_3sum_exact,
    count_nwt,
    count_nwt_exact,
    count_ov,
    count_ov_exact,
    decide_3sum,
    decide_nwt,
    decide_nwt_via_apsp,
    decide_ov,
    floyd_warshall,
    nwt_oracles,
    nwt_to_apsp,
    ov_oracles,
    sub_nwt_instance,
    three_sum_oracles,
)
from .instances import (
    Problem,
    ProblemInstance,
    load_instance,
    loads_instance,
    dumps_instance,
    problem_kind,
    save_instance,
)
from .exact import exact_count
from .generators import GeneratorSpec, InfeasiblePlant, generate
from .experiments import (
    ExperimentConfig,
    Outcome,
    TrialRecord,
    bipartite_counter,
    instance_counter,
    records_to_csv,
    run_experiment,
    run_trials,
    scaling_probe,
    strip_timing,
    success_fraction,
)

__version__ = "0.1.0"
