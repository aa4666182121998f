"""fgcount: approximate counting through decision oracles.

The package re-exports nothing; import the module that holds a name.  Each
module's ``__all__`` is its public surface:

* ``oracles``: ``BipartiteOracles``, the independence and adjacency queries
  on a hidden bipartite graph, and majority amplification of a randomized
  decider;
* ``edgecount``: the edge estimator ``edge_count`` on those oracles, with
  its steps ``find_core`` and ``halve``;
* ``satcount``: the approximate #CNF-SAT counter built on sparse XOR hashing
  and a satisfiability oracle, and DIMACS input/output;
* ``reductions``: the #3SUM / #OV / #NWT counters instantiating the edge
  estimator, their baseline deciders and exact counters, and the
  negative-triangle-to-APSP reduction;
* ``instances`` (file formats), ``exact`` (ground-truth counts),
  ``generators`` (seeded instances), ``synthetic`` (explicit bipartite
  graphs), ``rng`` (splittable random streams), ``experiments`` (seeded
  trials as CSV) and ``cli`` (the ``fgcount`` command).
"""

__version__ = "0.1.0"
