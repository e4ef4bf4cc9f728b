"""Reference implementations the production code is checked against.

Each module states one concept the slow, obvious way — Python loops, one
world or one candidate at a time, everything recomputed from scratch — so
the equivalence tests (and the perf benchmarks' slow baselines) have a
ground truth that shares no machinery with the fast path:

* :mod:`oracles.kernels` — the ``repro.kernels`` functions as scalar loops;
* :mod:`oracles.objectives` — expected variance, surprise probability and
  entropy by per-world enumeration;
* :mod:`oracles.knapsack` — the knapsack dynamic programs with per-capacity
  Python loops;
* :mod:`oracles.policies` — Algorithm 1 as a per-candidate loop
  (``greedy_reference``), and GreedyDep, GreedyMaxPr, AdaptiveDep and
  AdaptiveMaxPr with every candidate re-scored from scratch each step;
* :mod:`oracles.sweeps` — the budget sweep as one independent solve per
  budget.
"""
