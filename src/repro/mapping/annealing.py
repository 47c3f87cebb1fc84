"""Simulated annealing for the QAP (the paper's suggested alternative,
reference [54]).  Used in the mapping ablation benchmark.

Each candidate move is scored with an O(1) read of the
:class:`~repro.mapping.qap.GainTable` the Tabu search also uses, and an
accepted move costs one rank-1 update."""

from __future__ import annotations

import math

import numpy as np

from repro.mapping.qap import GainTable, QAPInstance
from repro.mapping.tabu import TabuResult


def simulated_annealing(instance: QAPInstance, seed: int = 0,
                        max_iterations: int | None = None,
                        start_temperature: float | None = None,
                        ) -> TabuResult:
    """Minimise the QAP objective by annealing over swap moves."""
    rng = np.random.default_rng(seed)
    n = instance.n_logical
    m = instance.n_physical
    if max_iterations is None:
        max_iterations = max(2000, 200 * n)
    current = np.array(rng.permutation(m)[:n])
    cost = instance.cost(current)
    table = GainTable(instance, current)       # updates current in place
    best, best_cost = current.copy(), cost
    if start_temperature is None:
        start_temperature = max(1.0, instance.flow.sum() / max(1, n))
    for iteration in range(max_iterations):
        temperature = start_temperature * (1 - iteration / max_iterations)
        i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
        delta = table.swap_delta(i, j)
        accept = delta <= 0 or (
            temperature > 1e-12
            and rng.random() < math.exp(-delta / temperature)
        )
        if accept:
            table.swap(i, j)
            cost += delta
            if cost < best_cost - 1e-12:
                best_cost, best = cost, current.copy()
    return TabuResult(best, float(best_cost), max_iterations)
