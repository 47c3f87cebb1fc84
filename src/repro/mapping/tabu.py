"""Tabu search for the QAP (the paper's mapping heuristic, refs [52, 53]).

Standard recency-based Tabu search over the swap neighbourhood:

* a move swaps the physical locations of two logical qubits (when the
  device has spare qubits, a move may also relocate one logical qubit to
  a free physical qubit);
* after a move, re-assigning qubit ``i`` to its old location is tabu for
  ``tenure`` iterations;
* the aspiration criterion admits tabu moves that beat the incumbent.

Both neighbourhoods are read off one n x m gain table
(:class:`~repro.mapping.qap.GainTable`) that each move refreshes with a
rank-1 update, so an iteration costs O(n m) array work with no index
gathers beyond the current assignment's columns.  Tabu/aspiration
filtering is a boolean mask and best-move selection a masked argmin
that scans the strict upper triangle in the same ``(i, j)`` order as
the old scalar loops (relocations in ``(i, location)`` order), so for
integer-valued instances (interaction-count flows, hop-count distances)
the search trajectory -- and therefore the returned assignment and
cost -- is bit-identical to the scalar search, only faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapping.qap import GainTable, QAPInstance


@dataclass
class TabuResult:
    """Best assignment found and its objective value.

    ``iterations`` counts the search iterations actually performed --
    fewer than ``max_iterations`` when the neighbourhood is exhausted
    (every move tabu with no aspiration) and the search stops early.
    """

    assignment: np.ndarray
    cost: float
    iterations: int


def tabu_search(instance: QAPInstance, seed: int = 0,
                max_iterations: int | None = None,
                tenure: int | None = None,
                initial: np.ndarray | None = None) -> TabuResult:
    """Minimise the QAP objective; returns the best assignment found."""
    rng = np.random.default_rng(seed)
    n = instance.n_logical
    m = instance.n_physical
    if max_iterations is None:
        max_iterations = max(200, 20 * n)
    if tenure is None:
        tenure = max(5, n // 2)

    if initial is None:
        current = np.array(rng.permutation(m)[:n])
    else:
        current = np.array(instance.check_assignment(initial), dtype=int)
    cost = instance.cost(current)
    best = current.copy()
    best_cost = cost

    # tabu[i, loc] = iteration until which assigning logical i to physical
    # loc is forbidden.
    tabu = np.zeros((n, m), dtype=int)
    table = GainTable(instance, current)       # updates current in place
    occupied = np.zeros(m, dtype=bool)
    occupied[current] = True
    not_upper = np.tril(np.ones((n, n), dtype=bool))

    performed = max_iterations
    for iteration in range(max_iterations):
        # swap moves between logical qubits: mask out the lower triangle
        # plus tabu moves that fail aspiration (would not beat the
        # incumbent), then take the first strict minimum in (i, j)
        # lexicographic order (argmin returns the first occurrence,
        # matching the old scalar scan)
        deltas = table.swap_deltas()
        tabu_hit = tabu.take(current, axis=1) > iteration
        blocked = (tabu_hit | tabu_hit.T) & (cost + deltas >= best_cost)
        blocked |= not_upper
        candidates = np.where(blocked, np.inf, deltas)
        flat = int(candidates.argmin())
        best_delta = candidates.flat[flat]
        best_move = None
        if best_delta < np.inf:
            best_move = ("swap", flat // n, flat % n)
        # relocation moves to free physical qubits (devices larger than
        # the problem), scanned in (i, location) order; a relocation
        # wins only on a strictly smaller delta, as in the scalar scan
        # order (swaps probed first)
        if m > n:
            relocations = table.relocate_deltas()
            reloc_blocked = (tabu > iteration) & (
                cost + relocations >= best_cost)
            reloc_blocked |= occupied
            reloc_candidates = np.where(reloc_blocked, np.inf, relocations)
            reloc_flat = int(reloc_candidates.argmin())
            reloc_delta = reloc_candidates.flat[reloc_flat]
            if reloc_delta < best_delta:
                best_delta = reloc_delta
                best_move = ("move", reloc_flat // m, reloc_flat % m)
        if best_move is None:
            performed = iteration + 1
            break
        if best_move[0] == "swap":
            _, i, j = best_move
            tabu[i, current[i]] = iteration + tenure
            tabu[j, current[j]] = iteration + tenure
            table.swap(i, j)
        else:
            _, i, loc = best_move
            tabu[i, current[i]] = iteration + tenure
            occupied[current[i]] = False
            occupied[loc] = True
            table.relocate(i, loc)
        cost += float(best_delta)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = current.copy()
        # occasional diversification when stuck at zero-delta plateaus
        if best_delta >= 0 and iteration % (4 * tenure) == 4 * tenure - 1:
            i, j = rng.choice(n, size=2, replace=False)
            i, j = int(i), int(j)
            cost += table.swap_delta(i, j)
            table.swap(i, j)
    return TabuResult(best, float(best_cost), performed)
