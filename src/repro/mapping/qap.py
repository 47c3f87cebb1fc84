"""The quadratic assignment formulation of qubit mapping (Equation 7).

Circuit qubits are *facilities*, hardware qubits are *locations*, the
*flow* between two circuit qubits is their interaction count (number of
two-qubit operators on that pair in one Trotter step), and the *distance*
is the hardware shortest-path hop count.  The objective ::

    min_phi  sum_ij  f_ij * d_{phi(i), phi(j)}

counts (twice) the SWAP-distance work an ideal router would need, so a
good assignment directly reduces inserted SWAPs.  The paper argues this
formulation works *better* for 2-local Hamiltonian simulation than for
generic circuits because any NN operator can be scheduled in any map,
making gate order irrelevant to the objective.

Neighbourhood evaluation runs on one n x m *gain table* (the
delta-table idea of Taillard's robust taboo search, the paper's refs
[52, 53]), :class:`GainTable`: ``G[r, p] = 2 sum_k F[r, k] D[p, a_k]``
is the cost logical ``r`` would contribute from location ``p``.  Every
swap delta and every relocation delta is a few reads of ``G``, and a
move changes ``G`` by one rank-1 outer product, so refreshing the table
after a move is O(n m).  Because both ``flow``
(interaction counts) and ``distance`` (hop counts) are integer-valued,
every float64 sum is a sum of exactly representable integers and
therefore *exact*, independent of summation order -- the table's deltas
are bit-identical to the retained scalar references
(:meth:`QAPInstance.swap_delta_reference`,
:meth:`QAPInstance.relocate_delta_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep


def check_assignment(assignment, n_logical: int,
                     n_physical: int) -> np.ndarray:
    """``assignment`` as an array if it places each of ``n_logical``
    qubits on its own integer location in ``[0, n_physical)``; else
    ValueError.  The one validator of caller-supplied placements."""
    array = np.asarray(assignment)
    if array.shape != (n_logical,) or array.dtype.kind not in "iu":
        raise ValueError(
            f"assignment must hold {n_logical} integer locations, "
            f"got {array.dtype} of shape {array.shape}")
    if array.size and not (0 <= array.min() <= array.max() < n_physical):
        raise ValueError(
            f"assignment locations must lie in [0, {n_physical})")
    if np.unique(array).size != array.size:
        raise ValueError("assignment repeats a location")
    return array


@dataclass
class QAPInstance:
    """Flow/distance matrices for one mapping problem.

    ``flow`` is ``n_logical x n_logical``; ``distance`` is
    ``n_physical x n_physical`` with ``n_physical >= n_logical``.
    An assignment maps logical index ``i`` to ``assignment[i]``.
    """

    flow: np.ndarray
    distance: np.ndarray

    def __post_init__(self) -> None:
        if self.flow.shape[0] != self.flow.shape[1]:
            raise ValueError("flow matrix must be square")
        if self.distance.shape[0] != self.distance.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.flow.shape[0] > self.distance.shape[0]:
            raise ValueError("more logical qubits than physical qubits")
        if not np.allclose(self.flow, self.flow.T):
            raise ValueError("flow matrix must be symmetric")

    @property
    def n_logical(self) -> int:
        return self.flow.shape[0]

    @property
    def n_physical(self) -> int:
        return self.distance.shape[0]

    def cost(self, assignment: np.ndarray) -> float:
        """Objective value of a logical->physical assignment."""
        sub = self.distance[np.ix_(assignment, assignment)]
        return float((self.flow * sub).sum())

    def check_assignment(self, assignment) -> np.ndarray:
        """:func:`check_assignment` against this instance's sizes."""
        return check_assignment(assignment, self.n_logical, self.n_physical)

    # ------------------------------------------------------------------
    # Move deltas
    # ------------------------------------------------------------------
    def swap_delta_reference(self, assignment: np.ndarray,
                             i: int, j: int) -> float:
        """Scalar reference: cost change from swapping the locations of
        logical ``i`` and ``j`` (kept for equivalence tests and the CI
        perf smoke; not used on the compile path)."""
        a, b = assignment[i], assignment[j]
        if a == b:
            return 0.0
        delta = 0.0
        for k in range(self.n_logical):
            if k == i or k == j:
                continue
            c = assignment[k]
            delta += 2 * (self.flow[i, k] - self.flow[j, k]) * (
                self.distance[b, c] - self.distance[a, c]
            )
        return float(delta)

    def relocate_delta_reference(self, assignment: np.ndarray,
                                 i: int, new_loc: int) -> float:
        """Scalar reference: cost change from moving logical ``i`` to the
        free location ``new_loc``."""
        old = assignment[i]
        delta = 0.0
        for k in range(self.n_logical):
            if k == i:
                continue
            c = assignment[k]
            delta += 2 * self.flow[i, k] * (
                self.distance[new_loc, c] - self.distance[old, c]
            )
        return float(delta)

    def swap_delta_matrix(self, assignment: np.ndarray) -> np.ndarray:
        """All swap-move deltas at once: ``delta[i, j]`` is the cost
        change of swapping logical ``i`` and ``j``.

        Symmetric with a zero diagonal; read off a fresh
        :class:`GainTable`.  Exact for integer-valued instances.
        """
        return GainTable(self, np.asarray(assignment)).swap_deltas()


class GainTable:
    """Swap and relocation deltas of one assignment, kept up to date.

    ``gains[r, p] = 2 sum_{k != r} F[r, k] D[p, a_k]`` is the cost that
    logical ``r`` would contribute from location ``p`` (each pair counts
    from both ends, hence the 2).  The flow diagonal is dropped: with a
    zero distance diagonal it adds nothing to the cost, and the move
    deltas exclude it.  For a symmetric distance matrix with a zero
    diagonal (every device's):

    * swapping ``i`` and ``j`` changes the cost by
      ``G[i, a_j] - G[i, a_i] + G[j, a_i] - G[j, a_j]
      + 4 F[i, j] D[a_i, a_j]``;
    * moving ``i`` to a free location ``p`` changes it by
      ``G[i, p] - G[i, a_i]``.

    A move changes only the ``k = i`` (and ``k = j``) summation terms,
    so :meth:`swap` adds ``outer(2 (F[:, i] - F[:, j]), D[a_j] - D[a_i])``
    and :meth:`relocate` adds ``outer(2 F[:, i], D[new] - D[old])``,
    both with the pre-move locations.  On integer-valued instances every
    entry stays an exact integer, so the maintained table equals a
    fresh one bit for bit.

    The table owns ``assignment`` and updates it in place on each move.
    """

    def __init__(self, instance: QAPInstance, assignment: np.ndarray):
        flow = instance.flow
        if np.diagonal(flow).any():
            flow = flow.copy()
            np.fill_diagonal(flow, 0.0)
        self._twice_flow = 2.0 * flow
        self._four_flow = 4.0 * flow
        self.distance = instance.distance
        self.assignment = assignment
        self._logical = np.arange(len(assignment))
        self.gains = self._twice_flow @ self.distance[:, assignment].T

    def swap_deltas(self) -> np.ndarray:
        """``delta[i, j]``: cost change of swapping logical ``i`` and ``j``."""
        a = self.assignment
        at_partners = self.gains.take(a, axis=1)   # G[i, a_j]
        own = at_partners.diagonal()               # G[i, a_i]
        deltas = at_partners + at_partners.T
        deltas -= own[:, None]
        deltas -= own
        deltas += self._four_flow * self.distance.take(a, 0).take(a, 1)
        return deltas

    def relocate_deltas(self) -> np.ndarray:
        """``delta[i, p]``: cost change of moving logical ``i`` to
        location ``p``; meaningful for free locations ``p`` only."""
        own = self.gains[self._logical, self.assignment]
        return self.gains - own[:, None]

    def swap_delta(self, i: int, j: int) -> float:
        """One entry of :meth:`swap_deltas`."""
        a, b = self.assignment[i], self.assignment[j]
        gains = self.gains
        return float(gains[i, b] - gains[i, a] + gains[j, a] - gains[j, b]
                     + self._four_flow[i, j] * self.distance[a, b])

    def swap(self, i: int, j: int) -> None:
        """Swap the locations of logical ``i`` and ``j``."""
        a, b = self.assignment[i], self.assignment[j]
        self.gains += np.multiply.outer(
            self._twice_flow[:, i] - self._twice_flow[:, j],
            self.distance[b] - self.distance[a])
        self.assignment[i], self.assignment[j] = b, a

    def relocate(self, i: int, location: int) -> None:
        """Move logical ``i`` to the free ``location``."""
        old = self.assignment[i]
        self.gains += np.multiply.outer(
            self._twice_flow[:, i],
            self.distance[location] - self.distance[old])
        self.assignment[i] = location


def qap_from_problem(step: TrotterStep, device: Device) -> QAPInstance:
    """Build the QAP instance for a Trotter step on a device."""
    n = step.n_qubits
    if n > device.n_qubits:
        raise ValueError(
            f"problem needs {n} qubits but device has {device.n_qubits}"
        )
    flow = np.zeros((n, n))
    for (u, v), count in step.interaction_counts().items():
        flow[u, v] += count
        flow[v, u] += count
    return QAPInstance(flow, device.distance)


def qap_cost(step: TrotterStep, device: Device,
             assignment: np.ndarray) -> float:
    """Convenience: Equation-7 cost of an assignment."""
    return qap_from_problem(step, device).cost(assignment)
