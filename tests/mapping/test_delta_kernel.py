"""Equivalence tests for the QAP gain table and its move deltas.

Every vectorized entry point (`swap_delta_matrix`, the `GainTable`'s
swap and relocation deltas, its single-move `swap_delta` and its
rank-1 updates after a move) is pinned *bit-for-bit* (`==`, not
`isclose`) against the retained scalar reference implementations on
randomized integer-valued instances: the flows and distances are
integers, so every float64 sum is exact and the vectorized evaluation
order cannot change a single bit.  Covered shapes: square instances (no
spare locations), spare-qubit devices, zero-flow rows (isolated qubits)
and a non-zero flow diagonal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.qap import GainTable, QAPInstance


def random_instance(seed: int) -> tuple[QAPInstance, np.ndarray, np.ndarray]:
    """A random integer-valued instance, its assignment and free list.

    Every third seed makes the instance square (``m == n``, no free
    locations); every fifth zeroes one flow row/column (an isolated
    qubit).  Distances are symmetric positive integers with a zero
    diagonal -- the kernel needs no triangle inequality.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = n if seed % 3 == 0 else n + int(rng.integers(1, 6))
    flow = rng.integers(0, 7, size=(n, n)).astype(float)
    flow = flow + flow.T
    np.fill_diagonal(flow, 0.0)
    if seed % 5 == 0:
        isolated = int(rng.integers(n))
        flow[isolated, :] = 0.0
        flow[:, isolated] = 0.0
    distance = rng.integers(1, 10, size=(m, m)).astype(float)
    distance = distance + distance.T
    np.fill_diagonal(distance, 0.0)
    instance = QAPInstance(flow, distance)
    assignment = np.array(rng.permutation(m)[:n])
    free = np.array(sorted(set(range(m)) - set(assignment.tolist())),
                    dtype=int)
    return instance, assignment, free


class TestSwapDeltas:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_scalar_reference(self, seed):
        instance, assignment, _ = random_instance(seed)
        n = instance.n_logical
        matrix = instance.swap_delta_matrix(assignment)
        for i in range(n):
            assert matrix[i, i] == 0.0
            for j in range(n):
                if i == j:
                    continue
                reference = instance.swap_delta_reference(assignment, i, j)
                assert matrix[i, j] == reference      # bit-for-bit

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_single_probe_matches_scalar_reference(self, seed):
        instance, assignment, _ = random_instance(seed)
        n = instance.n_logical
        rng = np.random.default_rng(seed + 1)
        i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
        assert GainTable(instance, assignment).swap_delta(i, j) == \
            instance.swap_delta_reference(assignment, i, j)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_table_entry_matches_matrix(self, seed):
        instance, assignment, _ = random_instance(seed)
        matrix = instance.swap_delta_matrix(assignment)
        table = GainTable(instance, assignment)
        for i in range(instance.n_logical):
            for j in range(instance.n_logical):
                if i != j:
                    assert table.swap_delta(i, j) == matrix[i, j]

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_flow_diagonal_is_ignored(self, seed):
        """Self-flow adds nothing to the cost (zero distance diagonal),
        and the deltas exclude it exactly as the references do."""
        instance, assignment, free = random_instance(seed)
        flow = instance.flow.copy()
        np.fill_diagonal(flow, np.arange(1, instance.n_logical + 1))
        instance = QAPInstance(flow, instance.distance)
        table = GainTable(instance, assignment)
        swaps, relocations = table.swap_deltas(), table.relocate_deltas()
        for i in range(instance.n_logical):
            for j in range(i + 1, instance.n_logical):
                assert swaps[i, j] == instance.swap_delta_reference(
                    assignment, i, j)
            for loc in free:
                assert relocations[i, loc] == \
                    instance.relocate_delta_reference(assignment, i, int(loc))


class TestRelocateDeltas:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_scalar_reference(self, seed):
        instance, assignment, free = random_instance(seed)
        matrix = GainTable(instance, assignment).relocate_deltas()
        assert matrix.shape == (instance.n_logical, instance.n_physical)
        for i in range(instance.n_logical):
            for loc in free:
                reference = instance.relocate_delta_reference(
                    assignment, i, int(loc))
                assert matrix[i, loc] == reference    # bit-for-bit


def assert_matches_fresh_table(table: GainTable, instance: QAPInstance,
                               free) -> None:
    """A maintained table equals one built from scratch, bit for bit."""
    fresh = GainTable(instance, table.assignment.copy())
    assert np.array_equal(table.gains, fresh.gains)
    assert np.array_equal(table.swap_deltas(),
                          instance.swap_delta_matrix(table.assignment))
    assert np.array_equal(table.relocate_deltas()[:, free],
                          fresh.relocate_deltas()[:, free])


class TestIncrementalUpdates:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_swap_update_walk_matches_fresh_table(self, seed):
        """A table maintained across a random swap walk never drifts."""
        instance, assignment, free = random_instance(seed)
        n = instance.n_logical
        rng = np.random.default_rng(seed + 2)
        table = GainTable(instance, assignment)
        for _ in range(6):
            i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
            before = assignment.copy()
            table.swap(i, j)
            before[i], before[j] = before[j], before[i]
            assert np.array_equal(assignment, before)
            assert_matches_fresh_table(table, instance, free)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_relocate_update_walk_matches_fresh_table(self, seed):
        instance, assignment, free = random_instance(seed)
        if len(free) == 0:
            return                         # square instance: no relocations
        n = instance.n_logical
        rng = np.random.default_rng(seed + 3)
        table = GainTable(instance, assignment)
        for _ in range(6):
            i = int(rng.integers(n))
            loc_idx = int(rng.integers(len(free)))
            old = int(assignment[i])
            table.relocate(i, int(free[loc_idx]))
            assert assignment[i] == free[loc_idx]
            free[loc_idx] = old
            assert_matches_fresh_table(table, instance, free)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_cost_agrees_with_applied_deltas(self, seed):
        """Accumulating table deltas reproduces the recomputed cost."""
        instance, assignment, free = random_instance(seed)
        n = instance.n_logical
        rng = np.random.default_rng(seed + 4)
        cost = instance.cost(assignment)
        table = GainTable(instance, assignment)
        for step in range(5):
            i = int(rng.integers(n))
            if len(free) and step % 2:
                loc_idx = int(rng.integers(len(free)))
                cost += float(table.relocate_deltas()[i, free[loc_idx]])
                old = int(assignment[i])
                table.relocate(i, int(free[loc_idx]))
                free[loc_idx] = old
            else:
                j = int(rng.choice(np.delete(np.arange(n), i)))
                cost += table.swap_delta(i, j)
                table.swap(i, j)
            assert cost == instance.cost(assignment)  # exact, integers


class TestGraspLocalSearchEquivalence:
    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_descent_path_matches_scalar_first_improvement(self, seed):
        """The vectorized first-improvement descent replays the old
        scalar scan exactly: same probe order, same applied swaps, same
        final assignment."""
        from repro.mapping.grasp import _local_search

        instance, assignment, _ = random_instance(seed)
        n = instance.n_logical

        reference = assignment.copy()
        ref_cost = instance.cost(reference)
        improved = True
        while improved:                      # the pre-vectorization loop
            improved = False
            for i in range(n):
                for j in range(i + 1, n):
                    delta = instance.swap_delta_reference(reference, i, j)
                    if delta < -1e-12:
                        reference[i], reference[j] = (
                            reference[j], reference[i]
                        )
                        ref_cost += delta
                        improved = True

        result, cost = _local_search(instance, assignment.copy())
        assert np.array_equal(result, reference)
        assert cost == float(ref_cost)
