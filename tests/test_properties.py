"""Property tests on drawn three-qubit states: the invariants do not see qubit
relabelings or local unitaries, and G transposes when its qubits swap."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    LocalUnitary,
    apply_local_unitary,
    correlation_matrix,
    invariant_set,
    make_state,
    permute_qubits,
)

# bounded so the tier-1 run stays fast; each example costs about a millisecond
PROPERTY = settings(max_examples=60, deadline=None)

parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
states = (
    st.lists(parts, min_size=16, max_size=16)
    .filter(lambda v: any(v))
    .map(lambda v: make_state(3, np.array(v[:8]) + 1j * np.array(v[8:])))
)


def permutation_free(inv):
    return np.array(sorted([inv.b_A, inv.b_B, inv.b_C]) + [inv.t, inv.tau])


@PROPERTY
@given(states, st.permutations(range(3)))
def test_invariants_ignore_qubit_relabeling(s, perm):
    before = permutation_free(invariant_set(s))
    after = permutation_free(invariant_set(permute_qubits(s, perm)))
    assert np.abs(before - after).max() < 1e-12


@PROPERTY
@given(states, st.integers(0, 2**32 - 1))
def test_invariants_ignore_local_unitaries(s, seed):
    rotated = apply_local_unitary(s, LocalUnitary.random(3, seed=seed))
    assert invariant_set(s).max_abs_diff(invariant_set(rotated)) < 1e-10


@PROPERTY
@given(states, st.permutations(range(3)))
def test_correlation_matrix_transposes_under_swap(s, perm):
    q1, q2 = perm[:2]
    assert np.abs(correlation_matrix(s, q2, q1) - correlation_matrix(s, q1, q2).T).max() < 1e-12
