"""Property tests on drawn states: the invariants and g^2 do not see qubit
relabelings or local unitaries, G transposes when its qubits swap, the
state document round-trips, and g^2 stays below its one-qubit cut bound."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    LocalUnitary,
    SolverConfig,
    apply_local_unitary,
    bloch_vector,
    correlation_matrix,
    haar_random_state,
    invariant_set,
    make_state,
    nearest_product_state,
    permute_qubits,
    state_from_dict,
    state_to_dict,
)

# bounded so the tier-1 run stays fast; each example costs about a millisecond
PROPERTY = settings(max_examples=60, deadline=None)

parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def states_of(n):
    dim = 2**n
    return (
        st.lists(parts, min_size=2 * dim, max_size=2 * dim)
        .filter(lambda v: any(v))
        .map(lambda v: make_state(n, np.array(v[:dim]) + 1j * np.array(v[dim:])))
    )


states = states_of(3)


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


@pytest.mark.parametrize("n", [3, 4])
@PROPERTY
@given(data=st.data())
def test_g_squared_ignores_qubit_relabeling(n, data):
    s = data.draw(states_of(n))
    perm = data.draw(st.permutations(range(n)))
    before = nearest_product_state(s).g_squared
    after = nearest_product_state(permute_qubits(s, perm)).g_squared
    assert abs(before - after) < 1e-7


@pytest.mark.parametrize("n", [3, 4])
@PROPERTY
@given(data=st.data())
def test_g_squared_ignores_local_unitaries(n, data):
    s = data.draw(states_of(n))
    u = LocalUnitary.random(n, seed=data.draw(st.integers(0, 2**32 - 1)))
    before = nearest_product_state(s).g_squared
    after = nearest_product_state(apply_local_unitary(s, u)).g_squared
    assert abs(before - after) < 1e-7


def documents_of(n):
    """Haar states, or up to 8 drawn amplitudes on drawn indices with the rest zero;
    small enough to draw for every n up to 8, unlike ``states_of``."""
    dim = 2**n

    def amplitudes(entries):
        amps = np.zeros(dim, dtype=complex)
        for i, re, im in entries:
            amps[i] += complex(re, im)
        return amps

    sparse = (
        st.lists(st.tuples(st.integers(0, dim - 1), parts, parts), min_size=1, max_size=8)
        .map(amplitudes)
        .filter(lambda amps: amps.any())
        .map(lambda amps: make_state(n, amps))
    )
    return sparse | st.integers(0, 2**32 - 1).map(lambda seed: haar_random_state(n, seed=seed))


@pytest.mark.parametrize("n", range(1, 9))
@PROPERTY
@given(data=st.data())
def test_state_document_round_trips(n, data):
    s = data.draw(documents_of(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
    assert back.n_qubits == s.n_qubits
    assert np.abs(back.amplitudes - s.amplitudes).max() <= 1e-15
    assert abs(back.norm_factor - 1.0) <= 1e-15


@pytest.mark.parametrize("n", range(2, 7))
@PROPERTY
@given(data=st.data())
def test_g_squared_below_the_cut_bound(n, data):
    # sparse drawn states include product and GHZ-like states, where g^2 meets the bound
    s = data.draw(documents_of(n))
    result = nearest_product_state(s, SolverConfig(restarts=8))
    assert result.g_squared <= result.upper_bound + 1e-14
    lengths = [np.linalg.norm(bloch_vector(s, q)) for q in range(n)]
    assert abs(result.upper_bound - 0.5 * (1.0 + min(lengths))) <= 1e-14
