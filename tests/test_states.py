"""Tests for state construction, partial traces, sampling and file I/O."""

import math
import re

import numpy as np
import pytest

from entgeo import (
    CanonicalParams,
    LocalUnitary,
    ProductState,
    PureState,
    StateFormatError,
    ZeroBlochFamily,
    apply_local_unitary,
    basis_state,
    canonical_to_state,
    ghz_state,
    haar_random_state,
    invariant_set,
    load_state,
    make_state,
    overlap_with_product,
    partial_trace_pair,
    partial_trace_single,
    permute_qubits,
    sample_zero_bloch_manifold,
    save_state,
    state_from_dict,
    state_to_dict,
    w_state,
)
from entgeo.invariants import bloch_length, bloch_vector, canonical_bloch_vectors, correlation_matrix
from entgeo.states import (
    MAX_QUBITS,
    _canonical_tensors,
    _cut_bound,
    _sample_zero_bloch,
    _sample_zero_bloch_rows,
)

from oracles import dense_rho_pair, dense_rho_single

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


class TestMakeState:
    def test_single_qubit_basis(self):
        s = make_state(1, [1, 0])
        assert np.allclose(s.amplitudes, [1, 0])
        assert s.norm_factor == pytest.approx(1.0)

    def test_normalization_recorded(self):
        s = make_state(2, [1, 0, 0, 1])
        assert np.allclose(s.amplitudes, [1 / SQ2, 0, 0, 1 / SQ2])
        assert s.norm_factor == pytest.approx(SQ2)

    def test_index_convention_qubit_a_most_significant(self):
        # indices 3, 5, 6 are |011>, |101>, |110>
        s = make_state(3, np.array([0, 0, 0, 1, 0, 1, 1, 0]) / SQ3)
        p = CanonicalParams(a=1 / SQ3, b=1 / SQ3, c=1 / SQ3, d=0.0, h=0.0)
        assert np.allclose(s.amplitudes, canonical_to_state(p).amplitudes)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 8"):
            make_state(3, [1, 0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            make_state(1, [0, 0])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(1, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            make_state(1, [bad, 1.0])

    @pytest.mark.parametrize("bad", [3.0, True, "3"])
    def test_qubit_count_must_be_an_integer(self, bad):
        amps = basis_state(3, 0).amplitudes
        with pytest.raises(ValueError, match=f"n_qubits must be an integer in 1..8, got {bad!r}"):
            PureState(bad, amps)
        with pytest.raises(ValueError, match=f"n_qubits must be an integer in 1..8, got {bad!r}"):
            make_state(bad, amps)
        assert PureState(np.int64(3), amps).tensor.shape == (2, 2, 2)
        assert make_state(np.int64(3), amps).tensor.shape == (2, 2, 2)

    @pytest.mark.parametrize("build, n", [
        (ghz_state, 2.5), (ghz_state, -1), (ghz_state, MAX_QUBITS + 1),
        (w_state, 1.5), (w_state, MAX_QUBITS + 1),
        (lambda n: basis_state(n, 0), 2.5), (lambda n: basis_state(n, 0), MAX_QUBITS + 1),
    ])
    def test_named_states_check_the_qubit_count(self, build, n):
        # n is checked before a 2**n vector is built
        message = f"n must be an integer in 1..{MAX_QUBITS}, got {n!r}"
        with pytest.raises(ValueError, match=message):
            build(n)

    @pytest.mark.parametrize("bad", [True, 2.5, -1, 8])
    def test_basis_index_checked(self, bad):
        # a bool would index every amplitude, a float fail inside numpy
        with pytest.raises(ValueError, match=re.escape(f"index must be an integer in 0..7, got {bad!r}")):
            basis_state(3, bad)

    @pytest.mark.parametrize("build", [haar_random_state, LocalUnitary.identity,
                                       LocalUnitary.random])
    @pytest.mark.parametrize("n", [2.5, 0, MAX_QUBITS + 1])
    def test_sampled_qubit_count_checked_first(self, build, n):
        message = f"n must be an integer in 1..{MAX_QUBITS}, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(n)

    @pytest.mark.parametrize("build, factor, field", [
        (ProductState, np.array([1.0, 0.0]), "spinors"), (LocalUnitary, np.eye(2), "matrices"),
    ])
    @pytest.mark.parametrize("count", [0, MAX_QUBITS + 1])
    def test_factor_count_checked(self, build, factor, field, count):
        # an empty product would have amplitudes [1] and no qubit
        with pytest.raises(ValueError, match=f"{field} must hold 1..8 factors, got {count}"):
            build((factor,) * count)

    def test_huge_finite_amplitudes_normalized(self):
        s = make_state(1, [1e200, 1e200])
        assert np.allclose(s.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-15)
        assert s.norm_factor == pytest.approx(SQ2 * 1e200)
        # the norm itself overflows here, the normalized state does not
        s = make_state(2, [1e308] * 4)
        assert np.allclose(s.amplitudes, [0.5] * 4, atol=1e-15)

    def test_subnormal_amplitudes_normalized(self):
        s = make_state(3, [5e-324] + [0] * 7)
        assert np.array_equal(s.amplitudes, basis_state(3, 0).amplitudes)
        s = make_state(1, [1e-310 + 1e-310j, 0])
        assert np.allclose(s.amplitudes, [(1 + 1j) / SQ2, 0], atol=1e-15)


class TestCanonicalToState:
    def test_ghz(self):
        p = CanonicalParams(a=0, b=0, c=0, d=1 / SQ2, h=1 / SQ2, gamma=0.0)
        assert np.allclose(canonical_to_state(p).amplitudes, ghz_state(3).amplitudes)

    def test_basis_000(self):
        p = CanonicalParams(a=0, b=0, c=0, d=1.0, h=0.0)
        assert np.allclose(canonical_to_state(p).amplitudes, basis_state(3, 0).amplitudes)

    def test_generic_placement(self):
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5, gamma=0.0)
        amps = canonical_to_state(p).amplitudes
        assert amps[3] == pytest.approx(0.3)
        assert amps[5] == pytest.approx(0.4)
        assert amps[0] == pytest.approx(math.sqrt(0.5))
        assert amps[7] == pytest.approx(0.5)
        assert np.allclose(amps[[1, 2, 4, 6]], 0.0)

    def test_gamma_phase(self):
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5, gamma=0.7)
        assert canonical_to_state(p).amplitudes[7] == pytest.approx(0.5 * np.exp(0.7j))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CanonicalParams(a=-0.1, b=0, c=0, d=1.0, h=0.0)
        with pytest.raises(ValueError):
            CanonicalParams(a=0.9, b=0, c=0, d=0.9, h=0.0)
        with pytest.raises(ValueError):
            CanonicalParams(a=0, b=0, c=0, d=1.0, h=0.0, gamma=2.0)

    def test_batch_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(3)
        params = [_sample_zero_bloch(family, rng) for family in ZeroBlochFamily for _ in range(20)]
        params.append(CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5, gamma=-1.2))
        batch = _canonical_tensors(np.array([p.as_tuple() for p in params]))
        assert batch.shape == (len(params), 2, 2, 2)
        for row, p in zip(batch, params):
            assert np.array_equal(row, canonical_to_state(p).tensor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_named(self, bad):
        with pytest.raises(ValueError, match="canonical parameter a must be finite"):
            CanonicalParams(bad, 0, 0, 1, 0)
        with pytest.raises(ValueError, match="canonical parameter h must be finite"):
            CanonicalParams(0, 0, 0, 1, bad)
        with pytest.raises(ValueError, match="canonical parameter gamma must be finite"):
            CanonicalParams(0, 0, 0, 1, 0, gamma=bad)


class TestLocalUnitary:
    def test_identity_fixes_state(self):
        s = haar_random_state(3, seed=1)
        out = apply_local_unitary(s, LocalUnitary.identity(3))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_bit_flip_on_qubit_c(self):
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        u = LocalUnitary((np.eye(2), np.eye(2), flip))
        out = apply_local_unitary(basis_state(3, 0), u)
        assert np.allclose(out.amplitudes, basis_state(3, 1).amplitudes)

    def test_invariants_preserved_on_ghz(self):
        s = ghz_state(3)
        before = invariant_set(s)
        after = invariant_set(apply_local_unitary(s, LocalUnitary.random(3, seed=11)))
        assert before.max_abs_diff(after) < 1e-10

    def test_norm_preserved(self):
        s = haar_random_state(3, seed=2)
        out = apply_local_unitary(s, LocalUnitary.random(3, seed=3))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            apply_local_unitary(ghz_state(3), LocalUnitary.identity(2))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalUnitary((np.array([[1, 1], [0, 1]], dtype=complex),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_named(self, bad):
        with pytest.raises(ValueError, match=r"matrices\[1\] is not finite"):
            LocalUnitary((np.eye(2), np.array([[bad, 0], [0, 1]])))


class TestPartialTraces:
    def test_ghz_single_marginals_maximally_mixed(self):
        for q in range(3):
            rho = partial_trace_single(ghz_state(3), q)
            assert np.allclose(rho, np.eye(2) / 2)

    def test_basis_state_marginal_pure(self):
        rho = partial_trace_single(basis_state(3, 0), 0)
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_w_state_marginal(self):
        rho = partial_trace_single(w_state(3), 0)
        assert np.allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_against_dense_oracle(self):
        s = haar_random_state(3, seed=5)
        for q in range(3):
            expect = dense_rho_single(s.amplitudes, 3, q)
            assert np.abs(partial_trace_single(s, q) - expect).max() < 1e-12

    def test_pair_ghz(self):
        rho = partial_trace_pair(ghz_state(3), 0, 1)
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))

    def test_pair_basis(self):
        rho = partial_trace_pair(basis_state(3, 0), 0, 1)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(rho, expect)

    def test_pair_w_eigenvalues(self):
        rho = partial_trace_pair(w_state(3), 0, 1)
        eig = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(eig, [0, 0, 1 / 3, 2 / 3], atol=1e-12)

    def test_pair_against_dense_oracle(self):
        s = haar_random_state(3, seed=6)
        expect = dense_rho_pair(s.amplitudes, 3, 0, 2)
        assert np.abs(partial_trace_pair(s, 0, 2) - expect).max() < 1e-12

    def test_pair_qubit_order(self):
        # |01>: qubit A=0, B=1 -> pair index 1 when q1=A, index 2 when q1=B
        s = basis_state(2, 1)
        assert partial_trace_pair(s, 0, 1)[1, 1] == pytest.approx(1.0)
        assert partial_trace_pair(s, 1, 0)[2, 2] == pytest.approx(1.0)

    def test_index_errors(self):
        with pytest.raises(ValueError):
            partial_trace_single(ghz_state(3), 3)
        with pytest.raises(ValueError):
            partial_trace_pair(ghz_state(3), 1, 1)

    @pytest.mark.parametrize("bad", [1.5, True, -1, 3])
    @pytest.mark.parametrize("name, read", [
        ("q", partial_trace_single), ("q", bloch_vector), ("q", bloch_length),
        ("q1", lambda s, q: partial_trace_pair(s, q, 1)),
        ("q2", lambda s, q: partial_trace_pair(s, 1, q)),
        ("q1", lambda s, q: correlation_matrix(s, q, 1)),
        ("q2", lambda s, q: correlation_matrix(s, 1, q)),
    ], ids=["single", "bloch_vector", "bloch_length", "pair_q1", "pair_q2", "corr_q1", "corr_q2"])
    def test_qubit_arguments_checked(self, name, read, bad):
        # a bool is no qubit index, even where it equals one
        message = f"{name} must be an integer in 0..2, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read(ghz_state(3), bad)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cut_bound_is_the_least_mixed_qubit(self, n):
        states = [haar_random_state(n, seed=10 + k) for k in range(3)]
        states += [ghz_state(n), w_state(n), basis_state(n, 1)]
        states.append(apply_local_unitary(ghz_state(n), LocalUnitary.random(n, seed=n)))
        upper = _cut_bound(np.stack([s.tensor for s in states]))
        for bound, s in zip(upper, states):
            expect = 0.5 * (1.0 + min(bloch_length(s, q) for q in range(n)))
            assert bound == pytest.approx(expect, abs=1e-14)
            assert bound == _cut_bound(s.tensor[None])[0]
        assert upper[3:].tolist() == pytest.approx([0.5, 1.0 - 1.0 / n, 1.0, 0.5], abs=1e-15)

    def test_cut_bound_on_the_zero_bloch_manifold(self):
        rng = np.random.default_rng(5)
        params = [_sample_zero_bloch(family, rng) for family in ZeroBlochFamily for _ in range(50)]
        upper = _cut_bound(_canonical_tensors(np.array([p.as_tuple() for p in params])))
        assert np.abs(upper - 0.5).max() <= 1e-15

    def test_schmidt_symmetry_two_qubits(self):
        for seed in range(20):
            s = haar_random_state(2, seed=seed)
            e0 = np.sort(np.linalg.eigvalsh(partial_trace_single(s, 0)))
            e1 = np.sort(np.linalg.eigvalsh(partial_trace_single(s, 1)))
            assert np.abs(e0 - e1).max() < 1e-12


class TestHaarSampling:
    def test_deterministic(self):
        a = haar_random_state(3, seed=7)
        b = haar_random_state(3, seed=7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        for seed in range(10):
            s = haar_random_state(3, seed=seed)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_purity_moment(self):
        # mean of tr(rho_A^2) over Haar 3-qubit states is
        # (d_A + d_B)/(d_A d_B + 1) = 6/9 = 2/3
        rng = np.random.default_rng(12345)
        n = 10_000
        vals = np.empty(n)
        for i in range(n):
            z = rng.normal(size=8) + 1j * rng.normal(size=8)
            z /= np.linalg.norm(z)
            rho = dense_rho_single(z, 3, 0)
            vals[i] = np.trace(rho @ rho).real
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 2.0 / 3.0) < 3.0 * se


def one_zero_bloch_sample(family: ZeroBlochFamily, rng: np.random.Generator) -> tuple:
    """Reference one-sample sampler: two uniform angles, or normal triples
    until one clears the 0.05 floor, drawn one sample at a time."""
    half = math.sqrt(0.5)
    if family is ZeroBlochFamily.QUADRILATERAL:
        lo = math.asin(0.05 / half)
        u, v = rng.uniform(lo, math.pi / 2 - lo, size=2)
        return (half * math.cos(u), half * math.sin(u), half * math.cos(v), half * math.sin(v),
                0.0, 0.0)
    while True:
        v = np.abs(rng.normal(size=3))
        v *= half / np.linalg.norm(v)
        if v.min() >= 0.05:
            return (v[0], v[1], 0.0, half, v[2], 0.0)


class TestZeroBlochSampling:
    @pytest.mark.parametrize("family", list(ZeroBlochFamily))
    def test_rows_consume_the_draws_of_one_sample_calls(self, family):
        batched, looped, wrapped = (np.random.default_rng(8) for _ in range(3))
        rows = _sample_zero_bloch_rows(family, batched, 500)
        reference = np.array([one_zero_bloch_sample(family, looped) for _ in range(500)])
        singles = [_sample_zero_bloch(family, wrapped).as_tuple() for _ in range(500)]
        assert batched.random() == looped.random() == wrapped.random()  # the next draw
        assert [tuple(r) for r in rows.tolist()] == singles
        if family is ZeroBlochFamily.QUADRILATERAL:
            assert np.array_equal(rows, reference)
        else:
            # the row norm is a batched reduction, within an ulp of the 1-D norm
            np.testing.assert_allclose(rows, reference, rtol=4 * np.finfo(float).eps, atol=0)

    def test_quadrilateral_example_params(self):
        p = CanonicalParams(a=0.6, b=math.sqrt(0.14), c=0.5, d=0.5, h=0.0)
        assert np.linalg.norm(canonical_bloch_vectors(p)[2]) < 1e-12

    def test_h_nonzero_example_params(self):
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5)
        assert np.linalg.norm(canonical_bloch_vectors(p)[2]) < 1e-12

    @pytest.mark.parametrize("family", ["quadrilateral", "h-nonzero"])
    def test_sampled_states_have_zero_bloch_c(self, family):
        from entgeo.invariants import bloch_vector

        for seed in range(25):
            p = sample_zero_bloch_manifold(family, seed=seed)
            state = canonical_to_state(p)
            assert np.linalg.norm(bloch_vector(state, 2)) < 1e-12
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_family_constraints(self):
        p = sample_zero_bloch_manifold(ZeroBlochFamily.QUADRILATERAL, seed=0)
        assert p.h == 0.0
        assert p.c**2 + p.d**2 == pytest.approx(p.a**2 + p.b**2, abs=1e-12)
        p = sample_zero_bloch_manifold(ZeroBlochFamily.H_NONZERO, seed=0)
        assert p.c == 0.0
        assert p.d**2 == pytest.approx(p.a**2 + p.b**2 + p.h**2, abs=1e-12)

    def test_sampling_deterministic(self):
        a = sample_zero_bloch_manifold("quadrilateral", seed=4)
        b = sample_zero_bloch_manifold("quadrilateral", seed=4)
        assert a == b


class TestProductOverlap:
    def test_basis_product(self):
        q = ProductState((np.array([1, 0]),) * 3)
        assert overlap_with_product(basis_state(3, 0), q) == pytest.approx(1.0)

    def test_ghz_against_000(self):
        q = ProductState((np.array([1, 0]),) * 3)
        assert overlap_with_product(ghz_state(3), q) == pytest.approx(1 / SQ2)

    def test_w_against_100(self):
        q = ProductState((np.array([0, 1]), np.array([1, 0]), np.array([1, 0])))
        assert overlap_with_product(w_state(3), q) == pytest.approx(1 / SQ3)

    def test_dimension_mismatch(self):
        q = ProductState((np.array([1, 0]),) * 2)
        with pytest.raises(ValueError):
            overlap_with_product(ghz_state(3), q)

    def test_unnormalized_spinor_rejected(self):
        with pytest.raises(ValueError):
            ProductState((np.array([1.0, 1.0]),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spinor_named(self, bad):
        with pytest.raises(ValueError, match=r"spinors\[0\] is not finite"):
            ProductState((np.array([bad, 1.0]),))


class TestPermuteQubits:
    def test_roundtrip(self):
        s = haar_random_state(3, seed=9)
        assert np.allclose(permute_qubits(permute_qubits(s, (1, 2, 0)), (2, 0, 1)).amplitudes,
                           s.amplitudes)

    def test_basis_relabeling(self):
        # |011> with qubits relabeled (C, A, B) becomes |101>
        out = permute_qubits(basis_state(3, 3), (2, 0, 1))
        assert np.allclose(out.amplitudes, basis_state(3, 5).amplitudes)

    @pytest.mark.parametrize("perm", [(True, False, 2), (1.0, 0.0, 2.0), (0, 1), (0, 0, 1)])
    def test_bad_perm_named(self, perm):
        # bools and floats sort like a permutation but are no qubit indices
        with pytest.raises(ValueError, match=r"perm"):
            permute_qubits(ghz_state(3), perm)


class TestStateFiles:
    def test_roundtrip(self, tmp_path):
        s = haar_random_state(3, seed=13)
        path = tmp_path / "state.json"
        save_state(s, path)
        loaded = load_state(path)
        assert loaded.n_qubits == 3
        assert np.abs(loaded.amplitudes - s.amplitudes).max() < 1e-15

    def test_dict_roundtrip(self):
        s = haar_random_state(2, seed=14)
        again = state_from_dict(state_to_dict(s))
        assert np.abs(again.amplitudes - s.amplitudes).max() < 1e-15

    def test_wrong_length_rejected(self):
        doc = {"n_qubits": 3, "amplitudes": [[1.0, 0.0]] * 4}
        with pytest.raises(StateFormatError, match="amplitudes") as err:
            state_from_dict(doc)
        assert err.value.field == "amplitudes"

    def test_missing_n_qubits(self):
        with pytest.raises(StateFormatError) as err:
            state_from_dict({"amplitudes": []})
        assert err.value.field == "n_qubits"

    def test_bad_pair_rejected(self):
        doc = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], ["x", 0.0]]}
        with pytest.raises(StateFormatError, match=r"amplitudes\[1\]"):
            state_from_dict(doc)

    @pytest.mark.parametrize("bad", [[float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0]])
    def test_non_finite_rejected(self, bad):
        doc = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], bad]}
        with pytest.raises(StateFormatError, match=r"amplitudes\[1\] is not finite") as err:
            state_from_dict(doc, allow_unnormalized=True)
        assert err.value.field == "amplitudes"

    @pytest.mark.parametrize("bad", [True, 2.5, -1, 8])
    def test_basis_index_checked(self, bad):
        # a bool would index every amplitude, a float fail inside numpy
        with pytest.raises(ValueError, match=re.escape(f"index must be an integer in 0..7, got {bad!r}")):
            basis_state(3, bad)

    @pytest.mark.parametrize("build", [haar_random_state, LocalUnitary.identity,
                                       LocalUnitary.random])
    @pytest.mark.parametrize("n", [2.5, 0, MAX_QUBITS + 1])
    def test_sampled_qubit_count_checked_first(self, build, n):
        message = f"n must be an integer in 1..{MAX_QUBITS}, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(n)

    def test_huge_finite_amplitudes_normalized(self):
        doc = {"n_qubits": 1, "amplitudes": [[3e300, 0.0], [0.0, 4e300]]}
        with pytest.warns(UserWarning):
            s = state_from_dict(doc, allow_unnormalized=True)
        assert np.allclose(s.amplitudes, [0.6, 0.8j], atol=1e-15)
        assert s.norm_factor == pytest.approx(5e300)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_slightly_unnormalized_silent(self):
        amps = [[1.0 + 5e-7, 0.0], [0.0, 0.0]]
        s = state_from_dict({"n_qubits": 1, "amplitudes": amps})
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_mildly_unnormalized_warns(self):
        amps = [[1.0 + 5e-4, 0.0], [0.0, 0.0]]
        with pytest.warns(UserWarning, match="normalizing"):
            state_from_dict({"n_qubits": 1, "amplitudes": amps})

    def test_badly_unnormalized_needs_flag(self):
        amps = [[0.5, 0.0], [0.0, 0.0]]
        with pytest.raises(StateFormatError, match="allow_unnormalized"):
            state_from_dict({"n_qubits": 1, "amplitudes": amps})
        with pytest.warns(UserWarning):
            s = state_from_dict({"n_qubits": 1, "amplitudes": amps}, allow_unnormalized=True)
        assert s.norm_factor == pytest.approx(0.5)
