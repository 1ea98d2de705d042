"""Tests for Bloch vectors, the correlation matrix and the five invariants."""

import math

import numpy as np
import pytest

from entgeo import (
    CanonicalParams,
    InvariantSet,
    LocalUnitary,
    apply_local_unitary,
    basis_state,
    bloch_vector,
    canonical_bloch_vectors,
    canonical_correlation_matrix,
    canonical_to_state,
    correlation_matrix,
    ghz_state,
    haar_random_state,
    invariant_set,
    make_state,
    partial_trace_single,
    sample_zero_bloch_manifold,
    sextic_t_bloch,
    sextic_t_trace,
    three_tangle,
    three_tangle_canonical,
    w_state,
)
from entgeo.invariants import (
    _bloch,
    _correlation,
    _marginals,
    _sextic_t_bloch,
    _sextic_t_trace,
    _three_tangle,
)

from oracles import dense_rho_pair, dense_rho_single

SQ2 = math.sqrt(2.0)
# written out here rather than taken from the library
SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def cayley_tangle(a):
    """4 |d1 - 2 d2 + 4 d3|: the hyperdeterminant expanded term by term."""
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def random_canonical_params(rng):
    v = np.abs(rng.normal(size=5))
    v /= np.linalg.norm(v)
    return CanonicalParams(*v, gamma=float(rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)))


class TestBlochVector:
    def test_basis_000(self):
        assert np.allclose(bloch_vector(basis_state(3, 0), 0), [0, 0, 1])

    def test_011_qubit_b(self):
        assert np.allclose(bloch_vector(basis_state(3, 3), 1), [0, 0, -1])

    def test_canonical_closed_form_example(self):
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5)
        vec = bloch_vector(canonical_to_state(p), 0)
        assert np.allclose(vec, [0.3, 0.0, 0.18], atol=1e-12)

    def test_closed_form_matches_partial_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = random_canonical_params(rng)
            state = canonical_to_state(p)
            expect = canonical_bloch_vectors(p)
            for q in range(3):
                assert np.abs(bloch_vector(state, q) - expect[q]).max() < 1e-12

    def test_length_identity(self):
        # |b|^2 = 2 tr(rho^2) - 1 for every qubit of every state
        for seed in range(20):
            s = haar_random_state(3, seed=seed)
            for q in range(3):
                length_sq = np.linalg.norm(bloch_vector(s, q)) ** 2
                rho = partial_trace_single(s, q)
                purity = np.trace(rho @ rho).real
                assert length_sq == pytest.approx(2 * purity - 1, abs=1e-12)

    def test_index_error(self):
        with pytest.raises(ValueError):
            bloch_vector(ghz_state(3), 5)


class TestCorrelationMatrix:
    def test_00_pair(self):
        g = correlation_matrix(basis_state(2, 0), 0, 1)
        expect = np.zeros((3, 3))
        expect[2, 2] = 1.0
        assert np.allclose(g, expect, atol=1e-12)

    def test_ghz_pair(self):
        g = correlation_matrix(ghz_state(3), 0, 1)
        assert np.allclose(g, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_quadrilateral_family_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = np.abs(rng.normal(size=4))
            v /= np.linalg.norm(v)
            p = CanonicalParams(a=v[0], b=v[1], c=v[2], d=v[3], h=0.0)
            g = correlation_matrix(canonical_to_state(p), 0, 1)
            a, b, c, d = v
            expect = np.diag([2 * a * b + 2 * c * d, 2 * a * b - 2 * c * d,
                              d * d - a * a - b * b + c * c])
            assert np.abs(g - expect).max() < 1e-12

    def test_canonical_closed_form_entrywise(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_canonical_params(rng)
            g = correlation_matrix(canonical_to_state(p), 0, 1)
            assert np.abs(g - canonical_correlation_matrix(p)).max() < 1e-12


class TestBatchedKernels:
    """Every row of a batched kernel against the dense oracle of its state."""

    def haar_batch(self, n, count=6):
        states = [haar_random_state(n, seed=100 * n + k) for k in range(count)]
        return states, np.stack([s.tensor for s in states])

    def test_bloch_rows_match_dense_oracle(self):
        states, tensors = self.haar_batch(4)
        for q in range(4):
            # qubit q as the first and as the second qubit of a pass
            as_first = _marginals(tensors, q, (q + 1) % 4)[0]
            as_second = _marginals(tensors, (q + 3) % 4, q)[1]
            for rows in _bloch(as_first), _bloch(as_second):
                assert rows.shape == (len(states), 3)
                for s, row in zip(states, rows):
                    rho = dense_rho_single(s.amplitudes, 4, q)
                    expect = [np.trace(rho @ p).real for p in SIGMAS]
                    assert np.abs(row - expect).max() < 1e-12

    def test_correlation_rows_match_dense_oracle_every_ordered_pair(self):
        states, tensors = self.haar_batch(4)
        for q1 in range(4):
            for q2 in range(4):
                if q1 == q2:
                    continue
                rows = _correlation(_marginals(tensors, q1, q2)[2])
                assert rows.shape == (len(states), 3, 3)
                for s, row in zip(states, rows):
                    rho = dense_rho_pair(s.amplitudes, 4, q1, q2)
                    expect = [[np.trace(rho @ np.kron(pi, pj)).real for pj in SIGMAS]
                              for pi in SIGMAS]
                    assert np.abs(row - expect).max() < 1e-12

    def test_sextic_t_trace_rows_match_bloch_form(self):
        states, tensors = self.haar_batch(3, count=20)
        rows = _sextic_t_trace(*_marginals(tensors))
        assert rows.shape == (20,)
        for s, t in zip(states, rows):
            assert t == pytest.approx(sextic_t_bloch(s), abs=1e-12)

    def test_three_tangle_rows_match_cayley_expansion(self):
        states, tensors = self.haar_batch(3, count=20)
        states += [ghz_state(3), w_state(3)]
        tensors = np.concatenate([tensors, [ghz_state(3).tensor, w_state(3).tensor]])
        rows = _three_tangle(tensors)
        assert rows.shape == (22,)
        for s, tau in zip(states, rows):
            assert tau == pytest.approx(cayley_tangle(s.tensor), abs=1e-12)


def marginal_batch():
    """Haar states, LU-rotated GHZ and W, product states and both zero-Bloch
    families, as a list of states and one (S, 2, 2, 2) batch."""
    states = [haar_random_state(3, seed=500 + k) for k in range(6)]
    for k in range(3):
        for s in (ghz_state(3), w_state(3), basis_state(3, 5 * k % 8)):
            states.append(apply_local_unitary(s, LocalUnitary.random(3, seed=600 + k)))
    states += [canonical_to_state(sample_zero_bloch_manifold(family, seed=k))
               for family in ("quadrilateral", "h-nonzero") for k in range(3)]
    return states, np.stack([s.tensor for s in states])


def pass_outputs(tensors, first, second):
    """Every output of one ``_marginals`` pass and of the kernels reading it."""
    rho_first, rho_second, rho_pair = _marginals(tensors, first, second)
    b_first, b_second, g = _bloch(rho_first), _bloch(rho_second), _correlation(rho_pair)
    return {
        "rho_first": rho_first, "rho_second": rho_second, "rho_pair": rho_pair,
        "b_first": b_first, "b_second": b_second, "G": g,
        "t_trace": _sextic_t_trace(rho_first, rho_second, rho_pair),
        "t_bloch": _sextic_t_bloch(b_first, b_second, g),
    }


PAIRS = [(0, 1), (1, 0), (0, 2), (2, 1)]


class TestMarginals:
    """One ``_marginals`` pass and everything read from it, against the dense
    oracles and explicit Pauli traces, for ordered qubit pairs."""

    @pytest.mark.parametrize("first,second", PAIRS)
    def test_pass_matches_dense_oracle_and_pauli_traces(self, first, second):
        states, tensors = marginal_batch()
        out = pass_outputs(tensors, first, second)
        for i, s in enumerate(states):
            rho_1 = dense_rho_single(s.amplitudes, 3, first)
            rho_2 = dense_rho_single(s.amplitudes, 3, second)
            rho_12 = dense_rho_pair(s.amplitudes, 3, first, second)
            b_1 = np.array([np.trace(rho_1 @ p).real for p in SIGMAS])
            b_2 = np.array([np.trace(rho_2 @ p).real for p in SIGMAS])
            g = np.array([[np.trace(rho_12 @ np.kron(pi, pj)).real for pj in SIGMAS]
                          for pi in SIGMAS])
            t_trace = 3 * np.trace(rho_12 @ np.kron(rho_1, rho_2)).real - 0.25
            t_trace -= sum(np.trace(np.linalg.matrix_power(r, 3)).real for r in (rho_1, rho_2))
            expect = {
                "rho_first": rho_1, "rho_second": rho_2, "rho_pair": rho_12,
                "b_first": b_1, "b_second": b_2, "G": g,
                "t_trace": t_trace, "t_bloch": 0.75 * b_1 @ g @ b_2,
            }
            for key, value in expect.items():
                assert np.abs(out[key][i] - value).max() <= 1e-14, (key, i)

    @pytest.mark.parametrize("first,second", PAIRS)
    def test_rows_equal_batch_of_one(self, first, second):
        # the correlation map is one GEMM over the batch, which may round by batch size
        states, tensors = marginal_batch()
        out = pass_outputs(tensors, first, second)
        for i, s in enumerate(states):
            for key, value in pass_outputs(s.tensor[None], first, second).items():
                assert np.abs(out[key][i] - value[0]).max() <= 1e-15, (key, i)


class TestSexticInvariant:
    def test_basis_state_trace_form(self):
        assert sextic_t_trace(basis_state(3, 0)) == pytest.approx(0.75, abs=1e-12)

    def test_basis_state_bloch_form(self):
        assert sextic_t_bloch(basis_state(3, 0)) == pytest.approx(0.75, abs=1e-12)

    def test_ghz_vanishes(self):
        assert abs(sextic_t_trace(ghz_state(3))) < 1e-12
        assert abs(sextic_t_bloch(ghz_state(3))) < 1e-12

    def test_w_value_both_forms(self):
        # direct arithmetic gives t = -1/36 for the W state
        assert sextic_t_trace(w_state(3)) == pytest.approx(-1 / 36, abs=1e-12)
        assert sextic_t_bloch(w_state(3)) == pytest.approx(-1 / 36, abs=1e-12)

    def test_dual_formulas_agree(self):
        for seed in range(100):
            s = haar_random_state(3, seed=seed)
            assert abs(sextic_t_trace(s) - sextic_t_bloch(s)) < 1e-11

    def test_vanishes_on_zero_bloch_manifolds(self):
        for family in ("quadrilateral", "h-nonzero"):
            for seed in range(25):
                p = sample_zero_bloch_manifold(family, seed=seed)
                assert abs(sextic_t_trace(canonical_to_state(p))) < 1e-10


class TestThreeTangle:
    def test_ghz(self):
        assert three_tangle(ghz_state(3)) == pytest.approx(1.0, abs=1e-12)

    def test_w(self):
        assert three_tangle(w_state(3)) < 1e-12

    def test_quadrilateral_16abcd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = np.abs(rng.normal(size=4))
            v /= np.linalg.norm(v)
            p = CanonicalParams(a=v[0], b=v[1], c=v[2], d=v[3], h=0.0)
            a, b, c, d = v
            assert three_tangle(canonical_to_state(p)) == pytest.approx(
                16 * a * b * c * d, abs=1e-12
            )

    def test_canonical_formula_ghz(self):
        p = CanonicalParams(a=0, b=0, c=0, d=1 / SQ2, h=1 / SQ2)
        assert three_tangle_canonical(p) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_formula_h0(self):
        p = CanonicalParams(a=0.5, b=0.5, c=0.5, d=0.5, h=0.0)
        assert three_tangle_canonical(p) == pytest.approx(1.0, abs=1e-12)

    def test_c0_family_value(self):
        # c = 0 collapses the formula to 4 d^2 h^2
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5)
        assert three_tangle_canonical(p) == pytest.approx(0.5, abs=1e-12)
        assert three_tangle(canonical_to_state(p)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_hyperdeterminant_on_canonical_states(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_canonical_params(rng)
            assert three_tangle(canonical_to_state(p)) == pytest.approx(
                three_tangle_canonical(p), abs=1e-10
            )


class TestInvariantSet:
    def test_ghz(self):
        inv = invariant_set(ghz_state(3))
        assert np.allclose(inv.as_array(), [0, 0, 0, 0, 1], atol=1e-12)

    def test_basis(self):
        inv = invariant_set(basis_state(3, 0))
        assert np.allclose(inv.as_array(), [1, 1, 1, 0.75, 0], atol=1e-12)

    def test_w(self):
        inv = invariant_set(w_state(3))
        assert np.allclose(inv.as_array(), [1 / 3, 1 / 3, 1 / 3, -1 / 36, 0], atol=1e-12)

    def test_lu_invariance(self):
        for seed in range(50):
            s = haar_random_state(3, seed=seed)
            u = LocalUnitary.random(3, seed=1000 + seed)
            drift = invariant_set(s).max_abs_diff(invariant_set(apply_local_unitary(s, u)))
            assert drift < 1e-10

    def test_even_in_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = np.abs(rng.normal(size=5))
            v /= np.linalg.norm(v)
            gamma = float(rng.uniform(1e-3, math.pi / 2 - 1e-3))
            plus = invariant_set(canonical_to_state(CanonicalParams(*v, gamma=gamma)))
            minus = invariant_set(canonical_to_state(CanonicalParams(*v, gamma=-gamma)))
            assert plus.max_abs_diff(minus) < 1e-12

    def test_zero_mode_structure(self):
        # b_C = 0 makes the A and B Bloch vectors left and right zero modes of G
        for family in ("quadrilateral", "h-nonzero"):
            for seed in range(25):
                p = sample_zero_bloch_manifold(family, seed=seed)
                s = canonical_to_state(p)
                g = correlation_matrix(s, 0, 1)
                assert np.linalg.norm(g.T @ bloch_vector(s, 0)) < 1e-10
                assert np.linalg.norm(g @ bloch_vector(s, 1)) < 1e-10

    def test_non_three_qubit_rejected(self):
        with pytest.raises(ValueError):
            invariant_set(make_state(2, [1, 0, 0, 1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_named(self, bad):
        # the range checks of b_* and tau reject a NaN there; t has no range
        with pytest.raises(ValueError, match=f"t must be finite, got {bad}"):
            InvariantSet(0.0, 0.0, 0.0, bad, 0.0)
