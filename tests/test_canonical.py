"""Tests for the canonical-form search."""

import dataclasses
import math

import numpy as np
import pytest

from entgeo import (
    CanonicalParams,
    LocalUnitary,
    ProductState,
    SolverConfig,
    apply_local_unitary,
    canonical_to_state,
    canonicalize,
    ghz_state,
    basis_state,
    haar_random_state,
    invariant_set,
    make_state,
    nearest_product_state,
    random_feasible_quadrilateral,
    three_tangle,
    three_tangle_canonical,
    w_state,
)
from entgeo import _als
from entgeo._als import haar_bloch_spinors
from entgeo.states import _GAUGE_BITS, _canonicalize, _cut_bound, _gauge_fix

from conftest import als_budget
from oracles import grid_overlap_sq

SQ2 = math.sqrt(2.0)


def reconstruction_infidelity(state, params, lu):
    return 1.0 - apply_local_unitary(state, lu).fidelity(canonical_to_state(params))


def zero_index_residual(state, lu):
    amps = apply_local_unitary(state, lu).amplitudes
    return float(np.sum(np.abs(amps[[1, 2, 4]]) ** 2))


class TestFixedPoints:
    def test_ghz_params(self):
        p, lu = canonicalize(ghz_state(3))
        assert p.d == pytest.approx(1 / SQ2, abs=1e-7)
        assert p.h == pytest.approx(1 / SQ2, abs=1e-7)
        assert max(p.a, p.b, p.c) < 1e-7
        assert p.gamma == pytest.approx(0.0, abs=1e-7)

    def test_basis_state(self):
        p, lu = canonicalize(basis_state(3, 0))
        assert p.d == pytest.approx(1.0, abs=1e-9)
        assert max(p.a, p.b, p.c, p.h) < 1e-7

    def test_dominant_d_generic_params_recovered(self):
        # with d dominant the input parameters are the representative with
        # the largest d, so canonicalization reproduces them
        raw = np.array([0.25, 0.3, 0.2, 0.85, 0.15])
        raw = raw / np.linalg.norm(raw)
        p_in = CanonicalParams(*raw, gamma=0.7)
        p, lu = canonicalize(canonical_to_state(p_in))
        assert np.allclose(
            [p.a, p.b, p.c, p.d, p.h],
            [p_in.a, p_in.b, p_in.c, p_in.d, p_in.h],
            atol=1e-7,
        )
        assert p.gamma == pytest.approx(0.7, abs=1e-7)

    def test_gamma_sign_tracks_conjugation(self):
        raw = np.array([0.25, 0.3, 0.2, 0.85, 0.15])
        raw = raw / np.linalg.norm(raw)
        plus = canonical_to_state(CanonicalParams(*raw, gamma=0.6))
        minus = canonical_to_state(CanonicalParams(*raw, gamma=-0.6))
        p_plus, _ = canonicalize(plus)
        p_minus, _ = canonicalize(minus)
        assert p_plus.gamma == pytest.approx(0.6, abs=1e-7)
        assert p_minus.gamma == pytest.approx(-0.6, abs=1e-7)


class TestOrbitRecovery:
    def test_random_lu_of_ghz(self):
        for seed in range(5):
            s = apply_local_unitary(ghz_state(3), LocalUnitary.random(3, seed=seed))
            p, lu = canonicalize(s, seed=seed)
            assert p.d == pytest.approx(1 / SQ2, abs=1e-6)
            assert p.h == pytest.approx(1 / SQ2, abs=1e-6)
            assert max(p.a, p.b, p.c) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_random_lu_of_w(self, seed):
        # W has a continuous family of maximisers, so many ALS branches tie
        s = apply_local_unitary(w_state(3), LocalUnitary.random(3, seed=30 + seed))
        p, lu = canonicalize(s, seed=seed)
        assert p.d == pytest.approx(2 / 3, abs=1e-7)
        assert three_tangle_canonical(p) == pytest.approx(0.0, abs=1e-9)
        assert reconstruction_infidelity(s, p, lu) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_random_lu_of_product_state(self, seed):
        rng = np.random.default_rng(seed)
        product = ProductState(tuple(haar_bloch_spinors(rng, (3,)))).amplitudes()
        s = apply_local_unitary(make_state(3, product), LocalUnitary.random(3, seed=40 + seed))
        p, lu = canonicalize(s, seed=seed)
        assert p.d == pytest.approx(1.0, abs=1e-9)
        assert max(p.a, p.b, p.c, p.h) < 1e-6
        assert reconstruction_infidelity(s, p, lu) < 1e-8

    def test_random_lu_of_basis_state(self):
        s = apply_local_unitary(basis_state(3, 0), LocalUnitary.random(3, seed=21))
        p, lu = canonicalize(s)
        assert p.d == pytest.approx(1.0, abs=1e-6)
        assert max(p.a, p.b, p.c, p.h) < 1e-6


class TestContracts:
    @pytest.mark.parametrize("seed", range(8))
    def test_haar_states(self, seed):
        s = haar_random_state(3, seed=seed)
        p, lu = canonicalize(s, seed=seed)
        assert zero_index_residual(s, lu) < 1e-9
        assert reconstruction_infidelity(s, p, lu) < 1e-8
        assert invariant_set(s).max_abs_diff(invariant_set(canonical_to_state(p))) < 1e-8

    def test_unitaries_are_unitary(self):
        s = haar_random_state(3, seed=42)
        _, lu = canonicalize(s)
        for m in lu.matrices:
            assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-10

    def test_exact_reconstruction_including_phase(self):
        # the returned unitaries carry the global phase: the transformed
        # state matches the canonical amplitudes directly
        s = haar_random_state(3, seed=17)
        p, lu = canonicalize(s)
        out = apply_local_unitary(s, lu).amplitudes
        assert np.abs(out - canonical_to_state(p).amplitudes).max() < 1e-6
        assert abs(out[0].imag) < 1e-9

    def test_representative_d_is_maximal_overlap(self):
        s = haar_random_state(3, seed=33)
        p, _ = canonicalize(s)
        g2 = nearest_product_state(s, SolverConfig(restarts=32)).g_squared
        assert p.d**2 == pytest.approx(g2, abs=1e-9)

    def test_slowly_converging_best_branch_is_kept(self):
        # the best basin's runs freeze at the coarse tolerance about 1.4e-5 below
        # their limit, behind a faster local maximum; only their polish shows it
        s = make_state(3, [0.70618, 0, 0, 0.505493, 0, 0.495768, 0, 0])
        p, lu = canonicalize(s, seed=1)
        assert p.d**2 == pytest.approx(grid_overlap_sq(s.amplitudes), abs=1e-10)
        assert reconstruction_infidelity(s, p, lu) < 1e-8

    @pytest.mark.parametrize("restarts", [0, -1, 2.5, True, "4"])
    def test_restarts_validated(self, restarts):
        with pytest.raises(ValueError, match=f"restarts must be an integer >= 1, got {restarts!r}"):
            canonicalize(ghz_state(3), restarts=restarts)

    @pytest.mark.parametrize("bad", [None, -1, 1.5, True])
    def test_seed_validated(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {bad!r}"):
            canonicalize(ghz_state(3), seed=bad)

    def test_solver_budget(self, monkeypatch):
        # one overlap solve: its gated pass 1 alone answers this state, under the
        # freeze and sweep cap that _als reads at call time; the runs are frozen
        # coarse and the polish finishes the answer
        calls = []
        run = _als.power_iteration

        def recording(psis, restarts, seed, stop_at=None):
            out = run(psis, restarts, seed, stop_at=stop_at)
            calls.append((stop_at, int(out["iterations"].max())))
            return out

        monkeypatch.setattr(_als, "power_iteration", recording)
        s = haar_random_state(3, seed=8)
        params = [canonicalize(s)[0]]
        for budget in ({"sweeps": 3}, {"tol": 1e-13}):
            with als_budget(**budget):
                params.append(canonicalize(s)[0])
        stop_at = _cut_bound(s.tensor[None]) - _als.GATE_MARGIN
        assert [it for _, it in calls] == [8, 3, 13]
        assert all(np.array_equal(gate, stop_at) for gate, _ in calls)
        first = dataclasses.astuple(params[0])
        for p in params[1:]:
            assert dataclasses.astuple(p) == pytest.approx(first, abs=1e-12)

    def test_distinct_branches_polished_in_one_call(self, monkeypatch):
        calls = []
        polish = _als.polish_stationary

        def recording(psis, spinors):
            calls.append([sp.copy() for sp in spinors])
            return polish(psis, spinors)

        monkeypatch.setattr(_als, "polish_stationary", recording)
        # LU-rotated GHZ reaches its cut bound 1/2, so the gate stops its runs
        # and only its best one is polished
        ghz_lu = apply_local_unitary(ghz_state(3), LocalUnitary.random(3, seed=3))
        canonicalize(ghz_lu)
        assert len(calls) == 1 and calls[0][0].shape == (1, 2)
        calls.clear()
        # W ties on a continuous family, so every run is its own branch, and the
        # first _als.BRANCHES of them are polished, pairwise distinct
        w_lu = apply_local_unitary(w_state(3), LocalUnitary.random(3, seed=3))
        canonicalize(w_lu, restarts=8)
        assert len(calls) == 1 and calls[0][0].shape == (_als.BRANCHES, 2)
        blochs = _als._bloch_from_spinors(np.stack(calls[0]))  # (n, rows, 3)
        for j in range(_als.BRANCHES):
            for k in range(j):
                assert np.abs(blochs[:, j] - blochs[:, k]).max() >= _als.BRANCH_RADIUS
        calls.clear()
        # a mixed batch polishes the branches of every state in one call
        _canonicalize(np.stack([ghz_lu.tensor, w_lu.tensor]), SolverConfig(restarts=8))
        assert len(calls) == 1 and calls[0][0].shape == (1 + _als.BRANCHES, 2)

    def test_batch_rows_equal_scalar_calls(self):
        states = [haar_random_state(3, seed=70 + k) for k in range(4)]
        states.insert(1, apply_local_unitary(ghz_state(3), LocalUnitary.random(3, seed=5)))
        states.insert(3, apply_local_unitary(w_state(3), LocalUnitary.random(3, seed=6)))
        states.append(basis_state(3, 6))
        states.append(states[2])  # a repeated state keeps its own branches
        # a criterion-8 sample whose overlap solve stalls in its first pass
        rng = np.random.default_rng(7)
        states.append([random_feasible_quadrilateral(rng) for _ in range(118)][117].to_state())
        checked = len(states)
        # at scale: Haar states and LU-rotated GHZ, W, basis and product states
        states += [haar_random_state(3, seed=3000 + k) for k in range(600)]
        for k in range(100):
            product = ProductState(tuple(haar_bloch_spinors(rng, (3,)))).amplitudes()
            for s in (ghz_state(3), w_state(3), basis_state(3, k % 8), make_state(3, product)):
                states.append(apply_local_unitary(s, LocalUnitary.random(3, seed=rng)))
        batch = _canonicalize(np.stack([s.tensor for s in states]), SolverConfig(restarts=32))
        assert len(batch) == len(states) >= 1000
        for i in [*range(checked), *range(checked, len(states), 40)]:
            alone, alone_lu = canonicalize(states[i])
            params, lu = batch[i]
            assert params == alone
            for m, m_alone in zip(lu.matrices, alone_lu.matrices):
                assert np.array_equal(m, m_alone)

    def test_lu_w_copies_equal_scalar_calls(self):
        # W's maximisers form a circle, so its runs freeze at many points of it
        # and leave the most branches to deduplicate and polish
        states = [apply_local_unitary(w_state(3), LocalUnitary.random(3, seed=200 + k))
                  for k in range(12)]
        batch = _canonicalize(np.stack([s.tensor for s in states]), SolverConfig(restarts=32))
        for s, (params, lu) in zip(states, batch):
            alone, alone_lu = canonicalize(s)
            assert params == alone
            for m, m_alone in zip(lu.matrices, alone_lu.matrices):
                assert np.array_equal(m, m_alone)
            assert reconstruction_infidelity(s, params, lu) < 1e-8

    def test_deterministic(self):
        s = haar_random_state(3, seed=8)
        p1, _ = canonicalize(s, seed=5)
        p2, _ = canonicalize(s, seed=5)
        assert p1 == p2

    def test_tangle_consistency(self):
        for seed in range(10):
            s = haar_random_state(3, seed=100 + seed)
            p, _ = canonicalize(s, seed=seed)
            assert three_tangle_canonical(p) == pytest.approx(three_tangle(s), abs=1e-8)


class TestGaugeFix:
    @pytest.mark.parametrize("pattern", range(16))
    def test_vanishing_amplitudes(self, pattern):
        # frame amplitudes of a stationary branch: 1, 2 and 4 vanish; bit j of
        # ``pattern`` zeroes amplitude (3, 5, 6, 7)[j]
        rng = np.random.default_rng(pattern)
        amps = rng.normal(size=(40, 8)) + 1j * rng.normal(size=(40, 8))
        amps[:, [1, 2, 4]] = 0.0
        vanishing = [i for j, i in enumerate((3, 5, 6, 7)) if pattern >> j & 1]
        amps[:, vanishing] = 0.0
        rows, theta, residual = _gauge_fix(amps)
        gauged = amps * np.exp(1j * theta @ _GAUGE_BITS.T)
        fixed = gauged[:, [0, 3, 5, 6]]
        assert np.abs(fixed.imag).max() < 1e-12 and fixed.real.min() > -1e-12
        assert residual.max() < 1e-20
        vals = np.abs(amps[:, [3, 5, 6, 0, 7]])
        assert np.allclose(rows[:, :5], vals / np.linalg.norm(vals, axis=1, keepdims=True),
                           rtol=0, atol=1e-15)
        gamma = rows[:, 5]
        assert gamma.min() > -math.pi / 2 and gamma.max() <= math.pi / 2 + 1e-12
        if 7 in vanishing:
            assert np.all(gamma == 0.0)
            return
        # gamma is the phase of amplitude 7, and zero when any of 3, 5, 6
        # vanishes, since the gauge freedom left over is spent on it
        assert np.allclose(np.exp(1j * gamma), gauged[:, 7] / np.abs(gauged[:, 7]), atol=1e-12)
        if vanishing:
            assert np.all(gamma == 0.0)

    @pytest.mark.parametrize("phase, gamma", [
        (-math.pi / 2 - 5e-13, math.pi / 2 - 5e-13),
        (-math.pi / 2, math.pi / 2),
        (-math.pi / 2 + 5e-13, math.pi / 2 + 5e-13),
        (math.pi / 2 + 5e-13, math.pi / 2 + 5e-13),
    ])
    def test_gamma_near_the_fold_lands_on_the_half_pi_side(self, phase, gamma):
        amps = np.array([[0.5, 0, 0, 0.4, 0, 0.3, 0.2, 0.6 * np.exp(1j * phase)]])
        rows, theta, _ = _gauge_fix(amps)
        assert rows[0, 5] == pytest.approx(gamma, rel=0, abs=1e-15)
        gauged = amps * np.exp(1j * theta @ _GAUGE_BITS.T)
        assert np.angle(gauged[0, 7]) == pytest.approx(gamma, rel=0, abs=1e-12)
