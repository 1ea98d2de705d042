"""Tests for the numeric overlap solver and its geometric helpers."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    ProductState,
    SolverConfig,
    basis_state,
    bloch_to_spinor,
    bloch_vector,
    canonical_to_state,
    correlation_matrix,
    dicke4_state,
    geometric_measure,
    ghz_overlap,
    ghz_state,
    ghz_theta_state,
    haar_random_state,
    make_state,
    nearest_product_state,
    overlap_with_product,
    permute_qubits,
    quadrilateral_overlap,
    quarter_form,
    random_feasible_quadrilateral,
    spinor_to_bloch,
    stationarity_residual,
    w_state,
    LocalUnitary,
    apply_local_unitary,
)
import entgeo
from entgeo import _als
from entgeo.cli import build_parser
from entgeo.overlap import _solve_overlaps
from entgeo.states import ZeroBlochFamily, _cut_bound, _sample_zero_bloch

from oracles import grid_overlap_sq

FAST = SolverConfig(restarts=16)
# rounding slack of g^2 <= the one-qubit cut bound (``states._cut_bound``)
BOUND_SLACK = 1e-14


class TestKnownValues:
    def test_ghz(self):
        result = nearest_product_state(ghz_state(3), FAST)
        assert result.g_squared == pytest.approx(0.5, abs=1e-9)
        # either |000> or |111> is an acceptable maximizer
        amps = np.abs(result.product.amplitudes())
        assert max(amps[0], amps[7]) == pytest.approx(1.0, abs=1e-7)

    def test_w(self):
        result = nearest_product_state(w_state(3), FAST)
        assert result.g_squared == pytest.approx(4 / 9, abs=1e-9)

    def test_w_against_grid_oracle(self):
        assert grid_overlap_sq(w_state(3).amplitudes) == pytest.approx(4 / 9, abs=1e-9)

    def test_dicke4(self):
        result = nearest_product_state(dicke4_state(), FAST)
        assert result.g_squared == pytest.approx(3 / 8, abs=1e-9)

    def test_upper_bound(self):
        for state, bound in ((ghz_state(3), 0.5), (w_state(3), 2 / 3), (dicke4_state(), 0.5)):
            result = nearest_product_state(state, FAST)
            assert result.upper_bound == pytest.approx(bound, abs=1e-15)
            assert result.g_squared <= result.upper_bound + BOUND_SLACK

    def test_product_state_converges_fast(self):
        result = nearest_product_state(basis_state(3, 5), FAST)
        assert result.g_squared == pytest.approx(1.0, abs=1e-12)
        assert result.iterations <= 3

    def test_g_squared_consistent_with_product(self):
        for seed in range(5):
            s = haar_random_state(3, seed=seed)
            result = nearest_product_state(s, FAST)
            direct = overlap_with_product(s, result.product) ** 2
            assert result.g_squared == pytest.approx(direct, abs=1e-10)


class TestSolverContracts:
    def test_gate_stops_a_state_at_its_first_freeze(self):
        # stop_at 0 fires on state 0's first freezing run; +inf never fires
        psis = np.stack([haar_random_state(4, seed=seed).tensor for seed in (1, 2)])
        free = _als.power_iteration(psis, 8, 500, 1e-6, 3)
        gated = _als.power_iteration(psis, 8, 500, 1e-6, 3, stop_at=np.array([0.0, np.inf]))
        assert gated["gated"].tolist() == [True, False] and not free["gated"].any()
        first = free["iterations"][0].min()
        assert np.all(gated["iterations"][0] == first) and gated["converged"][0].all()
        froze = free["iterations"][0] == first
        assert np.array_equal(gated["g_squared"][0, froze], free["g_squared"][0, froze])
        for key in ("g_squared", "iterations", "converged"):
            assert np.array_equal(gated[key][1], free[key][1])
        for a, b in zip(gated["spinors"], free["spinors"]):
            assert np.array_equal(a[1], b[1])

    def test_monotone_sweeps(self):
        # a cap of k sweeps reports each run after sweep min(k, its freeze sweep),
        # so stacking the capped results gives every run's per-sweep history
        for seed in range(5):
            psis = haar_random_state(3, seed=seed).tensor[None]
            full = _als.power_iteration(psis, restarts=8, max_iterations=500, tol=1e-13, seed=seed)
            hist = np.array([
                _als.power_iteration(psis, restarts=8, max_iterations=k, tol=1e-13, seed=seed)[
                    "g_squared"
                ]
                for k in range(1, int(full["iterations"].max()) + 1)
            ])
            assert np.array_equal(hist[-1], full["g_squared"])
            diffs = np.diff(hist, axis=0)
            assert np.nanmin(diffs) > -1e-14

    def test_determinism(self):
        s = haar_random_state(3, seed=3)
        a = nearest_product_state(s, SolverConfig(restarts=8, seed=11))
        b = nearest_product_state(s, SolverConfig(restarts=8, seed=11))
        assert a.g_squared == b.g_squared
        for x, y in zip(a.product.spinors, b.product.spinors):
            assert np.array_equal(x, y)

    def test_solver_vs_grid_oracle(self):
        for seed in range(25):
            s = haar_random_state(3, seed=seed)
            solver = nearest_product_state(s, FAST).g_squared
            oracle = grid_overlap_sq(s.amplitudes)
            assert solver == pytest.approx(oracle, abs=1e-6)

    def test_lu_invariance(self):
        for seed in range(10):
            s = haar_random_state(3, seed=seed)
            u = LocalUnitary.random(3, seed=500 + seed)
            a = nearest_product_state(s, FAST).g_squared
            b = nearest_product_state(apply_local_unitary(s, u), FAST).g_squared
            assert a == pytest.approx(b, abs=1e-7)

    def test_permutation_symmetry(self):
        for seed in range(10):
            s = haar_random_state(3, seed=seed)
            a = nearest_product_state(s, FAST).g_squared
            b = nearest_product_state(permute_qubits(s, (2, 0, 1)), FAST).g_squared
            assert a == pytest.approx(b, abs=1e-9)

    def test_stationarity_and_multipliers(self):
        for seed in range(10):
            s = haar_random_state(3, seed=seed)
            result = nearest_product_state(s, FAST)
            assert result.stationarity_residual <= 1e-8
            lam1, lam2 = result.lagrange
            assert lam1 > 0 and lam2 > 0

    def test_four_qubit_residual(self):
        result = nearest_product_state(haar_random_state(4, seed=2), FAST)
        assert result.stationarity_residual <= 1e-8
        assert result.lagrange is None

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            nearest_product_state(basis_state(1, 0), FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)

    @pytest.mark.parametrize("field", ["restarts", "max_iterations"])
    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, "4", None])
    def test_config_integer_fields_named(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {bad!r}"):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [None, -1, 1.5, True])
    def test_config_seed_named(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {bad!r}"):
            SolverConfig(seed=bad)

    def test_no_knobs_beyond_the_four_fields(self, capsys):
        # the freeze tolerance and the re-solve threshold are constants, not settings
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "restarts", "max_iterations", "seed"
        ]
        parser = build_parser()
        for argv in (["overlap", "--builtin", "ghz"], ["inverse-search"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, "--tol", "1e-9"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        # verify-theorem's --tol is its pass tolerance on |g^2 - 1/2|
        assert parser.parse_args(["verify-theorem", "--tol", "1e-9"]).tol == 1e-9
        sources = sorted(Path(entgeo.__file__).parent.glob("*.py"))
        assert sources
        for path in sources:
            assert not re.search(r"\b(environ|getenv)\b", path.read_text()), path.name

    def test_config_accepts_numpy_scalars(self):
        cfg = SolverConfig(restarts=np.int64(3), max_iterations=np.int32(40), seed=np.uint8(2))
        assert nearest_product_state(ghz_state(3), cfg).g_squared == pytest.approx(0.5, abs=1e-12)


class TestDominanceStop:
    """A gated ALS call stops each run that, from sweep ``_als.COARSE_SWEEPS``
    on, lies below a run of its own state frozen in an earlier sweep."""

    # Haar n = 6, seed 24, 16 restarts at seed 3, tol 1e-11: without the stop
    # its runs freeze at these sweeps, three of them on the 0.1548 branch by
    # sweep 36, and ten creep up to the best branch for 55..141 sweeps
    SWEEPS = [58, 34, 61, 24, 65, 141, 65, 36, 58, 115, 134, 92, 29, 79, 93, 68, 55]

    def test_dominated_runs_stop_from_coarse_sweeps(self):
        psis = haar_random_state(6, seed=24).tensor[None]
        cap = _als.COARSE_SWEEPS
        free = _als.power_iteration(psis, 16, 500, 1e-11, 3)
        run = _als.power_iteration(psis, 16, 500, 1e-11, 3, stop_at=np.array([np.inf]))
        assert not run["gated"].any()
        sweeps, conv, g2 = run["iterations"][0], run["converged"][0], run["g_squared"][0]
        # a run that froze by itself did so exactly as in the free call
        assert np.array_equal(sweeps[conv], free["iterations"][0][conv])
        assert np.array_equal(g2[conv], free["g_squared"][0][conv])
        # the others stopped at sweep COARSE_SWEEPS or later, where they were,
        # each below a run frozen in an earlier sweep
        stopped = np.flatnonzero(~conv)
        assert stopped.size and sweeps[stopped].min() == cap
        at_cap = stopped[sweeps[stopped] == cap]
        capped = _als.power_iteration(psis, 16, cap, 1e-11, 3)
        assert np.array_equal(g2[at_cap], capped["g_squared"][0, at_cap])
        for k in stopped:
            assert g2[k] < g2[conv & (sweeps < sweeps[k])].max()
        # a run above every frozen run goes on past COARSE_SWEEPS to its freeze
        assert np.any(conv & (sweeps > cap))
        assert g2.max() == free["g_squared"][0].max()

    def test_ungated_call_is_unchanged(self):
        psis = haar_random_state(6, seed=24).tensor[None]
        free = _als.power_iteration(psis, 16, 500, 1e-11, 3)
        assert free["iterations"][0].tolist() == self.SWEEPS and free["converged"].all()
        assert free["g_squared"].max() == pytest.approx(0.20052249352765697, abs=1e-15)
        assert free["g_squared"].min() == pytest.approx(0.12550110916370885, abs=1e-15)
        assert free["g_squared"][0, 9] == pytest.approx(0.1523936171074721, abs=1e-15)

    def test_state_alone_equals_its_row_where_the_stop_fires(self):
        # pass 1 of ``_solve_overlaps``: the Haar rows' stops fire, the LU-GHZ
        # row stops at its cut-bound gate
        states = [haar_random_state(6, seed=seed) for seed in (0, 5, 11, 24)]
        states.insert(2, apply_local_unitary(ghz_state(6), LocalUnitary.random(6, seed=1)))
        tensors = np.stack([s.tensor for s in states])
        cfg = SolverConfig(restarts=16, seed=3)
        stop_at = _cut_bound(tensors) - _als.GATE_MARGIN
        run = _als.power_iteration(tensors, cfg.restarts, cfg.max_iterations, _als.COARSE_TOL,
                                   cfg.seed, stop_at=stop_at)
        stopped = ~run["converged"] & (run["iterations"] >= _als.COARSE_SWEEPS)
        assert np.flatnonzero(stopped.any(axis=1)).tolist() == [0, 1, 3, 4]
        assert np.flatnonzero(run["gated"]).tolist() == [2]
        batch = _solve_overlaps(tensors, cfg)
        assert batch[4] == 0
        for i in range(len(states)):
            one = _als.power_iteration(tensors[i : i + 1], cfg.restarts, cfg.max_iterations,
                                       _als.COARSE_TOL, cfg.seed, stop_at=stop_at[i : i + 1])
            for key in ("g_squared", "iterations", "converged", "gated"):
                assert np.array_equal(run[key][i], one[key][0])
            assert np.array_equal(run["spinors"][:, i], one["spinors"][:, 0])
            alone = _solve_overlaps(tensors[i : i + 1], cfg)
            for whole, part in zip((batch[0], *batch[1], *batch[2:4], batch[5]),
                                   (alone[0], *alone[1], *alone[2:4], alone[5])):
                assert np.array_equal(whole[i], part[0])


class TestQuarterForm:
    def test_basis_state(self):
        s = basis_state(3, 0)
        z = np.array([0.0, 0.0, 1.0])
        value = quarter_form(z, z, bloch_vector(s, 0), bloch_vector(s, 1),
                             correlation_matrix(s, 0, 1))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_ghz_along_z(self):
        s = ghz_state(3)
        z = np.array([0.0, 0.0, 1.0])
        value = quarter_form(z, z, bloch_vector(s, 0), bloch_vector(s, 1),
                             correlation_matrix(s, 0, 1))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_non_unit_rejected(self):
        s = ghz_state(3)
        with pytest.raises(ValueError):
            quarter_form([0, 0, 2.0], [0, 0, 1.0], bloch_vector(s, 0),
                         bloch_vector(s, 1), correlation_matrix(s, 0, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        s = ghz_state(3)
        b_a, b_b, g = bloch_vector(s, 0), bloch_vector(s, 1), correlation_matrix(s, 0, 1)
        z = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="finite unit 3-vectors"):
            quarter_form([bad, 0.0, 0.0], z, b_a, b_b, g)
        with pytest.raises(ValueError, match="finite unit 3-vectors"):
            quarter_form(z, [0.0, bad, 1.0], b_a, b_b, g)
        with pytest.raises(ValueError, match="must be finite"):
            quarter_form(z, z, b_a, b_b, np.where(np.eye(3) > 0, bad, g))

    def test_maximum_equals_solver(self):
        # the form at the solver's Bloch vectors x, y reproduces its g^2
        for seed in range(15):
            s = haar_random_state(3, seed=seed)
            result = nearest_product_state(s, FAST)
            x, y = (spinor_to_bloch(sp) for sp in result.product.spinors[:2])
            value = quarter_form(x, y, bloch_vector(s, 0), bloch_vector(s, 1),
                                 correlation_matrix(s, 0, 1))
            assert value == pytest.approx(result.g_squared, abs=1e-9)


class TestStationarityResidual:
    def test_ghz_exact_solution(self):
        z = np.array([0.0, 0.0, 1.0])
        assert stationarity_residual(ghz_state(3), z, z, 1.0, 1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perturbed_is_positive(self):
        x = np.array([math.sin(0.1), 0.0, math.cos(0.1)])
        z = np.array([0.0, 0.0, 1.0])
        assert stationarity_residual(ghz_state(3), x, z, 1.0, 1.0) > 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        z = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite unit 3-vectors"):
            stationarity_residual(ghz_state(3), [bad, 0.0, 0.0], z, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite unit 3-vectors"):
            stationarity_residual(ghz_state(3), z, [0.0, bad, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="lam1 and lam2 must be finite"):
            stationarity_residual(ghz_state(3), z, z, 1.0, bad)

    def test_converged_result_satisfies_stationarity(self):
        s = haar_random_state(3, seed=77)
        result = nearest_product_state(s, FAST)
        x = spinor_to_bloch(result.product.spinors[0])
        y = spinor_to_bloch(result.product.spinors[1])
        lam1, lam2 = result.lagrange
        assert stationarity_residual(s, x, y, lam1, lam2) <= 1e-8

    def test_converged_means_the_polish_finished(self):
        # three sweeps stop every run at the cap, but the polish of the best one
        # reaches the stationary point, so the answer is converged
        result = nearest_product_state(
            haar_random_state(3, seed=1), SolverConfig(restarts=4, max_iterations=3)
        )
        assert result.iterations == 3
        assert result.stationarity_residual <= 1e-13
        assert result.converged


class TestSpinorBloch:
    def test_poles(self):
        assert np.allclose(bloch_to_spinor([0, 0, 1]), [1, 0])
        assert np.allclose(bloch_to_spinor([0, 0, -1]), [0, 1])

    def test_equator(self):
        assert np.allclose(bloch_to_spinor([1, 0, 0]), [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert np.abs(spinor_to_bloch(bloch_to_spinor(v)) - v).max() < 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            back = bloch_to_spinor(spinor_to_bloch(z))
            assert back[0].imag == pytest.approx(0.0, abs=1e-12)
            assert back[0].real >= -1e-15
            # equal up to the removed phase
            assert abs(abs(np.vdot(back, z)) - 1.0) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bloch_to_spinor([0, 0, 0.5])
        with pytest.raises(ValueError):
            spinor_to_bloch([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bloch_to_spinor_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite unit 3-vector"):
            bloch_to_spinor([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite unit 3-vector"):
            bloch_to_spinor([0.0, 0.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_spinor_to_bloch_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite normalized 2-spinor"):
            spinor_to_bloch([bad, 0.0])
        with pytest.raises(ValueError, match="finite normalized 2-spinor"):
            spinor_to_bloch([1.0, bad])


class TestGeometricMeasure:
    def test_product(self):
        assert geometric_measure(1.0) == pytest.approx(0.0)

    def test_half(self):
        assert geometric_measure(0.5) == pytest.approx(math.log(2.0))

    def test_dicke_value(self):
        assert geometric_measure(3 / 8) == pytest.approx(math.log(8 / 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_measure(0.0)
        with pytest.raises(ValueError):
            geometric_measure(-0.2)


def _residuals(psi_conj, spinors):
    """Reference residuals: the state contracted with the orthogonal complement
    of one spinor and the other spinors as they are, one qubit at a time."""
    out = []
    for q in range(len(spinors)):
        t = psi_conj
        for k, e in enumerate(spinors):
            op = np.array([-np.conj(e[1]), np.conj(e[0])]) if k == q else e
            t = np.tensordot(t, op, axes=([0], [0]))
        out.append(t)
    return np.array(out)


def _moved(spinors, q, t):
    out = list(spinors)
    e = spinors[q]
    m = e + t * np.array([-np.conj(e[1]), np.conj(e[0])])
    out[q] = m / np.linalg.norm(m)
    return out


def _fd_jacobian(psi_conj, spinors, step):
    """Central differences of the residuals along Re t_q and Im t_q."""
    n = len(spinors)
    jac = np.empty((2 * n, 2 * n))
    for q in range(n):
        for part, t in enumerate((step, 1j * step)):
            d = (_residuals(psi_conj, _moved(spinors, q, t))
                 - _residuals(psi_conj, _moved(spinors, q, -t))) / (2.0 * step)
            jac[:, 2 * q + part] = np.concatenate([d.real, d.imag])
    return jac


def _einsum_run(psi_conj, spinors, max_iterations, tol):
    """One run of power_iteration as the n-operand einsum update, written out."""
    n = psi_conj.ndim
    axes = "abcdefgh"[:n]
    spinors = list(spinors)
    g2 = 0.0
    for sweep in range(1, max_iterations + 1):
        for q in range(n):
            others = [k for k in range(n) if k != q]
            subscripts = ",".join([axes] + [axes[k] for k in others]) + "->" + axes[q]
            v = np.einsum(subscripts, psi_conj, *[spinors[k] for k in others])
            norm = np.linalg.norm(v)
            spinors[q] = v.conj() / norm
        converged = abs(norm**2 - g2) < tol
        g2 = norm**2
        if converged:
            break
    return g2, spinors, sweep, converged


class TestSweepKernel:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_sweeps_match_einsum_formula(self, n):
        states = [haar_random_state(n, seed=10 * n + k) for k in range(3)]
        states.append(apply_local_unitary(ghz_state(n), LocalUnitary.random(n, seed=n)))
        states.append(w_state(n))
        states.append(basis_state(n, 2**n - 2))
        psis = np.stack([s.tensor for s in states])
        restarts, seed = 3, 7
        starts = _als._initial_spinors(psis, restarts, seed)
        # even states are gated at their first freezing run, odd ones never
        stop_at = np.where(np.arange(len(states)) % 2 == 0, 0.0, np.inf)

        def einsum_runs(i, sweeps, tol):
            return [_einsum_run(psis[i].conj(), starts[:, i, r], sweeps, tol)
                    for r in range(restarts + 1)]

        # 1e-13 is the freeze tolerance of canonicalize; at 1e-6 the runs freeze at
        # their own sweeps, so the caps up to 40 check the stacked write-out and
        # compaction row by row
        for tol, caps in ((1e-13, (1, 3)), (1e-6, (1, 3, 10, 40))):
            for sweeps in caps:
                free = [einsum_runs(i, sweeps, tol) for i in range(len(states))]
                for gate in (None, stop_at):
                    run = _als.power_iteration(psis, restarts, sweeps, tol, seed, stop_at=gate)
                    for i, own in enumerate(free):
                        fired = [] if gate is None else [
                            it for g2, _, it, _ in own if g2 >= gate[i]
                        ]
                        assert run["gated"][i] == bool(fired)
                        # a gated state's runs all stop, converged, at its first hit
                        expect = own if not fired else [
                            (g2, spinors, iters, True)
                            for g2, spinors, iters, _ in einsum_runs(i, min(fired), tol)
                        ]
                        for r, (g2, spinors, iters, conv) in enumerate(expect):
                            assert run["g_squared"][i, r] == pytest.approx(g2, abs=1e-13)
                            for q in range(n):
                                assert np.abs(run["spinors"][q][i, r] - spinors[q]).max() <= 1e-13
                            assert run["iterations"][i, r] == iters
                            assert run["converged"][i, r] == conv
        # under the last 1e-6 cap the free runs froze at many different sweeps
        assert len({iters for own in free for _, _, iters, _ in own}) >= 3

    def test_vanishing_contraction_keeps_the_spinor(self, monkeypatch):
        # |000> started at |1>|1>|0>: every contraction of sweep 1 is exactly 0; at
        # |0>|1>|0> only qubit 0's is, and qubit 1 then moves to |0>
        zero = basis_state(3, 0).tensor
        haar = np.stack([haar_random_state(3, seed=seed).tensor for seed in (1, 2)])
        psis = np.stack([haar[0], zero, haar[1]])
        orthogonal = np.array([[[0, 1], [1, 0]], [[0, 1], [0, 1]], [[1, 0], [1, 0]]])
        initial = _als._initial_spinors

        def orthogonal_starts(psis, restarts, seed):
            starts = initial(psis, restarts, seed)
            for s in np.flatnonzero(np.all(psis.reshape(len(psis), -1) == zero.reshape(-1), 1)):
                starts[:, s, :2] = orthogonal
            return starts

        monkeypatch.setattr(_als, "_initial_spinors", orthogonal_starts)
        restarts, seed = 4, 3
        run = _als.power_iteration(psis, restarts, 500, 1e-13, seed)
        assert np.all(np.isfinite(run["spinors"])) and np.all(np.isfinite(run["g_squared"]))
        assert np.abs(np.linalg.norm(run["spinors"], axis=-1) - 1.0).max() <= 1e-15
        assert run["g_squared"][1, 0] == 0.0 and run["iterations"][1, 0] == 1
        assert run["converged"][1, 0]
        assert np.array_equal(run["spinors"][:, 1, 0], orthogonal[:, 0])
        assert run["g_squared"][1, 1] == 1.0 and run["iterations"][1, 1] == 2
        assert np.array_equal(np.abs(run["spinors"][:, 1, 1]), [[1, 0]] * 3)
        # the batch-mates run exactly as they do alone
        for i in (0, 2):
            alone = _als.power_iteration(psis[i : i + 1], restarts, 500, 1e-13, seed)
            for key in ("g_squared", "iterations", "converged"):
                assert np.array_equal(run[key][i], alone[key][0])
            assert np.array_equal(run["spinors"][:, i], alone["spinors"][:, 0])

    def test_initial_spinors(self):
        states = [haar_random_state(4, seed=k) for k in range(3)] + [basis_state(4, 11)]
        psis = np.stack([s.tensor for s in states])
        starts = _als._initial_spinors(psis, 5, 9)
        assert len(starts) == 4
        for sp in starts:
            assert sp.shape == (4, 6, 2)
            assert np.allclose(np.linalg.norm(sp, axis=-1), 1.0, atol=1e-15)
        for i, s in enumerate(states):
            basis = ProductState(tuple(sp[i, -1] for sp in starts)).amplitudes()
            assert np.array_equal(np.abs(basis), np.eye(16)[np.argmax(np.abs(s.amplitudes))])
            alone = _als._initial_spinors(psis[i : i + 1], 5, 9)
            for a, b in zip(starts, alone):
                assert np.array_equal(a[i], b[0])
        # one (n, 1, restarts) draw, shared by every state of the batch
        drawn = _als.haar_bloch_spinors(np.random.default_rng(9), (4, 1, 5))
        for sp, column in zip(starts, drawn):
            assert np.array_equal(sp[:, :-1], np.broadcast_to(column, (4, 5, 2)))
        again = _als._initial_spinors(psis, 5, 9)
        other = _als._initial_spinors(psis, 5, 10)
        for a, b, c in zip(starts, again, other):
            assert np.array_equal(a, b)
            assert not np.allclose(a[:, :-1], c[:, :-1])
            assert np.array_equal(a[:, -1], c[:, -1])


def assert_best_polished(tensors, cfg):
    """``_solve_overlaps`` reaches the best of every ``tol = 1e-13`` run of the
    same starts, each polished, to 1e-12, and its product reproduces its g^2,
    which is returned."""
    g2, spinors = _solve_overlaps(tensors, cfg)[:2]
    run = _als.power_iteration(tensors, cfg.restarts, cfg.max_iterations, 1e-13, cfg.seed)
    every_run = [sp.reshape(-1, 2) for sp in run["spinors"]]
    repeated = np.repeat(tensors, cfg.restarts + 1, axis=0)
    polished = _als.polish_stationary(repeated, every_run)[2].reshape(len(tensors), -1)
    assert np.all(g2 >= polished.max(axis=1) - 1e-12)
    for i, psi in enumerate(tensors):
        product = _als._frame_amplitudes(psi.conj()[None], [sp[i : i + 1] for sp in spinors])
        assert abs(product[0, 0]) ** 2 == pytest.approx(g2[i], abs=1e-12)
    return g2


def _best_runs(tensors, cfg):
    """Each state's best ALS run, frozen at ``_als.COARSE_TOL``, as n arrays (S, 2)."""
    run = _als.power_iteration(tensors, cfg.restarts, cfg.max_iterations, _als.COARSE_TOL,
                               cfg.seed)
    best = np.argmax(run["g_squared"], axis=1)
    return [sp[np.arange(len(tensors)), best] for sp in run["spinors"]]


class TestFrameAmplitudes:
    @staticmethod
    def _batch(n, seed):
        rng = np.random.default_rng(seed)
        states = [haar_random_state(n, seed=rng) for _ in range(3)]
        spinors = list(_als.haar_bloch_spinors(rng, (n, 3)))  # n arrays (3, 2)
        frame = _als._frame_amplitudes(np.stack([s.tensor.conj() for s in states]), spinors)
        return states, spinors, frame

    @pytest.mark.parametrize("n", range(2, 9))
    def test_conjugate_of_local_unitary_image(self, n):
        states, spinors, frame = self._batch(n, 70 + n)
        for i, s in enumerate(states):
            # rows e^dagger and perp(e)^dagger, perp(e) = (-conj(e1), conj(e0))
            rows = [np.array([[e0.conj(), e1.conj()], [-e1, e0]]) for e0, e1 in
                    (sp[i] for sp in spinors)]
            image = apply_local_unitary(s, LocalUnitary(tuple(rows))).amplitudes
            assert np.abs(frame[i].conj() - image).max() <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_flips_and_overlap(self, n):
        states, spinors, frame = self._batch(n, 80 + n)
        cross, g = _als._cross_amplitudes(np.stack([s.tensor.conj() for s in states]), spinors)
        flips = frame[:, 1 << (n - 1 - np.arange(n))]
        assert np.array_equal(flips, np.diagonal(cross, axis1=1, axis2=2))
        assert np.array_equal(frame[:, 0], g)
        for i, s in enumerate(states):
            product = ProductState(tuple(sp[i] for sp in spinors))
            assert overlap_with_product(s, product) == pytest.approx(abs(frame[i, 0]), abs=1e-15)


class TestSolvePath:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_jacobian_matches_finite_differences(self, n):
        rng = np.random.default_rng(40 + n)
        psis, points = [], []
        for trial in range(3):
            psis.append(haar_random_state(n, seed=rng).tensor.conj())
            points.append(list(_als.haar_bloch_spinors(rng, (n,))))
        cross, g = _als._cross_amplitudes(np.stack(psis), [np.array(c) for c in zip(*points)])
        jacobians = _als._newton_jacobian(cross, g)
        for psi_conj, spinors, c, jac in zip(psis, points, cross, jacobians):
            assert np.allclose(c, c.T, atol=1e-15)
            assert np.allclose(np.diagonal(c), _residuals(psi_conj, spinors), atol=1e-15)
            reference = _fd_jacobian(psi_conj, spinors, step=1e-6)
            assert np.abs(jac - reference).max() <= 1e-6

    @pytest.mark.parametrize("n", range(2, 9))
    def test_polish_reaches_machine_precision(self, n):
        states = [haar_random_state(n, seed=100 * n + seed) for seed in range(3)]
        tensors = np.stack([s.tensor for s in states])
        polished, residual, g2 = _als.polish_stationary(tensors, _best_runs(tensors, FAST))
        assert residual.max() <= 1e-13
        for i, s in enumerate(states):
            spinors = [sp[i] for sp in polished]
            assert np.linalg.norm(_residuals(s.tensor.conj(), spinors)) <= 1e-13
            product = ProductState(tuple(spinors))
            assert overlap_with_product(s, product) ** 2 == pytest.approx(g2[i], abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mixed_batch_polish_equals_one_at_a_time(self, n):
        states = [haar_random_state(n, seed=500 + n + k) for k in range(3)]
        states.append(apply_local_unitary(ghz_state(n), LocalUnitary.random(n, seed=n)))
        states.append(w_state(n))
        states.append(basis_state(n, 5))
        tensors = np.stack([s.tensor for s in states])
        starts = _best_runs(tensors, SolverConfig(restarts=4, max_iterations=30))
        spinors, residual, g2 = _als.polish_stationary(tensors, starts)
        assert residual[-1] == 0.0 and g2[-1] == pytest.approx(1.0, abs=1e-15)
        assert residual.max() <= 1e-12
        for i in range(len(states)):
            alone = _als.polish_stationary(tensors[i : i + 1], [sp[i : i + 1] for sp in starts])
            assert residual[i] == pytest.approx(alone[1][0], abs=1e-14)
            assert g2[i] == pytest.approx(alone[2][0], abs=1e-14)
            for q in range(n):
                assert np.abs(spinors[q][i] - alone[0][q][0]).max() <= 1e-14

    def test_singular_row_keeps_its_start_and_others_polish(self):
        # (|01> + |10>)/sqrt(2) at |0>|0>: g = 0 and C[0, 1] = 0, so the
        # Jacobian vanishes while the residual is 1
        bell = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
        haar = haar_random_state(2, seed=8).tensor
        tensors = np.stack([bell, haar])
        starts = _best_runs(tensors, SolverConfig(restarts=4, max_iterations=5))
        for sp in starts:
            sp[0] = [1.0, 0.0]
        spinors, residual, g2 = _als.polish_stationary(tensors, starts)
        for q in range(2):
            assert np.array_equal(spinors[q][0], [1.0, 0.0])
        assert residual[0] == pytest.approx(1.0, abs=1e-15) and g2[0] == 0.0
        alone = _als.polish_stationary(tensors[1:], [sp[1:] for sp in starts])
        assert residual[1] <= 1e-13
        assert residual[1] == alone[1][0] and g2[1] == alone[2][0]

    def test_solve_overlaps_is_best_run_polished(self, als_passes):
        states = [haar_random_state(4, seed=seed) for seed in range(3)]
        states.append(apply_local_unitary(ghz_state(4), LocalUnitary.random(4, seed=1)))
        states.append(apply_local_unitary(w_state(4), LocalUnitary.random(4, seed=2)))
        tensors = np.stack([s.tensor for s in states])
        cfg = SolverConfig(restarts=8, seed=5)
        g2, spinors, residual, sweeps, resolved, upper = _solve_overlaps(tensors, cfg)
        assert np.array_equal(upper, _cut_bound(tensors)) and np.all(g2 <= upper + BOUND_SLACK)
        # pass 1: runs frozen at the coarse tolerance, each state's best one
        # polished; the stalled rows are re-solved (see the stalled-polish test)
        redo = als_passes.resolved_rows(cfg)
        assert resolved == redo.size
        assert np.array_equal(sweeps, als_passes.answer("sweeps", redo))
        assert np.array_equal(g2, als_passes.answer("g_squared", redo))
        assert np.array_equal(residual, als_passes.answer("residual", redo))
        tight = _als.power_iteration(tensors, cfg.restarts, cfg.max_iterations, 1e-13, cfg.seed)
        assert np.abs(g2 - tight["g_squared"].max(axis=1)).max() <= 1e-12
        for i, s in enumerate(states):
            product = ProductState(tuple(sp[i] for sp in spinors))
            assert overlap_with_product(s, product) ** 2 == pytest.approx(g2[i], abs=1e-15)
        assert g2[3] == pytest.approx(0.5, abs=1e-12)
        assert g2[4] == pytest.approx(27 / 64, abs=1e-12)

    def test_stalled_polish_is_resolved_at_tol(self, als_passes):
        # two near-edge samples of criterion 8, each with one side below 0.01:
        # their coarse runs freeze short of the basin and the polish stalls
        rng = np.random.default_rng(7)
        params = [random_feasible_quadrilateral(rng) for _ in range(500)]
        stalled = [117, 140]
        assert all(min(params[i].a, params[i].b, params[i].c, params[i].d) < 0.01 for i in stalled)
        tensors = np.stack([p.to_state().tensor for p in params])
        g2, spinors, residual, sweeps, resolved, _ = _solve_overlaps(tensors, FAST)
        stall = als_passes[0]["residual"]
        assert np.flatnonzero(stall > _als.POLISHED_RESIDUAL).tolist() == stalled
        assert 4e-4 <= stall[stalled].min() and stall[stalled].max() <= 7e-4
        # one re-solve of those rows alone, under the escalated budget and frozen
        # at _als.COARSE_TOL like pass 1
        redo = als_passes.resolved_rows(FAST)
        assert redo.tolist() == stalled and resolved == len(stalled)
        assert np.array_equal(sweeps, als_passes.answer("sweeps", redo))
        closed = np.array([quadrilateral_overlap(params[i]) ** 2 for i in stalled])
        assert np.abs(g2[stalled] - closed).max() <= 1e-12
        assert residual.max() <= _als.POLISHED_RESIDUAL

    def test_state_alone_equals_its_row_in_a_mixed_batch(self, als_passes):
        # criterion-8 samples 117 and 140 stall in pass 1 and are re-solved; the
        # Haar rows are answered by pass 1 ungated, and the LU-GHZ row and the
        # campaign samples (one-qubit cut bound 1/2) by pass 1 at the gate
        rng = np.random.default_rng(7)
        params = [random_feasible_quadrilateral(rng) for _ in range(500)]
        rng = np.random.default_rng(12)
        campaign = [canonical_to_state(_sample_zero_bloch(family, rng))
                    for family in ZeroBlochFamily for _ in range(3)]
        states = [haar_random_state(3, seed=60), params[117].to_state(),
                  apply_local_unitary(ghz_state(3), LocalUnitary.random(3, seed=4)),
                  haar_random_state(3, seed=61), params[140].to_state(), *campaign]
        tensors = np.stack([s.tensor for s in states])
        batch = _solve_overlaps(tensors, FAST)
        redo = als_passes.resolved_rows(FAST)
        assert np.flatnonzero(als_passes[0]["gated"]).tolist() == [2, *range(5, len(states))]
        for i in range(len(states)):
            alone = _solve_overlaps(tensors[i : i + 1], FAST)
            for whole, one in zip((batch[0], *batch[1], *batch[2:4], batch[5]),
                                  (alone[0], *alone[1], *alone[2:4], alone[5])):
                assert np.array_equal(whole[i], one[0])
            assert alone[4] == (i in (1, 4))
        assert redo.tolist() == [1, 4] and batch[4] == 2
        assert np.abs(batch[0][2:3] - 0.5).max() <= 1e-15
        assert np.abs(batch[0][5:] - 0.5).max() <= 1e-15

    def test_false_gate_fire_is_resolved_ungated(self, monkeypatch, als_passes):
        # with a gate margin of 1, each state's first freezing run fires the
        # gate; no Haar state reaches its cut bound, so every row is left
        # gated-open and re-solved once, ungated, under the escalated budget
        tensors = np.stack([haar_random_state(3, seed=seed).tensor for seed in range(8)])
        ungated = _solve_overlaps(tensors, FAST)
        assert not als_passes[0]["gated"].any() and ungated[4] == 0
        als_passes.clear()
        monkeypatch.setattr(_als, "GATE_MARGIN", 1.0)
        g2, *_, resolved, upper = _solve_overlaps(tensors, FAST)
        assert als_passes[0]["gated"].all()
        assert np.all(upper - als_passes[0]["g_squared"] > _als.CLOSED_GAP)
        assert als_passes.resolved_rows(FAST).tolist() == list(range(8)) and resolved == 8
        assert np.all(g2 >= ungated[0] - 1e-12)

    def test_resolved_state_reports_the_answering_pass(self, monkeypatch, als_passes):
        # with no polished residual accepted, every state is re-solved; this
        # state's best run takes 25 sweeps in pass 1 and 16 in the re-solve
        monkeypatch.setattr(_als, "POLISHED_RESIDUAL", 0.0)
        cfg = SolverConfig(restarts=8, seed=2)
        result = nearest_product_state(haar_random_state(4, seed=4), cfg)
        assert als_passes.resolved_rows(cfg).tolist() == [0]
        assert result.restarts_used == 4 * cfg.restarts + 1 == cfg.escalated().restarts + 1
        assert result.iterations == als_passes[1]["sweeps"][0] != als_passes[0]["sweeps"][0]
        assert result.g_squared == als_passes[1]["g_squared"][0]
        assert not result.converged

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_resolve_matches_a_tightly_frozen_reference(self, monkeypatch, n):
        # every row is re-solved; the re-solve freezes at _als.COARSE_TOL and
        # must reach the polished best run of the same budget frozen at 1e-13
        accepted = _als.POLISHED_RESIDUAL
        monkeypatch.setattr(_als, "POLISHED_RESIDUAL", 0.0)
        states = [haar_random_state(n, seed=900 + 10 * n + k) for k in range(3)]
        if n == 4:
            states.append(apply_local_unitary(w_state(4), LocalUnitary.random(4, seed=9)))
        tensors = np.stack([s.tensor for s in states])
        g2, _, residual, _, resolved, _ = _solve_overlaps(tensors, FAST)
        assert resolved == len(states) and residual.max() <= accepted
        esc = FAST.escalated()
        tight = _als.power_iteration(tensors, esc.restarts, esc.max_iterations, 1e-13, esc.seed)
        best = np.argmax(tight["g_squared"], axis=1)
        starts = tight["spinors"][:, np.arange(len(states)), best]
        assert np.abs(g2 - _als.polish_stationary(tensors, starts)[2]).max() <= 1e-12
        if n == 4:
            assert g2[-1] == pytest.approx(27 / 64, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_near_tie_ghz_takes_the_better_basin(self, n):
        # the two product basins |0..0> and |1..1> differ by sin(2e-6) ~ 2e-6 in g^2
        theta = math.pi / 4 - 1e-6
        state = apply_local_unitary(ghz_theta_state(theta, n), LocalUnitary.random(n, seed=n))
        g2 = assert_best_polished(state.tensor[None], FAST)
        assert g2[0] == pytest.approx(ghz_overlap(theta, n), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(3, 5).flatmap(
            lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1), max_size=2 ** (n + 1))
            .filter(any)
            .map(lambda v: make_state(n, np.array(v[: 2**n]) + 1j * np.array(v[2**n :])))
        )
    )
    def test_drawn_states_reach_the_best_polished_run(self, s):
        assert_best_polished(s.tensor[None], FAST)

    def test_escalated(self):
        cfg = SolverConfig(restarts=16, max_iterations=500, seed=3).escalated()
        assert (cfg.restarts, cfg.max_iterations, cfg.seed) == (64, 2000, 4)
