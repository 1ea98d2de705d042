"""Tests for the numeric overlap solver and its geometric helpers."""

import dataclasses
import inspect
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
    canonicalize,
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
from entgeo.closedform import _THEOREM_SOLVER, run_theorem_campaign
from entgeo.overlap import _best_polished, _solve_overlaps
from entgeo.states import (
    _CUT_SLACK,
    CanonicalParams,
    ZeroBlochFamily,
    _canonical_tensors,
    _canonicalize,
    _cut_bound,
    _sample_zero_bloch,
    _sample_zero_bloch_rows,
)

from conftest import als_budget
from oracles import grid_overlap_sq

FAST = SolverConfig(restarts=16)


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
            assert result.g_squared <= result.upper_bound + _CUT_SLACK

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
        free = _als.power_iteration(psis, 8, 3)
        gated = _als.power_iteration(psis, 8, 3, stop_at=np.array([0.0, np.inf]))
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
            with als_budget(tol=1e-13):
                full = _als.power_iteration(psis, 8, seed)
                hist = []
                for k in range(1, int(full["iterations"].max()) + 1):
                    with als_budget(sweeps=k):
                        hist.append(_als.power_iteration(psis, 8, seed)["g_squared"])
            hist = np.array(hist)
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

    @pytest.mark.parametrize("field", ["restarts"])
    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, "4", None])
    def test_config_integer_fields_named(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {bad!r}"):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [None, -1, 1.5, True])
    def test_config_seed_named(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {bad!r}"):
            SolverConfig(seed=bad)

    def test_no_knobs_beyond_the_four_fields(self, capsys):
        # the freeze tolerance, the sweep cap and the re-solve threshold are
        # constants, not settings
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["restarts", "seed"]
        parser = build_parser()
        for argv in (["overlap", "--builtin", "ghz"], ["demo", "--name", "wn"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, "--tol", "1e-9"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        # verify-theorem's --tol is its pass tolerance on |g^2 - 1/2|
        assert parser.parse_args(["verify-theorem", "--tol", "1e-9"]).tol == 1e-9
        # the branch policy is _als.BRANCHES and _als.BRANCH_WINDOW, the same for
        # every caller, and canonicalize reads the solve of SolverConfig(restarts, seed)
        assert list(inspect.signature(_als.branches).parameters) == ["run"]
        assert list(inspect.signature(entgeo.canonicalize).parameters) == ["s", "restarts", "seed"]
        sources = sorted(Path(entgeo.__file__).parent.glob("*.py"))
        assert sources
        for path in sources:
            assert not re.search(r"\b(environ|getenv)\b", path.read_text()), path.name

    def test_config_accepts_numpy_scalars(self):
        cfg = SolverConfig(restarts=np.int64(3), seed=np.uint8(2))
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
        with als_budget(tol=1e-11):
            free = _als.power_iteration(psis, 16, 3)
            run = _als.power_iteration(psis, 16, 3, stop_at=np.array([np.inf]))
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
        with als_budget(tol=1e-11, sweeps=cap):
            capped = _als.power_iteration(psis, 16, 3)
        assert np.array_equal(g2[at_cap], capped["g_squared"][0, at_cap])
        for k in stopped:
            assert g2[k] < g2[conv & (sweeps < sweeps[k])].max()
        # a run above every frozen run goes on past COARSE_SWEEPS to its freeze
        assert np.any(conv & (sweeps > cap))
        assert g2.max() == free["g_squared"][0].max()

    def test_ungated_call_is_unchanged(self):
        psis = haar_random_state(6, seed=24).tensor[None]
        with als_budget(tol=1e-11):
            free = _als.power_iteration(psis, 16, 3)
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
        run = _als.power_iteration(tensors, cfg.restarts, cfg.seed, stop_at=stop_at)
        stopped = ~run["converged"] & (run["iterations"] >= _als.COARSE_SWEEPS)
        assert np.flatnonzero(stopped.any(axis=1)).tolist() == [0, 1, 3, 4]
        assert np.flatnonzero(run["gated"]).tolist() == [2]
        batch = _solve_overlaps(tensors, cfg)
        assert not batch[4].any()
        for i in range(len(states)):
            one = _als.power_iteration(tensors[i : i + 1], cfg.restarts, cfg.seed,
                                       stop_at=stop_at[i : i + 1])
            for key in ("g_squared", "iterations", "converged", "gated"):
                assert np.array_equal(run[key][i], one[key][0])
            assert np.array_equal(run["spinors"][:, i], one["spinors"][:, 0])
            alone = _solve_overlaps(tensors[i : i + 1], cfg)
            for whole, part in zip((batch[0], *batch[1], *batch[2:4], batch[5]),
                                   (alone[0], *alone[1], *alone[2:4], alone[5])):
                assert np.array_equal(whole[i], part[0])


def _record_runs(monkeypatch) -> list:
    """Patch ``_als.power_iteration`` to append each call's gate flag (pass 1
    of an overlap solve) and (S, R) sweeps to the returned list."""
    calls, run = [], _als.power_iteration

    def recording(psis, restarts, seed, stop_at=None):
        out = run(psis, restarts, seed, stop_at=stop_at)
        calls.append((stop_at is not None, out["iterations"]))
        return out

    monkeypatch.setattr(_als, "power_iteration", recording)
    return calls


class TestSweepGuard:
    """``_als.MAX_ITERATIONS`` is the one sweep cap of every solve, a guard
    against runs that do not terminate, not a budget."""

    @staticmethod
    def near_manifold(count, seed):
        """Zero-Bloch samples of both families with d moved by +-1e-3 or +-1e-2."""
        rng = np.random.default_rng(seed)
        rows = np.concatenate([_sample_zero_bloch_rows(f, rng, count // 2) for f in ZeroBlochFamily])
        rows[:, 3] += rng.choice([-1e-2, -1e-3, 1e-3, 1e-2], size=len(rows))
        rows[:, :5] /= np.linalg.norm(rows[:, :5], axis=1, keepdims=True)
        return _canonical_tensors(rows)

    def test_no_run_reaches_the_cap(self, monkeypatch):
        # a change that slows the ALS fails here instead of capping runs silently
        calls = _record_runs(monkeypatch)
        resolved = []
        for family in ZeroBlochFamily:
            report = run_theorem_campaign(family, 100, seed=0)
            assert report.passed
            resolved.append(report.rechecked)
        for n in range(3, 9):
            states = [haar_random_state(n, seed=k) for k in range(10)]
            states += [apply_local_unitary(named(n), LocalUnitary.random(n, seed=k))
                       for named in (ghz_state, w_state) for k in range(5)]
            resolved.append(_solve_overlaps(np.stack([s.tensor for s in states]),
                                            SolverConfig())[4].sum())
        near = self.near_manifold(50, seed=0)
        resolved += [_solve_overlaps(near, cfg)[4].sum() for cfg in (SolverConfig(), _THEOREM_SOLVER)]
        # criterion-8 samples 117 and 140 stall in pass 1 and are re-solved
        rng = np.random.default_rng(7)
        quads = [random_feasible_quadrilateral(rng).to_state().tensor for _ in range(500)]
        resolved.append(_solve_overlaps(np.stack(quads), FAST)[4].sum())
        _canonicalize(np.stack([haar_random_state(3, seed=k).tensor for k in range(10)]),
                      SolverConfig(restarts=32))
        assert max(sweeps.max() for _, sweeps in calls) < _als.MAX_ITERATIONS
        assert resolved == [0] * 10 + [2]  # the re-solve pass ran too

    # a near-manifold sample (h-nonzero family, d moved by -1e-3): with every
    # polish counted as stalled it is re-solved, 7 of the 257 runs of its re-solve
    # creep on past the cap, up to 673 sweeps under a 4x cap, but its answer
    # freezes at sweep 35
    SLOW_RESOLVE = CanonicalParams(a=0.05685733477689396, b=0.7027516877867291, c=0.0,
                                   d=0.7066062504813512, h=0.06012416798308013, gamma=0.0)

    def test_capped_runs_leave_the_answer(self, monkeypatch):
        tensors = canonical_to_state(self.SLOW_RESOLVE).tensor[None]
        assert not _solve_overlaps(tensors, SolverConfig())[4].any()  # pass 1 answers alone
        monkeypatch.setattr(_als, "POLISHED_RESIDUAL", 0.0)
        calls = _record_runs(monkeypatch)
        guarded = _solve_overlaps(tensors, SolverConfig())
        assert guarded[3][0] == 35 and guarded[4].tolist() == [True]
        assert (calls[1][1] == _als.MAX_ITERATIONS).sum() == 7
        # the cap is read at call time: under a 4x cap the re-solve's runs go on
        with als_budget(sweeps=4 * _als.MAX_ITERATIONS):
            free = _solve_overlaps(tensors, SolverConfig())
        assert calls[3][1].max() == 673
        for a, b in zip(guarded, free):
            assert np.array_equal(a, b)

    # (a, b, c, d, h, gamma) of h-nonzero zero-Bloch samples with d moved by -1e-3
    # and renormalized: both passes stall near a residual of 7e-4, and the
    # re-solve's best answers come from its slow runs; a dominance stop there
    # would leave all three at 0.4992923932, up to 3.5e-4 lower
    SLOW_RUNS = np.array([
        [0.6919208215515138, 0.13023064015305524, 0, 0.7066062504813514, 0.07066232270092311, 0],
        [0.6771003211709838, 0.19580338295109626, 0, 0.7066062504813513, 0.062480373524353185, 0],
        [0.6743997211378231, 0.2051622898312556, 0, 0.7066062504813513, 0.06165271884603458, 0],
    ])

    def test_resolve_keeps_its_slow_runs(self, als_passes):
        g2, *_, resolved, _ = _solve_overlaps(_canonical_tensors(self.SLOW_RUNS), _THEOREM_SOLVER)
        redo = als_passes.resolved_rows(_THEOREM_SOLVER)
        assert redo.tolist() == [0, 1, 2]
        resolve = als_passes[1]["g_squared"]
        assert np.all(resolve >= np.array([0.49964317804, 0.49942426695, 0.49940878536]) - 1e-9)
        # each row keeps its higher pass, stalled or not: the re-solve for row 1 only
        assert resolved.tolist() == [False, True, False]
        assert np.array_equal(g2, als_passes.answer("g_squared", redo))
        assert g2[:2] == pytest.approx([0.4996489, 0.4994243], abs=1e-7)


# at 16 restarts the runs of this state's best basin freeze 6e-6 below the
# coarse value of a fast local maximum, whose polish is 1.4e-5 short; with the
# best two distinct runs polished, some budgets miss the best basin, and at
# (32 restarts, seed 15) so do the best three
SLOW_BASIN = make_state(3, [0.70618, 0, 0, 0.505493, 0, 0.495768, 0, 0])
# (restarts, seed) at which polishing the best two distinct runs missed it by 1.36e-5
SLOW_BASIN_MISSES = [(4, 5), (32, 1), (32, 15), (64, 0), (64, 3), (64, 13), (64, 17)]


class TestBranches:
    """``_als.branches`` picks the coarse runs to polish: the best
    ``_als.BRANCHES`` distinct ones within ``_als.BRANCH_WINDOW`` of each
    state's best; the overlap solve answers with the highest polished g^2."""

    def test_one_run_per_branch(self, monkeypatch):
        rng = np.random.default_rng(1)
        spinors = _als.haar_bloch_spinors(rng, (3, 2, 5))  # (n, S, R, 2)
        spinors[:, 0, 3] = spinors[:, 0, 0]  # a copy of run 0
        moved = spinors[:, 0, 1] + 1e-3 * _als.haar_bloch_spinors(rng, (3,))
        spinors[:, 0, 4] = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
        spinors[:2, 0, 2] = spinors[:2, 0, 0]  # run 0 on two qubits out of three
        blochs = _als._bloch_from_spinors(spinors[:, 0])  # (n, R, 3)
        gap = [np.abs(blochs[:, k] - blochs[:, j]).max() for j, k in ((0, 1), (1, 4), (0, 2))]
        assert gap[0] > 0.1 and gap[1] < _als.BRANCH_RADIUS / 2 and gap[2] > 0.1
        # state 0 in descending order: runs 0, 1, 4 (copy of 1), 3 (copy of 0), 2
        g2 = np.array([[0.6, 0.59995, 0.58, 0.599, 0.5999], [0.4, 0.3, 0.2, 0.1, 0.0]])
        run = {"g_squared": g2, "spinors": spinors, "gated": np.array([False, True])}

        def pairs(limit=_als.BRANCHES, window=_als.BRANCH_WINDOW):
            # the policy is read at call time
            monkeypatch.setattr(_als, "BRANCHES", limit)
            monkeypatch.setattr(_als, "BRANCH_WINDOW", window)
            return list(zip(*(a.tolist() for a in _als.branches(run))))

        assert (_als.BRANCHES, _als.BRANCH_WINDOW) == (6, 1e-4)
        assert pairs() == [(0, 0), (0, 1), (1, 0)]
        assert pairs(window=np.inf) == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert pairs(1, np.inf) == [(0, 0), (1, 0)]
        run["gated"][:] = [False, False]
        assert pairs(2, np.inf) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # state 1's second branch only after three copies of its best run
        spinors[:, 1, 1:4] = spinors[:, 1, :1]
        assert pairs(2, np.inf) == [(0, 0), (0, 1), (1, 0), (1, 4)]

    @pytest.mark.parametrize("restarts, seed", [(16, seed) for seed in range(6)] + SLOW_BASIN_MISSES,
                             ids=[*map(str, range(6)), *(f"{r}-{s}" for r, s in SLOW_BASIN_MISSES)])
    def test_slow_run_of_the_best_basin_is_polished(self, restarts, seed):
        best = grid_overlap_sq(SLOW_BASIN.amplitudes)
        result = nearest_product_state(SLOW_BASIN, SolverConfig(restarts=restarts, seed=seed))
        assert result.converged
        assert result.g_squared == pytest.approx(best, abs=1e-9)
        params, _ = canonicalize(SLOW_BASIN, restarts=restarts, seed=seed)
        assert params.d**2 == pytest.approx(best, abs=1e-9)

    def test_near_manifold_rows_reach_the_reference(self):
        # zero-Bloch rows of both families (default_rng(7) per family) moved by
        # eps along complex Gaussian directions (one default_rng(11), families
        # in enum order); polishing only the best two distinct runs returned
        # 0.5000797745165, 0.5000618242206, 0.4999000814512 and 0.4999262359523
        # on these h-nonzero rows
        rng = np.random.default_rng(11)
        for family in ZeroBlochFamily:  # h-nonzero is drawn last
            rows = _sample_zero_bloch_rows(family, np.random.default_rng(7), 300)
            phi = rng.normal(size=(300, 8)) + 1j * rng.normal(size=(300, 8))
        psi = _canonical_tensors(rows).reshape(300, 8)
        picks = [(1e-4, 55, 0.5001044343602), (1e-4, 252, 0.5000718544900),
                 (-1e-4, 208, 0.4999055990329), (-1e-4, 278, 0.4999472475663)]
        moved = np.stack([psi[i] + eps * phi[i] for eps, i, _ in picks])
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        g2 = _solve_overlaps(moved.reshape(-1, 2, 2, 2), SolverConfig())[0]
        assert np.all(g2 >= np.array([ref for *_, ref in picks]) - 1e-12)

    # (local, basin): the residual given to row 0 and to the rows after it, or None
    STALLS = {"none": (None, None), "local": (1e-3, None), "basin": (None, 1e-3),
              "all": (1e-3, 1e-3), "all-local-least": (1e-3, 2e-3), "all-basin-least": (2e-3, 1e-3)}

    @pytest.mark.parametrize("stalled", list(STALLS))
    def test_highest_polished_g2_answers(self, monkeypatch, stalled):
        # the slow-basin state polishes its fast local maximum (row 0) and runs
        # of its best basin (higher); a row is stalled by raising its residual,
        # and the highest g^2 answers, stalled or not and whichever row is the
        # least stalled: it is an attained overlap
        polish = _als.polish_stationary
        rows = []
        local, basin = self.STALLS[stalled]

        def polish_with_stalls(psis, spinors):
            spinors, residual, g2 = polish(psis, spinors)
            if local is not None:
                residual[0] = local
            if basin is not None:
                residual[1:] = basin
            rows.append((residual, g2))
            return spinors, residual, g2

        monkeypatch.setattr(_als, "polish_stationary", polish_with_stalls)
        g2, _, residual, _, _ = _best_polished(SLOW_BASIN.tensor[None], FAST)
        [(row_residual, row_g2)] = rows
        assert len(row_g2) > 2 and row_g2[1:].min() > row_g2[0] + 1e-5
        answer = np.argmax(row_g2)
        assert g2[0] == row_g2[answer] and residual[0] == row_residual[answer]

    def test_sparse_state_reaches_a_512_restart_solve(self):
        # at the default budget, polishing only the best coarse run returns a
        # local maximum 1.3e-5 low at four of these six seeds
        amps = np.zeros(16, dtype=complex)
        amps[[0, 9, 10, 12]] = [-0.358946 + 0.038525j, 0.270703 + 0.387728j,
                                -0.571024 - 0.415284j, -0.355838 + 0.144605j]
        s = make_state(4, amps)
        wide = nearest_product_state(s, SolverConfig(restarts=512)).g_squared
        for seed in range(6):
            result = nearest_product_state(s, SolverConfig(seed=seed))
            assert result.converged and result.g_squared == pytest.approx(wide, abs=1e-12)


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

    def test_wrong_shape_named(self):
        z, b, g = [0.0, 0.0, 1.0], [0.1, 0.2, 0.0], np.eye(3)
        for args, name in ((([1, 0], z, b, b, g), "x"), ((z, [0, 0, 0, 1], b, b, g), "y"),
                           ((z, z, [0.1, 0.2], b, g), "bloch_a"),
                           ((z, z, b, [[0.1, 0.2, 0.0]], g), "bloch_b"),
                           ((z, z, b, b, np.eye(2)), "corr")):
            with pytest.raises(ValueError, match=rf"^{name} must have shape"):
                quarter_form(*args)

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

    def test_wrong_shape_named(self):
        z = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match=re.escape("x must have shape (3,), got (4,)")):
            stationarity_residual(ghz_state(3), [0, 0, 0, 1], z, 1.0, 1.0)
        with pytest.raises(ValueError, match=re.escape("y must have shape (3,), got (2,)")):
            stationarity_residual(ghz_state(3), z, [0, 1], 1.0, 1.0)

    def test_converged_result_satisfies_stationarity(self):
        s = haar_random_state(3, seed=77)
        result = nearest_product_state(s, FAST)
        x = spinor_to_bloch(result.product.spinors[0])
        y = spinor_to_bloch(result.product.spinors[1])
        lam1, lam2 = result.lagrange
        assert stationarity_residual(s, x, y, lam1, lam2) <= 1e-8

    def test_converged_means_the_polish_finished(self, capped_pass_1, als_passes):
        # three sweeps stop every pass-1 run, but the polish of the best one
        # reaches the stationary point, so the answer is converged
        cfg = SolverConfig(restarts=4)
        result = nearest_product_state(haar_random_state(3, seed=1), cfg)
        assert als_passes.resolved_rows(cfg).size == 0
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

    @pytest.mark.parametrize("v", [[0, 0, 0, 1], [1, 0], [[0, 0, 1]]])
    def test_bloch_to_spinor_wrong_shape_named(self, v):
        with pytest.raises(ValueError, match=r"^v must have shape \(3,\)"):
            bloch_to_spinor(v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bloch_to_spinor_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite unit 3-vector"):
            bloch_to_spinor([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite unit 3-vector"):
            bloch_to_spinor([0.0, 0.0, bad])

    @pytest.mark.parametrize("spinor", [[[1], [0]], [[1, 0]], [1, 0, 0]])
    def test_spinor_to_bloch_wrong_shape_named(self, spinor):
        with pytest.raises(ValueError, match=r"^spinor must have shape \(2,\)"):
            spinor_to_bloch(spinor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_spinor_to_bloch_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite normalized 2-spinor"):
            spinor_to_bloch([bad, 0.0])
        with pytest.raises(ValueError, match="finite normalized 2-spinor"):
            spinor_to_bloch([1.0, bad])


class TestGeometricMeasure:
    def test_product(self):
        assert geometric_measure(1.0) == pytest.approx(0.0)
        assert math.copysign(1.0, geometric_measure(1.0)) == 1.0  # +0.0, not -0.0

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

        # at 1e-13 the runs reach the caps unfrozen; at 1e-6 they freeze at their
        # own sweeps, so the caps up to 40 check the stacked write-out and
        # compaction row by row
        for tol, caps in ((1e-13, (1, 3)), (1e-6, (1, 3, 10, 40))):
            for sweeps in caps:
                free = [einsum_runs(i, sweeps, tol) for i in range(len(states))]
                for gate in (None, stop_at):
                    with als_budget(tol=tol, sweeps=sweeps):
                        run = _als.power_iteration(psis, restarts, seed, stop_at=gate)
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
        with als_budget(tol=1e-13):
            run = _als.power_iteration(psis, restarts, seed)
        assert np.all(np.isfinite(run["spinors"])) and np.all(np.isfinite(run["g_squared"]))
        assert np.abs(np.linalg.norm(run["spinors"], axis=-1) - 1.0).max() <= 1e-15
        assert run["g_squared"][1, 0] == 0.0 and run["iterations"][1, 0] == 1
        assert run["converged"][1, 0]
        assert np.array_equal(run["spinors"][:, 1, 0], orthogonal[:, 0])
        assert run["g_squared"][1, 1] == 1.0 and run["iterations"][1, 1] == 2
        assert np.array_equal(np.abs(run["spinors"][:, 1, 1]), [[1, 0]] * 3)
        # the batch-mates run exactly as they do alone
        for i in (0, 2):
            with als_budget(tol=1e-13):
                alone = _als.power_iteration(psis[i : i + 1], restarts, seed)
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
    with als_budget(tol=1e-13):
        run = _als.power_iteration(tensors, cfg.restarts, cfg.seed)
    every_run = [sp.reshape(-1, 2) for sp in run["spinors"]]
    repeated = np.repeat(tensors, cfg.restarts + 1, axis=0)
    polished = _als.polish_stationary(repeated, every_run)[2].reshape(len(tensors), -1)
    assert np.all(g2 >= polished.max(axis=1) - 1e-12)
    for i, psi in enumerate(tensors):
        product = _als._frame_amplitudes(psi.conj()[None], [sp[i : i + 1] for sp in spinors])
        assert abs(product[0, 0]) ** 2 == pytest.approx(g2[i], abs=1e-12)
    return g2


def _best_runs(tensors, restarts, sweeps=None):
    """Each state's best of ``restarts`` + 1 ALS runs at seed 0, capped at
    ``sweeps`` if given, as n arrays (S, 2)."""
    with als_budget(sweeps=sweeps):
        run = _als.power_iteration(tensors, restarts, 0)
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
        polished, residual, g2 = _als.polish_stationary(tensors, _best_runs(tensors, FAST.restarts))
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
        starts = _best_runs(tensors, 4, sweeps=30)
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
        starts = _best_runs(tensors, 4, sweeps=5)
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
        assert np.array_equal(upper, _cut_bound(tensors)) and np.all(g2 <= upper + _CUT_SLACK)
        # pass 1: runs frozen at the coarse tolerance, each state's best one
        # polished; the stalled rows are re-solved (see the stalled-polish test)
        redo = als_passes.resolved_rows(cfg)
        assert np.array_equal(resolved, als_passes.answered(redo))
        assert np.array_equal(sweeps, als_passes.answer("sweeps", redo))
        assert np.array_equal(g2, als_passes.answer("g_squared", redo))
        assert np.array_equal(residual, als_passes.answer("residual", redo))
        with als_budget(tol=1e-13):
            tight = _als.power_iteration(tensors, cfg.restarts, cfg.seed)
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
        assert redo.tolist() == np.flatnonzero(resolved).tolist() == stalled
        assert np.array_equal(sweeps, als_passes.answer("sweeps", redo))
        closed = np.array([quadrilateral_overlap(params[i]) ** 2 for i in stalled])
        assert np.abs(g2[stalled] - closed).max() <= 1e-12
        assert residual.max() <= _als.POLISHED_RESIDUAL

    def test_state_alone_equals_its_row_in_a_mixed_batch(self, als_passes):
        # criterion-8 samples 117 and 140 stall in pass 1 and are re-solved; the
        # Haar rows and the slow-basin row are answered by pass 1 ungated, and
        # the LU-GHZ row and the campaign samples (one-qubit cut bound 1/2) by
        # pass 1 at the gate
        rng = np.random.default_rng(7)
        params = [random_feasible_quadrilateral(rng) for _ in range(500)]
        rng = np.random.default_rng(12)
        campaign = [canonical_to_state(_sample_zero_bloch(family, rng))
                    for family in ZeroBlochFamily for _ in range(3)]
        states = [haar_random_state(3, seed=60), params[117].to_state(),
                  apply_local_unitary(ghz_state(3), LocalUnitary.random(3, seed=4)),
                  haar_random_state(3, seed=61), params[140].to_state(), *campaign, SLOW_BASIN]
        tensors = np.stack([s.tensor for s in states])
        batch = _solve_overlaps(tensors, FAST)
        redo = als_passes.resolved_rows(FAST)
        assert np.flatnonzero(als_passes[0]["gated"]).tolist() == [2, *range(5, len(states) - 1)]
        for i in range(len(states)):
            alone = _solve_overlaps(tensors[i : i + 1], FAST)
            for whole, one in zip((batch[0], *batch[1], *batch[2:4], batch[5]),
                                  (alone[0], *alone[1], *alone[2:4], alone[5])):
                assert np.array_equal(whole[i], one[0])
            assert alone[4][0] == (i in (1, 4))
        assert redo.tolist() == np.flatnonzero(batch[4]).tolist() == [1, 4]
        assert np.abs(batch[0][2:3] - 0.5).max() <= 1e-15
        assert np.abs(batch[0][5:-1] - 0.5).max() <= 1e-15
        assert batch[0][-1] == pytest.approx(grid_overlap_sq(SLOW_BASIN.amplitudes), abs=1e-9)

    def test_false_gate_fire_is_resolved_ungated(self, monkeypatch, als_passes):
        # with a gate margin of 1, each state's first freezing run fires the
        # gate; no Haar state reaches its cut bound, so every row is left
        # gated-open and re-solved once, ungated, under the escalated budget
        tensors = np.stack([haar_random_state(3, seed=seed).tensor for seed in range(8)])
        ungated = _solve_overlaps(tensors, FAST)
        assert not als_passes[0]["gated"].any() and not ungated[4].any()
        als_passes.clear()
        monkeypatch.setattr(_als, "GATE_MARGIN", 1.0)
        g2, *_, resolved, upper = _solve_overlaps(tensors, FAST)
        assert als_passes[0]["gated"].all()
        assert np.all(upper - als_passes[0]["g_squared"] > _als.CLOSED_GAP)
        redo = als_passes.resolved_rows(FAST)
        assert redo.tolist() == list(range(8))
        assert np.array_equal(resolved, als_passes.answered(redo))
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

    def test_resolve_never_replaces_a_better_first_pass(self, als_passes):
        # a near-manifold h-nonzero row whose polish stalls in both passes; the
        # re-solve ends lower and more stalled, so pass 1 answers
        p = CanonicalParams(0.6785218410738321, 0.1939989489396796, 0.0,
                            0.7066512750138159, 0.05115168147212384, 0.0)
        cfg = SolverConfig(restarts=2)
        result = nearest_product_state(canonical_to_state(p), cfg)
        assert als_passes.resolved_rows(cfg).tolist() == [0]
        first, second = als_passes
        assert second["g_squared"][0] == pytest.approx(0.4994262126199, abs=1e-12)
        assert second["residual"][0] > first["residual"][0] > _als.POLISHED_RESIDUAL
        assert result.g_squared == first["g_squared"][0]
        assert result.g_squared == pytest.approx(0.4994648462658, abs=1e-12)
        assert result.stationarity_residual == first["residual"][0]
        assert result.restarts_used == cfg.restarts + 1
        assert result.iterations == first["sweeps"][0]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_resolve_matches_a_tightly_frozen_reference(self, monkeypatch, als_passes, n):
        # every row is re-solved; the re-solve freezes at _als.COARSE_TOL and
        # must reach the polished best run of the same budget frozen at 1e-13.
        # Both passes count as stalled, so a row keeps its pass with the higher g^2
        accepted = _als.POLISHED_RESIDUAL
        monkeypatch.setattr(_als, "POLISHED_RESIDUAL", 0.0)
        states = [haar_random_state(n, seed=900 + 10 * n + k) for k in range(3)]
        if n == 4:
            states.append(apply_local_unitary(w_state(4), LocalUnitary.random(4, seed=9)))
        tensors = np.stack([s.tensor for s in states])
        g2, _, residual, _, resolved, _ = _solve_overlaps(tensors, FAST)
        redo = als_passes.resolved_rows(FAST)
        assert redo.size == len(states) and residual.max() <= accepted
        assert np.array_equal(resolved, als_passes.answered(redo))
        assert np.array_equal(g2, als_passes.answer("g_squared", redo))
        assert np.all(g2 >= np.maximum(als_passes[0]["g_squared"], als_passes[1]["g_squared"]))
        g2 = als_passes[1]["g_squared"]
        esc = FAST.escalated()
        with als_budget(tol=1e-13):
            tight = _als.power_iteration(tensors, esc.restarts, esc.seed)
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
        cfg = SolverConfig(restarts=16, seed=3).escalated()
        assert (cfg.restarts, cfg.seed) == (64, 4)
