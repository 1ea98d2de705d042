"""Tests for the analytic solutions and the theorem machinery."""

import math
import re

import numpy as np
import pytest

from entgeo import (
    CanonicalParams,
    InfeasibleQuadrilateralError,
    LocalUnitary,
    QuadrilateralParams,
    SolverConfig,
    apply_local_unitary,
    canonical_to_state,
    dicke4_state,
    ghz_overlap,
    ghz_theta_state,
    bloch_vector,
    haar_random_state,
    correlation_matrix,
    make_state,
    nearest_product_state,
    overlap_with_product,
    quadrilateral_area,
    quadrilateral_nearest,
    quadrilateral_overlap,
    quadrilateral_r_coefficients,
    random_feasible_quadrilateral,
    run_theorem_campaign,
    sample_zero_bloch_manifold,
    sextic_t_trace,
    svd_branch_solutions,
    wn_overlap,
    wn_state,
)
from entgeo import _als
from entgeo.closedform import _THEOREM_SOLVER, _zero_mode_residuals
from entgeo.invariants import _bloch, _bloch_geometry
from entgeo.overlap import _solve_overlaps
from entgeo.states import (
    ZeroBlochFamily,
    _canonical_tensors,
    _rho,
    _sample_zero_bloch,
    _sample_zero_bloch_rows,
)

FAST = SolverConfig(restarts=16)
# with ``capped_pass_1`` a budget too small for the first pass, so that samples
# get re-solved
STRAGGLING = SolverConfig(restarts=2, seed=3)


class TestQuadrilateralParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_side_named(self, bad):
        with pytest.raises(ValueError, match="side c must be finite"):
            QuadrilateralParams(0.5, 0.5, bad, 0.5)
        with pytest.raises(ValueError, match="side a must be finite"):
            QuadrilateralParams(bad, bad, bad, bad)


class TestQuadrilateralOverlap:
    def test_square_is_ghz_like(self):
        p = QuadrilateralParams(0.5, 0.5, 0.5, 0.5)
        assert quadrilateral_area(p) == pytest.approx(0.25, abs=1e-14)
        assert quadrilateral_overlap(p) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_generic_sides_against_solver(self):
        p = QuadrilateralParams(0.7, 0.5, 0.4, math.sqrt(0.10))
        g = quadrilateral_overlap(p)
        assert g == pytest.approx(0.7205, abs=1e-4)
        numeric = math.sqrt(nearest_product_state(p.to_state(), FAST).g_squared)
        assert g == pytest.approx(numeric, abs=1e-8)

    def test_zero_bloch_family_gives_half(self):
        p = QuadrilateralParams(0.6, math.sqrt(0.14), 0.5, 0.5)
        assert quadrilateral_overlap(p) ** 2 == pytest.approx(0.5, abs=1e-10)
        for seed in range(10):
            s = sample_zero_bloch_manifold("quadrilateral", seed=seed)
            p = QuadrilateralParams(s.a, s.b, s.c, s.d)
            assert quadrilateral_overlap(p) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_product_identity(self):
        # (ac + bd)(bc + ad) = (c^2 + d^2) ab + (a^2 + b^2) cd exactly
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c, d = rng.uniform(0, 1, size=4)
            lhs = (a * c + b * d) * (b * c + a * d)
            rhs = (c * c + d * d) * a * b + (a * a + b * b) * c * d
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_infeasible_side_raises(self):
        # one side longer than the semiperimeter
        sides = np.array([0.97, 0.1, 0.1, math.sqrt(1 - 0.97**2 - 0.02)])
        sides /= np.linalg.norm(sides)
        p = QuadrilateralParams(*sides)
        assert not p.is_feasible
        with pytest.raises(InfeasibleQuadrilateralError, match="numeric solver"):
            quadrilateral_overlap(p)

    def test_negative_r_raises(self):
        # side-feasible but with a negative nearest-product coefficient,
        # where the circumradius formula no longer gives the overlap
        p = QuadrilateralParams(math.sqrt(1 - 0.27), 0.3, 0.3, 0.3)
        assert p.is_feasible
        assert quadrilateral_r_coefficients(p).min() < 0
        with pytest.raises(InfeasibleQuadrilateralError, match="numeric solver"):
            quadrilateral_overlap(p)

    def test_zero_area_bell_pair(self):
        # a Bell pair on A, B times |0> on C: feasible, but the quadrilateral is flat
        p = QuadrilateralParams(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, 0.0)
        assert p.is_feasible and quadrilateral_area(p) == 0.0
        for closed_form in (quadrilateral_overlap, quadrilateral_nearest):
            with pytest.raises(InfeasibleQuadrilateralError, match="collinear"):
                closed_form(p)
        assert nearest_product_state(p.to_state(), FAST).g_squared == pytest.approx(0.5, abs=1e-12)

    def test_collinear_sides_raise(self):
        sides = np.array([0.9, 0.3, 0.3, 0.3])  # a = b + c + d
        p = QuadrilateralParams(*(sides / np.linalg.norm(sides)))
        assert p.is_feasible
        with pytest.raises(InfeasibleQuadrilateralError, match="collinear"):
            quadrilateral_overlap(p)

    def test_near_collinear_sides_have_negative_r(self):
        # just inside the collinear edge the area is positive, but r_a < 0
        sides = np.array([0.9 * (1 - 1e-6), 0.3, 0.3, 0.3])
        p = QuadrilateralParams(*(sides / np.linalg.norm(sides)))
        assert quadrilateral_area(p) == pytest.approx(2.9e-4, rel=0.01)
        assert quadrilateral_r_coefficients(p).min() == pytest.approx(-0.385, abs=1e-3)
        with pytest.raises(InfeasibleQuadrilateralError, match="negative"):
            quadrilateral_overlap(p)

    def test_triangle_limit(self):
        # d = 0 reduces to Heron's formula; uniform W state gives g = 2/3
        s3 = 1 / math.sqrt(3)
        p = QuadrilateralParams(s3, s3, s3, 0.0)
        assert quadrilateral_overlap(p) == pytest.approx(2 / 3, abs=1e-12)


class TestQuadrilateralNearest:
    def test_square_gives_plus_states(self):
        p = QuadrilateralParams(0.5, 0.5, 0.5, 0.5)
        product = quadrilateral_nearest(p)
        for sp in product.spinors:
            assert np.allclose(sp, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_overlap_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = random_feasible_quadrilateral(rng)
            product = quadrilateral_nearest(p)
            direct = overlap_with_product(p.to_state(), product)
            assert direct == pytest.approx(quadrilateral_overlap(p), abs=1e-10)

    def test_simplified_spinors_on_zero_bloch_family(self):
        # under c^2 + d^2 = a^2 + b^2 the first spinor is
        # (sqrt(bc)|0> + sqrt(ad)|1>)/sqrt(ad + bc), and cyclically
        from entgeo.states import _sample_zero_bloch, ZeroBlochFamily

        rng = np.random.default_rng(2)
        for _ in range(10):
            cp = _sample_zero_bloch(ZeroBlochFamily.QUADRILATERAL, rng)
            a, b, c, d = cp.a, cp.b, cp.c, cp.d
            product = quadrilateral_nearest(QuadrilateralParams(a, b, c, d))
            expected = [
                np.array([math.sqrt(b * c), math.sqrt(a * d)]) / math.sqrt(a * d + b * c),
                np.array([math.sqrt(a * c), math.sqrt(b * d)]) / math.sqrt(a * c + b * d),
                np.array([math.sqrt(d * c), math.sqrt(a * b)]) / math.sqrt(a * b + c * d),
            ]
            for sp, want in zip(product.spinors, expected):
                assert np.abs(sp - want).max() < 1e-10

    def test_negative_r_raises(self):
        p = QuadrilateralParams(math.sqrt(1 - 0.27), 0.3, 0.3, 0.3)
        with pytest.raises(InfeasibleQuadrilateralError):
            quadrilateral_nearest(p)


class TestSvdBranches:
    def test_worked_example(self):
        p = CanonicalParams(a=0.3, b=0.4, c=0.0, d=math.sqrt(0.5), h=0.5)
        report = svd_branch_solutions(p)
        assert report.main_branch.lam1 == pytest.approx(0.68, abs=1e-12)
        assert report.main_branch.lam2 == pytest.approx(0.82, abs=1e-12)
        assert report.bloch_a_length == pytest.approx(0.34985711369, abs=1e-9)
        assert report.bloch_b_length == pytest.approx(0.51224993899, abs=1e-9)
        assert report.zero_mode.g_squared == pytest.approx(0.46552676317, abs=1e-9)
        assert report.main_branch.g_squared == pytest.approx(0.5, abs=1e-12)
        assert report.final_g_squared == pytest.approx(0.5, abs=1e-12)

    def test_ghz_limit(self):
        p = CanonicalParams(a=0.0, b=0.0, c=0.0, d=1 / math.sqrt(2), h=1 / math.sqrt(2))
        report = svd_branch_solutions(p)
        assert report.zero_mode.g_squared == pytest.approx(0.25, abs=1e-12)
        assert report.main_branch.g_squared == pytest.approx(0.5, abs=1e-12)
        assert report.final_g_squared == pytest.approx(0.5, abs=1e-12)

    def test_zero_mode_multipliers_are_bloch_lengths(self):
        for seed in range(10):
            p = sample_zero_bloch_manifold("h-nonzero", seed=seed)
            report = svd_branch_solutions(p)
            assert report.zero_mode.lam1 == pytest.approx(report.bloch_a_length, abs=1e-12)
            assert report.zero_mode.lam2 == pytest.approx(report.bloch_b_length, abs=1e-12)

    def test_branch_stationarity_residuals(self):
        for seed in range(20):
            p = sample_zero_bloch_manifold("h-nonzero", seed=seed)
            report = svd_branch_solutions(p)
            assert report.zero_mode.residual <= 1e-10
            assert report.main_branch.residual <= 1e-10

    def test_zero_mode_strictly_below_main(self):
        for seed in range(20):
            p = sample_zero_bloch_manifold("h-nonzero", seed=seed)
            report = svd_branch_solutions(p)
            assert report.zero_mode.g_squared < report.main_branch.g_squared
            assert report.bloch_a_length + report.bloch_b_length < 1.0

    def test_middle_branch_contradiction_recorded(self):
        for seed in range(10):
            p = sample_zero_bloch_manifold("h-nonzero", seed=seed)
            report = svd_branch_solutions(p)
            assert report.middle_branch.nonphysical
            assert report.middle_branch.bloch_product > report.middle_branch.multiplier_product
            assert "(z.x)(z.y) <= 1" in report.middle_branch.reason

    def test_singular_values(self):
        for seed in range(20):
            p = sample_zero_bloch_manifold("h-nonzero", seed=seed)
            report = svd_branch_solutions(p)
            state = canonical_to_state(p)
            numeric = np.linalg.svd(correlation_matrix(state, 0, 1), compute_uv=False)
            assert np.abs(numeric - report.singular_values).max() < 1e-10
            mu = math.sqrt((p.h**2 + p.a**2) * (p.h**2 + p.b**2))
            assert report.singular_values[0] == pytest.approx(2 * mu, abs=1e-12)
            assert report.singular_values[1] == pytest.approx(2 * p.a * p.b, abs=1e-12)

    def test_decomposition_reconstructs_g(self):
        p = sample_zero_bloch_manifold("h-nonzero", seed=3)
        report = svd_branch_solutions(p)
        g = correlation_matrix(canonical_to_state(p), 0, 1)
        rebuilt = report.u_matrix @ np.diag(report.singular_values) @ report.v_matrix.T
        assert np.abs(g - rebuilt).max() < 1e-12

    def test_main_branch_matches_solver(self):
        p = sample_zero_bloch_manifold("h-nonzero", seed=8)
        numeric = nearest_product_state(canonical_to_state(p), FAST).g_squared
        assert svd_branch_solutions(p).final_g_squared == pytest.approx(numeric, abs=1e-9)

    def test_constraint_violations_rejected(self):
        with pytest.raises(ValueError, match="c = 0"):
            svd_branch_solutions(CanonicalParams(a=0.5, b=0.5, c=0.5, d=0.5, h=0.0))
        bad = CanonicalParams(a=0.6, b=math.sqrt(0.14), c=0.0, d=0.5, h=0.5)
        with pytest.raises(ValueError, match="d\\^2"):
            svd_branch_solutions(bad)


class TestTheoremCheck:
    def test_campaign(self):
        for family in ("quadrilateral", "h-nonzero"):
            report = run_theorem_campaign(family, n_samples=200, seed=7)
            assert report.passed
            assert report.max_g2_error <= 1e-7
            assert report.max_abs_t <= 1e-10
            assert report.max_zero_mode_residual <= 1e-10
            assert report.max_bracket_gap <= _als.CLOSED_GAP
            doc = report.to_dict()
            assert doc["max_bracket_gap"] == report.max_bracket_gap
            assert doc["family"] == family
            assert doc["samples"] == 200
            assert doc["failures"] == []

    # the mixed qubit C moved to A, moved to B, or left on C
    PLACEMENTS = [(0, 3, 1, 2), (0, 1, 3, 2), (0, 1, 2, 3)]

    @pytest.mark.parametrize("family", list(ZeroBlochFamily))
    def test_any_qubit_may_be_the_mixed_one(self, family):
        rows = _sample_zero_bloch_rows(family, np.random.default_rng(7), 200)
        tensors = _canonical_tensors(rows)
        for axes in self.PLACEMENTS:
            moved = np.transpose(tensors, axes)
            assert np.abs(_bloch(_rho(moved, (axes.index(3) - 1,)))).max() <= 1e-12
            g2, *_, resolved, upper = _solve_overlaps(moved, _THEOREM_SOLVER)
            assert np.abs(g2 - 0.5).max() <= 1e-7
            assert (upper - g2).max() <= _als.CLOSED_GAP
            assert not resolved.any()

    def test_zero_mode_residuals_batch_equals_batch_of_one(self):
        states = [canonical_to_state(sample_zero_bloch_manifold(f, seed=k))
                  for f in ("quadrilateral", "h-nonzero") for k in range(4)]
        states += [haar_random_state(3, seed=k) for k in range(4)]
        tensors = np.stack([s.tensor for s in states])
        for vanishing in range(3):
            pair = [q for q in range(3) if q != vanishing]
            left, right = _zero_mode_residuals(*_bloch_geometry(tensors, *pair))
            assert left.shape == right.shape == (len(states),)
            for i, s in enumerate(states):
                one_left, one_right = _zero_mode_residuals(*_bloch_geometry(s.tensor[None], *pair))
                assert left[i] == pytest.approx(one_left[0], abs=1e-15)
                assert right[i] == pytest.approx(one_right[0], abs=1e-15)

    def test_campaign_matches_per_sample_recomputation(self):
        for family in ("h-nonzero", "quadrilateral"):
            report = run_theorem_campaign(family, 50, seed=5)
            rng = np.random.default_rng(5)
            max_t = max_zero = max_sv = 0.0
            for _ in range(50):
                p = sample_zero_bloch_manifold(family, seed=rng)
                s = canonical_to_state(p)
                g = correlation_matrix(s, 0, 1)
                max_t = max(max_t, abs(sextic_t_trace(s)))
                max_zero = max(max_zero, np.linalg.norm(g.T @ bloch_vector(s, 0)),
                               np.linalg.norm(g @ bloch_vector(s, 1)))
                if family == "h-nonzero":  # the quadrilateral family has no SVD check
                    sv = np.linalg.svd(g, compute_uv=False)
                    max_sv = max(max_sv, np.abs(sv - svd_branch_solutions(p).singular_values).max())
            assert report.max_abs_t == pytest.approx(max_t, abs=1e-15)
            assert report.max_zero_mode_residual == pytest.approx(max_zero, abs=1e-15)
            assert report.max_singular_value_error == pytest.approx(max_sv, abs=1e-15)

    @pytest.mark.parametrize("family", list(ZeroBlochFamily))
    def test_campaign_reads_one_pair_marginal(self, monkeypatch, family):
        calls = []

        def counting(tensors, qubits):
            calls.append(tuple(qubits))
            return _rho(tensors, qubits)

        for module in ("entgeo.states", "entgeo.invariants"):
            monkeypatch.setattr(f"{module}._rho", counting)
        run_theorem_campaign(family, 50, seed=5)
        # the cut bound's three one-qubit products, then one pass over the pair (A, B)
        assert calls == [(0,), (1,), (2,), (0, 1)]

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, None])
    def test_campaign_sample_count_validated(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            run_theorem_campaign("quadrilateral", n_samples)

    @pytest.mark.parametrize("bad", [None, -1, 1.5, True])
    def test_campaign_seed_validated(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {bad!r}"):
            run_theorem_campaign("quadrilateral", 5, seed=bad)

    def test_campaign_seed_accepts_numpy_integer(self):
        assert run_theorem_campaign("quadrilateral", 5, seed=np.int64(3)) == run_theorem_campaign(
            "quadrilateral", 5, seed=3
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-7])
    def test_tolerance_validated(self, bad):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            run_theorem_campaign("quadrilateral", 5, tolerance=bad)

    def test_campaign_deterministic(self):
        a = run_theorem_campaign("quadrilateral", n_samples=50, seed=3)
        b = run_theorem_campaign("quadrilateral", n_samples=50, seed=3)
        assert a == b

    def test_impossible_tolerance_reports_failures(self):
        report = run_theorem_campaign("h-nonzero", n_samples=20, seed=1, tolerance=1e-17)
        assert not report.passed
        assert report.failures
        a, b, c, d, h, gamma = report.failures[0].params
        assert c == 0.0
        rng = np.random.default_rng(1)
        samples = [_sample_zero_bloch(ZeroBlochFamily.H_NONZERO, rng) for _ in range(20)]
        assert [f.params for f in report.failures] == [
            samples[f.index].as_tuple() for f in report.failures
        ]


class TestGhzFamily:
    def test_balanced_angle(self):
        for n in (2, 3, 4, 5):
            assert ghz_overlap(math.pi / 4, n) == pytest.approx(0.5)

    def test_product_angle(self):
        assert ghz_overlap(0.0, 3) == pytest.approx(1.0)

    def test_pi_sixth_four_qubits(self):
        assert ghz_overlap(math.pi / 6, 4) == pytest.approx(0.75)
        numeric = nearest_product_state(ghz_theta_state(math.pi / 6, 4), FAST).g_squared
        assert numeric == pytest.approx(0.75, abs=1e-8)

    def test_bloch_length_is_cos_2theta(self):
        theta = 0.37
        state = ghz_theta_state(theta, 3)
        for q in range(3):
            assert np.linalg.norm(bloch_vector(state, q)) == pytest.approx(
                abs(math.cos(2 * theta)), abs=1e-12
            )

    def test_beyond_balanced_angle(self):
        theta = 1.2  # cos 2 theta < 0
        numeric = nearest_product_state(ghz_theta_state(theta, 3), FAST).g_squared
        assert numeric == pytest.approx(ghz_overlap(theta, 3), abs=1e-8)

    @pytest.mark.parametrize("build", [ghz_overlap, ghz_theta_state])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_named(self, build, theta):
        with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
            build(theta, 3)

    @pytest.mark.parametrize("build, span", [(ghz_overlap, ">= 2"), (ghz_theta_state, "in 2..8")])
    @pytest.mark.parametrize("n", [1, 0, 2.5, True, "3", None])
    def test_bad_n_named(self, build, span, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer {span}, got {n!r}")):
            build(0.3, n)


class TestWnFamily:
    def test_uniform_w3(self):
        report = wn_overlap([1 / math.sqrt(3)] * 3)
        assert report.g_squared == pytest.approx(4 / 9, abs=1e-7)
        assert not report.has_zero_bloch
        assert not report.is_half
        assert report.equivalence_held

    def test_zero_bloch_instance(self):
        report = wn_overlap([1 / math.sqrt(2), 0.5, 0.5])
        assert report.min_bloch_length <= 1e-12
        assert report.g_squared == pytest.approx(0.5, abs=1e-6)
        assert report.equivalence_held

    def test_bloch_lengths_formula(self):
        c = np.array([0.6, math.sqrt(0.2), math.sqrt(0.2), math.sqrt(0.24)])
        report = wn_overlap(c)
        assert np.abs(report.bloch_lengths - np.abs(1 - 2 * c**2)).max() < 1e-12

    def test_product_coefficients(self):
        report = wn_overlap([1.0, 0.0, 0.0])
        assert report.g_squared == pytest.approx(1.0, abs=1e-10)

    def test_uniform_wn_closed_form(self):
        # symmetric maximization gives g^2 = ((n-1)/n)^(n-1) for uniform W_n
        for n in (3, 4, 5):
            report = wn_overlap([1 / math.sqrt(n)] * n)
            assert report.g_squared == pytest.approx(((n - 1) / n) ** (n - 1), abs=1e-7)
            assert report.equivalence_held

    def test_four_qubit_zero_bloch(self):
        # c_1 = 1/sqrt(2) zeroes the first Bloch vector on four qubits too
        rest = math.sqrt(0.5 / 3)
        report = wn_overlap([1 / math.sqrt(2), rest, rest, rest])
        assert report.has_zero_bloch
        assert report.is_half
        assert report.equivalence_held

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            wn_state([0.9, 0.1])
        with pytest.raises(ValueError):
            wn_state([1.2, -math.sqrt(0.44)])

    @pytest.mark.parametrize("coeffs", [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.5, 0.5]])
    def test_non_finite_coefficients_named(self, coeffs):
        # named before the sign and norm checks, which a NaN would slip past
        with pytest.raises(ValueError, match=re.escape(f"coeffs must be finite, got {coeffs}")):
            wn_state(coeffs)

    @pytest.mark.parametrize("size", [1, 9])
    def test_coefficient_count_bounded(self, size):
        with pytest.raises(ValueError, match=re.escape(f"need 2..8 coefficients, got shape ({size},)")):
            wn_state([1 / math.sqrt(size)] * size)


class TestDicke4:
    def test_norm_and_support(self):
        state = dicke4_state()
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)
        support = np.flatnonzero(np.abs(state.amplitudes) > 0)
        assert list(support) == [3, 5, 6, 9, 10, 12]
        assert np.allclose(state.amplitudes[support], 1 / math.sqrt(6))

    def test_all_bloch_vectors_vanish(self):
        state = dicke4_state()
        for q in range(4):
            assert np.linalg.norm(bloch_vector(state, q)) < 1e-14

    def test_counterexample_value(self):
        g2 = nearest_product_state(dicke4_state(), FAST).g_squared
        assert g2 == pytest.approx(3 / 8, abs=1e-7)
        assert abs(g2 - 0.5) > 0.1

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_bound_one_half_on_four_qubits_is_not_resolved(self, seed):
        # the cut bound is 1/2 but the theorem is for three qubits: no re-solve
        state = apply_local_unitary(dicke4_state(), LocalUnitary.random(4, seed=seed))
        result = nearest_product_state(state)
        assert result.upper_bound == pytest.approx(0.5, abs=1e-14)
        assert result.restarts_used == 65
        assert result.g_squared == pytest.approx(3 / 8, abs=1e-7)


class TestConverse:
    """g^2 = 1/2 does not force a zero Bloch vector.  On the path
    cos s|000> + sin s|W_3> every qubit has rho_00 >= 2/3, so |b_q| >= 1/3,
    while g^2 falls from 1 to 4/9; it crosses 1/2 at S_STAR (bisection)."""

    S_STAR = 1.4946472650

    @staticmethod
    def path(s):
        amps = np.zeros(8)
        amps[0] = math.cos(s)
        amps[[1, 2, 4]] = math.sin(s) / math.sqrt(3)
        return make_state(3, amps)

    @staticmethod
    def symmetric_oracle(s):
        """max over t of |<psi(s)|(cos t|0> + sin t|1>)^3>|^2: the nearest
        product state of a symmetric state is symmetric (Huebener et al., PRA
        80, 032324, 2009), and real for real nonnegative amplitudes."""
        def f(t):
            c, sn = np.cos(t), np.sin(t)
            return (math.cos(s) * c**3 + math.sqrt(3) * math.sin(s) * c**2 * sn) ** 2

        grid = np.linspace(0.0, math.pi, 200_001)
        k = int(np.argmax(f(grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        for _ in range(100):  # ternary search inside the two cells around the grid maximum
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            lo, hi = (m1, hi) if f(m1) < f(m2) else (lo, m2)
        return float(f((lo + hi) / 2))

    def test_converse_is_false(self):
        off_half = []
        for s in (self.S_STAR - 1e-6, self.S_STAR, self.S_STAR + 1e-6):
            state = self.path(s)
            result = nearest_product_state(state)
            assert result.converged
            assert abs(result.g_squared - self.symmetric_oracle(s)) <= 1e-9
            assert min(np.linalg.norm(bloch_vector(state, q)) for q in range(3)) >= 1 / 3
            # the one-qubit cut bound leaves the crossing wide open
            assert result.upper_bound > 0.6
            off_half.append(result.g_squared - 0.5)
        below, at, above = off_half
        assert abs(at) <= 1e-9
        assert below > 0 > above


class TestBatchedResolve:
    def test_campaign_resolves_stragglers_in_one_batch(self, capped_pass_1, als_passes):
        report = run_theorem_campaign("quadrilateral", 100, seed=11, solver=STRAGGLING)
        assert als_passes[0]["psis"].shape == (100, 2, 2, 2)
        # this budget leaves stragglers after the first pass; one batch re-solves them
        stragglers = als_passes.resolved_rows(STRAGGLING)
        g2 = als_passes.answer("g_squared", stragglers)
        assert report.passed
        assert report.max_g2_error == float(np.abs(g2 - 0.5).max()) <= 1e-7
        assert report.rechecked == stragglers.size == 7
        assert report.to_dict()["rechecked"] == 7

    # sample 619 of ``run_theorem_campaign("quadrilateral", 1000, seed=100)``, which only
    # the mixed-qubit clause of the re-solve rule re-solves at one restart
    MIXED_QUBIT_ONLY = (0.7049177372269828, 0.05559661628903746, 0.06495253915548302,
                        0.704117296803065, 0.0, 0.0)

    def test_mixed_qubit_alone_rescues_a_local_maximum(self, als_passes):
        rows = _sample_zero_bloch_rows(ZeroBlochFamily.QUADRILATERAL, np.random.default_rng(100),
                                       1000)
        assert rows[619].tolist() == list(self.MIXED_QUBIT_ONLY)
        tensors = _canonical_tensors(np.array([self.MIXED_QUBIT_ONLY]))
        cfg = SolverConfig(restarts=1, seed=2)
        # pass 1 converges to a local maximum 0.4969090162572 below the cut bound 1/2
        # and its gate never fires; the completely mixed qubit alone gets it re-solved
        g2, _, residual, _, resolved, upper = _solve_overlaps(tensors, cfg)
        assert als_passes.resolved_rows(cfg).tolist() == [0] and not als_passes[0]["gated"][0]
        assert als_passes[0]["g_squared"][0] == pytest.approx(0.4969090162572, abs=1e-12)
        assert als_passes[0]["residual"][0] <= _als.POLISHED_RESIDUAL
        assert upper[0] == pytest.approx(0.5, abs=1e-15)
        assert resolved[0] and g2[0] == pytest.approx(0.5, abs=1e-12)
        assert residual[0] <= _als.POLISHED_RESIDUAL

    def test_nearest_product_state_rescues_the_same_local_maximum(self):
        state = canonical_to_state(CanonicalParams(*self.MIXED_QUBIT_ONLY))
        result = nearest_product_state(state, SolverConfig(restarts=1, seed=2))
        assert result.converged and result.restarts_used == 5
        assert result.g_squared == pytest.approx(0.5, abs=1e-12)

    def test_campaign_without_stragglers_solves_once(self, als_passes):
        report = run_theorem_campaign("h-nonzero", 50, seed=2)
        assert report.passed and report.rechecked == 0
        assert als_passes.resolved_rows(_THEOREM_SOLVER).size == 0

    def test_tolerance_only_decides_the_verdict(self, als_passes):
        # a tolerance below rounding fails every sample not exactly at 1/2, but
        # re-solves none: each bracket is already closed
        report = run_theorem_campaign("h-nonzero", 20, seed=1, tolerance=1e-17)
        assert als_passes.resolved_rows(_THEOREM_SOLVER).size == 0
        g2 = als_passes[0]["g_squared"]
        assert report.rechecked == 0 and report.max_g2_error == float(np.abs(g2 - 0.5).max())
        assert [f.index for f in report.failures] == list(np.flatnonzero(g2 != 0.5)) == [*range(20)]
        assert run_theorem_campaign("h-nonzero", 20, seed=1).max_g2_error == report.max_g2_error
