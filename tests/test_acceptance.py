"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math

import numpy as np
import pytest

from entgeo import (
    LocalUnitary,
    SolverConfig,
    apply_local_unitary,
    bloch_vector,
    canonical_to_state,
    correlation_matrix,
    dicke4_state,
    ghz_overlap,
    ghz_theta_state,
    haar_random_state,
    invariant_set,
    nearest_product_state,
    overlap_with_product,
    quadrilateral_nearest,
    quadrilateral_overlap,
    random_feasible_quadrilateral,
    run_theorem_campaign,
    sextic_t_bloch,
    sextic_t_trace,
    svd_branch_solutions,
    three_tangle,
    three_tangle_canonical,
    wn_overlap,
)
from entgeo.overlap import _solve_overlaps
from entgeo.states import ZeroBlochFamily, _canonicalize, _sample_zero_bloch

from oracles import grid_overlap_sq

FAST = SolverConfig(restarts=16)


def report(number: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def theorem_campaigns():
    """One 10,000-sample campaign per zero-Bloch family, shared by criteria 1 and 6."""
    return {
        family: run_theorem_campaign(family, n_samples=10_000, seed=2024)
        for family in ("quadrilateral", "h-nonzero")
    }


def test_criterion_01_theorem_reproduction(theorem_campaigns):
    """10,000 samples per family all give numeric g^2 = 1/2 within 1e-7, each
    bracketed by its one-qubit cut bound 1/2 to 1e-10."""
    worst = max(r.max_g2_error for r in theorem_campaigns.values())
    gap = max(r.max_bracket_gap for r in theorem_campaigns.values())
    ok = all(r.passed for r in theorem_campaigns.values()) and worst <= 1e-7 and gap <= 1e-10
    report(1, ok, f"theorem reproduction on 2 x 10000 samples, max |g^2 - 1/2| = {worst:.3e} "
                  f"(tol 1e-7), max bracket gap = {gap:.3e}")


def test_criterion_02_dicke_counterexample():
    """Four-qubit Dicke state: g^2 = 3/8 within 1e-7, all Bloch lengths <= 1e-12."""
    state = dicke4_state()
    g2 = nearest_product_state(state, FAST).g_squared
    lengths = [float(np.linalg.norm(bloch_vector(state, q))) for q in range(4)]
    ok = abs(g2 - 0.375) <= 1e-7 and max(lengths) <= 1e-12
    report(2, ok, f"Dicke counterexample g^2 = {g2:.12f} (target 0.375), max Bloch length = {max(lengths):.2e}")


def test_criterion_03_generalized_ghz():
    """Numeric overlap matches (1 + |cos 2 theta|)/2 for n in 2..5."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        for k in range(4):
            theta = k * math.pi / 12.0
            numeric = nearest_product_state(ghz_theta_state(theta, n), FAST).g_squared
            worst = max(worst, abs(numeric - ghz_overlap(theta, n)))
    ok = worst <= 1e-8
    report(3, ok, f"generalized GHZ over n in 2..5, theta in 0..pi/4: max error = {worst:.3e} (tol 1e-8)")


def test_criterion_04_dual_formula_suite():
    """1,000 Haar states: sextic dual forms within 1e-11 and tangle via
    canonicalization within 1e-8.

    The 1,000 canonicalizations are one batch."""
    worst_t = 0.0
    worst_tau = 0.0
    haar = [haar_random_state(3, seed=seed) for seed in range(1000)]
    canonical = _canonicalize(np.stack([s.tensor for s in haar]), SolverConfig(restarts=32))
    for s, (params, _) in zip(haar, canonical):
        worst_t = max(worst_t, abs(sextic_t_trace(s) - sextic_t_bloch(s)))
        worst_tau = max(worst_tau, abs(three_tangle(s) - three_tangle_canonical(params)))
    ok = worst_t <= 1e-11 and worst_tau <= 1e-8
    report(4, ok, f"dual formulas on 1000 Haar states: max t gap = {worst_t:.3e} (tol 1e-11), "
                  f"max tau gap = {worst_tau:.3e} (tol 1e-8)")


def test_criterion_05_lu_invariance_suite():
    """1,000 (state, random LU) pairs: invariant drift <= 1e-10, g^2 drift <= 1e-7.

    The 2,000 overlaps are one batched solve."""
    worst_inv = 0.0
    originals, rotations = [], []
    for seed in range(1000):
        s = haar_random_state(3, seed=10_000 + seed)
        rotated = apply_local_unitary(s, LocalUnitary.random(3, seed=20_000 + seed))
        worst_inv = max(worst_inv, invariant_set(s).max_abs_diff(invariant_set(rotated)))
        originals.append(s.tensor)
        rotations.append(rotated.tensor)
    g2 = _solve_overlaps(np.stack(originals + rotations), FAST)[0]
    worst_g2 = float(np.abs(g2[:1000] - g2[1000:]).max())
    ok = worst_inv <= 1e-10 and worst_g2 <= 1e-7
    report(5, ok, f"LU invariance on 1000 pairs: max invariant drift = {worst_inv:.3e} (tol 1e-10), "
                  f"max g^2 drift = {worst_g2:.3e} (tol 1e-7)")


def test_criterion_06_zero_mode_structure(theorem_campaigns):
    """Every zero-Bloch sample: |t| <= 1e-10, both zero-mode residuals <= 1e-10,
    and on the c = 0 family the singular values of G are {2 mu, 2ab, 0} within 1e-10."""
    worst_t = max(r.max_abs_t for r in theorem_campaigns.values())
    worst_zero = max(r.max_zero_mode_residual for r in theorem_campaigns.values())
    worst_sv = theorem_campaigns["h-nonzero"].max_singular_value_error
    # the h = 0 family has a diagonal G; check its singular values too
    rng = np.random.default_rng(5)
    worst_quad_sv = 0.0
    for _ in range(500):
        p = _sample_zero_bloch(ZeroBlochFamily.QUADRILATERAL, rng)
        g = correlation_matrix(canonical_to_state(p), 0, 1)
        numeric = np.linalg.svd(g, compute_uv=False)
        expect = np.sort([2 * p.a * p.b + 2 * p.c * p.d,
                          abs(2 * p.a * p.b - 2 * p.c * p.d), 0.0])[::-1]
        worst_quad_sv = max(worst_quad_sv, float(np.abs(numeric - expect).max()))
    ok = worst_t <= 1e-10 and worst_zero <= 1e-10 and worst_sv <= 1e-10 and worst_quad_sv <= 1e-10
    report(6, ok, f"zero-mode structure: max |t| = {worst_t:.3e}, max zero-mode residual = "
                  f"{worst_zero:.3e}, max singular-value error = {max(worst_sv, worst_quad_sv):.3e} "
                  f"(tol 1e-10 each)")


def test_criterion_07_branch_closed_forms():
    """c = 0 family: lambda_1 = 2(a^2 + h^2), lambda_2 = 2(b^2 + h^2) within 1e-10,
    g_1^2 = (1 + b_A + b_B)/4 strictly below 1/2, and max(g_1^2, g_2^2) = 1/2."""
    rng = np.random.default_rng(6)
    worst_lam = worst_g1 = worst_final = 0.0
    strict = True
    for _ in range(2000):
        p = _sample_zero_bloch(ZeroBlochFamily.H_NONZERO, rng)
        rep = svd_branch_solutions(p)
        state = canonical_to_state(p)
        x, y = rep.main_branch.x, rep.main_branch.y
        g = correlation_matrix(state, 0, 1)
        lam1_proj = float(x @ (g @ y + bloch_vector(state, 0)))
        lam2_proj = float(y @ (g.T @ x + bloch_vector(state, 1)))
        worst_lam = max(
            worst_lam,
            abs(rep.main_branch.lam1 - 2 * (p.a**2 + p.h**2)),
            abs(rep.main_branch.lam2 - 2 * (p.b**2 + p.h**2)),
            abs(rep.main_branch.lam1 - lam1_proj),
            abs(rep.main_branch.lam2 - lam2_proj),
            rep.main_branch.residual,
        )
        g1_formula = 0.25 * (1 + rep.bloch_a_length + rep.bloch_b_length)
        worst_g1 = max(worst_g1, abs(rep.zero_mode.g_squared - g1_formula))
        strict = strict and rep.zero_mode.g_squared < 0.5
        worst_final = max(worst_final, abs(rep.final_g_squared - 0.5))
    ok = worst_lam <= 1e-10 and worst_g1 <= 1e-10 and strict and worst_final <= 1e-10
    report(7, ok, f"branch closed forms on 2000 samples: max multiplier error = {worst_lam:.3e}, "
                  f"max g_1^2 error = {worst_g1:.3e}, g_1^2 < 1/2 everywhere = {strict}, "
                  f"max |max-branch - 1/2| = {worst_final:.3e} (tol 1e-10)")


def test_criterion_08_quadrilateral_oracle_equivalence():
    """500 feasible quadrilateral states: closed-form vs numeric g within 1e-7
    and the nearest-product overlap reproduces the closed form within 1e-10.

    The 500 numeric overlaps are one batched solve."""
    rng = np.random.default_rng(7)
    params = [random_feasible_quadrilateral(rng) for _ in range(500)]
    states = [p.to_state() for p in params]
    g_closed = np.array([quadrilateral_overlap(p) for p in params])
    g_numeric = np.sqrt(_solve_overlaps(np.stack([s.tensor for s in states]), FAST)[0])
    g_product = np.array(
        [overlap_with_product(s, quadrilateral_nearest(p)) for s, p in zip(states, params)]
    )
    worst_numeric = float(np.abs(g_closed - g_numeric).max())
    worst_product = float(np.abs(g_closed - g_product).max())
    ok = worst_numeric <= 1e-7 and worst_product <= 1e-10
    report(8, ok, f"quadrilateral closed form on 500 samples: max |closed - numeric| = "
                  f"{worst_numeric:.3e} (tol 1e-7), max nearest-product gap = "
                  f"{worst_product:.3e} (tol 1e-10)")


def test_criterion_09_solver_vs_brute_force():
    """200 random 3-qubit states: solver within 1e-6 of the dense-grid oracle.

    The 200 solver values are one batched solve."""
    states = [haar_random_state(3, seed=30_000 + seed) for seed in range(200)]
    solver = _solve_overlaps(np.stack([s.tensor for s in states]), FAST)[0]
    oracle = np.array([grid_overlap_sq(s.amplitudes) for s in states])
    worst = float(np.abs(solver - oracle).max())
    ok = worst <= 1e-6
    report(9, ok, f"solver vs 2-degree grid + refinement on 200 states: max gap = {worst:.3e} (tol 1e-6)")


def test_criterion_10_w_values():
    """W_3 gives g^2 = 4/9 within 1e-7; zero Bloch <=> g^2 = 1/2 spot checks."""
    w3 = wn_overlap([1 / math.sqrt(3)] * 3, FAST)
    checks = [
        abs(w3.g_squared - 4 / 9) <= 1e-7,
        not w3.has_zero_bloch and not w3.is_half,
    ]
    zero_bloch_3 = wn_overlap([1 / math.sqrt(2), 0.5, 0.5], FAST)
    checks.append(zero_bloch_3.has_zero_bloch and zero_bloch_3.is_half)
    uniform_w4 = wn_overlap([0.5] * 4, FAST)
    checks.append(not uniform_w4.has_zero_bloch and not uniform_w4.is_half)
    checks.append(abs(uniform_w4.g_squared - (3 / 4) ** 3) <= 1e-7)
    rest = math.sqrt(0.5 / 3)
    zero_bloch_4 = wn_overlap([1 / math.sqrt(2), rest, rest, rest], FAST)
    checks.append(zero_bloch_4.has_zero_bloch and zero_bloch_4.is_half)
    ok = all(checks)
    report(10, ok, f"W family: W_3 g^2 = {w3.g_squared:.12f} (target 4/9), "
                   f"zero-Bloch <=> 1/2 held on all spot checks = {ok}")
