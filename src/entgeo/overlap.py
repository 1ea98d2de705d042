"""Numerical maximal product overlap for n-qubit pure states.

The solver is a multi-start alternating rank-1 approximation: cycling over
qubits, each local spinor is replaced by the normalized contraction of the
state against the other current spinors.  Each sweep is monotonically
non-decreasing in the overlap, so every restart converges to a stationary
point; the best restart is reported together with first-order diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _als
from .invariants import _bloch_geometry
from .states import ProductState, PureState, _cut_bound, _require_int

_ESCALATION = 4  # the re-solve budget's factor on restarts and sweeps (``escalated()``)


@dataclass(frozen=True)
class SolverConfig:
    """Multi-start solver knobs.

    ``restarts`` random initializations are run, plus one deterministic start
    at the largest-magnitude basis amplitude, each for at most
    ``max_iterations`` sweeps.  A restart freezes once its squared overlap
    changes by less than ``_als.COARSE_TOL`` over a sweep, in both passes of
    the overlap solve; the re-solve pass runs under ``escalated()`` (see
    ``_solve_overlaps``).
    """

    restarts: int = 64
    max_iterations: int = _als.MAX_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        _require_int("restarts", self.restarts, 1)
        _require_int("max_iterations", self.max_iterations, 1)
        _require_int("seed", self.seed, 0)

    def escalated(self) -> "SolverConfig":
        """The budget for re-solving stragglers: 4x the restarts and sweeps and
        the next seed."""
        return SolverConfig(
            restarts=_ESCALATION * self.restarts,
            max_iterations=_ESCALATION * self.max_iterations,
            seed=self.seed + 1,
        )


@dataclass(frozen=True, eq=False)
class OverlapResult:
    """Solver output.

    ``converged`` means a polished residual <= ``_als.POLISHED_RESIDUAL``;
    ``restarts_used`` and ``iterations`` are those of the pass that answered.
    ``lagrange`` carries (lambda_1, lambda_2) of the two-qubit stationarity
    system for three-qubit states and is None otherwise.
    ``stationarity_residual`` is the norm of the polished spinor-space
    residuals, the number ``converged`` is judged on.  ``upper_bound`` is the
    one-qubit cut bound min_q lambda_max(rho_q) >= g^2 (``states._cut_bound``,
    exact up to 1e-14 of rounding), so ``upper_bound - g_squared`` brackets
    the error of the answer.
    """

    g_squared: float
    product: ProductState
    lagrange: tuple[float, float] | None
    restarts_used: int
    iterations: int
    converged: bool
    stationarity_residual: float
    upper_bound: float


def _off_unit(v: np.ndarray, tol: float) -> bool:
    """True unless |v| is within ``tol`` of 1; NaN and inf entries count as off."""
    return not abs(np.linalg.norm(v) - 1.0) <= tol


def bloch_to_spinor(v) -> np.ndarray:
    """Spinor with Bloch vector ``v``, |0> component real nonnegative."""
    v = np.asarray(v, dtype=float)
    if _off_unit(v, 1e-10):
        raise ValueError("input must be a finite unit 3-vector")
    return _als._spinors_from_bloch(v[2], math.atan2(v[1], v[0]))


def spinor_to_bloch(spinor) -> np.ndarray:
    """Bloch vector of a normalized spinor."""
    c = np.asarray(spinor, dtype=complex).reshape(-1)
    if c.size != 2 or _off_unit(c, 1e-10):
        raise ValueError("input must be a finite normalized 2-spinor")
    return _als._bloch_from_spinors(c)


def geometric_measure(g_squared: float) -> float:
    """Entanglement measure -ln(g^2) of a squared maximal product overlap."""
    if not 0.0 < g_squared <= 1.0 + 1e-12:
        raise ValueError(f"g_squared must lie in (0, 1], got {g_squared}")
    return float(-math.log(min(g_squared, 1.0)))


def quarter_form(x, y, bloch_a, bloch_b, corr) -> float:
    """(1/4)[1 + x.b_A + y.b_B + x.(G y)] over unit Bloch vectors x, y.

    Its maximum over (x, y) is the squared maximal product overlap of the
    underlying three-qubit state; the third qubit's optimum is implicit in
    the two-qubit marginal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if _off_unit(x, 1e-10) or _off_unit(y, 1e-10):
        raise ValueError("x and y must be finite unit 3-vectors")
    if not all(np.isfinite(a).all() for a in (bloch_a, bloch_b, corr)):
        raise ValueError("bloch_a, bloch_b and corr must be finite")
    return float(0.25 * (1.0 + x @ bloch_a + y @ bloch_b + x @ (np.asarray(corr) @ y)))


def stationarity_residual(s: PureState, x, y, lam1: float, lam2: float) -> float:
    """|G y + b_A - lambda_1 x| + |G^T x + b_B - lambda_2 y| for a 3-qubit state."""
    if s.n_qubits != 3:
        raise ValueError("stationarity residual is defined for three-qubit states")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if _off_unit(x, 1e-8) or _off_unit(y, 1e-8):
        raise ValueError("x and y must be finite unit 3-vectors")
    if not math.isfinite(lam1) or not math.isfinite(lam2):
        raise ValueError("lam1 and lam2 must be finite")
    b_a, b_b, g = (v[0] for v in _bloch_geometry(s.tensor[None]))
    return _bloch_residual(b_a, b_b, g, x, y, lam1, lam2)


def _bloch_residual(b_a, b_b, g, x, y, lam1: float, lam2: float) -> float:
    """|G y + b_A - lambda_1 x| + |G^T x + b_B - lambda_2 y|, unvalidated."""
    return float(
        np.linalg.norm(g @ y + b_a - lam1 * x) + np.linalg.norm(g.T @ x + b_b - lam2 * y)
    )


def _gauge_fix(spinor: np.ndarray) -> np.ndarray:
    """Remove the free phase: largest component made real nonnegative."""
    pivot = spinor[0] if abs(spinor[0]) >= abs(spinor[1]) else spinor[1]
    if abs(pivot) < 1e-300:
        return spinor
    return spinor * (np.conj(pivot) / abs(pivot))


def _best_polished(tensors: np.ndarray, cfg: SolverConfig, stop_at=None):
    """Best of ``cfg.restarts`` + 1 ALS runs frozen at ``_als.COARSE_TOL`` (and
    gated at ``stop_at``) for each state, Newton-polished as one batch, in the
    order ``_solve_overlaps`` returns, with the (S,) gate flags last."""
    run = _als.power_iteration(tensors, cfg.restarts, cfg.max_iterations, _als.COARSE_TOL,
                               cfg.seed, stop_at=stop_at)
    rows = np.arange(tensors.shape[0])
    best = np.argmax(run["g_squared"], axis=1)
    spinors, residual, g_squared = _als.polish_stationary(tensors, run["spinors"][:, rows, best])
    return g_squared, spinors, residual, run["iterations"][rows, best], run["gated"]


def _solve_overlaps(tensors: np.ndarray, cfg: SolverConfig, suspect=None):
    """Best polished ALS run for each state of an (S, 2, ..., 2) batch.

    Both passes freeze the runs at ``_als.COARSE_TOL``: ALS only has to find
    the basin, and the Newton polish of each state's best run finishes it
    quadratically.  Pass 1 is also gated by the one-qubit cut bound
    ``upper`` (``states._cut_bound``): a state's runs all stop once one of them
    freezes within ``_als.GATE_MARGIN`` of its ``upper``.  From sweep
    ``_als.COARSE_SWEEPS`` on, it also stops each run below a frozen run of
    its own state, which would only be discarded.  The states whose
    polish stalls above ``_als.POLISHED_RESIDUAL``, whose gate fired but whose
    bracket ``upper - g2`` is still wider than ``_als.CLOSED_GAP``, or whose
    value ``suspect(g2)`` flags, are re-solved once, as one ungated batch,
    under ``cfg.escalated()``, and polished again.

    Returns (g_squared (S,), spinors as one (n, S, 2) block, residual (S,),
    sweeps (S,), number of re-solved states, upper (S,)); sweeps are those of
    the best ALS run of the pass that answered each state, the rest is after
    its polish.
    """
    upper = _cut_bound(tensors)
    g_squared, spinors, residual, sweeps, gated = _best_polished(
        tensors, cfg, upper - _als.GATE_MARGIN
    )
    gated_open = gated & ~(upper - g_squared <= _als.CLOSED_GAP)
    redo = ~(residual <= _als.POLISHED_RESIDUAL) | gated_open
    if suspect is not None:
        redo |= suspect(g_squared)
    redo = np.flatnonzero(redo)
    if redo.size:
        again = _best_polished(tensors[redo], cfg.escalated())
        for whole, part in zip((g_squared, *spinors, residual, sweeps),
                               (again[0], *again[1], *again[2:4])):
            whole[redo] = part
    return g_squared, spinors, residual, sweeps, int(redo.size), upper


def nearest_product_state(s: PureState, cfg: SolverConfig | None = None) -> OverlapResult:
    """Best product approximation of ``s`` over ``cfg.restarts`` + 1 starts,
    Newton-polished to a stationary point.

    Non-convergence is reported through the ``converged`` flag, never raised;
    the best stationary value found is returned either way.
    """
    if s.n_qubits < 2:
        raise ValueError("the product overlap needs at least 2 qubits")
    cfg = cfg or SolverConfig()
    g_squared, spinors, residual, sweeps, resolved, upper = _solve_overlaps(s.tensor[None], cfg)
    product = ProductState(tuple(_gauge_fix(sp[0]) for sp in spinors))
    residual = float(residual[0])
    lagrange = None
    if s.n_qubits == 3:
        x, y = _als._bloch_from_spinors(np.stack(product.spinors[:2]))
        b_a, b_b, g = (v[0] for v in _bloch_geometry(s.tensor[None]))
        lagrange = (float(x @ (g @ y + b_a)), float(y @ (g.T @ x + b_b)))
    return OverlapResult(
        g_squared=float(g_squared[0]),
        product=product,
        lagrange=lagrange,
        restarts_used=cfg.restarts * (_ESCALATION if resolved else 1) + 1,
        iterations=int(sweeps[0]),
        converged=residual <= _als.POLISHED_RESIDUAL,
        stationarity_residual=residual,
        upper_bound=float(upper[0]),
    )
