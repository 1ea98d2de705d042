"""Analytic overlap solutions and the zero-Bloch-vector theorem machinery.

Covers the quadrilateral family (h = 0), whose maximal product overlap is
twice the circumradius of the cyclic quadrilateral with sides (a, b, c, d);
the c = 0 family, solved by a singular value decomposition of the
correlation matrix; the generalized GHZ / W / Dicke examples for four and
more qubits; and verification campaigns for the statement that a vanishing
single-qubit Bloch vector forces a squared overlap of 1/2 on three qubits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .invariants import (  # noqa: F401  correlation_matrix is looked up here too
    _bloch,
    _bloch_geometry,
    _correlation,
    _marginals,
    _sextic_t_trace,
    bloch_vector,
    correlation_matrix,
)
from .overlap import (
    SolverConfig,
    _bloch_residual,
    _solve_overlaps,
    nearest_product_state,
    quarter_form,
)
from .states import (
    MAX_QUBITS,
    CanonicalParams,
    ProductState,
    PureState,
    ZeroBlochFamily,
    _canonical_tensors,
    _require_int,
    _require_positive,
    _sample_zero_bloch_rows,
    canonical_to_state,
)


class InfeasibleQuadrilateralError(ValueError):
    """No valid cyclic quadrilateral solution; use the numeric solver instead."""


@dataclass(frozen=True)
class QuadrilateralParams:
    """Sides (a, b, c, d) of the state a|100> + b|010> + c|001> + d|111>."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in "abcd":
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"side {name} must be finite, got {v}")
            if v < 0:
                raise ValueError(f"side {name} must be nonnegative")
        if abs(self.a**2 + self.b**2 + self.c**2 + self.d**2 - 1.0) > 1e-12:
            raise ValueError("sides must satisfy a^2 + b^2 + c^2 + d^2 = 1")

    @property
    def sides(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def semiperimeter(self) -> float:
        return float(self.sides.sum() / 2.0)

    @property
    def is_feasible(self) -> bool:
        """Every side at most the semiperimeter (a cyclic quadrilateral exists)."""
        return bool(self.sides.max() <= self.semiperimeter)

    def to_state(self) -> PureState:
        amps = np.zeros(8, dtype=complex)
        amps[4] = self.a  # |100>
        amps[2] = self.b  # |010>
        amps[1] = self.c  # |001>
        amps[7] = self.d  # |111>
        return PureState(3, amps)


def quadrilateral_area(p: QuadrilateralParams) -> float:
    """Area of the cyclic quadrilateral with the given sides (Brahmagupta;
    reduces to Heron's triangle formula when a side vanishes)."""
    s = p.semiperimeter
    prod = (s - p.a) * (s - p.b) * (s - p.c) * (s - p.d)
    return float(math.sqrt(max(prod, 0.0)))


def quadrilateral_r_coefficients(p: QuadrilateralParams) -> np.ndarray:
    """The four nearest-product coefficients r_a, r_b, r_c, r_d."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return np.array(
        [
            a * (b * b + c * c + d * d - a * a) + 2 * b * c * d,
            b * (a * a + c * c + d * d - b * b) + 2 * a * c * d,
            c * (b * b + a * a + d * d - c * c) + 2 * a * b * d,
            d * (b * b + c * c + a * a - d * d) + 2 * a * b * c,
        ]
    )


def _require_closed_form(p: QuadrilateralParams):
    if not p.is_feasible:
        raise InfeasibleQuadrilateralError(
            "a side exceeds the semiperimeter; no cyclic quadrilateral exists, "
            "use the numeric solver"
        )
    area = quadrilateral_area(p)
    if area <= 1e-12:
        raise InfeasibleQuadrilateralError(
            "degenerate (collinear) quadrilateral with zero area; "
            "use the numeric solver"
        )
    r = quadrilateral_r_coefficients(p)
    if r.min() < 0:
        raise InfeasibleQuadrilateralError(
            "a nearest-product coefficient is negative; the closed form does not "
            "apply, use the numeric solver"
        )
    return area, r


def quadrilateral_overlap(p: QuadrilateralParams) -> float:
    """Maximal product overlap g = 2R of a feasible quadrilateral state,
    R the circumradius sqrt((ab+cd)(ac+bd)(ad+bc)) / (4 S)."""
    area, _ = _require_closed_form(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    return float(
        math.sqrt((a * b + c * d) * (a * c + b * d) * (a * d + b * c)) / (2.0 * area)
    )


def quadrilateral_nearest(p: QuadrilateralParams) -> ProductState:
    """Closed-form nearest product state of the quadrilateral state."""
    area, r = _require_closed_form(p)
    r_a, r_b, r_c, r_d = r
    a, b, c, d = p.a, p.b, p.c, p.d
    spinors = []
    for up, down, denom in (
        (r_a * r_d, r_b * r_c, a * d + b * c),
        (r_b * r_d, r_a * r_c, b * d + a * c),
        (r_c * r_d, r_a * r_b, c * d + a * b),
    ):
        spinor = np.array([math.sqrt(up), math.sqrt(down)], dtype=complex)
        spinor /= 4.0 * area * math.sqrt(denom)
        spinors.append(spinor / np.linalg.norm(spinor))
    return ProductState(tuple(spinors))


# smallest area and nearest-product coefficient a sampled quadrilateral may have
_QUAD_AREA_MARGIN = 1e-2
_QUAD_R_MARGIN = 1e-3


def random_feasible_quadrilateral(seed=None) -> QuadrilateralParams:
    """Rejection-sample sides on which the closed form is well conditioned."""
    rng = np.random.default_rng(seed)
    while True:
        sides = np.abs(rng.normal(size=4))
        sides /= np.linalg.norm(sides)
        p = QuadrilateralParams(*sides)
        if not p.is_feasible:
            continue
        if quadrilateral_area(p) < _QUAD_AREA_MARGIN:
            continue
        if quadrilateral_r_coefficients(p).min() < _QUAD_R_MARGIN:
            continue
        return p


# --------------------------------------------------------------------------
# the c = 0 family: branch classification through the SVD of G


@dataclass(frozen=True, eq=False)
class BranchSolution:
    """One stationary solution, in both the SVD-rotated and original frames."""

    x_rotated: np.ndarray
    y_rotated: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lam1: float
    lam2: float
    g_squared: float
    residual: float


@dataclass(frozen=True)
class MiddleBranch:
    """The middle-singular-value branch, which admits no physical solution:
    it would need b_A b_B = lam1 lam2 (z.x)(z.y) with lam1 lam2 = (2ab)^2,
    but b_A b_B exceeds (2ab)^2 while the projection product is at most 1.
    """

    bloch_product: float       # b_A * b_B
    multiplier_product: float  # (2ab)^2
    nonphysical: bool = True

    @property
    def reason(self) -> str:
        return (
            f"b_A b_B = {self.bloch_product:.6g} > (2ab)^2 = "
            f"{self.multiplier_product:.6g} while (z.x)(z.y) <= 1"
        )


@dataclass(frozen=True, eq=False)
class BranchReport:
    """Classified stationary branches for the c = 0, b_C = 0 family."""

    params: CanonicalParams
    bloch_a_length: float
    bloch_b_length: float
    mu: float
    u_matrix: np.ndarray
    v_matrix: np.ndarray
    singular_values: np.ndarray
    zero_mode: BranchSolution
    middle_branch: MiddleBranch
    main_branch: BranchSolution
    final_g_squared: float


def _g_singular_values(a, b, h) -> np.ndarray:
    """Singular values (2 mu, 2ab, 0) of G on the c = 0 family, mu =
    hypot(h, a) hypot(h, b); shape (..., 3) for (...)-shaped a, b, h."""
    mu = np.hypot(h, a) * np.hypot(h, b)
    return np.stack([2.0 * mu, 2.0 * a * b, np.zeros_like(mu)], axis=-1)


_FAMILY_TOL = 1e-10  # how far (c, gamma, d^2 - a^2 - b^2 - h^2) may sit off the family


def svd_branch_solutions(p: CanonicalParams) -> BranchReport:
    """Solve the stationarity equations on the c = 0, d^2 = a^2 + b^2 + h^2 family.

    The correlation matrix factors as U diag(2 mu, 2ab, 0) V^T with rotation
    angles alpha = atan(h/a) and beta = atan(h/b).  The zero mode gives
    g_1^2 = (1 + b_A + b_B)/4, the middle branch is nonphysical, and the main
    branch has strictly positive multipliers 2(a^2 + h^2), 2(b^2 + h^2) with
    g_2^2 = 1/2; the overlap is max(g_1^2, g_2^2).
    """
    a, b, c, d, h, gamma = p.as_tuple()
    if abs(c) > _FAMILY_TOL:
        raise ValueError(f"family requires c = 0, got c = {c}")
    if abs(gamma) > _FAMILY_TOL:
        raise ValueError(f"family requires gamma = 0, got gamma = {gamma}")
    if abs(d * d - (a * a + b * b + h * h)) > _FAMILY_TOL:
        raise ValueError("family requires d^2 = a^2 + b^2 + h^2")

    alpha = math.atan2(h, a)
    beta = math.atan2(h, b)
    b_a = 2.0 * a * math.hypot(h, a)
    b_b = 2.0 * b * math.hypot(h, b)
    singular_values = _g_singular_values(a, b, h)
    u, v = (np.array([[math.cos(t), 0.0, math.sin(t)], [0.0, 1.0, 0.0],
                      [-math.sin(t), 0.0, math.cos(t)]]) for t in (alpha, beta))
    bloch_a, bloch_b, corr = (v[0] for v in _bloch_geometry(canonical_to_state(p).tensor[None]))
    zeta = np.array([0.0, 0.0, 1.0])

    def solution(x_rot, y_rot, lam1, lam2):
        x = u @ x_rot
        y = v @ y_rot
        residual = _bloch_residual(bloch_a, bloch_b, corr, x, y, lam1, lam2)
        g2 = quarter_form(x, y, bloch_a, bloch_b, corr)
        return BranchSolution(
            x_rotated=x_rot, y_rotated=y_rot, x=x, y=y,
            lam1=lam1, lam2=lam2, g_squared=g2, residual=residual,
        )

    zero_mode = solution(zeta, zeta, b_a, b_b)
    main = solution(u @ zeta, v @ zeta, 2.0 * (a * a + h * h), 2.0 * (b * b + h * h))
    middle = MiddleBranch(bloch_product=b_a * b_b, multiplier_product=(2.0 * a * b) ** 2)
    return BranchReport(
        params=p,
        bloch_a_length=b_a,
        bloch_b_length=b_b,
        mu=float(singular_values[0] / 2.0),
        u_matrix=u,
        v_matrix=v,
        singular_values=singular_values,
        zero_mode=zero_mode,
        middle_branch=middle,
        main_branch=main,
        final_g_squared=float(max(zero_mode.g_squared, main.g_squared)),
    )


# --------------------------------------------------------------------------
# theorem verification


def _zero_mode_residuals(b_first: np.ndarray, b_second: np.ndarray, g: np.ndarray):
    """(S,) arrays |G^T b_first| and |G b_second| from the (S, 3) Bloch vectors
    and (S, 3, 3) correlation matrix of one ``_marginals`` pass over the two
    non-vanishing qubits."""
    left = np.einsum("sji,sj->si", g, b_first)
    right = np.einsum("sij,sj->si", g, b_second)
    return np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1)


# first-pass budget of the zero-Bloch campaign: its evidence is the bracket
# against the cut bound 1/2, closed on the manifold, not agreement among restarts
_THEOREM_SOLVER = SolverConfig(restarts=2)
# budget of the example families (``wn_overlap`` and ``entgeo demo``), where no
# bracket closes
_EXAMPLE_SOLVER = SolverConfig(restarts=16)


@dataclass(frozen=True)
class CampaignFailure:
    index: int
    params: tuple[float, float, float, float, float, float]
    numeric_g_squared: float


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of a zero-Bloch verification campaign over one family."""

    family: str
    samples: int
    seed: int
    tolerance: float
    max_g2_error: float
    max_abs_t: float
    max_zero_mode_residual: float
    max_singular_value_error: float
    rechecked: int  # samples answered by the escalated re-solve (``_solve_overlaps``)
    max_bracket_gap: float  # widest upper - g^2 against the one-qubit cut bound
    failures: tuple[CampaignFailure, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = asdict(self)
        failures = out.pop("failures")
        out["passed"] = self.passed
        names = ("a", "b", "c", "d", "h", "gamma")
        out["failures"] = [{**f, "params": dict(zip(names, f["params"]))} for f in failures]
        return out


def run_theorem_campaign(
    family,
    n_samples: int,
    seed: int = 0,
    tolerance: float = 1e-7,
    solver: SolverConfig | None = None,
) -> CampaignReport:
    """Sample one family, solve every state numerically and check g^2 = 1/2.

    The solver (default ``_THEOREM_SOLVER``, 2 restarts) runs all samples
    and restarts as one batch, each sample's restarts stopping once one
    reaches its cut bound 1/2, and re-solves samples by the one rule of
    ``_solve_overlaps``; ``tolerance`` decides only the verdict.  Structure
    checks (t, zero modes, singular values of G) run on the whole batch.
    """
    _require_int("n_samples", n_samples, 1)
    _require_int("seed", seed, 0)
    _require_positive("tolerance", tolerance)
    family = ZeroBlochFamily(family)
    solver = solver or _THEOREM_SOLVER
    rows = _sample_zero_bloch_rows(family, np.random.default_rng(seed), n_samples)
    tensors = _canonical_tensors(rows)
    g2, *_, resolved, upper = _solve_overlaps(tensors, solver)

    rho_a, rho_b, rho_ab = _marginals(tensors)  # both families have b_C = 0
    g = _correlation(rho_ab)
    left, right = _zero_mode_residuals(_bloch(rho_a), _bloch(rho_b), g)
    max_sv = 0.0
    if family is ZeroBlochFamily.H_NONZERO:
        numeric_sv = np.linalg.svd(g, compute_uv=False)
        a, b, _, _, h, _ = rows.T
        closed_sv = _g_singular_values(a, b, h)
        max_sv = float(np.abs(numeric_sv - closed_sv).max())
    failures = tuple(
        CampaignFailure(index=int(i), params=tuple(rows[i].tolist()),
                        numeric_g_squared=float(g2[i]))
        for i in np.flatnonzero(np.abs(g2 - 0.5) > tolerance)
    )
    return CampaignReport(
        family=family.value,
        samples=n_samples,
        seed=seed,
        tolerance=tolerance,
        max_g2_error=float(np.abs(g2 - 0.5).max()),
        max_abs_t=float(np.abs(_sextic_t_trace(rho_a, rho_b, rho_ab)).max()),
        max_zero_mode_residual=float(max(left.max(), right.max())),
        max_singular_value_error=max_sv,
        rechecked=int(resolved.sum()),
        max_bracket_gap=float((upper - g2).max()),
        failures=failures,
    )


# --------------------------------------------------------------------------
# families beyond three qubits


def ghz_theta_state(theta: float, n: int) -> PureState:
    """cos(theta)|0...0> + sin(theta)|1...1> on n qubits."""
    _require_int("n", n, 2, MAX_QUBITS)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.cos(theta)
    amps[-1] = math.sin(theta)
    return PureState(n, amps / np.linalg.norm(amps))


def ghz_overlap(theta: float, n: int) -> float:
    """Squared overlap (1 + |cos 2 theta|)/2 of the generalized GHZ state.

    All single-qubit Bloch vectors of the state share the length |cos 2 theta|,
    so this is (1 + |b|)/2; the value is independent of n >= 2.
    """
    _require_int("n", n, 2)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return float((1.0 + abs(math.cos(2.0 * theta))) / 2.0)


def wn_state(coeffs) -> PureState:
    """Generalized W state sum_i c_i |0..1_i..0> with nonnegative c_i."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or not 2 <= c.size <= MAX_QUBITS:
        raise ValueError(f"need 2..{MAX_QUBITS} coefficients, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError(f"coeffs must be finite, got {c.tolist()}")
    if c.min() < 0:
        raise ValueError("coefficients must be nonnegative")
    if abs((c**2).sum() - 1.0) > 1e-12:
        raise ValueError("coefficients must satisfy sum c_i^2 = 1")
    n = c.size
    amps = np.zeros(2**n, dtype=complex)
    amps[1 << (n - 1 - np.arange(n))] = c
    return PureState(n, amps)


@dataclass(frozen=True, eq=False)
class WnReport:
    """Whether (some Bloch vector vanishes) <=> (g^2 = 1/2) held on one instance."""

    coefficients: np.ndarray
    g_squared: float
    bloch_lengths: np.ndarray
    min_bloch_length: float
    has_zero_bloch: bool
    is_half: bool

    @property
    def equivalence_held(self) -> bool:
        return self.has_zero_bloch == self.is_half


def wn_overlap(coeffs, solver: SolverConfig | None = None) -> WnReport:
    """Numeric overlap and Bloch lengths of a generalized W state.

    The Bloch length of qubit i is |1 - 2 c_i^2|, zero exactly when
    c_i = 1/sqrt(2).
    """
    solver = solver or _EXAMPLE_SOLVER
    state = wn_state(coeffs)
    c = np.asarray(coeffs, dtype=float)
    lengths = np.array([np.linalg.norm(bloch_vector(state, q)) for q in range(c.size)])
    g2 = nearest_product_state(state, solver).g_squared
    return WnReport(
        coefficients=c,
        g_squared=float(g2),
        bloch_lengths=lengths,
        min_bloch_length=float(lengths.min()),
        has_zero_bloch=bool(lengths.min() <= 1e-8),
        is_half=bool(abs(g2 - 0.5) <= 1e-6),
    )


def dicke4_state() -> PureState:
    """Equal superposition of the six two-excitation strings on four qubits."""
    amps = np.zeros(16, dtype=complex)
    amps[[bin(i).count("1") == 2 for i in range(16)]] = 1.0 / math.sqrt(6.0)
    return PureState(4, amps)

