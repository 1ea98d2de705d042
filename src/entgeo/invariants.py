"""The five continuous local-unitary invariants of three-qubit pure states.

Bloch-vector lengths b_A, b_B, b_C, the sextic invariant t (computable from
reduced density matrices or from Bloch geometry; the two routes must agree)
and the three-tangle tau (hyperdeterminant magnitude, normalized so the GHZ
state gives 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import CanonicalParams, PureState, _readonly, _require_int, _rho, partial_trace_pair

PAULIS = _readonly(
    np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
)

_T_CROSS_TOL = 1e-10


class InvariantConsistencyError(RuntimeError):
    """The two independent routes to the sextic invariant disagreed."""


# G_ij = tr(rho_pair sigma_i x sigma_j) = Re sum_k rho_pair_k conj(P_kij) over the 16
# entries k of the Hermitian P_ij = sigma_i x sigma_j: one real (32, 9) map on the
# (re, im) view of rho_pair
_G_MAP = np.einsum("iac,jbd->abcdij", PAULIS, PAULIS).reshape(16, 9)
_G_MAP = _readonly(np.stack([_G_MAP.real, _G_MAP.imag], axis=1).reshape(32, 9))


def _marginals(tensors: np.ndarray, first: int = 0, second: int = 1):
    """(rho_first (S, 2, 2), rho_second (S, 2, 2), rho_pair (S, 4, 4)) of a batch.

    One ``_rho`` product gives the pair marginal, ``first`` the more
    significant qubit; the one-qubit marginals are its two partial traces.
    """
    pair = _rho(tensors, [first, second])
    r = pair.reshape(-1, 2, 2, 2, 2)
    return r[:, :, 0, :, 0] + r[:, :, 1, :, 1], r[:, 0, :, 0] + r[:, 1, :, 1], pair


def _bloch(rho: np.ndarray) -> np.ndarray:
    """(S, 3) Bloch vectors tr(rho sigma_k) = (2 Re r01, -2 Im r01, r00 - r11)
    of (S, 2, 2) one-qubit marginals."""
    r01 = rho[:, 0, 1]
    return np.stack([2.0 * r01.real, -2.0 * r01.imag, (rho[:, 0, 0] - rho[:, 1, 1]).real], axis=1)


def _correlation(rho_pair: np.ndarray) -> np.ndarray:
    """(S, 3, 3) correlation matrices tr(rho_pair sigma_i x sigma_j) of (S, 4, 4)
    pair marginals; one GEMM over the batch, so a row may differ from its
    batch-of-one value by an ulp."""
    return (rho_pair.view(float).reshape(-1, 32) @ _G_MAP).reshape(-1, 3, 3)


def _sextic_t_trace(rho_a: np.ndarray, rho_b: np.ndarray, rho_ab: np.ndarray) -> np.ndarray:
    """(S,) values of ``sextic_t_trace`` from the marginals of a three-qubit batch."""
    cross = np.einsum("sabcd,sca,sdb->s", rho_ab.reshape(-1, 2, 2, 2, 2), rho_a, rho_b)
    cubes = np.einsum("sab,sbc,sca->s", rho_a, rho_a, rho_a)
    cubes += np.einsum("sab,sbc,sca->s", rho_b, rho_b, rho_b)
    return (3.0 * cross - cubes).real - 0.25


def _sextic_t_bloch(b_a: np.ndarray, b_b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(S,) values of ``sextic_t_bloch`` from (S, 3) Bloch vectors and (S, 3, 3) G."""
    return 0.75 * np.einsum("si,sij,sj->s", b_a, g, b_b)


def _bloch_geometry(tensors: np.ndarray, first: int = 0, second: int = 1):
    """(b_first, b_second, G) of a batch, from one ``_marginals`` pass."""
    rho_first, rho_second, rho_pair = _marginals(tensors, first, second)
    return _bloch(rho_first), _bloch(rho_second), _correlation(rho_pair)


def bloch_vector(s: PureState, q: int) -> np.ndarray:
    """(tr rho sigma_x, tr rho sigma_y, tr rho sigma_z) of qubit ``q``."""
    _require_int("q", q, 0, s.n_qubits - 1)
    return _bloch(_rho(s.tensor[None], [q]))[0]


def bloch_length(s: PureState, q: int) -> float:
    return float(np.linalg.norm(bloch_vector(s, q)))


def correlation_matrix(s: PureState, q1: int, q2: int) -> np.ndarray:
    """G_ij = tr(rho_{q1 q2} sigma_i x sigma_j), a real 3x3 matrix."""
    return _correlation(partial_trace_pair(s, q1, q2)[None])[0]


def sextic_t_trace(s: PureState) -> float:
    """Sextic invariant from reduced density matrices:
    3 tr[rho_AB (rho_A x rho_B)] - tr(rho_A^3) - tr(rho_B^3) - 1/4.
    """
    if s.n_qubits != 3:
        raise ValueError("the sextic invariant is defined for three-qubit states")
    return float(_sextic_t_trace(*_marginals(s.tensor[None]))[0])


def sextic_t_bloch(s: PureState) -> float:
    """Sextic invariant from Bloch geometry: (3/4) b_A . (G b_B)."""
    if s.n_qubits != 3:
        raise ValueError("the sextic invariant is defined for three-qubit states")
    return float(_sextic_t_bloch(*_bloch_geometry(s.tensor[None]))[0])


def _three_tangle(tensors: np.ndarray) -> np.ndarray:
    """(S,) values of ``three_tangle`` for a three-qubit batch.

    Cayley's hyperdeterminant is the discriminant of the binary quadratic
    det(x a[0] + y a[1]) = x^2 det a[0] + x y m + y^2 det a[1].
    """
    a, b = tensors[:, 0], tensors[:, 1]
    det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    det_b = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    m = a[:, 0, 0] * b[:, 1, 1] + b[:, 0, 0] * a[:, 1, 1]
    m = m - a[:, 0, 1] * b[:, 1, 0] - b[:, 0, 1] * a[:, 1, 0]
    return 4.0 * np.abs(m**2 - 4.0 * det_a * det_b)


def three_tangle(s: PureState) -> float:
    """Three-tangle 4 |Det a|, with Det the degree-4 (Cayley) hyperdeterminant
    of the amplitude tensor; equals 1 on GHZ and 0 on W.
    """
    if s.n_qubits != 3:
        raise ValueError("the three-tangle is defined for three-qubit states")
    return float(_three_tangle(s.tensor[None])[0])


def three_tangle_canonical(p: CanonicalParams) -> float:
    """Three-tangle in canonical parameters:
    4 d sqrt((d h^2 - 4 a b c)^2 + 16 a b c d h^2 cos^2 gamma).
    """
    inner = (p.d * p.h**2 - 4.0 * p.a * p.b * p.c) ** 2
    inner += 16.0 * p.a * p.b * p.c * p.d * p.h**2 * math.cos(p.gamma) ** 2
    return float(4.0 * p.d * math.sqrt(inner))


@dataclass(frozen=True)
class InvariantSet:
    """The five continuous invariants (b_A, b_B, b_C, t, tau)."""

    b_A: float
    b_B: float
    b_C: float
    t: float
    tau: float

    def __post_init__(self):
        for name in ("b_A", "b_B", "b_C"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not -1e-12 <= self.tau <= 1.0 + 1e-9:
            raise ValueError(f"tau = {self.tau} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.b_A, self.b_B, self.b_C, self.t, self.tau])

    def max_abs_diff(self, other: "InvariantSet") -> float:
        return float(np.abs(self.as_array() - other.as_array()).max())


def _invariant_rows(tensors: np.ndarray) -> np.ndarray:
    """(S, 5) rows (b_A, b_B, b_C, t, tau) of a three-qubit batch, from one
    ``_marginals`` pass; rho_C comes from the same (S, 4, 2) reshape of the
    amplitudes as rho_AB.

    The trace and Bloch forms of t are cross-checked at 1e-10 on every row;
    a disagreement signals an internal bug, never bad input.
    """
    rho_a, rho_b, rho_ab = _marginals(tensors)
    m = tensors.reshape(-1, 4, 2)
    b_a, b_b, b_c = (_bloch(rho) for rho in (rho_a, rho_b, m.transpose(0, 2, 1) @ m.conj()))
    t = _sextic_t_trace(rho_a, rho_b, rho_ab)
    t_other = _sextic_t_bloch(b_a, b_b, _correlation(rho_ab))
    bad = np.flatnonzero(np.abs(t - t_other) > _T_CROSS_TOL)
    if bad.size:
        raise InvariantConsistencyError(
            f"sextic invariant mismatch: trace form {float(t[bad[0]])!r} "
            f"vs Bloch form {float(t_other[bad[0]])!r}"
        )
    lengths = np.linalg.norm(np.stack([b_a, b_b, b_c], axis=1), axis=2)
    return np.column_stack([lengths, t, _three_tangle(tensors)])


def invariant_set(s: PureState) -> InvariantSet:
    """Assemble (b_A, b_B, b_C, t, tau); the two independent formulas for t
    are cross-checked at 1e-10 (``_invariant_rows``)."""
    if s.n_qubits != 3:
        raise ValueError("the invariant set is defined for three-qubit states")
    return InvariantSet(*_invariant_rows(s.tensor[None])[0].tolist())


def canonical_bloch_vectors(p: CanonicalParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Bloch vectors of the canonical state, in qubit order A, B, C."""
    a, b, c, d, h, g = p.as_tuple()
    cos_g, sin_g = math.cos(g), math.sin(g)
    return (
        np.array([2 * h * a * cos_g, 2 * h * a * sin_g, d**2 + a**2 - b**2 - c**2 - h**2]),
        np.array([2 * h * b * cos_g, 2 * h * b * sin_g, d**2 + b**2 - a**2 - c**2 - h**2]),
        np.array([2 * h * c * cos_g, 2 * h * c * sin_g, d**2 + c**2 - b**2 - a**2 - h**2]),
    )


def canonical_correlation_matrix(p: CanonicalParams) -> np.ndarray:
    """Closed-form correlation matrix of qubits (A, B) of the canonical state."""
    a, b, c, d, h, g = p.as_tuple()
    cos_g, sin_g = math.cos(g), math.sin(g)
    return np.array(
        [
            [2 * a * b + 2 * c * d, 0.0, -2 * h * a * cos_g],
            [0.0, 2 * a * b - 2 * c * d, -2 * h * a * sin_g],
            [-2 * h * b * cos_g, -2 * h * b * sin_g, d**2 - a**2 - b**2 + c**2 + h**2],
        ]
    )
