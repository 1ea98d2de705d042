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

from .states import CanonicalParams, PureState, _readonly, _rho

PAULIS = _readonly(
    np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
)

_T_CROSS_TOL = 1e-10


class InvariantConsistencyError(RuntimeError):
    """The two independent routes to the sextic invariant disagreed."""


def _bloch(tensors: np.ndarray, q: int) -> np.ndarray:
    """(S, 3) Bloch vectors tr(rho_q sigma_k) of qubit ``q`` of a batch."""
    return np.einsum("sab,kba->sk", _rho(tensors, [q]), PAULIS).real


def _correlation(tensors: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """(S, 3, 3) correlation matrices tr(rho_{q1 q2} sigma_i x sigma_j) of a batch."""
    rho = _rho(tensors, [q1, q2]).reshape(-1, 2, 2, 2, 2)
    return np.einsum("sabcd,ica,jdb->sij", rho, PAULIS, PAULIS).real


def _sextic_t_trace(tensors: np.ndarray) -> np.ndarray:
    """(S,) values of ``sextic_t_trace`` for a three-qubit batch."""
    rho_a = _rho(tensors, [0])
    rho_b = _rho(tensors, [1])
    rho_a_rho_b = np.einsum("sac,sbd->sabcd", rho_a, rho_b).reshape(-1, 4, 4)
    value = (
        3.0 * np.trace(_rho(tensors, [0, 1]) @ rho_a_rho_b, axis1=1, axis2=2)
        - np.trace(rho_a @ rho_a @ rho_a, axis1=1, axis2=2)
        - np.trace(rho_b @ rho_b @ rho_b, axis1=1, axis2=2)
        - 0.25
    )
    return value.real


def bloch_vector(s: PureState, q: int) -> np.ndarray:
    """(tr rho sigma_x, tr rho sigma_y, tr rho sigma_z) of qubit ``q``."""
    if not 0 <= q < s.n_qubits:
        raise ValueError(f"qubit index {q} out of range")
    return _bloch(s.tensor[None], q)[0]


def bloch_length(s: PureState, q: int) -> float:
    return float(np.linalg.norm(bloch_vector(s, q)))


def correlation_matrix(s: PureState, q1: int, q2: int) -> np.ndarray:
    """G_ij = tr(rho_{q1 q2} sigma_i x sigma_j), a real 3x3 matrix."""
    if q1 == q2:
        raise ValueError("q1 and q2 must differ")
    for q in (q1, q2):
        if not 0 <= q < s.n_qubits:
            raise ValueError(f"qubit index {q} out of range")
    return _correlation(s.tensor[None], q1, q2)[0]


def sextic_t_trace(s: PureState) -> float:
    """Sextic invariant from reduced density matrices:
    3 tr[rho_AB (rho_A x rho_B)] - tr(rho_A^3) - tr(rho_B^3) - 1/4.
    """
    if s.n_qubits != 3:
        raise ValueError("the sextic invariant is defined for three-qubit states")
    return float(_sextic_t_trace(s.tensor[None])[0])


def sextic_t_bloch(s: PureState) -> float:
    """Sextic invariant from Bloch geometry: (3/4) b_A . (G b_B)."""
    if s.n_qubits != 3:
        raise ValueError("the sextic invariant is defined for three-qubit states")
    return float(0.75 * bloch_vector(s, 0) @ (correlation_matrix(s, 0, 1) @ bloch_vector(s, 1)))


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
        if not -1e-12 <= self.tau <= 1.0 + 1e-9:
            raise ValueError(f"tau = {self.tau} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.b_A, self.b_B, self.b_C, self.t, self.tau])

    def max_abs_diff(self, other: "InvariantSet") -> float:
        return float(np.abs(self.as_array() - other.as_array()).max())


def invariant_set(s: PureState) -> InvariantSet:
    """Assemble (b_A, b_B, b_C, t, tau).

    The two independent formulas for t are cross-checked at 1e-10; a
    disagreement signals an internal bug, never bad input.
    """
    t_value = sextic_t_trace(s)
    t_other = sextic_t_bloch(s)
    if abs(t_value - t_other) > _T_CROSS_TOL:
        raise InvariantConsistencyError(
            f"sextic invariant mismatch: trace form {t_value!r} vs Bloch form {t_other!r}"
        )
    return InvariantSet(
        b_A=bloch_length(s, 0),
        b_B=bloch_length(s, 1),
        b_C=bloch_length(s, 2),
        t=t_value,
        tau=three_tangle(s),
    )


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
