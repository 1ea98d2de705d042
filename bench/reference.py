"""Independent plain-numpy references for the output gates.

Nothing here imports ``entgeo``: the gates compare the library against
these, so a defect shared by both would otherwise go unseen.
"""

from __future__ import annotations

import numpy as np

PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def rho_single(psi: np.ndarray, q: int) -> np.ndarray:
    """Reduced density matrix of qubit ``q`` of an amplitude tensor."""
    m = np.moveaxis(psi, q, 0).reshape(2, -1)
    return m @ m.conj().T


def rho_pair(psi: np.ndarray, q1: int, q2: int) -> np.ndarray:
    m = np.moveaxis(psi, (q1, q2), (0, 1)).reshape(4, -1)
    return m @ m.conj().T


def bloch(psi: np.ndarray, q: int) -> np.ndarray:
    return np.einsum("ij,kji->k", rho_single(psi, q), PAULIS).real


def correlation(psi: np.ndarray, q1: int, q2: int) -> np.ndarray:
    rho = rho_pair(psi, q1, q2).reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", rho, PAULIS, PAULIS).real


def sextic_t_bloch(psi: np.ndarray) -> float:
    """(3/4) b_A . (G_AB b_B), the Bloch form of the sextic invariant."""
    return float(0.75 * bloch(psi, 0) @ correlation(psi, 0, 1) @ bloch(psi, 1))


def tangle_canonical(a, b, c, d, h, gamma) -> float:
    """Three-tangle of the canonical form a|011>+b|101>+c|110>+d|000>+h e^{ig}|111>."""
    inner = (d * h * h - 4 * a * b * c) ** 2 + 16 * a * b * c * d * h * h * np.cos(gamma) ** 2
    return float(4 * d * np.sqrt(inner))


def g2_upper_bound(psi: np.ndarray) -> float:
    """min over qubits of lambda_max(rho_q): no product overlap can exceed it."""
    return float(min(np.linalg.eigvalsh(rho_single(psi, q))[-1] for q in range(psi.ndim)))


def product_overlap_sq(psi: np.ndarray, spinors) -> float:
    t = psi.conj()
    for s in spinors:
        t = np.tensordot(t, np.asarray(s), axes=([0], [0]))
    return float(abs(t) ** 2)


def _contract_all_but(t: np.ndarray, spinors: list[np.ndarray], q: int) -> np.ndarray:
    """Batched <psi| over every qubit except ``q``: (R, 2**n) -> (R, 2)."""
    n = len(spinors)
    rows = t.shape[0]
    for k in range(n - 1, q, -1):  # trailing axes, last first
        t = np.matmul(t.reshape(rows, -1, 2), spinors[k][:, :, None])
    t = t.reshape(rows, -1)
    for k in range(q):  # leading axes, first first
        t = np.matmul(spinors[k][:, None, :], t.reshape(rows, 2, -1))
    return t.reshape(rows, 2)


def reference_g2(psi: np.ndarray, restarts: int, seed: int,
                 max_sweeps: int = 3000, tol: float = 1e-15) -> float:
    """Best squared product overlap over ``restarts`` random starts.

    Alternating rank-1 updates (each spinor set to the normalized
    contraction of the state with all the others), contracted axis by axis.
    """
    n = psi.ndim
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, restarts, 2)) + 1j * rng.normal(size=(n, restarts, 2))
    spinors = list(z / np.linalg.norm(z, axis=-1, keepdims=True))
    flat = np.broadcast_to(psi.conj().reshape(1, -1), (restarts, psi.size))
    value = np.zeros(restarts)
    best = 0.0
    for _ in range(max_sweeps):
        for q in range(n):
            v = _contract_all_but(flat, spinors, q)
            norm = np.linalg.norm(v, axis=1)
            spinors[q] = v.conj() / np.maximum(norm, 1e-300)[:, None]
        new = norm**2
        active = np.abs(new - value) >= tol
        value = new
        best = max(best, float(value.max()))
        if not active.all():
            if not active.any():
                break
            flat = flat[active]
            spinors = [s[active] for s in spinors]
            value = value[active]
    return best
