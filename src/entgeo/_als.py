"""Batched rank-1 power iteration on dense qubit amplitude tensors.

This is the workhorse behind the maximal-product-overlap solver and the
canonical-form search (ALS/HOPM, De Lathauwer, De Moor and Vandewalle, SIAM J.
Matrix Anal. Appl. 21, 2000): cycling over qubits, each local spinor is
replaced by the normalized contraction of the state against all other current
spinors, which is monotonically non-decreasing in the overlap.  Each
contraction is a chain of two-term products, one qubit axis at a time, on
right environments cached once per sweep.  Many independent restarts (and
many independent states) are iterated simultaneously as one flat batch; a
restart freezes once its squared overlap changes by less than ``tol`` in a
full sweep.
"""

from __future__ import annotations

import numpy as np

_POLISH_STEPS = 12


def haar_bloch_spinors(rng: np.random.Generator, shape) -> np.ndarray:
    """Spinors whose Bloch vectors are uniform on the sphere, shape ``(*shape, 2)``."""
    z = rng.uniform(-1.0, 1.0, size=shape)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.stack(
        [np.sqrt((1.0 + z) / 2.0) + 0j, np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)],
        axis=-1,
    )


def _initial_spinors(psis: np.ndarray, restarts: int, seed) -> list[np.ndarray]:
    """Per-qubit start batches of shape (S, restarts + 1, 2).

    The first ``restarts`` columns are Haar-random, drawn in one call from one
    generator seeded with ``seed``, so they depend only on the seed and the
    batch shape, not on execution order.  The last column is the
    deterministic start at the largest-magnitude computational basis
    amplitude of each state.
    """
    n = psis.ndim - 1
    n_states = psis.shape[0]
    spinors = np.zeros((n, n_states, restarts + 1, 2), dtype=complex)
    spinors[:, :, :restarts] = haar_bloch_spinors(
        np.random.default_rng(seed), (n, n_states, restarts)
    )
    flat_index = np.argmax(np.abs(psis.reshape(n_states, -1)), axis=1)
    bits = (flat_index >> (n - 1 - np.arange(n))[:, None]) & 1
    spinors[np.arange(n)[:, None], np.arange(n_states), -1, bits] = 1.0
    return list(spinors)


def power_iteration(
    psis: np.ndarray,
    restarts: int,
    max_iterations: int,
    tol: float,
    seed,
):
    """Run the alternating update for a batch of states.

    Parameters
    ----------
    psis : (S, 2, ..., 2) complex array of S normalized n-qubit states.
    restarts : number of random starts per state; one extra deterministic
        basis start is always appended, so R = restarts + 1 runs per state.
    max_iterations : sweep cap per run.
    tol : freeze a run once its per-sweep change in squared overlap drops
        below this.
    seed : anything acceptable to ``numpy.random.default_rng``.

    Returns
    -------
    dict with ``g_squared`` (S, R), ``spinors`` (list of n arrays (S, R, 2)),
    ``iterations`` (S, R) and ``converged`` (S, R).
    """
    n = psis.ndim - 1
    n_states = psis.shape[0]
    n_runs = restarts + 1
    spinors = _initial_spinors(psis, restarts, seed)

    total = n_states * n_runs
    cur = [s.reshape(total, 2).copy() for s in spinors]
    cur_psi = np.repeat(psis.conj().reshape(n_states, 1, -1), n_runs, axis=1).reshape(total, -1)
    cur_g2 = np.zeros(total)
    index = np.arange(total)

    out_g2 = np.zeros(total)
    out_conv = np.zeros(total, dtype=bool)
    out_iters = np.zeros(total, dtype=int)
    out_sp = [np.empty((total, 2), dtype=complex) for _ in range(n)]

    for sweep in range(1, max_iterations + 1):
        rows = index.size
        # right[q]: conj(psi) contracted with the spinors of qubits q+1..n-1, (rows, 2**(q+1))
        right = [None] * (n - 1) + [cur_psi]
        for q in range(n - 1, 0, -1):
            right[q - 1] = np.einsum("tmi,ti->tm", right[q].reshape(rows, -1, 2), cur[q])
        norm = None
        for q in range(n):
            v = right[q]
            for k in range(q):  # the spinors of qubits 0..q-1 are already updated
                v = np.einsum("tim,ti->tm", v.reshape(rows, 2, -1), cur[k])
            norm = np.linalg.norm(v, axis=-1)
            safe = norm > 1e-300
            cur[q] = np.where(safe[:, None], v.conj() / np.where(safe, norm, 1.0)[:, None], cur[q])
        new_g2 = norm**2
        conv = np.abs(new_g2 - cur_g2) < tol
        cur_g2 = new_g2
        done = conv if sweep < max_iterations else np.ones(index.size, dtype=bool)
        if done.any():
            frozen = index[done]
            out_g2[frozen] = cur_g2[done]
            out_conv[frozen] = conv[done]
            out_iters[frozen] = sweep
            for q in range(n):
                out_sp[q][frozen] = cur[q][done]
            keep = ~done
            if not keep.any():
                break
            index = index[keep]
            cur_psi = cur_psi[keep]
            cur = [c[keep] for c in cur]
            cur_g2 = cur_g2[keep]

    return {
        "g_squared": out_g2.reshape(n_states, n_runs),
        "spinors": [s.reshape(n_states, n_runs, 2) for s in out_sp],
        "iterations": out_iters.reshape(n_states, n_runs),
        "converged": out_conv.reshape(n_states, n_runs),
    }


def _perp(e: np.ndarray) -> np.ndarray:
    """The spinor orthogonal to ``e``; antilinear, with perp(perp(e)) = -e."""
    return np.array([-np.conj(e[1]), np.conj(e[0])])


def _cross_amplitudes(psi_conj: np.ndarray, spinors: list[np.ndarray]):
    """Contractions with one or two spinors replaced by their complements.

    Returns the symmetric (n, n) matrix C and the overlap g.  C[q, k] has the
    complement at qubits q and k; its diagonal C[q, q], with the complement
    at q alone, vanishes exactly at a stationary point of the product overlap.
    """
    n = psi_conj.ndim
    t = psi_conj
    for e in spinors:
        # basis (e, perp(e)) on each qubit: index 0 picks the spinor, 1 its complement
        t = np.tensordot(t, np.stack([e, _perp(e)], axis=1), axes=([0], [0]))
    flat = t.reshape(-1)
    bits = 1 << (n - 1 - np.arange(n))
    return flat[bits[:, None] | bits[None, :]], flat[0]


def _newton_jacobian(cross: np.ndarray, g) -> np.ndarray:
    """Real (2n, 2n) Jacobian of the residual f_q = C[q, q] in the step t.

    Moving spinor k to normalize(e_k + t_k perp(e_k)) changes f_q by
    sum_{k != q} C[q, k] t_k - g conj(t_q) to first order: perp is antilinear
    with perp(perp(e)) = -e, and the norm changes only at second order.
    Rows are (Re f, Im f); column 2k + 0 / 1 is Re t_k / Im t_k.
    """
    n = cross.shape[0]
    diag = np.diagonal(cross)
    d_re = cross - np.diag(diag + g)
    d_im = 1j * (cross - np.diag(diag - g))
    cols = np.stack([d_re, d_im], axis=2).reshape(n, 2 * n)
    return np.vstack([cols.real, cols.imag])


def polish_stationary(psi: np.ndarray, spinors: list[np.ndarray]):
    """Newton-refine a near-stationary product state to machine precision.

    Each spinor moves along its orthogonal complement, e ->
    normalize(e + t * e_perp) with one complex t per qubit, and the n complex
    residuals C[q, q] are driven to zero.  Stops at the first step that does
    not improve.  Returns (spinors, residual norm).
    """
    psi_conj = psi.conj()
    cur = list(spinors)
    cross, g = _cross_amplitudes(psi_conj, cur)
    best, best_norm = cur, np.linalg.norm(np.diagonal(cross))
    for _ in range(_POLISH_STEPS):
        if best_norm < 1e-15:
            break
        f = np.diagonal(cross)
        try:
            update = np.linalg.solve(_newton_jacobian(cross, g), -np.concatenate([f.real, f.imag]))
        except np.linalg.LinAlgError:
            break
        moved = [e + (update[2 * q] + 1j * update[2 * q + 1]) * _perp(e) for q, e in enumerate(cur)]
        cur = [m / np.linalg.norm(m) for m in moved]
        cross, g = _cross_amplitudes(psi_conj, cur)
        res_norm = np.linalg.norm(np.diagonal(cross))
        if res_norm >= best_norm:
            break
        best, best_norm = cur, res_norm
    return best, float(best_norm)
