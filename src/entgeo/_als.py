"""Batched rank-1 power iteration on dense qubit amplitude tensors.

This is the workhorse behind the maximal-product-overlap solver and the
canonical-form search (ALS/HOPM, De Lathauwer, De Moor and Vandewalle, SIAM J.
Matrix Anal. Appl. 21, 2000): cycling over qubits, each local spinor is
replaced by the normalized contraction of the state against all other current
spinors, which is monotonically non-decreasing in the overlap.  Each
contraction is a chain of stacked ``matmul`` calls, one qubit axis at a time,
on right environments cached once per sweep.  Many independent restarts (and
states) are iterated as one flat batch, their spinors one (n, rows, 2) block.

Every call runs under one budget, which its callers neither choose nor see:
a restart freezes once its squared overlap changes by less than
``COARSE_TOL`` in a full sweep, or once another run of its state freezes at
the state's gate.  A gated pass also stops, unconverged, each run that from
sweep ``COARSE_SWEEPS`` on lies below a frozen run of its own state; such a
run, like one stopped by the sweep cap ``MAX_ITERATIONS``, reports
``converged`` false.  ``branches`` picks the distinct runs to Newton-polish,
stopped runs included.
"""

from __future__ import annotations

import numpy as np

# sweep cap and freeze tolerance of every ALS solve: the ALS only finds the basin and
# the Newton polish finishes it; a polish that stalls above POLISHED_RESIDUAL is not
# converged, and its row is re-solved once.  The cap is a termination guard, not a
# budget: almost every coarse run freezes long before it, at the linear ALS rate
MAX_ITERATIONS = 500
COARSE_TOL = 1e-6
POLISHED_RESIDUAL = 1e-10
# its first pass stops a state's runs once one of them freezes within GATE_MARGIN of
# the state's cut bound; the bracket counts as closed within CLOSED_GAP after the polish
GATE_MARGIN = 1e-5
CLOSED_GAP = 1e-10
# and, from sweep COARSE_SWEEPS on, each run that is below a frozen run of its own state
COARSE_SWEEPS = 40
BRANCH_RADIUS = 1e-2  # max-norm Bloch distance within which two runs are one branch

_POLISH_STEPS = 12
_PERP_SIGNS = np.array([-1.0, 1.0])


def _spinors_from_bloch(z, phi) -> np.ndarray:
    """Spinors (..., 2) with Bloch z-component ``z`` and azimuth ``phi``, |0> part real >= 0."""
    return np.stack([np.sqrt(np.maximum(1.0 + z, 0.0) / 2.0) + 0j,
                     np.exp(1j * phi) * np.sqrt(np.maximum(1.0 - z, 0.0) / 2.0)], axis=-1)


def _bloch_from_spinors(spinors: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) of normalized spinors (..., 2)."""
    cross = spinors[..., 0].conj() * spinors[..., 1]
    z = np.abs(spinors[..., 0]) ** 2 - np.abs(spinors[..., 1]) ** 2
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, z], axis=-1)


def haar_bloch_spinors(rng: np.random.Generator, shape) -> np.ndarray:
    """Spinors whose Bloch vectors are uniform on the sphere, shape ``(*shape, 2)``."""
    z = rng.uniform(-1.0, 1.0, size=shape)
    return _spinors_from_bloch(z, rng.uniform(0.0, 2.0 * np.pi, size=shape))


def _initial_spinors(psis: np.ndarray, restarts: int, seed) -> np.ndarray:
    """Start block of shape (n, S, restarts + 1, 2), qubit first.

    The first ``restarts`` columns are Haar-random, drawn once as one
    (n, restarts) block from a generator seeded with ``seed`` and shared by
    every state, so a state's starts depend only on n, ``restarts`` and
    ``seed``: the same state solved alone or in any row of any batch starts
    from the same spinors.  The last column is the deterministic start at
    the largest-magnitude computational basis amplitude of each state.
    """
    n = psis.ndim - 1
    n_states = psis.shape[0]
    spinors = np.zeros((n, n_states, restarts + 1, 2), dtype=complex)
    spinors[:, :, :restarts] = haar_bloch_spinors(np.random.default_rng(seed), (n, 1, restarts))
    flat_index = np.argmax(np.abs(psis.reshape(n_states, -1)), axis=1)
    bits = (flat_index >> (n - 1 - np.arange(n))[:, None]) & 1
    spinors[np.arange(n)[:, None], np.arange(n_states), -1, bits] = 1.0
    return spinors


def power_iteration(psis: np.ndarray, restarts: int, seed, stop_at=None):
    """Run the alternating update for a batch of states.

    A run freezes once its squared overlap moves by less than ``COARSE_TOL``
    in a sweep, or after ``MAX_ITERATIONS`` sweeps; both constants are read at
    call time.  Each sweep caches the right environments with one stacked
    ``matmul`` per trailing axis and reaches qubit q through q more on the
    leading axes.  Each update is normalised on the real view of its two
    amplitudes; a run whose contraction vanishes exactly keeps its spinor.

    Parameters
    ----------
    psis : (S, 2, ..., 2) complex array of S normalized n-qubit states.
    restarts : number of random starts per state; one extra deterministic
        basis start is always appended, so R = restarts + 1 runs per state.
    seed : anything acceptable to ``numpy.random.default_rng``.
    stop_at : optional (S,) gate values.  At the first sweep where one of
        state s's own runs freezes with a squared overlap >= stop_at[s], all
        of that state's runs freeze where they are.  A gated call also stops
        every run that, at a sweep >= ``COARSE_SWEEPS``, lies below the best
        run of its state frozen in an earlier sweep; such a run rarely
        overtakes it, and it still feeds ``branches``: a slow run of the best
        basin can lie below a fast local maximum at sweep ``COARSE_SWEEPS``
        and still be polished.  Both rules read only the state's own runs, so a
        state's output does not depend on its batch.

    Returns
    -------
    dict with ``g_squared`` (S, R), ``spinors`` (an (n, S, R, 2) block),
    ``iterations`` (S, R), ``converged`` (S, R), false only for the runs
    stopped by the sweep cap or, in a gated call, below a frozen run of their
    state from sweep ``COARSE_SWEEPS`` on, and ``gated`` (S,), true for the
    states the gate stopped.
    """
    n = psis.ndim - 1
    n_states = psis.shape[0]
    n_runs = restarts + 1
    total = n_states * n_runs
    cur = _initial_spinors(psis, restarts, seed).reshape(n, total, 2)
    cur_psi = np.repeat(psis.conj().reshape(n_states, 1, -1), n_runs, axis=1).reshape(total, -1)
    cur_g2 = np.zeros(total)
    index = np.arange(total)

    out_g2 = np.zeros(total)
    out_conv = np.zeros(total, dtype=bool)
    out_iters = np.zeros(total, dtype=int)
    out_sp = np.empty((n, total, 2), dtype=complex)
    gated = np.zeros(n_states, dtype=bool)
    cur_stop = None if stop_at is None else np.repeat(stop_at, n_runs)

    for sweep in range(1, MAX_ITERATIONS + 1):
        rows = index.size
        # right[q]: conj(psi) with the spinors of qubits q+1..n-1 on its trailing axes
        right = [None] * (n - 1) + [cur_psi]
        for q in range(n - 1, 0, -1):
            right[q - 1] = right[q].reshape(rows, -1, 2) @ cur[q, :, :, None]
        for q in range(n):
            v = right[q]
            for k in range(q):  # the leading axes, with qubits 0..q-1 already updated
                v = cur[k, :, None, :] @ v.reshape(rows, 2, -1)
            # conj(v) / |v| as reals, without casting |v| to complex; a run whose
            # contraction vanishes keeps its spinor
            vc = v.conj().view(float).reshape(rows, 4)
            norm = np.sqrt(np.einsum("ti,ti->t", vc, vc))
            np.divide(vc, norm[:, None], out=cur[q].view(float), where=(norm > 1e-300)[:, None])
        new_g2 = norm**2
        conv = np.abs(new_g2 - cur_g2) < COARSE_TOL
        cur_g2 = new_g2
        done = conv if sweep < MAX_ITERATIONS else np.ones(index.size, dtype=bool)
        if cur_stop is not None and sweep >= COARSE_SWEEPS:
            # out_g2 holds the runs frozen in earlier sweeps and 0 for the live ones
            best_frozen = out_g2.reshape(n_states, n_runs)[index // n_runs].max(axis=1)
            done = done | (cur_g2 < best_frozen)
        if done.any():
            if cur_stop is not None:
                hit = done & (cur_g2 >= cur_stop)
                if hit.any():
                    gated[index[hit] // n_runs] = True
                    stopped = gated[index // n_runs]
                    conv, done = conv | stopped, done | stopped
            frozen = index[done]
            out_g2[frozen] = cur_g2[done]
            out_conv[frozen] = conv[done]
            out_iters[frozen] = sweep
            # compress: a boolean index on a later axis takes numpy's slow path
            out_sp[:, frozen] = cur.compress(done, axis=1)
            keep = ~done
            if not keep.any():
                break
            index = index[keep]
            cur_psi = cur_psi.compress(keep, axis=0)
            cur = cur.compress(keep, axis=1)
            cur_g2 = cur_g2[keep]
            if cur_stop is not None:
                cur_stop = cur_stop[keep]

    return {
        "g_squared": out_g2.reshape(n_states, n_runs),
        "spinors": out_sp.reshape(n, n_states, n_runs, 2),
        "iterations": out_iters.reshape(n_states, n_runs),
        "converged": out_conv.reshape(n_states, n_runs),
        "gated": gated,
    }


def branches(run, limit=None, window=np.inf):
    """(state, run) index arrays of the coarse runs of a ``power_iteration``
    output worth polishing, by state and then descending ``g_squared``: each
    state's runs within ``window`` of its best, less every run whose Bloch
    vectors all lie within ``BRANCH_RADIUS`` of an earlier run's (a copy of that
    branch) and all but the best run of a gated state; with a ``limit``, the
    first ``limit`` of them.  Only the state's own runs are read."""
    g2 = run["g_squared"]
    n_near = (g2 >= g2.max(axis=1, keepdims=True) - window).sum(axis=1)
    n_near[run["gated"]] = 1
    wide = n_near.max(initial=0)
    order = np.argsort(-g2, axis=1, kind="stable")[:, :wide]
    keep = np.arange(wide) < n_near[:, None]  # the first n_near runs of each state
    if wide > 1:  # with one candidate per state there is nothing to drop
        x = _bloch_from_spinors(run["spinors"][:, np.arange(len(g2))[:, None], order])
        x = x.transpose(1, 0, 3, 2).reshape(len(g2), -1, wide)  # (S, 3n, runs)
        step = max(1, 2**15 // x.size)  # runs i per (S, 3n, i, j) block of <= 2**15 entries
        # a run's fate depends only on earlier runs, so the runs go in blocks, in order;
        # with a limit, a first block of 2 * limit runs often settles every state
        bounds = sorted({*range(1, wide, step), min(2 * (limit or wide), wide), wide})
        for i, end in zip(bounds, bounds[1:]):
            d = np.abs(x[:, :, i:end, None] - x[:, :, None, :end]).max(axis=1)  # max norm
            earlier = np.arange(i, end)[:, None] > np.arange(end)
            keep[:, i:end] &= ~(earlier & (d < BRANCH_RADIUS)).any(axis=2)
            settled = (keep[:, :end].sum(axis=1) >= (limit or wide)) | (n_near <= end)
            if settled.all():
                break
    if limit is not None:
        keep &= np.cumsum(keep, axis=1) <= limit
    state, rank = np.nonzero(keep)
    return state, order[state, rank]


def _perp(e: np.ndarray) -> np.ndarray:
    """The spinors (-conj(e1), conj(e0)) orthogonal to ``e`` (..., 2); antilinear,
    with perp(perp(e)) = -e."""
    return e[..., ::-1].conj() * _PERP_SIGNS


def _frame_amplitudes(psi_conj: np.ndarray, spinors) -> np.ndarray:
    """Conjugated amplitudes (S, 2**n) of states in their product frames.

    ``psi_conj`` is an (S, 2, ..., 2) batch of conjugated states and
    ``spinors`` an (n, S, 2) block.  Qubit q of row s is read in the basis
    (e, perp(e)) of its spinor e = spinors[q, s], bit 0 picking e; entry 0 is
    the overlap <psi | e_0 ... e_{n-1}>.
    """
    n_states, n = psi_conj.shape[0], psi_conj.ndim - 1
    shape = (n_states, 2, 2 ** (n - 1))
    spinors = np.asarray(spinors)
    t = psi_conj.reshape(shape)
    for frame in np.stack([spinors, _perp(spinors)], axis=-1):  # (e, perp(e)) per qubit
        # on the leading qubit, its index appended last
        t = (t.transpose(0, 2, 1) @ frame).reshape(shape)
    return t.reshape(n_states, -1)


def _cross_amplitudes(psi_conj: np.ndarray, spinors):
    """Frame amplitudes with one or two spinors replaced by their complements.

    Returns the symmetric (S, n, n) matrices C and the (S,) overlaps g.
    C[s, q, k] has the complement at qubits q and k; its diagonal C[s, q, q],
    with the complement at q alone, vanishes exactly at a stationary point of
    the product overlap.
    """
    flat = _frame_amplitudes(psi_conj, spinors)
    n = len(spinors)
    bits = 1 << (n - 1 - np.arange(n))
    return flat[:, bits[:, None] | bits[None, :]], flat[:, 0]


def _newton_jacobian(cross: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real (S, 2n, 2n) Jacobians of the residuals f_q = C[q, q] in the step t.

    Moving spinor k to normalize(e_k + t_k perp(e_k)) changes f_q by
    sum_{k != q} C[q, k] t_k - g conj(t_q) to first order: perp is antilinear
    with perp(perp(e)) = -e, and the norm changes only at second order.
    Rows are (Re f, Im f); column 2k + 0 / 1 is Re t_k / Im t_k.
    """
    eye = np.eye(cross.shape[1])
    off = cross - np.diagonal(cross, axis1=1, axis2=2)[:, :, None] * eye
    shift = g[:, None, None] * eye
    cols = np.stack([off - shift, 1j * (off + shift)], axis=3).reshape(*cross.shape[:2], -1)
    return np.concatenate([cols.real, cols.imag], axis=1)


def polish_stationary(psis: np.ndarray, spinors):
    """Newton-refine near-stationary product states to machine precision.

    ``psis`` is an (S, 2, ..., 2) batch and ``spinors`` an (n, S, 2) block.
    Each spinor moves along its orthogonal complement, e -> normalize(e + t *
    e_perp) with one complex t per qubit, and the n complex residuals C[q, q]
    of every row are driven to zero by one batched solve per step.  A row
    stops at its first step that does not improve, below 1e-15, or when its
    Jacobian is singular, keeping its best spinors.  Returns the best point
    of each row: (spinors (n, S, 2), residual norms (S,), squared overlaps (S,)).
    """
    cur = best = np.array(spinors, dtype=complex)
    best_res, best_g2 = np.full(len(psis), np.inf), np.zeros(len(psis))
    rows, psi_conj = np.arange(len(psis)), psis.conj()
    for step in range(_POLISH_STEPS + 1):
        cross, g = _cross_amplitudes(psi_conj, cur)
        f = np.diagonal(cross, axis1=1, axis2=2)
        res = np.linalg.norm(f, axis=1)
        better = res < best_res[rows]
        won = rows[better]
        best[:, won] = cur[:, better]
        best_res[won], best_g2[won] = res[better], np.abs(g[better]) ** 2
        keep = better & (res >= 1e-15)
        rows, psi_conj, cross, g, f = rows[keep], psi_conj[keep], cross[keep], g[keep], f[keep]
        if rows.size == 0 or step == _POLISH_STEPS:
            break
        jac = _newton_jacobian(cross, g)
        rhs = -np.concatenate([f.real, f.imag], axis=1)[:, :, None]
        try:
            t = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            # a singular row takes no step, so it stops at its best point
            singular = np.linalg.det(jac) == 0.0
            jac[singular], rhs[singular] = np.eye(jac.shape[1]), 0.0
            t = np.linalg.solve(jac, rhs)
        t = t[:, 0::2, 0] + 1j * t[:, 1::2, 0]
        cur = cur[:, keep]
        moved = cur + t.T[:, :, None] * _perp(cur)
        cur = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
    return best, best_res, best_g2
