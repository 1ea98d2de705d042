"""Shared fixtures: a recorder of the ALS passes behind an overlap solve, and
a context that sets the ALS budget for a block."""

from contextlib import contextmanager

import numpy as np
import pytest

from entgeo import _als, overlap
from entgeo.states import _cut_bound


@contextmanager
def als_budget(tol=None, sweeps=None):
    """Within the block, every ``_als.power_iteration`` call freezes its runs
    at ``tol`` (``_als.COARSE_TOL``) and caps them at ``sweeps``
    (``_als.MAX_ITERATIONS``), each where given; both are restored after."""
    saved = _als.COARSE_TOL, _als.MAX_ITERATIONS
    if tol is not None:
        _als.COARSE_TOL = tol
    if sweeps is not None:
        _als.MAX_ITERATIONS = sweeps
    try:
        yield
    finally:
        _als.COARSE_TOL, _als.MAX_ITERATIONS = saved


class AlsPasses(list):
    """``_als.power_iteration`` calls in call order, each a dict with its
    ``psis``, its ``budget`` (restarts, seed), its
    ``stop_at`` gate values (None when ungated), its ``gated`` states, and the
    ``g_squared``, ``residual`` and ``sweeps`` of each state's answer after the
    Newton polish (``polished_branches``)."""

    def resolved_rows(self, cfg, suspect=None) -> np.ndarray:
        """Check that the calls so far are one ``_solve_overlaps(psis, cfg,
        suspect)`` and return the rows it re-solved.

        Pass 1 runs under ``cfg``, gated at each state's cut bound less
        ``_als.GATE_MARGIN``.  Exactly the rows that are stalled (polish above
        ``_als.POLISHED_RESIDUAL``), gated-open (gate fired, cut bound still
        more than ``_als.CLOSED_GAP`` above g^2) or ``suspect`` are re-solved,
        in one more ungated call under ``cfg.escalated()``; there is no third
        call.
        """
        first = self[0]
        assert first["budget"] == (cfg.restarts, cfg.seed)
        upper = _cut_bound(first["psis"])
        assert np.array_equal(first["stop_at"], upper - _als.GATE_MARGIN)
        flagged = ~(first["residual"] <= _als.POLISHED_RESIDUAL)
        flagged |= first["gated"] & ~(upper - first["g_squared"] <= _als.CLOSED_GAP)
        if suspect is not None:
            flagged |= suspect(first["g_squared"])
        rows = np.flatnonzero(flagged)
        assert len(self) == (2 if rows.size else 1)
        if rows.size:
            esc = cfg.escalated()
            assert self[1]["budget"] == (esc.restarts, esc.seed)
            assert self[1]["stop_at"] is None
            assert np.array_equal(self[1]["psis"], first["psis"][rows])
        return rows

    def answered(self, rows: np.ndarray) -> np.ndarray:
        """(S,) mask of the states the second call answered: of the re-solved
        ``rows``, each whose second answer ranks at least as high as its first.
        A converged answer (residual <= ``_als.POLISHED_RESIDUAL``) ranks above
        a stalled one, two converged ones rank by g^2 and two stalled ones by
        lower residual."""
        out = np.zeros(len(self[0]["g_squared"]), dtype=bool)
        if rows.size:
            g1, r1 = self[0]["g_squared"][rows], self[0]["residual"][rows]
            g2, r2 = self[1]["g_squared"], self[1]["residual"]
            ok1, ok2 = r1 <= _als.POLISHED_RESIDUAL, r2 <= _als.POLISHED_RESIDUAL
            out[rows] = np.where(ok1 == ok2, np.where(ok2, g2 >= g1, r2 <= r1), ok2)
        return out

    def answer(self, key: str, rows: np.ndarray) -> np.ndarray:
        """``key`` of every state from the pass that answered it: pass 1, or
        the second call for the re-solved ``rows`` it answered (``answered``)."""
        out = self[0][key].copy()
        if rows.size:
            out[rows] = np.where(self.answered(rows)[rows], self[1][key], out[rows])
        return out


def polished_branches(psis, out):
    """Each state's answer from one ``power_iteration`` output, rebuilt run by
    run: (g_squared, residual, sweeps) arrays.

    The candidates are a state's runs in descending coarse g^2, each within
    ``overlap._BRANCH_WINDOW`` of the best, less every run whose Bloch vectors
    all lie within ``_als.BRANCH_RADIUS`` of an earlier run's; a gated state
    has only its best run.  The first ``overlap._BRANCHES`` candidates are
    polished, and the answer is the best one whose residual is at most
    ``_als.POLISHED_RESIDUAL``, else the lowest-residual one.  The best run
    always survives, so a converged polish of it bounds the answer from below.
    """
    answers = []
    for s, g2 in enumerate(out["g_squared"]):
        ranked = np.argsort(-g2, kind="stable")
        blochs = _als._bloch_from_spinors(out["spinors"][:, s]).transpose(1, 0, 2)  # (R, n, 3)
        picked = []
        for i, k in enumerate(ranked[: 1 if out["gated"][s] else None]):
            if len(picked) == overlap._BRANCHES or g2[k] < g2[ranked[0]] - overlap._BRANCH_WINDOW:
                break
            if all(np.abs(blochs[k] - blochs[j]).max() >= _als.BRANCH_RADIUS for j in ranked[:i]):
                picked.append(k)
        _, residual, value = _als.polish_stationary(
            np.repeat(psis[s : s + 1], len(picked), axis=0), out["spinors"][:, s, picked])
        ok = residual <= _als.POLISHED_RESIDUAL
        i = np.flatnonzero(ok)[np.argmax(value[ok])] if ok.any() else np.argmin(residual)
        answers.append((value[i], residual[i], out["iterations"][s, picked[i]]))
    return tuple(np.array(col) for col in zip(*answers))


@pytest.fixture
def als_passes(monkeypatch) -> AlsPasses:
    passes = AlsPasses()
    run = _als.power_iteration

    def recording(psis, restarts, seed, stop_at=None):
        out = run(psis, restarts, seed, stop_at=stop_at)
        g2, residual, sweeps = polished_branches(psis, out)
        passes.append({
            "psis": psis,
            "budget": (restarts, seed),
            "stop_at": stop_at,
            "gated": out["gated"],
            "g_squared": g2,
            "residual": residual,
            "sweeps": sweeps,
        })
        return out

    monkeypatch.setattr(_als, "power_iteration", recording)
    return passes


# pass 1's sweeps under ``capped_pass_1``: too few for its runs to reach their
# basins, so that states get re-solved
PASS_1_SWEEPS = 3


@pytest.fixture
def capped_pass_1(monkeypatch):
    """Stop every run of pass 1 of an overlap solve (its gated ALS call) after
    ``PASS_1_SWEEPS`` sweeps; the ungated re-solve keeps ``_als.MAX_ITERATIONS``.
    Requested before ``als_passes``, it sits below the recorder."""
    run = _als.power_iteration

    def capped(psis, restarts, seed, stop_at=None):
        with als_budget(sweeps=None if stop_at is None else PASS_1_SWEEPS):
            return run(psis, restarts, seed, stop_at=stop_at)

    monkeypatch.setattr(_als, "power_iteration", capped)
