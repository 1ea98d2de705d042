"""Shared fixtures: a recorder of the ALS passes behind an overlap solve, and
a context that sets the ALS budget for a block."""

from contextlib import contextmanager

import numpy as np
import pytest

from entgeo import _als
from entgeo.states import _CUT_SLACK, _cut_bound


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

    def resolved_rows(self, cfg) -> np.ndarray:
        """Check that the calls so far are one ``_solve_overlaps(psis, cfg)``
        and return the rows it re-solved.

        Pass 1 runs under ``cfg``, gated at each state's cut bound less
        ``_als.GATE_MARGIN``.  Exactly the rows that are stalled (polish above
        ``_als.POLISHED_RESIDUAL``) or open (cut bound still more than
        ``_als.CLOSED_GAP`` above g^2) where the bracket should close (gate
        fired, or three qubits with a cut bound of 1/2 within
        ``states._CUT_SLACK``) are re-solved, in one more ungated call under
        ``cfg.escalated()``; there is no third call.
        """
        first = self[0]
        assert first["budget"] == (cfg.restarts, cfg.seed)
        upper = _cut_bound(first["psis"])
        assert np.array_equal(first["stop_at"], upper - _als.GATE_MARGIN)
        should_close = first["gated"]
        if first["psis"].ndim == 4:
            should_close = should_close | (upper <= 0.5 + _CUT_SLACK)
        flagged = ~(first["residual"] <= _als.POLISHED_RESIDUAL)
        flagged |= should_close & ~(upper - first["g_squared"] <= _als.CLOSED_GAP)
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
        ``rows``, each whose second g^2 is not below its first, stalled or not
        (a tie or a NaN goes to the second call)."""
        out = np.zeros(len(self[0]["g_squared"]), dtype=bool)
        if rows.size:
            out[rows] = ~(self[1]["g_squared"] < self[0]["g_squared"][rows])
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
    ``_als.BRANCH_WINDOW`` of the best, less every run whose Bloch vectors
    all lie within ``_als.BRANCH_RADIUS`` of an earlier run's; a gated state
    has only its best run.  The first ``_als.BRANCHES`` candidates are
    polished, and the answer is the one with the highest polished g^2,
    stalled or not.  The best run always survives, so its polish bounds the
    answer from below.
    """
    answers = []
    for s, g2 in enumerate(out["g_squared"]):
        ranked = np.argsort(-g2, kind="stable")
        blochs = _als._bloch_from_spinors(out["spinors"][:, s]).transpose(1, 0, 2)  # (R, n, 3)
        picked = []
        for i, k in enumerate(ranked[: 1 if out["gated"][s] else None]):
            if len(picked) == _als.BRANCHES or g2[k] < g2[ranked[0]] - _als.BRANCH_WINDOW:
                break
            if all(np.abs(blochs[k] - blochs[j]).max() >= _als.BRANCH_RADIUS for j in ranked[:i]):
                picked.append(k)
        _, residual, value = _als.polish_stationary(
            np.repeat(psis[s : s + 1], len(picked), axis=0), out["spinors"][:, s, picked])
        i = np.argmax(value)
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
