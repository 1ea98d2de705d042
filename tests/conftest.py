"""Shared fixtures: a recorder of the ALS passes behind an overlap solve."""

import numpy as np
import pytest

from entgeo import _als
from entgeo.states import _cut_bound


class AlsPasses(list):
    """``_als.power_iteration`` calls in call order, each a dict with its
    ``psis``, its ``budget`` (restarts, max_iterations, tol, seed), its
    ``stop_at`` gate values (None when ungated), its ``gated`` states, and the
    ``g_squared``, ``residual`` and ``sweeps`` of each state's best run after
    the Newton polish."""

    def resolved_rows(self, cfg, suspect=None) -> np.ndarray:
        """Check that the calls so far are one ``_solve_overlaps(psis, cfg,
        suspect)`` and return the rows it re-solved.

        Pass 1 runs under ``cfg`` at ``_als.COARSE_TOL``, gated at each
        state's cut bound less ``_als.GATE_MARGIN``.  Exactly the rows that
        are stalled (polish above ``_als.POLISHED_RESIDUAL``), gated-open (gate
        fired, cut bound still more than ``_als.CLOSED_GAP`` above g^2) or
        ``suspect`` are re-solved, in one more ungated call under
        ``cfg.escalated()``, also at ``_als.COARSE_TOL``; there is no third call.
        """
        first = self[0]
        assert first["budget"] == (cfg.restarts, cfg.max_iterations, _als.COARSE_TOL, cfg.seed)
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
            assert self[1]["budget"] == (esc.restarts, esc.max_iterations, _als.COARSE_TOL,
                                         esc.seed)
            assert self[1]["stop_at"] is None
            assert np.array_equal(self[1]["psis"], first["psis"][rows])
        return rows

    def answer(self, key: str, rows: np.ndarray) -> np.ndarray:
        """``key`` of every state from the pass that answered it: pass 1, with
        the re-solved ``rows`` taken from the second call."""
        out = self[0][key].copy()
        if rows.size:
            out[rows] = self[1][key]
        return out


@pytest.fixture
def als_passes(monkeypatch) -> AlsPasses:
    passes = AlsPasses()
    run = _als.power_iteration

    def recording(psis, restarts, max_iterations, tol, seed, stop_at=None):
        out = run(psis, restarts, max_iterations, tol, seed, stop_at=stop_at)
        rows = np.arange(len(psis))
        best = np.argmax(out["g_squared"], axis=1)
        _, residual, g2 = _als.polish_stationary(psis, [sp[rows, best] for sp in out["spinors"]])
        passes.append({
            "psis": psis,
            "budget": (restarts, max_iterations, tol, seed),
            "stop_at": stop_at,
            "gated": out["gated"],
            "g_squared": g2,
            "residual": residual,
            "sweeps": out["iterations"][rows, best],
        })
        return out

    monkeypatch.setattr(_als, "power_iteration", recording)
    return passes
