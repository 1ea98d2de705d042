"""Span and count wrappers installed on entgeo's module functions at run time.

Nothing under ``src/`` is edited: ``install`` replaces each traced function,
in every entgeo namespace that holds it (``closedform.correlation_matrix`` is
the same object as ``invariants.correlation_matrix``), by a wrapper that
records a span, and ``uninstall`` puts the originals back.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

import entgeo
import entgeo._als
import entgeo.cli
import entgeo.closedform
import entgeo.invariants
import entgeo.overlap
import entgeo.states

# layer name -> module; ``als`` is ``entgeo._als`` (metric names may not start with "_")
LAYERS = {
    "states": entgeo.states,
    "invariants": entgeo.invariants,
    "als": entgeo._als,
    "overlap": entgeo.overlap,
    "closedform": entgeo.closedform,
    "cli": entgeo.cli,
}
PRIVATE_TRACED = {"als": ("_initial_spinors",)}
NAMESPACES = (entgeo, *LAYERS.values())

BUILD = ("states.haar_random_state", "states.canonical_to_state",
         "states.apply_local_unitary", "states.permute_qubits", "states.make_state",
         "states.sample_zero_bloch_manifold", "states.haar_unitary")
BASIN_TOL = 1e-9


def traced_functions() -> dict:
    """Original function -> span name, for every public function of each layer."""
    out = {}
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_TRACED.get(layer, ()):
                continue
            out[obj] = f"{layer}.{attr}"
    return out


class Tracer:
    def __init__(self):
        # (id, parent id, request id, name, start, end, time in direct children)
        self.spans: list[tuple] = []
        self.request = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.n3_solves: set[int] = set()
        self._stack: list[list] = []  # [span id, name, child time]
        self._saved: list[tuple] = []
        self._wrappers = {fn: self._wrap(name, fn) for fn, name in traced_functions().items()}
        self._hooks = {
            "als.power_iteration": self._count_power_iteration,
            "overlap.nearest_product_state": self._count_solve,
        }

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans) + len(stack)  # unique: spans close in stack order
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append((sid, parent[0] if parent else None, self.request,
                                   name, t0, t1, frame[2]))
            hook = self._hooks.get(name)
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return wrapper

    def _count_power_iteration(self, sid, args, kwargs, result):
        g2 = result["g_squared"]
        c = self.counts
        c["als.rows"] += g2.size
        c["als.sweep_rows"] += int(result["iterations"].sum())
        c["als.capped_runs"] += int((~result["converged"]).sum())
        c["als.basin_hits"] += int((g2 >= g2.max(axis=1, keepdims=True) - BASIN_TOL).sum())

    def _count_solve(self, sid, args, kwargs, result):
        c = self.counts
        c["overlap.unconverged"] += not result.converged
        if any(f[1] == "closedform.run_theorem_campaign" for f in self._stack):
            c["closedform.escalations"] += 1
        state = args[0] if args else kwargs["s"]
        if state.n_qubits == 3:
            self.n3_solves.add(sid)

    def install(self):
        for ns in NAMESPACES:
            for attr, obj in list(vars(ns).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        while self._saved:
            ns, attr, obj = self._saved.pop()
            setattr(ns, attr, obj)

    # ----------------------------------------------------------------------
    # aggregation

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, _, name, t0, t1, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return out

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics, normalised per traced item."""
        tot = self.totals()  # a missing name reads as zero calls and time
        per = 1.0 / max(items, 1)
        c = self.counts

        def layer_sum(layer, col):
            return sum(v[col] for k, v in tot.items() if k.startswith(layer + "."))

        def share(part, whole):
            return part / whole if whole else 0.0

        span_by_id = {s[0]: s for s in self.spans}
        n3_time = sum(span_by_id[i][5] - span_by_id[i][4] for i in self.n3_solves)
        polish_n3 = init_n3 = 0.0
        for _, parent, _, name, t0, t1, _ in self.spans:
            if name == "als.polish_stationary" and parent in self.n3_solves:
                polish_n3 += t1 - t0
            elif (name == "als._initial_spinors"
                  and span_by_id.get(parent, (None, None))[1] in self.n3_solves):
                init_n3 += t1 - t0

        s_item, n_item = "s/item", "count/item"
        rows = [(f"{layer}.self_s", layer_sum(layer, 2) * per, s_item) for layer in LAYERS]
        rows += [
            ("invariants.calls", layer_sum("invariants", 0) * per, n_item),
            ("invariants.correlation_matrix.s", tot["invariants.correlation_matrix"][1] * per,
             s_item),
            ("als.power_iteration.s", tot["als.power_iteration"][1] * per, s_item),
            ("als.sweep_rows", c["als.sweep_rows"] * per, n_item),
            ("als.us_per_sweep_row",
             1e6 * share(tot["als.power_iteration"][2], c["als.sweep_rows"]), "us"),
            ("als.init.s", tot["als._initial_spinors"][1] * per, s_item),
            ("als.polish.s", tot["als.polish_stationary"][1] * per, s_item),
            ("als.polish.calls", tot["als.polish_stationary"][0] * per, n_item),
            ("als.rows", c["als.rows"] * per, n_item),
            ("als.capped_runs", c["als.capped_runs"] * per, n_item),
            ("als.basin_hit_ratio", share(c["als.basin_hits"], c["als.rows"]), "ratio"),
            ("overlap.nearest_product_state.calls",
             tot["overlap.nearest_product_state"][0] * per, n_item),
            ("overlap.unconverged", c["overlap.unconverged"] * per, n_item),
            ("closedform.escalations", c["closedform.escalations"] * per, n_item),
            ("closedform.svd_branch_solutions.s",
             tot["closedform.svd_branch_solutions"][1] * per, s_item),
            ("states.canonicalize.self_s", tot["states.canonicalize"][2] * per, s_item),
            ("states.build.s", sum(tot[k][1] for k in BUILD) * per, s_item),
            ("states.io.s", tot["states.load_state"][1] * per, s_item),
            ("profile.correlation_matrix_share",
             share(tot["invariants.correlation_matrix"][1],
                   tot["closedform.run_theorem_campaign"][1]), "ratio"),
            ("profile.polish_share_n3", share(polish_n3, n3_time), "ratio"),
            ("profile.init_share_n3", share(init_n3, n3_time), "ratio"),
            ("trace.spans", len(self.spans) * per, n_item),
        ]
        return {name: {"value": float(value), "unit": unit} for name, value, unit in rows}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, t0, t1, child in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": t0, "end": t1,
                                     "self": t1 - t0 - child}) + "\n")
