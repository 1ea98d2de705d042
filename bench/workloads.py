"""The three benchmark workloads: inputs from a seed, one timed call, one gate.

Each workload hands out *units*: lists of calls whose inputs are generated
(and whose reference values are computed) before any call is timed.

All library calls go through module attributes (``closedform.run_...``),
never through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import entgeo.cli as cli
import entgeo.closedform as closedform
import entgeo.invariants as invariants
import entgeo.overlap as overlap
import entgeo.states as states

import reference

# acceptance tolerances (tests/test_acceptance.py, criteria 1 and 3-6)
G2_TOL = 1e-7
STRUCTURE_TOL = 1e-10
T_DUAL_TOL = 1e-11
TAU_TOL = 1e-8
INVARIANT_DRIFT_TOL = 1e-10
# a product state's overlap is recomputed exactly from its spinors; this only
# absorbs rounding in the JSON round trip and the two contraction orders
PRODUCT_TOL = 1e-9
BOUND_SLACK = 1e-12
# restarts of the plain-numpy reference solves (the library gets 16 and 64)
STATE3_REF_RESTARTS = 64
WIDE_REF_RESTARTS = 128


@dataclass
class Call:
    """One user-facing call: its prepared inputs and what its output must be."""

    items: int
    inputs: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# plain-numpy input generation (the library only ever sees the results)


def haar_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return z / np.linalg.norm(z)


def random_local_unitary(rng: np.random.Generator, amps: np.ndarray) -> np.ndarray:
    """Apply an independent Haar 2x2 unitary to every qubit."""
    n = int(round(math.log2(amps.size)))
    t = amps.reshape((2,) * n)
    for q in range(n):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        t = np.moveaxis(np.tensordot(u, np.moveaxis(t, q, 0), axes=(1, 0)), 0, q)
    out = t.reshape(-1)
    return out / np.linalg.norm(out)


def ghz_theta_amplitudes(theta: float, n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = math.cos(theta), math.sin(theta)
    return amps


def w_amplitudes(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    for q in range(n):
        amps[1 << (n - 1 - q)] = 1.0 / math.sqrt(n)
    return amps


def dicke4_amplitudes() -> np.ndarray:
    return np.array([1.0 / math.sqrt(6.0) if bin(i).count("1") == 2 else 0.0
                     for i in range(16)], dtype=complex)


def write_state(path: Path, amps: np.ndarray) -> None:
    n = int(round(math.log2(amps.size)))
    doc = {"n_qubits": n, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
    path.write_text(json.dumps(doc))


# --------------------------------------------------------------------------
# campaign: the batched verify-theorem path


FAMILIES = ("quadrilateral", "h-nonzero")


class Campaign:
    """One call is ``verify-theorem --family both`` at its default of 1000
    samples: a ``run_theorem_campaign`` of ``chunk`` samples per family
    (default solver, 16 restarts), so a call puts ``chunk * 17`` solver rows
    through one batched power iteration per family.  An item is one sample
    verified.
    """

    def __init__(self, seed: int, chunk: int = 1000):
        self.rng = np.random.default_rng([seed, 1])
        self.chunk = chunk

    def unit(self, k: int) -> list[Call]:
        seeds = [int(s) for s in self.rng.integers(0, 2**31, size=len(FAMILIES))]
        return [Call(items=len(FAMILIES) * self.chunk,
                     inputs={"seeds": seeds, "chunk": self.chunk})]

    def warmup_call(self) -> Call:
        return Call(items=len(FAMILIES), inputs={"seeds": [0, 1], "chunk": 1})

    def execute(self, call: Call):
        chunk = call.inputs["chunk"]
        return [closedform.run_theorem_campaign(family, chunk, seed=seed)
                for family, seed in zip(FAMILIES, call.inputs["seeds"])]

    def check(self, call: Call, reports) -> tuple[int, list[str]]:
        """Failed samples and reasons.  The structure checks are aggregates
        over a chunk, so a chunk that fails one counts every sample failed."""
        chunk = call.inputs["chunk"]
        failed, reasons = 0, []
        for family, r in zip(FAMILIES, reports):
            aggregates = {
                "family/samples": r.family == family and r.samples == chunk,
                "max_g2_error": r.max_g2_error <= G2_TOL,
                "max_abs_t": r.max_abs_t <= STRUCTURE_TOL,
                "zero_mode_residual": r.max_zero_mode_residual <= STRUCTURE_TOL,
                "singular_value_error": r.max_singular_value_error <= STRUCTURE_TOL,
            }
            bad = [k for k, ok in aggregates.items() if not ok]
            if bad:
                failed += chunk
                reasons.append(f"{family} seed {r.seed}: {', '.join(bad)}")
            elif r.failures:
                failed += len(r.failures)
                reasons.append(f"{family} seed {r.seed}: {len(r.failures)} samples off 1/2")
        return failed, reasons


# --------------------------------------------------------------------------
# state3: per-state work of acceptance criteria 4 and 5


class State3:
    """One request: a Haar three-qubit state and a random-LU twin; invariants
    of both, ``nearest_product_state(restarts=16)`` of both, and
    ``canonicalize`` of the original.  An item is one request.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])

    def _request(self, rng: np.random.Generator) -> Call:
        psi = haar_amplitudes(rng, 3)
        twin = random_local_unitary(rng, psi)
        return Call(items=1, inputs={
            "psi": psi,
            "state": states.PureState(3, psi),
            "twin": states.PureState(3, twin),
            "ref_seed": int(rng.integers(2**31)),
        })

    def unit(self, k: int) -> list[Call]:
        return [self._request(self.rng)]

    def warmup_call(self) -> Call:
        return self._request(np.random.default_rng(0))

    def execute(self, call: Call):
        state, twin = call.inputs["state"], call.inputs["twin"]
        cfg = overlap.SolverConfig(restarts=16)
        inv = invariants.invariant_set(state)
        inv_twin = invariants.invariant_set(twin)
        res = overlap.nearest_product_state(state, cfg)
        res_twin = overlap.nearest_product_state(twin, cfg)
        params, _ = states.canonicalize(state)
        return inv, inv_twin, res, res_twin, params

    def check(self, call: Call, out) -> tuple[int, list[str]]:
        inv, inv_twin, res, res_twin, params = out
        psi = call.inputs["psi"].reshape(2, 2, 2)
        a, b = inv.as_array(), inv_twin.as_array()
        best = reference.reference_g2(psi, STATE3_REF_RESTARTS, call.inputs["ref_seed"])
        checks = {
            "t dual gap": abs(inv.t - reference.sextic_t_bloch(psi)) <= T_DUAL_TOL,
            "tau vs canonical": abs(inv.tau - reference.tangle_canonical(*params.as_tuple()))
            <= TAU_TOL,
            "invariant drift": float(np.abs(a - b).max()) <= INVARIANT_DRIFT_TOL,
            "g2 drift": abs(res.g_squared - res_twin.g_squared) <= G2_TOL,
            "g2 vs reference": res.g_squared >= best - G2_TOL,
            "g2 upper bound": res.g_squared <= reference.g2_upper_bound(psi) + BOUND_SLACK,
            "product reproduces g2": abs(
                reference.product_overlap_sq(psi, res.product.spinors) - res.g_squared
            ) <= PRODUCT_TOL,
        }
        bad = [k for k, ok in checks.items() if not ok]
        return (1, [", ".join(bad)]) if bad else (0, [])


# --------------------------------------------------------------------------
# wide: the CLI on 4..8 qubits


class Wide:
    """One unit is one CLI ``overlap --format structured`` call (default 64
    restarts) per state file: for each n in ``ns`` a Haar state, an LU-rotated
    generalized GHZ state and an LU-rotated W_n, plus an LU-rotated Dicke
    state.  Local unitaries leave g^2 unchanged, so the known answers hold
    while every file has dense, fresh amplitudes.  An item is one CLI solve.

    Units come from a pool of at most ``pool`` distinct ones, generated on
    first use, so the reference solves for the Haar states stay bounded when
    the program gets faster; later units reuse the pool in order.
    """

    def __init__(self, seed: int, workdir: Path, ns=range(4, 9), pool: int = 40):
        self.rng = np.random.default_rng([seed, 8])
        self.workdir = workdir
        self.ns = tuple(ns)
        self.pool = pool
        self._units: dict[int, list[Call]] = {}

    def _call(self, tag: str, amps: np.ndarray, expected=None, ref=None) -> Call:
        path = self.workdir / f"{tag}.json"
        write_state(path, amps)
        n = int(round(math.log2(amps.size)))
        return Call(items=1, inputs={"path": str(path), "psi": amps.reshape((2,) * n),
                                     "expected": expected, "ref": ref, "kind": tag})

    def unit(self, k: int) -> list[Call]:
        j = k % self.pool
        if j not in self._units:
            rng = self.rng
            calls = []
            for n in self.ns:
                psi = haar_amplitudes(rng, n)
                ref = reference.reference_g2(psi.reshape((2,) * n), WIDE_REF_RESTARTS,
                                             int(rng.integers(2**31)))
                calls.append(self._call(f"u{j}-haar{n}", psi, ref=ref))
                theta = float(rng.uniform(0.0, math.pi / 2))
                calls.append(self._call(
                    f"u{j}-ghz{n}", random_local_unitary(rng, ghz_theta_amplitudes(theta, n)),
                    expected=(1.0 + abs(math.cos(2.0 * theta))) / 2.0))
                calls.append(self._call(
                    f"u{j}-w{n}", random_local_unitary(rng, w_amplitudes(n)),
                    expected=((n - 1) / n) ** (n - 1)))
            calls.append(self._call(f"u{j}-dicke4", random_local_unitary(rng, dicke4_amplitudes()),
                                    expected=3.0 / 8.0))
            self._units[j] = calls
        return self._units[j]

    def warmup_call(self) -> Call:
        amps = random_local_unitary(np.random.default_rng(0), w_amplitudes(4))
        return self._call("warmup-w4", amps, expected=(3 / 4) ** 3)

    def execute(self, call: Call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["overlap", "--input", call.inputs["path"],
                             "--format", "structured"])
        return code, buf.getvalue()

    def check(self, call: Call, out) -> tuple[int, list[str]]:
        code, text = out
        kind = call.inputs["kind"]
        if code != 0:
            return 1, [f"{kind}: exit code {code}"]
        try:
            doc = json.loads(text)
            n_qubits, g2 = doc["n_qubits"], float(doc["g_squared"])
            spinors = [np.array([complex(*c) for c in sp]) for sp in doc["product"]]
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"{kind}: unreadable output ({exc})"]
        psi = call.inputs["psi"]
        checks = {
            "n_qubits": n_qubits == psi.ndim,
            "g2 upper bound": g2 <= reference.g2_upper_bound(psi) + BOUND_SLACK,
            "product reproduces g2":
                abs(reference.product_overlap_sq(psi, spinors) - g2) <= PRODUCT_TOL,
        }
        if call.inputs["expected"] is not None:
            checks["known answer"] = abs(g2 - call.inputs["expected"]) <= G2_TOL
        if call.inputs["ref"] is not None:
            # a higher value than the reference is still attained by the
            # reported product state (checked above), so only a lower one fails
            checks["g2 vs reference"] = g2 >= call.inputs["ref"] - G2_TOL
        bad = [k for k, ok in checks.items() if not ok]
        return (1, [f"{kind}: {', '.join(bad)} (g2={g2!r})"]) if bad else (0, [])

    @staticmethod
    def out_bytes(out) -> int:
        return len(out[1].encode())


def make(name: str, seed: int, workdir: Path, **sizes):
    if name == "campaign":
        return Campaign(seed, **sizes)
    if name == "state3":
        return State3(seed, **sizes)
    if name == "wide":
        return Wide(seed, workdir, **sizes)
    raise ValueError(f"unknown workload {name!r}")
