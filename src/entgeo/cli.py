"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closedform import (
    _EXAMPLE_SOLVER,
    _THEOREM_SOLVER,
    dicke4_state,
    ghz_overlap,
    ghz_theta_state,
    quadrilateral_overlap,
    random_feasible_quadrilateral,
    run_theorem_campaign,
    wn_overlap,
)
from .invariants import _bloch_geometry, bloch_vector, invariant_set
from .overlap import SolverConfig, _solve_overlaps, geometric_measure, nearest_product_state
from .states import (
    CanonicalParams,
    CanonicalizationError,
    PureState,
    _CANON_RESTARTS,
    _normalize,
    apply_local_unitary,
    canonical_to_state,
    canonicalize,
    ghz_state,
    load_state,
    state_to_dict,
    w_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fmt(x: float) -> str:
    return f"{x:.10g}"


class InputError(ValueError):
    pass


def _builtin_state(name: str) -> PureState:
    if name == "ghz":
        return ghz_state(3)
    if name == "w":
        return w_state(3)
    if name == "dicke4":
        return dicke4_state()
    if name.startswith("canonical:"):
        parts = name[len("canonical:"):].split(",")
        if len(parts) != 6:
            raise InputError(
                "canonical builtin needs six comma-separated values a,b,c,d,h,gamma"
            )
        try:
            a, b, c, d, h, gamma = (float(v) for v in parts)
        except ValueError as exc:
            raise InputError(f"bad canonical parameter: {exc}") from None
        amp = np.array([a, b, c, d, h])
        if not np.isfinite(amp).all() or not math.isfinite(gamma):
            raise InputError(f"canonical builtin {name!r} has a non-finite value")
        if amp.min() < 0:
            raise InputError("canonical amplitudes must be nonnegative")
        amp, norm = _normalize(amp)
        if norm == 0.0:
            raise InputError(f"canonical builtin {name!r} has all-zero amplitudes")
        return canonical_to_state(
            CanonicalParams(a=amp[0], b=amp[1], c=amp[2], d=amp[3], h=amp[4], gamma=gamma)
        )
    raise InputError(
        f"unknown builtin {name!r}; available: ghz, w, dicke4, canonical:a,b,c,d,h,gamma"
    )


def _resolve_state(args) -> PureState:
    if args.input is not None:
        return load_state(args.input)
    if args.builtin is not None:
        return _builtin_state(args.builtin)
    raise InputError("one of --input or --builtin is required")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(restarts=args.restarts, seed=args.seed)


def _spinor_doc(spinor) -> list:
    return [[float(c.real), float(c.imag)] for c in spinor]


# --------------------------------------------------------------------------
# subcommands


def _cmd_invariants(args) -> int:
    state = _resolve_state(args)
    if state.n_qubits != 3:
        raise InputError(
            f"invariants needs a 3-qubit state, got {state.n_qubits} qubits "
            "(use the overlap command for other sizes)"
        )
    inv = invariant_set(state)
    b_a, b_b, corr = (v[0] for v in _bloch_geometry(state.tensor[None]))
    blochs = [b_a, b_b, bloch_vector(state, 2)]
    if args.format == "structured":
        doc = {
            "b_A": inv.b_A,
            "b_B": inv.b_B,
            "b_C": inv.b_C,
            "t": inv.t,
            "tau": inv.tau,
            "bloch_A": list(blochs[0]),
            "bloch_B": list(blochs[1]),
            "bloch_C": list(blochs[2]),
            "G": [list(row) for row in corr],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("invariants")
        for name, v in (("b_A", inv.b_A), ("b_B", inv.b_B), ("b_C", inv.b_C),
                        ("t", inv.t), ("tau", inv.tau)):
            print(f"  {name:4s} = {_fmt(v)}")
        for label, vec in zip("ABC", blochs):
            print(f"  bloch_{label} = ({_fmt(vec[0])}, {_fmt(vec[1])}, {_fmt(vec[2])})")
        print("  G =")
        for row in corr:
            print("    [" + ", ".join(_fmt(v) for v in row) + "]")
    return EXIT_OK


def _cmd_overlap(args) -> int:
    state = _resolve_state(args)
    result = nearest_product_state(state, _solver_config(args))
    g2 = result.g_squared
    measure = geometric_measure(g2)
    if args.format == "structured":
        doc = {
            "n_qubits": state.n_qubits,
            "g_squared": g2,
            "geometric_measure": measure,
            "product": [_spinor_doc(sp) for sp in result.product.spinors],
            "lagrange": list(result.lagrange) if result.lagrange else None,
            "stationarity_residual": result.stationarity_residual,
            "upper_bound": result.upper_bound,
            "restarts_used": result.restarts_used,
            "iterations": result.iterations,
            "converged": result.converged,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"g_squared = {_fmt(g2)}")
        print(f"E_g = -ln g^2 = {_fmt(measure)}")
        for q, sp in enumerate(result.product.spinors):
            print(
                f"  q[{q}] = ({_fmt(sp[0].real)}{sp[0].imag:+.10g}j, "
                f"{_fmt(sp[1].real)}{sp[1].imag:+.10g}j)"
            )
        if result.lagrange is not None:
            lam1, lam2 = result.lagrange
            print(f"  lambda_1 = {_fmt(lam1)}, lambda_2 = {_fmt(lam2)}")
        print(f"  stationarity residual = {_fmt(result.stationarity_residual)}")
        print(f"  upper bound = {_fmt(result.upper_bound)} (one-qubit cut)")
        print(
            f"  restarts = {result.restarts_used}, sweeps = {result.iterations}, "
            f"converged = {result.converged}"
        )
        if not result.converged:
            print("  warning: polish residual above 1e-10; value is a lower bound")
    return EXIT_OK


def _cmd_canonicalize(args) -> int:
    state = _resolve_state(args)
    try:
        params, lu = canonicalize(state, restarts=args.restarts, seed=args.seed)
    except CanonicalizationError as exc:
        print(f"canonicalization failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    canonical = canonical_to_state(params)
    residual = max(0.0, 1.0 - apply_local_unitary(state, lu).fidelity(canonical))  # +0.0, not -4e-16
    if args.format == "structured":
        doc = {
            "params": {
                "a": params.a, "b": params.b, "c": params.c,
                "d": params.d, "h": params.h, "gamma": params.gamma,
            },
            "infidelity": residual,
            "canonical_state": state_to_dict(canonical),
            "unitaries": [[_spinor_doc(row) for row in m] for m in lu.matrices],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("canonical parameters")
        for name in ("a", "b", "c", "d", "h", "gamma"):
            print(f"  {name:5s} = {_fmt(getattr(params, name))}")
        print(f"  reconstruction infidelity = {residual:.3e}")
    return EXIT_OK


def _cmd_verify_theorem(args) -> int:
    families = ["quadrilateral", "h-nonzero"] if args.family == "both" else [args.family]
    solver = _solver_config(args)
    reports = [run_theorem_campaign(family, n_samples=args.samples, seed=args.seed + i,
                                    tolerance=args.tol, solver=solver)
               for i, family in enumerate(families)]
    ok = all(r.passed for r in reports)
    if args.format == "structured":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"[{status}] family={r.family} samples={r.samples} "
                f"max|g^2-1/2|={r.max_g2_error:.3e} max|t|={r.max_abs_t:.3e} "
                f"max zero-mode residual={r.max_zero_mode_residual:.3e} "
                f"max bracket gap={r.max_bracket_gap:.3e}"
            )
            for f in r.failures:
                a, b, c, d, h, gamma = f.params
                print(
                    f"  failing sample {f.index}: g^2={_fmt(f.numeric_g_squared)} "
                    f"a={a!r} b={b!r} c={c!r} d={d!r} h={h!r} gamma={gamma!r}"
                )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_demo(args) -> int:
    return _DEMOS[args.name](args, _solver_config(args))


def _demo_ghz(args, cfg: SolverConfig) -> int:
    thetas = [k * math.pi / 24.0 for k in range(7)]
    rows = []
    for n in (2, 3, 4, 5):
        numeric = _solve_overlaps(np.stack([ghz_theta_state(t, n).tensor for t in thetas]), cfg)[0]
        rows += [(n, t, ghz_overlap(t, n), float(m)) for t, m in zip(thetas, numeric)]
    if args.format == "structured":
        print(json.dumps(
            [{"n": n, "theta": t, "closed_form_g_squared": c, "numeric_g_squared": m}
             for n, t, c, m in rows], indent=2))
    else:
        print("generalized GHZ: g^2 against (1 + |cos 2 theta|)/2")
        print(f"{'n':>2s} {'theta':>12s} {'closed form':>14s} {'numeric':>14s} {'|diff|':>10s}")
        for n, t, c, m in rows:
            print(f"{n:2d} {t:12.8f} {c:14.10f} {m:14.10f} {abs(c - m):10.2e}")
    return EXIT_OK


def _demo_wn(args, cfg: SolverConfig) -> int:
    cases = [
        [1 / math.sqrt(3)] * 3,
        [1 / math.sqrt(2), 0.5, 0.5],
        [0.5] * 4,
        [1 / math.sqrt(2), 0.5, math.sqrt(0.15), math.sqrt(0.10)],
        [0.8, 0.6],
    ]
    reports = [wn_overlap(c, cfg) for c in cases]
    if args.format == "structured":
        print(json.dumps(
            [{"coefficients": list(r.coefficients), "g_squared": r.g_squared,
              "min_bloch_length": r.min_bloch_length,
              "has_zero_bloch": r.has_zero_bloch, "is_half": r.is_half,
              "equivalence_held": r.equivalence_held} for r in reports], indent=2))
    else:
        print("generalized W states: zero Bloch vector <=> g^2 = 1/2")
        for r in reports:
            coeffs = ", ".join(_fmt(v) for v in r.coefficients)
            print(
                f"  c=({coeffs}): min b = {_fmt(r.min_bloch_length)}, "
                f"g^2 = {_fmt(r.g_squared)}, equivalence held: {r.equivalence_held}"
            )
    return EXIT_OK


def _demo_dicke4(args, cfg: SolverConfig) -> int:
    state = dicke4_state()
    lengths = [float(np.linalg.norm(bloch_vector(state, q))) for q in range(4)]
    g2 = nearest_product_state(state, cfg).g_squared
    if args.format == "structured":
        print(json.dumps({
            "g_squared": g2,
            "bloch_lengths": lengths,
            "extends_to_four_qubits": False,
        }, indent=2))
    else:
        print(f"four-qubit Dicke state: g^2 = {_fmt(g2)} (3/8 = 0.375)")
        print(f"  all Bloch lengths: {', '.join(_fmt(v) for v in lengths)}")
        print("  all Bloch vectors vanish yet g^2 != 1/2: the three-qubit result")
        print("  does NOT extend to four qubits")
    return EXIT_OK


def _demo_quadrilateral(args, cfg: SolverConfig) -> int:
    rng = np.random.default_rng(args.seed)
    params = [random_feasible_quadrilateral(rng) for _ in range(100)]
    closed = np.array([quadrilateral_overlap(p) for p in params])
    numeric = np.sqrt(_solve_overlaps(np.stack([p.to_state().tensor for p in params]), cfg)[0])
    diff = np.abs(closed - numeric)
    worst = float(diff.max())
    rows = list(zip(params, closed.tolist(), numeric.tolist(), diff.tolist()))
    if args.format == "structured":
        print(json.dumps({
            "samples": 100,
            "max_abs_g_difference": worst,
            "rows": [{"sides": list(p.sides), "closed_form_g": c, "numeric_g": m}
                     for p, c, m, _ in rows[:10]],
        }, indent=2))
    else:
        print("quadrilateral states: closed-form g vs numeric solver (100 samples)")
        for p, c, m, d in rows[:10]:
            sides = ", ".join(_fmt(v) for v in p.sides)
            print(f"  sides=({sides}): closed={c:.10f} numeric={m:.10f} |diff|={d:.2e}")
        print(f"  ... max |closed - numeric| over 100 samples: {worst:.3e}")
    return EXIT_OK


_DEMOS = {"ghz-sweep": _demo_ghz, "wn": _demo_wn, "dicke4": _demo_dicke4,
          "quadrilateral": _demo_quadrilateral}


# --------------------------------------------------------------------------
# parser


def _add_state_source(p: argparse.ArgumentParser):
    p.add_argument("--input", metavar="PATH", help="state document (JSON)")
    p.add_argument("--builtin", metavar="NAME",
                   help="ghz | w | dicke4 | canonical:a,b,c,d,h,gamma")


def _add_solver_flags(p: argparse.ArgumentParser, restarts: int):
    p.add_argument("--restarts", type=int, default=restarts, metavar="N",
                   help=f"random starts per state, plus one basis start (default {restarts})")
    p.add_argument("--seed", type=int, default=0, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entgeo",
        description="Local-unitary invariants and maximal product overlaps "
                    "of few-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Bloch vectors, correlation matrix and invariants")
    _add_state_source(p)
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("overlap", help="maximal product overlap of a 2-8 qubit state")
    _add_state_source(p)
    _add_solver_flags(p, SolverConfig.restarts)
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("canonicalize", help="canonical form of a 3-qubit state")
    _add_state_source(p)
    _add_solver_flags(p, _CANON_RESTARTS)
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("verify-theorem",
                       help="check g^2 = 1/2 on sampled zero-Bloch states",
                       description="Every sample has a completely mixed qubit, so one whose "
                                   "polish stalls or whose bracket against the cut bound 1/2 "
                                   "stays open is re-solved once with 4x the restarts and the "
                                   "next seed (the solver's one re-solve rule); --tol decides "
                                   "only the verdict.")
    p.add_argument("--family", choices=("quadrilateral", "h-nonzero", "both"),
                   default="both")
    p.add_argument("--samples", type=int, default=1000, metavar="N")
    p.add_argument("--tol", type=float, default=1e-7, metavar="X",
                   help="pass tolerance on |g^2 - 1/2|")
    _add_solver_flags(p, _THEOREM_SOLVER.restarts)
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("demo", help="reproduce the example families")
    p.add_argument("--name", required=True, choices=tuple(_DEMOS))
    _add_solver_flags(p, _EXAMPLE_SOLVER.restarts)
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=_cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parsing does not modify it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
