"""End-to-end tests of the command-line interface."""

import inspect
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from entgeo import (
    SolverConfig,
    canonicalize,
    cli,
    closedform,
    ghz_state,
    ghz_theta_state,
    nearest_product_state,
    save_state,
    state_from_dict,
)
from entgeo.cli import main
from entgeo.closedform import _EXAMPLE_SOLVER, _THEOREM_SOLVER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_huge_canonical_builtin(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "invariants", "--builtin",
                                   "canonical:1e200,1e200,0,0,0,0", "--format", "structured")
        assert code == 0
        assert json.loads(out)["b_C"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["canonical:nan,1,0,0,0,0", "canonical:1,0,0,0,0,inf"])
    def test_non_finite_canonical_builtin_exit_2(self, capsys, name):
        code, _, err = run_cli(capsys, "invariants", "--builtin", name)
        assert code == 2
        assert name in err

    def test_ghz_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--builtin", "ghz",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["b_A"] == pytest.approx(0.0, abs=1e-12)
        assert doc["tau"] == pytest.approx(1.0, abs=1e-12)
        assert doc["G"][2][2] == pytest.approx(1.0, abs=1e-12)

    def test_w_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--builtin", "w",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        for key in ("b_A", "b_B", "b_C"):
            assert doc[key] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["tau"] == pytest.approx(0.0, abs=1e-12)

    def test_structured_keys(self, capsys):
        _, out, _ = run_cli(capsys, "invariants", "--builtin", "ghz",
                            "--format", "structured")
        doc = json.loads(out)
        assert set(doc) == {"b_A", "b_B", "b_C", "t", "tau",
                            "bloch_A", "bloch_B", "bloch_C", "G"}
        assert len(doc["G"]) == 3 and len(doc["G"][0]) == 3

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": 3, "amplitudes": [[1.0, 0.0]] * 4}))
        code, _, err = run_cli(capsys, "invariants", "--input", str(path))
        assert code == 2
        assert "amplitudes" in err

    def test_overlap_non_finite_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes": [[1.0, 0.0], [float("nan"), 0.0],
                                                                   [0.0, 0.0], [0.0, 0.0]]}))
        assert "NaN" in path.read_text()
        code, _, err = run_cli(capsys, "overlap", "--input", str(path))
        assert code == 2
        assert "not finite" in err and "field: amplitudes" in err

    def test_non_three_qubit_rejected(self, capsys):
        code, _, err = run_cli(capsys, "overlap", "--builtin", "dicke4")
        assert code == 0
        code, _, err = run_cli(capsys, "invariants", "--builtin", "dicke4")
        assert code == 2
        assert "overlap" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "invariants")
        assert code == 2


class TestOverlapCommand:
    def test_dicke4(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--builtin", "dicke4",
                               "--restarts", "8", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["g_squared"] == pytest.approx(0.375, abs=1e-9)
        assert doc["lagrange"] is None

    def test_ghz(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--builtin", "ghz",
                               "--restarts", "8", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["g_squared"] == pytest.approx(0.5, abs=1e-9)
        assert doc["geometric_measure"] == pytest.approx(math.log(2), abs=1e-9)
        assert doc["converged"] is True
        assert doc["upper_bound"] == pytest.approx(0.5, abs=1e-15)

    def test_product_state_measure_is_plus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--builtin", "canonical:0,0,0,1,0,0")
        assert code == 0 and "E_g = -ln g^2 = 0\n" in out
        code, out, _ = run_cli(capsys, "overlap", "--builtin", "canonical:0,0,0,1,0,0",
                               "--format", "structured")
        assert code == 0 and '"geometric_measure": 0.0,' in out

    def test_human_output_shows_the_cut_bound(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--builtin", "w", "--restarts", "8")
        assert code == 0
        assert "upper bound = 0.6666666667 (one-qubit cut)" in out

    def test_deterministic(self, capsys):
        args = ("overlap", "--builtin", "w", "--restarts", "1", "--seed", "5",
                "--format", "structured")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        save_state(ghz_state(3), path)
        code, out, _ = run_cli(capsys, "overlap", "--input", str(path),
                               "--restarts", "8", "--format", "structured")
        assert code == 0
        assert json.loads(out)["g_squared"] == pytest.approx(0.5, abs=1e-9)

    def test_canonical_builtin(self, capsys):
        name = f"canonical:0.3,0.4,0,{math.sqrt(0.5)},0.5,0"
        code, out, _ = run_cli(capsys, "overlap", "--builtin", name,
                               "--restarts", "8", "--format", "structured")
        assert code == 0
        assert json.loads(out)["g_squared"] == pytest.approx(0.5, abs=1e-8)

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "overlap", "--builtin", "nope")
        assert code == 2
        assert "unknown builtin" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "overlap", "--builtin", "ghz", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_bad_solver_restarts_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "overlap", "--builtin", "ghz", "--restarts", "0")
        assert code == 2
        assert err == "error: restarts must be an integer >= 1, got 0\n"


class TestCanonicalizeCommand:
    def test_ghz(self, capsys):
        code, out, _ = run_cli(capsys, "canonicalize", "--builtin", "ghz",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["d"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert doc["params"]["h"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert doc["infidelity"] < 1e-8

    @pytest.mark.parametrize("fmt", ["structured", "human"])
    def test_infidelity_is_never_negative(self, capsys, fmt):
        # this state's reconstruction fidelity rounds to 1 + 4.4e-16
        code, out, _ = run_cli(capsys, "canonicalize", "--builtin",
                               "canonical:0.5,0.5,0.5,0.5,0,0", "--format", fmt)
        assert code == 0
        if fmt == "structured":
            assert math.copysign(1.0, json.loads(out)["infidelity"]) == 1.0
        else:
            assert re.search(r"reconstruction infidelity = \d", out)

    def test_negative_restarts_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "canonicalize", "--builtin", "ghz", "--restarts", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: restarts must be an integer >= 0, got -1\n"

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "canonicalize", "--builtin", "ghz", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_round_trips_through_state_format(self, capsys):
        code, out, _ = run_cli(capsys, "canonicalize", "--builtin", "w",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        state = state_from_dict(doc["canonical_state"])
        assert state.n_qubits == 3


class TestVerifyTheoremCommand:
    def test_both_families_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--family", "both",
                               "--samples", "100", "--seed", "3",
                               "--format", "structured")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        for r in reports:
            assert r["passed"] is True
            assert r["max_g2_error"] <= 1e-7
            assert abs(r["max_bracket_gap"]) <= 1e-10

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bad_sample_count_exit_2(self, capsys, count):
        code, _, err = run_cli(capsys, "verify-theorem", "--samples", count)
        assert code == 2
        assert f"n_samples must be an integer >= 1, got {count}" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-7"])
    def test_bad_tolerance_exit_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify-theorem", "--family", "quadrilateral",
                                 "--samples", "5", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance must be a finite number > 0, got {float(tol)!r}\n"

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--family", "h-nonzero",
                               "--samples", "20", "--seed", "1", "--tol", "1e-17")
        assert code == 1
        assert "FAIL" in out
        assert "failing sample" in out

    def test_default_budget_is_the_library_default(self):
        args = cli.build_parser().parse_args(["verify-theorem"])
        assert cli._solver_config(args) == _THEOREM_SOLVER

    def test_deterministic(self, capsys):
        args = ("verify-theorem", "--family", "quadrilateral", "--samples", "30",
                "--seed", "2", "--format", "structured")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestDemoCommand:
    def test_ghz_sweep_balanced_row(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--name", "ghz-sweep",
                               "--format", "structured")
        assert code == 0
        rows = json.loads(out)
        balanced = [r for r in rows if abs(r["theta"] - math.pi / 4) < 1e-12]
        assert len(balanced) == 4  # one per qubit count
        for row in balanced:
            assert row["closed_form_g_squared"] == pytest.approx(0.5)
            assert row["numeric_g_squared"] == pytest.approx(0.5, abs=1e-8)
        # each qubit count is one batch; every row equals its state solved alone
        cfg = SolverConfig(restarts=16, seed=0)
        for row in rows:
            alone = nearest_product_state(ghz_theta_state(row["theta"], row["n"]), cfg)
            assert row["numeric_g_squared"] == alone.g_squared

    def test_solves_under_the_parsed_flags(self, monkeypatch):
        budgets = []
        monkeypatch.setitem(cli._DEMOS, "wn", lambda args, cfg: budgets.append(cfg) or 0)
        assert main(["demo", "--name", "wn", "--restarts", "5", "--seed", "7"]) == 0
        assert budgets == [SolverConfig(restarts=5, seed=7)]

    def test_dicke4(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--name", "dicke4")
        assert code == 0
        assert "0.375" in out
        assert "does NOT extend" in out

    def test_wn(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--name", "wn",
                               "--format", "structured")
        assert code == 0
        rows = json.loads(out)
        assert all(r["equivalence_held"] for r in rows)

    def test_quadrilateral(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--name", "quadrilateral",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 100
        assert doc["max_abs_g_difference"] <= 1e-7

    def test_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "demo", "--name", "nope")
        assert err.value.code == 2


class TestParserReuse:
    CALLS = (
        ("overlap", "--builtin", "w", "--restarts", "4", "--seed", "3",
         "--format", "structured"),
        ("invariants", "--builtin", "ghz", "--format", "structured"),
        ("canonicalize", "--builtin", "ghz", "--restarts", "-1"),
        ("overlap", "--builtin", "w", "--format", "structured"),
        ("canonicalize", "--builtin", "w"),
        ("invariants", "--builtin", "canonical:1,0,0,0,0"),
    )

    def test_reused_parser_matches_fresh(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli._parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in self.CALLS]
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 2]
        assert reused == fresh


class TestParserDefaults:
    SOLVING = (("overlap", "--builtin", "ghz"), ("canonicalize", "--builtin", "ghz"),
               ("verify-theorem",), ("demo", "--name", "wn"))

    @pytest.mark.parametrize("argv", SOLVING, ids=lambda argv: argv[0])
    def test_solving_subcommands_share_the_solver_flags(self, capsys, argv):
        # --restarts and --seed everywhere; the sweep cap is no setting
        parser = cli.build_parser()
        args = parser.parse_args([*argv, "--restarts", "5", "--seed", "7"])
        assert cli._solver_config(args) == SolverConfig(restarts=5, seed=7)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "--max-iters", "40"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-iters 40" in capsys.readouterr().err

    def test_restarts_are_the_library_defaults(self):
        parser = cli.build_parser()

        def restarts(*argv):
            return parser.parse_args(list(argv)).restarts

        assert restarts("overlap") == SolverConfig().restarts
        library = inspect.signature(canonicalize).parameters["restarts"].default
        assert restarts("canonicalize") == library
        assert restarts("verify-theorem") == _THEOREM_SOLVER.restarts
        assert restarts("demo", "--name", "wn") == _EXAMPLE_SOLVER.restarts

    def test_example_budget_is_the_wn_default(self, monkeypatch):
        budgets = []

        class Recorded(Exception):
            pass

        def record(state, cfg, *_):
            budgets.append(cfg)
            raise Recorded

        monkeypatch.setattr(closedform, "nearest_product_state", record)
        with pytest.raises(Recorded):
            closedform.wn_overlap([0.6, 0.8])
        assert budgets == [_EXAMPLE_SOLVER]


class TestReadme:
    """The README's command examples and its list of solving commands name
    exactly the subcommands the parser registers, and its library example
    gives the values its comments state."""

    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    @staticmethod
    def subcommands():
        sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
        return sub.choices

    def test_examples_name_every_subcommand(self):
        examples = re.findall(r"^entgeo ([a-z-]+)", self.TEXT, re.M)
        assert sorted(set(examples)) == sorted(self.subcommands())

    def test_solving_commands_are_those_with_solver_flags(self):
        listed = re.search(r"solving commands \(([^)]*)\)", self.TEXT).group(1)
        solving = [name for name, p in self.subcommands().items()
                   if any("--restarts" in a.option_strings for a in p._actions)]
        assert sorted(re.findall(r"`([a-z-]+)`", listed)) == sorted(solving)

    def test_library_example_values(self, capsys):
        block = re.search(r"## Library example\n\n```python\n(.*?)```", self.TEXT, re.S).group(1)
        names = {}
        exec(block, names)
        capsys.readouterr()
        inv = names["invariant_set"](names["state"])
        for length in (inv.b_A, inv.b_B, inv.b_C):
            assert length == pytest.approx(1 / 3, abs=1e-10)
        assert inv.tau == pytest.approx(0.0, abs=1e-10)
        assert names["result"].g_squared == pytest.approx(4 / 9, abs=1e-10)
