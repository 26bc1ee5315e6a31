"""CLI: argument parsing and end-to-end runs of the cheap experiments."""

import pytest

import repro.markov.ctmc as ctmc_mod
from repro.experiments.cli import build_parser, main

#: the flags that used to pick a gspn solver; a chain's size picks it now
REMOVED_SOLVER_FLAGS = (
    ["--solver", "gmres"], ["--backend", "sparse"], ["--tol", "1e-9"],
    ["--max-iter", "200"],
)


def exit_code(argv):
    """``main(argv)``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "fig5", "table4", "table5"):
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "192.442" in out
        assert "finished in" in out

    def test_run_table1_with_csv(self, tmp_path, capsys):
        assert main(["run", "table1", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_seed_flag_accepted(self, capsys):
        assert main(["run", "table2", "--seed", "99"]) == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSolverFlags:
    @pytest.mark.parametrize("flags", REMOVED_SOLVER_FLAGS, ids=lambda f: f[0])
    @pytest.mark.parametrize("command", [
        ["sweep", "--net", "mm1k", "--rate", "arrive=0.5,1.0"],
        ["steady", "--net", "mm1k"],
        ["query", "--connect", "127.0.0.1:9", "--net", "mm1k"],
    ], ids=lambda c: c[0])
    def test_removed_solver_flags_exit_2(self, command, flags, capsys):
        assert exit_code([*command, *flags]) == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )

    def test_sweep_solver_rejected_for_renewal(self, capsys):
        assert exit_code([
            "sweep", "--model", "renewal", "--rate", "T=0.2,0.4",
            "--solver", "gmres",
        ]) == 2
        assert "--solver" in capsys.readouterr().err

    def test_sweep_phase_type_solver_threading(self, capsys):
        # phase-type has one solver: a solver choice is a usage error
        for flags in REMOVED_SOLVER_FLAGS:
            assert exit_code([
                "sweep", "--model", "phase-type", "--rate", "T=0.2,0.4",
                "--stages", "4", "--n-max", "8", "--metric", "power",
                *flags,
            ]) == 2
            assert flags[0] in capsys.readouterr().err

    def test_unknown_solver_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--rate", "AR=1", "--solver", "qr"]
            )

    def test_query_sweep_takes_rate_like_sweep(self, capsys):
        from repro.experiments.cli import _build_query_payload

        query = ["query", "--connect", "127.0.0.1:9", "--net", "mm1k"]
        args = build_parser().parse_args([
            *query, "--op", "sweep", "--rate", "arrive=0.2:1.8:8",
            "--rate", "serve=1,2",
        ])
        payload = _build_query_payload(args)
        assert payload["axes"] == ["arrive=0.2:1.8:8", "serve=1,2"]
        # the old spelling is gone, not an alias
        assert exit_code([
            *query, "--op", "sweep", "--axis", "arrive=0.5,1",
        ]) == 2
        assert "unrecognized arguments: --axis" in capsys.readouterr().err


class TestSteadyCommand:
    def test_default_wsn_cluster(self, capsys):
        assert main(["steady", "--buffer", "2", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "wsn-cluster steady state" in out
        assert "mean_tokens:buf0" in out
        assert "states solved with" in out

    def test_default_steady_reports_gmres(self, capsys):
        # wsn-cluster, 3 nodes x buffer 12: 8 788 states, past the rule
        assert main(["steady"]) == 0
        assert "8788 states solved with gmres" in capsys.readouterr().out

    def test_explicit_solver_and_net(self, capsys):
        """The net is explicit; the chain's size names the solver."""
        assert main(["steady", "--net", "mm1k", "--buffer", "12"]) == 0
        out = capsys.readouterr().out
        assert "mm1k steady state" in out
        assert "13 states solved with lu" in out
        assert main(["steady", "--net", "mm1k", "--buffer", "600"]) == 0
        assert "601 states solved with gmres" in capsys.readouterr().out

    def test_phase_type_model(self, capsys):
        assert main([
            "steady", "--model", "phase-type", "--stages", "4",
            "--n-max", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase-type steady state" in out
        assert "fraction:standby" in out
        assert "solved with exact level-recursion" in out
        assert exit_code([
            "steady", "--model", "phase-type", "--stages", "4",
            "--n-max", "8", "--solver", "lu",
        ]) == 2
        assert "--solver" in capsys.readouterr().err

    def test_gspn_rejects_phase_type_flags(self, capsys):
        assert main(["steady", "--net", "mm1k", "--n-max", "5"]) == 2
        assert "--n-max" in capsys.readouterr().err

    def test_phase_type_rejects_net_flags(self, capsys):
        assert main(["steady", "--model", "phase-type", "--buffer", "5"]) == 2
        assert "--buffer" in capsys.readouterr().err

    def test_nodes_rejected_for_single_queue_nets(self, capsys):
        assert main(["steady", "--net", "mm1k", "--nodes", "3"]) == 2
        assert "--nodes" in capsys.readouterr().err

    def test_nonconvergence_reported_as_error(self, capsys, monkeypatch):
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(ctmc_mod, "ILU_SETTINGS", ((1.0, 1),))
        assert main(["steady", "--net", "mm1k", "--buffer", "600"]) == 2
        err = capsys.readouterr().err
        assert "gmres steady-state solve did not converge" in err


class TestLintCommand:
    def test_default_net_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint report: cpu-gspn (standard)" in out
        assert "deadlock-free by Commoner's condition" in out
        assert "structurally bounded" in out

    def test_strict_promotes_warnings_to_failure(self, capsys):
        # cpu-gspn carries a PN002 (P6 is not invariant-coverable)
        assert main(["lint", "--strict"]) == 1
        assert "PN002" in capsys.readouterr().out

    def test_deadlock_net_reports_the_siphon(self, capsys):
        assert main(["lint", "--net", "deadlock"]) == 0
        out = capsys.readouterr().out
        assert "PN004" in out
        assert "{lockA, lockB, p_working, q_working}" in out

    def test_deep_level_explores(self, capsys):
        assert main(["lint", "--net", "mm1k", "--level", "deep"]) == 0
        out = capsys.readouterr().out
        assert "state space explored completely" in out

    def test_max_markings_requires_deep(self, capsys):
        assert main(["lint", "--net", "mm1k", "--max-markings", "10"]) == 2
        assert "--level deep" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_markings_must_be_positive(self, value, capsys):
        # the service's rule for the same key (repro.sweep.spec.optional_int)
        assert main([
            "lint", "--net", "mm1k", "--level", "deep", "--max-markings", value,
        ]) == 2
        assert f"--max-markings must be >= 1, got {value}" in (
            capsys.readouterr().err
        )

    def test_unknown_net_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--net", "nope"])


class TestQueryFlagScoping:
    """Ops without a model spec reject the model flags they do not read,
    before any connection is made."""

    @pytest.mark.parametrize("op, flags, first", [
        ("lint", ["--model", "phase-type", "--buffer", "3", "--stages", "9"],
         "--model"),
        ("lint", ["--net", "mm1k", "--buffer", "3"], "--buffer"),
        ("lint", ["--param", "SR=2"], "--param"),
        ("lint", ["--batched"], "--batched"),
        ("ping", ["--net", "mm1k"], "--net"),
        ("stats", ["--max-markings", "10", "--n-max", "4"], "--max-markings"),
    ])
    def test_unused_model_flag_exits_2(self, op, flags, first, capsys):
        assert main([
            "query", "--connect", "127.0.0.1:9", "--op", op, *flags,
        ]) == 2
        assert f"error: {first} does not apply to --op {op}" in (
            capsys.readouterr().err
        )

    def test_lint_reads_net_and_max_markings(self, capsys):
        # both flags are lint's own: the payload builds, the connection
        # (to a closed port) is what fails
        assert main([
            "query", "--connect", "127.0.0.1:9", "--op", "lint",
            "--net", "mm1k", "--level", "deep", "--max-markings", "10",
            "--timeout", "2",
        ]) == 2
        assert "does not apply" not in capsys.readouterr().err


class TestSweepPreflight:
    def test_doomed_sweep_aborts_with_named_marking(self, capsys):
        assert main([
            "sweep", "--net", "deadlock", "--rate", "p_get1=0.5,1.0",
        ]) == 2
        err = capsys.readouterr().err
        assert "CH001" in err
        assert "p_has_first=1" in err

    def test_no_preflight_runs_anyway(self, capsys):
        assert main([
            "sweep", "--net", "deadlock", "--rate", "p_get1=0.5,1.0",
            "--no-preflight",
        ]) == 0

    def test_distributed_doomed_sweep_aborts_before_fanout(self, capsys):
        assert main([
            "sweep", "--net", "deadlock", "--rate", "p_get1=0.5,1.0",
            "--distributed", "--shards", "2",
        ]) == 2
        assert "CH001" in capsys.readouterr().err


class TestParserChoices:
    """Every ``choices`` list is the one source constant, read through the
    scipy-free route the parser uses."""

    def test_choices_equal_source_constants(self):
        import argparse

        from repro.experiments.paper_experiments import EXPERIMENTS
        from repro.sweep.nets import DEMO_NETS
        from repro.sweep.spec import MODEL_KINDS, REQUEST_OPS
        from repro.verify.lint import LINT_LEVELS

        nets = sorted(DEMO_NETS)
        models = list(MODEL_KINDS)
        expected = {
            ("run", "experiment"): sorted(EXPERIMENTS) + ["all"],
            ("sweep", "model"): models,
            ("sweep", "net"): nets,
            ("lint", "net"): nets,
            ("lint", "level"): list(LINT_LEVELS),
            ("steady", "model"): models,
            ("steady", "net"): nets,
            ("query", "op"): list(REQUEST_OPS),
            ("query", "model"): models,
            ("query", "net"): nets,
            ("query", "level"): list(LINT_LEVELS),
        }
        parser = build_parser()
        (commands,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        found = {
            (command, action.dest): list(action.choices)
            for command, sub in commands.choices.items()
            for action in sub._actions
            if action.choices is not None
        }
        assert found == expected
