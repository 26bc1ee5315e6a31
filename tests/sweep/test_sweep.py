"""The repro.sweep subsystem: grids, runner, results, CLI wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.petri.ctmc_export import ctmc_from_net
from repro.sweep import (
    SweepGrid,
    SweepResult,
    SweepRunner,
    build_cpu_gspn_net,
    build_mm1k_net,
    parse_axis,
)
from tests.markov.reference_solvers import sparse_steady_state


class TestGrid:
    def test_linspace_spec(self):
        name, values = parse_axis("AR=0.5:2.0:4")
        assert name == "AR"
        assert values == pytest.approx((0.5, 1.0, 1.5, 2.0))

    def test_log_spec(self):
        _, values = parse_axis("mu=0.1:10:3:log")
        assert values == pytest.approx((0.1, 1.0, 10.0))

    def test_list_and_single_specs(self):
        assert parse_axis("x=0.5,1,2")[1] == (0.5, 1.0, 2.0)
        assert parse_axis("x=1.5")[1] == (1.5,)

    @pytest.mark.parametrize(
        "bad", ["", "AR", "AR=", "=1", "AR=a:b:c", "AR=1:2", "AR=1:2:0"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_axis(bad)

    @pytest.mark.parametrize(
        "bad, needle",
        [
            # the message must name the axis and the offending token
            ("AR=1:2", r"axis 'AR'.*'1:2'.*start:stop:num"),
            ("AR=1:2:3:4:5", r"axis 'AR'.*start:stop:num"),
            ("mu=a:2:5", r"axis 'mu'.*start 'a'"),
            ("mu=1:b:5", r"axis 'mu'.*stop 'b'"),
            ("T=1:2:x", r"axis 'T'.*point count 'x'"),
            ("T=1:2:0", r"axis 'T'.*point count must be >= 1, got 0"),
            ("D=0.5,oops,2", r"axis 'D'.*list value 'oops'"),
            ("D=abc", r"axis 'D'.*'abc'"),
            ("AR", r"NAME=VALUES.*'AR'"),
        ],
    )
    def test_bad_specs_name_token_and_axis(self, bad, needle):
        with pytest.raises(ValueError, match=needle):
            parse_axis(bad)

    def test_duplicate_axis_message_names_axis(self):
        with pytest.raises(ValueError, match="duplicate axis 'AR'"):
            SweepGrid.from_specs(["AR=1", "AR=2"])

    def test_cartesian_order_last_axis_fastest(self):
        grid = SweepGrid({"a": [1.0, 2.0], "b": [10.0, 20.0]})
        assert grid.points() == [
            {"a": 1.0, "b": 10.0},
            {"a": 1.0, "b": 20.0},
            {"a": 2.0, "b": 10.0},
            {"a": 2.0, "b": 20.0},
        ]
        assert len(grid) == 4

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepGrid.from_specs(["a=1", "a=2"])

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            SweepGrid({"a": [1.0, 0.0]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid({})


class TestRunnerCorrectness:
    def test_serial_matches_pointwise_reduction(self):
        grid = SweepGrid({"arrive": [0.3, 0.8, 1.4], "serve": [2.0, 3.0]})
        runner = SweepRunner(
            build_mm1k_net(K=8), ["mean_tokens:queue", "throughput:serve"]
        )
        result = runner.run(grid)
        for row in result.rows():
            fresh = ctmc_from_net(
                build_mm1k_net(lam=row["arrive"], mu=row["serve"], K=8)
            )
            assert row["mean_tokens:queue"] == pytest.approx(
                fresh.mean_tokens("queue"), rel=1e-9
            )
            assert row["throughput:serve"] == pytest.approx(
                fresh.throughput("serve"), rel=1e-9
            )

    @settings(max_examples=15, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=0.05, max_value=5.0),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_sweep_equals_pointwise(self, rates):
        """SweepRunner over arbitrary rate lists == independent reductions."""
        runner = SweepRunner(build_mm1k_net(K=5), ["mean_tokens:queue"])
        result = runner.run(SweepGrid({"arrive": rates}))
        want = [
            ctmc_from_net(build_mm1k_net(lam=r, K=5)).mean_tokens("queue")
            for r in rates
        ]
        np.testing.assert_allclose(
            result.column("mean_tokens:queue"), want, rtol=1e-9, atol=1e-12
        )

    def test_parallel_matches_serial(self):
        grid = SweepGrid({"arrive": [0.3, 0.7, 1.1, 1.5]})
        metrics = ["mean_tokens:queue", "probability_positive:queue"]
        serial = SweepRunner(build_mm1k_net(), metrics).run(grid)
        parallel = SweepRunner(build_mm1k_net(), metrics, n_workers=2).run(grid)
        for m in metrics:
            np.testing.assert_allclose(
                parallel.column(m), serial.column(m), rtol=1e-12
            )
        assert parallel.points == serial.points

    def test_unpicklable_template_falls_back_to_serial(self, caplog):
        """A metric closure cannot cross process boundaries: the runner
        must log one warning and solve serially, never crash the pool."""
        grid = SweepGrid({"arrive": [0.4, 0.9, 1.3]})
        unpicklable = lambda solution: solution.mean_tokens("queue")  # noqa: E731
        runner = SweepRunner(build_mm1k_net(), [unpicklable], n_workers=2)
        with caplog.at_level("WARNING", logger="repro.sweep.runner"):
            result = runner.run(grid)
        assert "not picklable" in caplog.text and "serially" in caplog.text
        want = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"]).run(grid)
        np.testing.assert_allclose(
            result.column(result.metric_names[0]),
            want.column("mean_tokens:queue"),
            rtol=1e-12,
        )

    def test_callable_metric(self):
        def queue_mass(solution):
            return solution.probability_positive("queue")

        runner = SweepRunner(build_mm1k_net(), [queue_mass])
        result = runner.run(SweepGrid({"arrive": [0.5, 1.0]}))
        assert result.metric_names == ["queue_mass"]
        assert np.all(result.column("queue_mass") > 0.0)

    def test_cpu_gspn_sweep_physics(self):
        """Sanity on the paper's net: more load => less standby."""
        runner = SweepRunner(build_cpu_gspn_net(), ["mean_tokens:Stand_By"])
        result = runner.run(SweepGrid({"AR": [0.5, 2.0, 6.0]}))
        standby = result.column("mean_tokens:Stand_By")
        assert standby[0] > standby[1] > standby[2]

    def test_sweep_backends_agree(self):
        """The sweep's rows (dense LU) agree with the reference sparse LU."""
        grid = SweepGrid({"arrive": [0.4, 0.9, 1.6]})
        runner = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"])
        rows = runner.run(grid).column("mean_tokens:queue")
        for value, row in zip((0.4, 0.9, 1.6), rows):
            solution = runner.solver.solve({"arrive": value})
            solution._pi = sparse_steady_state(solution.ctmc.Q_sparse)[0]
            assert row == pytest.approx(
                solution.mean_tokens("queue"), rel=1e-12, abs=0
            )


class TestRunnerValidation:
    def test_unknown_axis_rejected_before_solving(self):
        runner = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"])
        with pytest.raises(KeyError, match="bogus"):
            runner.run(SweepGrid({"bogus": [1.0]}))

    def test_bad_metric_spec_rejected(self):
        runner = SweepRunner(build_mm1k_net(), ["tokens:queue"])
        with pytest.raises(ValueError, match="'tokens:queue'.*supports"):
            runner.run(SweepGrid({"arrive": [1.0]}))

    def test_no_metrics_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            SweepRunner(build_mm1k_net(), [])

    def test_empty_point_list_rejected(self):
        runner = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"])
        with pytest.raises(ValueError, match="empty"):
            runner.run([])


class TestResults:
    @staticmethod
    def small_result() -> SweepResult:
        return SweepResult(
            axis_names=["lam"],
            metric_names=["m"],
            points=[{"lam": 0.5}, {"lam": 1.0}, {"lam": 2.0}],
            values=[{"m": 3.0}, {"m": 1.0}, {"m": 2.0}],
        )

    def test_column_lookup(self):
        r = self.small_result()
        assert r.column("lam") == pytest.approx([0.5, 1.0, 2.0])
        assert r.column("m") == pytest.approx([3.0, 1.0, 2.0])
        with pytest.raises(KeyError):
            r.column("nope")

    def test_best_min_and_max(self):
        r = self.small_result()
        assert r.best("m")["lam"] == 1.0
        assert r.best("m", minimize=False)["lam"] == 0.5

    def test_render_contains_headers_and_rows(self):
        text = self.small_result().render(title="t")
        assert "lam" in text and "m" in text and "0.5" in text

    def test_csv_roundtrip(self, tmp_path):
        r = self.small_result()
        path = r.write_csv(tmp_path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lam,m"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 3.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(["a"], ["m"], [{"a": 1.0}], [])


class TestCLI:
    def test_sweep_subcommand_runs(self, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "sweep",
                "--net",
                "mm1k",
                "--rate",
                "arrive=0.4:1.2:3",
                "--metric",
                "mean_tokens:queue",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean_tokens:queue" in out
        assert "graph explored once" in out

    def test_sweep_subcommand_writes_csv(self, capsys, tmp_path):
        from repro.experiments.cli import main

        rc = main(
            ["sweep", "--rate", "AR=0.5,1.0", "--csv-dir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_phase_type_model_subcommand_runs(self, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "sweep",
                "--model",
                "phase-type",
                "--stages",
                "4",
                "--param",
                "D=0.05",
                "--rate",
                "T=0.2,0.8",
                "--metric",
                "fraction:standby",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fraction:standby" in out
        assert "structure built once" in out

    @pytest.mark.parametrize(
        "argv, needle",
        [
            # flags the selected model would otherwise silently ignore
            (
                ["sweep", "--model", "gspn", "--param", "SR=20",
                 "--rate", "AR=1"],
                "--param does not apply",
            ),
            (
                ["sweep", "--model", "phase-type", "--net", "mm1k",
                 "--rate", "T=0.5"],
                "--net does not apply",
            ),
            (
                ["sweep", "--model", "renewal", "--stages", "8",
                 "--rate", "T=0.5"],
                "--stages does not apply",
            ),
        ],
    )
    def test_inapplicable_flags_rejected(self, capsys, argv, needle):
        from repro.experiments.cli import main

        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert needle in err
