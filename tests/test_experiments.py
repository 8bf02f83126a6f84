"""Tests for the experiment runners and report rendering."""

import pathlib

import pytest

from repro.ci.cases import TABLE1_CASES
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import fig6, fig7, table1, table2, table34
from repro.experiments.report import ascii_chart, format_table, ratio


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], ["xyz", 0.0001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_ratio(self):
        assert ratio(2.0, 1.0) == "2.00x"
        assert ratio(0.0, 0.0) == "n/a"
        assert ratio(1.0, 0.0) == "inf"

    def test_ascii_chart_places_markers(self):
        chart = ascii_chart({"a": [(0, 1), (10, 100)]}, logy=True,
                            width=20, height=5)
        assert chart.count("a") >= 3  # 2 points + legend

    def test_ascii_chart_rejects_nonpositive_log(self):
        with pytest.raises(ValueError):
            ascii_chart({"a": [(0, 0.0)]}, logy=True)

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "table1", "table2", "table3", "table4",
            "fig34", "fig5", "fig6", "fig7", "colocated", "energy",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table9")

    def test_fig1_runs(self):
        results, text = run_experiment("fig1")
        assert "latency" in text
        assert len(results) == 5


class TestTable1:
    def test_small_run(self):
        rows = table1.run(cases=TABLE1_CASES[:1], nnz_samples=5, seed=0)
        [row] = rows
        assert row.dimension == pytest.approx(4.66e7, rel=0.005)
        assert row.nnz_estimate > row.dimension  # > 1 nonzero per row
        text = table1.render(rows)
        assert "test276" in text

    def test_deterministic(self):
        a = table1.run(cases=TABLE1_CASES[:1], nnz_samples=3, seed=5)
        b = table1.run(cases=TABLE1_CASES[:1], nnz_samples=3, seed=5)
        assert a[0].nnz_estimate == b[0].nnz_estimate


class TestTable2:
    def test_rows_and_render(self):
        rows = table2.run()
        assert len(rows) == 4
        assert all(r.t_total_s == pytest.approx(r.published_t_total_s, rel=0.3)
                   for r in rows)
        text = table2.render(rows)
        assert "test18336" in text and "86%" in text


class TestTable34:
    def test_small_sweep_simple(self):
        rows = table34.run("simple", node_counts=(1, 4), seed=0)
        assert [r.measured.nodes for r in rows] == [1, 4]
        text = table34.render(rows, "simple")
        assert "Table III" in text

    def test_small_sweep_interleaved(self):
        rows = table34.run("interleaved", node_counts=(1,), seed=0)
        text = table34.render(rows, "interleaved")
        assert "Table IV" in text
        # 1-node interleaved: fully overlapped, near the paper's 0%.
        assert rows[0].measured.non_overlapped_fraction < 0.05

    @pytest.mark.parametrize("policy, section",
                             [("simple", "table3"), ("interleaved", "table4")])
    def test_committed_rows_are_what_the_code_prints(self, policy, section):
        """The first three data rows of the committed table, as text."""
        committed = (pathlib.Path(__file__).resolve().parents[1]
                     / "EXPERIMENTS.md").read_text()
        block = committed.split(f"## {section}\n")[1].split("```")[1]
        text = table34.render(
            table34.run(policy, node_counts=(1, 4, 9), seed=1), policy)
        # title, header, rule, then the rows
        assert text.splitlines()[3:] == block.strip().splitlines()[3:6]


class TestFig6:
    def test_relative_times_exceed_one(self):
        points = fig6.run(node_counts=(1,), seed=0)
        assert len(points) == 2  # both policies
        for p in points:
            # A single node cannot reach 20 GB/s: far above the bound.
            assert p.relative_time > 5
            assert p.published_relative_time > 5
        text = fig6.render(points)
        assert "t/opt" in text


class TestFig7:
    def test_crossover_shape(self):
        result = fig7.run(node_counts=(9,), seed=0)
        # 9-node testbed cost comparable to (slightly below) test1128.
        (dim, cpuh) = result.testbed_points[0]
        hopper_1128 = result.hopper_points[1][1]
        assert cpuh == pytest.approx(hopper_1128, rel=0.35)
        # The star undercuts the comparable Hopper run (the paper's claim).
        assert result.star_saving_vs_hopper > 0.15
        text = fig7.render(result)
        assert "star" in text


class TestFig34:
    def test_command_and_dependency_counts(self):
        from repro.experiments import fig34

        result = fig34.run(k=3, iterations=2)
        # The paper: "9 sub-matrix sub-vector multiplications and 6
        # sub-vector additions are necessary at each iteration".
        assert result.multiplies_per_iteration == 9
        assert result.pairwise_additions_per_iteration == 6
        # Every mult of iteration 2 depends on exactly one sum of iter 1.
        for dst, srcs in result.dag.preds.items():
            if dst.startswith("mult_2_"):
                assert len(srcs) == 1 and next(iter(srcs)).startswith("sum_1_")
        assert result.dag.critical_path_length() == 4
        text = fig34.render(result)
        assert "Fig. 3" in text and "Fig. 4" in text

    def test_registry_integration(self):
        _, text = run_experiment("fig34")
        assert "9 multiplies" in text
