"""Tests for the Section VI extensions: colocated SSDs and energy."""

import pytest

from repro.cluster.spec import carver_colocated_ssd
from repro.experiments import extensions, run_experiment
from repro.models.energy import PowerModel, hopper_energy, testbed_energy
from repro.models.testbed import TestbedWorkload
from repro.ci.cases import TABLE1_CASES
from repro.testbed import TestbedParams, run_testbed_spmv, simulated_gantt
from repro.util.units import GB


class TestColocatedSpec:
    def test_spec_shape(self):
        spec = carver_colocated_ssd()
        assert spec.io_nodes == 0
        assert spec.node.local_ssd_bytes_per_s == pytest.approx(2 * GB)
        assert spec.peak_storage_bytes_per_s == 0.0

    def test_single_node_reads_at_local_speed(self):
        row = run_testbed_spmv(
            1, "interleaved", seed=0,
            spec=carver_colocated_ssd(compute_nodes=1),
            params=TestbedParams(jitter_cv0=0.0, jitter_cv_per_node=0.0),
        )
        # 0.41 TB at 2 GB/s: ~205 s, vs ~283 s through the shared client.
        assert row.time_s == pytest.approx(0.4096e12 / 2e9, rel=0.1)
        assert row.read_bw_bytes_per_s == pytest.approx(2 * GB, rel=0.1)

    def test_no_plateau(self):
        """Per-node bandwidth is constant: GFlop/s scale linearly."""
        params = TestbedParams(jitter_cv0=0.0, jitter_cv_per_node=0.0)
        g1 = run_testbed_spmv(1, "interleaved", seed=0,
                              spec=carver_colocated_ssd(compute_nodes=1),
                              params=params).gflops
        g9 = run_testbed_spmv(9, "interleaved", seed=0,
                              spec=carver_colocated_ssd(compute_nodes=9),
                              params=params).gflops
        assert g9 == pytest.approx(9 * g1, rel=0.10)

    def test_colocated_beats_shared_everywhere(self):
        rows = extensions.run_colocated(node_counts=(1, 4), seed=0)
        for row in rows:
            assert row.colocated.time_s < row.shared.time_s
        text = extensions.render_colocated(rows)
        assert "VI-A" in text


class TestEnergy:
    def test_testbed_energy_accounting(self):
        row = run_testbed_spmv(4, "interleaved", seed=0)
        sep = testbed_energy(row)
        power = PowerModel()
        expected_watts = 4 * power.compute_node_w + 10 * power.io_node_w
        assert sep.powered_watts == pytest.approx(expected_watts)
        assert sep.kwh == pytest.approx(
            expected_watts * row.time_s / 4 / 3.6e6)

    @pytest.mark.parametrize("iterations", [2, 8])
    def test_per_iteration_figures_do_not_depend_on_run_length(
            self, iterations):
        """Energy and the Gantt crop divide by the run's own iteration
        count (they divided by a literal 4: 2x / 0.5x off here)."""
        four = testbed_energy(run_testbed_spmv(4, "simple", seed=0))
        workload = TestbedWorkload(iterations=iterations)
        row = run_testbed_spmv(4, "simple", seed=0, workload=workload)
        assert row.iterations == iterations
        energy = testbed_energy(row)
        assert energy.seconds == pytest.approx(four.seconds, rel=0.05)
        assert energy.kwh == pytest.approx(four.kwh, rel=0.05)
        header = simulated_gantt(4, "simple", seed=0, width=40,
                                 workload=workload).splitlines()[0]
        assert (f"first {row.time_s / iterations:.0f} s of "
                f"{row.time_s:.0f} s") in header

    def test_colocated_energy_drops_io_fleet(self):
        row = run_testbed_spmv(4, "interleaved", seed=0)
        sep = testbed_energy(row)
        col = testbed_energy(row, colocated=True)
        assert col.powered_watts < sep.powered_watts

    def test_hopper_energy(self):
        e = hopper_energy(TABLE1_CASES[0])
        assert e.powered_watts == pytest.approx(12 * 350)  # ceil(276/24)=12
        assert e.kwh > 0

    def test_power_model_validation(self):
        with pytest.raises(ValueError):
            PowerModel(compute_node_w=0)

    def test_energy_experiment_runs(self):
        cmp_, text = run_experiment("energy", node_counts=(4,), seed=0)
        assert len(cmp_.testbed) == 1
        assert "kWh/iter" in text
