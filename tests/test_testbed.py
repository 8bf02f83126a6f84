"""Tests for the DES testbed simulation (Tables III/IV machinery).

Full-scale sweeps live in benchmarks/; here we verify mechanics and the
qualitative relations on affordable configurations.
"""

import pytest

from repro.models.testbed import TestbedWorkload
from repro.obs import Tracer, span_union_seconds
from repro.testbed import TestbedParams, TruncatedTraceError, run_testbed_spmv
from repro.util.units import GB


SMALL = TestbedWorkload()  # the real per-node workload; node counts stay small


class TestMechanics:
    def test_single_node_io_bound(self):
        row = run_testbed_spmv(1, "interleaved", seed=0)
        # 0.41 TB through a ~1.45 GB/s client: ~283 s, fully overlapped.
        expected_io = SMALL.bytes_per_node * 4 / (1.45 * GB)
        assert row.time_s == pytest.approx(expected_io, rel=0.15)
        assert row.non_overlapped_fraction < 0.05
        assert row.read_bw_bytes_per_s == pytest.approx(1.45 * GB, rel=0.15)

    def test_single_node_simple_pays_compute(self):
        """Table III row 1: ~13% of the run is multiply time that the
        simple policy does not overlap with reads."""
        row = run_testbed_spmv(1, "simple", seed=0)
        assert 0.05 < row.non_overlapped_fraction < 0.20

    def test_row_fields_consistent(self):
        row = run_testbed_spmv(4, "simple", seed=0)
        assert row.nodes == 4
        assert row.dimension == 100 * 10**6  # 50M x sqrt(4): Table III
        assert row.nnz == pytest.approx(4 * 12.8e9)
        assert row.gflops == pytest.approx(
            2 * row.nnz * 4 / row.time_s / 1e9)
        assert row.cpu_hours_per_iteration == pytest.approx(
            4 * 8 * row.time_s / 4 / 3600)

    def test_interleaved_beats_simple_at_scale(self):
        simple = run_testbed_spmv(9, "simple", seed=0)
        inter = run_testbed_spmv(9, "interleaved", seed=0)
        assert inter.time_s < simple.time_s
        # Paper: 17-28% faster at >= 9 nodes; allow a generous band.
        gain = 1 - inter.time_s / simple.time_s
        assert 0.05 < gain < 0.40

    def test_interleaved_overlaps_more(self):
        simple = run_testbed_spmv(9, "simple", seed=0)
        inter = run_testbed_spmv(9, "interleaved", seed=0)
        assert inter.non_overlapped_fraction < simple.non_overlapped_fraction

    def test_gflops_grow_then_saturate(self):
        """Near-linear to 9 nodes; the aggregate ceiling binds later."""
        g1 = run_testbed_spmv(1, "simple", seed=0).gflops
        g4 = run_testbed_spmv(4, "simple", seed=0).gflops
        g9 = run_testbed_spmv(9, "simple", seed=0).gflops
        assert g4 == pytest.approx(4 * g1, rel=0.25)
        assert g9 == pytest.approx(9 * g1, rel=0.30)

    def test_determinism(self):
        a = run_testbed_spmv(4, "interleaved", seed=7)
        b = run_testbed_spmv(4, "interleaved", seed=7)
        assert a.time_s == b.time_s
        assert a.read_bw_bytes_per_s == b.read_bw_bytes_per_s

    def test_seed_changes_jitter(self):
        a = run_testbed_spmv(4, "simple", seed=1)
        b = run_testbed_spmv(4, "simple", seed=2)
        assert a.time_s != b.time_s

    def test_oversubscribed_run(self):
        """The Fig. 7 star: more data per node, lower CPU-hour cost than
        running the same matrix on proportionally more nodes."""
        star = run_testbed_spmv(1, "interleaved", seed=0, oversubscribe=4)
        spread = run_testbed_spmv(4, "interleaved", seed=0)
        assert star.dimension == spread.dimension
        assert star.nnz == pytest.approx(spread.nnz)
        # Four times the data through one client: ~4x the time...
        assert star.time_s == pytest.approx(4 * 283, rel=0.25)
        # ...but fewer cores burning: cheaper per iteration when the
        # aggregate is not the binding constraint for the small run.
        assert star.cpu_hours_per_iteration < 1.5 * spread.cpu_hours_per_iteration

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            run_testbed_spmv(5, "simple")
        with pytest.raises(ValueError, match="policy"):
            run_testbed_spmv(4, "bogus")
        with pytest.raises(ValueError, match="square"):
            run_testbed_spmv(4, "simple", oversubscribe=3)
        with pytest.raises(ValueError):
            TestbedParams(window=0)
        with pytest.raises(ValueError):
            TestbedParams(jitter_cv0=-1)
        with pytest.raises(ValueError):
            TestbedParams(per_flow_cap_bytes=0)

    def test_jitter_cv_scales_with_nodes(self):
        p = TestbedParams()
        assert p.jitter_cv(36) > p.jitter_cv(1)


class TestOversubscribedSimple:
    def test_simple_policy_oversubscribed(self):
        star = run_testbed_spmv(1, "simple", seed=0, oversubscribe=4)
        assert star.dimension == 100 * 10**6
        assert star.nnz == pytest.approx(4 * 12.8e9)
        # Four blocks' worth of reads through one client.
        assert star.time_s > 4 * 250


class TestCustomWorkload:
    def test_smaller_local_grid(self):
        w = TestbedWorkload(submatrices_per_node=4)  # 2x2 per node
        assert w.local_grid_side == 2
        row = run_testbed_spmv(4, "interleaved", seed=0, workload=w)
        assert row.gflops > 0
        assert row.time_s > 0

    def test_bad_local_grid_rejected(self):
        with pytest.raises(ValueError):
            TestbedWorkload(submatrices_per_node=5)


class TestTimeline:
    """The row's I/O columns are computed from the tracer's events, so a
    timeline that is not the whole run is refused, not tabulated."""

    def test_default_ring_holds_the_run(self):
        tracer = Tracer()
        row = run_testbed_spmv(4, "interleaved", seed=0, tracer=tracer)
        assert tracer.dropped() == {}
        assert row == run_testbed_spmv(4, "interleaved", seed=0)
        io = [span_union_seconds(tracer.events(), node=n, lane="io")
              for n in range(4)]
        assert row.non_overlapped_fraction == pytest.approx(
            1.0 - sum(io) / 4 / row.time_s)

    def test_overflowed_ring_is_a_named_error(self):
        with pytest.raises(TruncatedTraceError,
                           match=r"ring of 8 .*node 0 by \d+") as err:
            run_testbed_spmv(4, "simple", seed=0, tracer=Tracer(capacity=8))
        assert set(err.value.dropped) == {0, 1, 2, 3}
        assert all(n > 0 for n in err.value.dropped.values())

    def test_used_or_disabled_tracer_is_rejected(self):
        used = Tracer()
        used.instant(0, "io", "run", "phase")
        for tracer in (used, Tracer(enabled=False)):
            with pytest.raises(ValueError, match="enabled and empty"):
                run_testbed_spmv(1, "simple", tracer=tracer)
