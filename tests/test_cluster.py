"""Tests for hardware specs and the simulated machine."""

import pytest

from repro.cluster import SimCluster, carver_ssd_testbed, hopper
from repro.cluster.spec import (
    ClusterSpec,
    FilesystemSpec,
    InterconnectSpec,
    IONodeSpec,
    NodeSpec,
    SSDSpec,
)
from repro.obs import Tracer, to_chrome, validate_chrome_trace
from repro.sim import Environment
from repro.util import GB
from repro.util.rng import RngTree


class TestSpecs:
    def test_carver_matches_paper_constants(self):
        spec = carver_ssd_testbed()
        assert spec.compute_nodes == 40
        assert spec.io_nodes == 10
        assert spec.node.cores == 8
        # 10 I/O nodes x 2 cards x 1 GB/s = 20 GB/s hardware peak.
        assert spec.peak_storage_bytes_per_s == pytest.approx(20 * GB)
        # Deliverable ~ 18.6 GB/s (93% efficiency, observed 18.5-18.7).
        assert 18.0 * GB < spec.deliverable_storage_bytes_per_s < 19.0 * GB
        # QDR 4X = 32 Gb/s = 4 GB/s per port.
        assert spec.interconnect.port_bytes_per_s == pytest.approx(4 * GB)

    def test_hopper_matches_paper_constants(self):
        spec = hopper()
        assert spec.node.cores == 24
        assert spec.peak_storage_bytes_per_s == 0.0
        assert spec.total_cores == 6384 * 24

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=0, clock_hz=1e9, dram_bytes=1,
                     spmv_flops_per_core=1e9, nic_bytes_per_s=1e9)
        with pytest.raises(ValueError):
            SSDSpec("bad", capacity_bytes=0, read_bytes_per_s=1, write_bytes_per_s=1)
        with pytest.raises(ValueError):
            FilesystemSpec(efficiency=0.0)
        with pytest.raises(ValueError):
            FilesystemSpec(jitter_cv=-0.1)
        with pytest.raises(ValueError):
            InterconnectSpec("bad", port_bytes_per_s=0, latency_s=0)
        card = SSDSpec("ok", capacity_bytes=1, read_bytes_per_s=1, write_bytes_per_s=1)
        with pytest.raises(ValueError):
            IONodeSpec(cards=0, card=card, nic_bytes_per_s=1e9)

    def test_cluster_requires_io_spec_when_io_nodes(self):
        node = NodeSpec("n", cores=1, clock_hz=1e9, dram_bytes=1,
                        spmv_flops_per_core=1e9, nic_bytes_per_s=1e9)
        ic = InterconnectSpec("ic", port_bytes_per_s=1e9, latency_s=0.0)
        with pytest.raises(ValueError):
            ClusterSpec("c", compute_nodes=1, node=node, interconnect=ic, io_nodes=2)

    def test_io_node_nic_caps_read_bw(self):
        card = SSDSpec("fast", capacity_bytes=GB, read_bytes_per_s=10 * GB,
                       write_bytes_per_s=GB)
        ion = IONodeSpec(cards=2, card=card, nic_bytes_per_s=4 * GB)
        assert ion.read_bytes_per_s == pytest.approx(4 * GB)


def make_cluster(n=2, jitter=0.0):
    env = Environment()
    spec = carver_ssd_testbed()
    spec = ClusterSpec(
        name=spec.name,
        compute_nodes=spec.compute_nodes,
        node=spec.node,
        interconnect=spec.interconnect,
        io_nodes=spec.io_nodes,
        io_node=spec.io_node,
        filesystem=FilesystemSpec(jitter_cv=jitter, open_latency_s=0.0),
    )
    cluster = SimCluster(env, spec, rng=RngTree(1), nodes_in_use=n,
                         tracer=Tracer())
    return env, cluster


class TestSimCluster:
    def test_single_read_capped_by_client_bandwidth(self):
        env, cluster = make_cluster(n=1)
        ev = cluster.fs_read(0, 1.45 * GB)
        env.run(ev)
        # One client at its 1.45 GB/s cap: 1.45 GB takes ~1 s.
        assert env.now == pytest.approx(1.0, rel=1e-6)
        assert cluster.nodes[0].bytes_read == pytest.approx(1.45 * GB)

    def test_many_readers_hit_aggregate_ceiling(self):
        env, cluster = make_cluster(n=25)
        events = [cluster.fs_read(i, 1.0 * GB) for i in range(25)]
        env.run(env.all_of(events))
        # 25 clients want 25 x 1.45 = 36 GB/s; the contention-degraded
        # aggregate binds and is shared fairly.
        deliverable = (cluster.spec.peak_storage_bytes_per_s
                       * cluster.spec.filesystem.aggregate_efficiency(25))
        expected = 25 * GB / deliverable
        assert env.now == pytest.approx(expected, rel=1e-6)

    def test_few_readers_below_ceiling_scale_linearly(self):
        env, cluster = make_cluster(n=4)
        events = [cluster.fs_read(i, 1.45 * GB) for i in range(4)]
        env.run(env.all_of(events))
        assert env.now == pytest.approx(1.0, rel=1e-6)  # no contention

    def test_jitter_changes_duration_deterministically(self):
        env1, c1 = make_cluster(n=1, jitter=0.3)
        ev = c1.fs_read(0, GB)
        env1.run(ev)
        t1 = env1.now
        env2, c2 = make_cluster(n=1, jitter=0.3)
        ev = c2.fs_read(0, GB)
        env2.run(ev)
        assert t1 == pytest.approx(env2.now)  # same seed, same jitter
        assert t1 != pytest.approx(GB / c1.spec.filesystem.client_bytes_per_s)

    def test_jitter_mean_is_approximately_unbiased(self):
        env, cluster = make_cluster(n=1, jitter=0.2)
        node = cluster.nodes[0]
        factors = [cluster._jitter(node) for _ in range(4000)]
        assert sum(factors) / len(factors) == pytest.approx(1.0, abs=0.02)

    def test_send_uses_fabric_bandwidth(self):
        env, cluster = make_cluster(n=2)
        ev = cluster.send(0, 1, 4 * GB)
        env.run(ev)
        assert env.now == pytest.approx(1.0, rel=1e-6)  # 4 GB at 4 GB/s
        assert cluster.nodes[0].bytes_sent == pytest.approx(4 * GB)

    def test_self_send_is_free(self):
        env, cluster = make_cluster(n=2)
        ev = cluster.send(1, 1, GB)
        env.run()
        assert ev.processed and env.now == 0.0

    def test_incast_shares_receiver_nic(self):
        env, cluster = make_cluster(n=5)
        events = [cluster.send(i, 0, 1 * GB) for i in range(1, 5)]
        env.run(env.all_of(events))
        # 4 senders into one 4 GB/s rx: 1 GB/s each -> 1 s... but each tx is
        # 4 GB/s so rx is the bottleneck: 4 GB total / 4 GB/s = 1 s.
        assert env.now == pytest.approx(1.0, rel=1e-6)

    def test_compute_occupies_cores(self):
        env, cluster = make_cluster(n=1)
        rate = cluster.spec.node.spmv_flops_per_core
        done = []

        def work(i):
            yield env.process(cluster.compute(0, rate))  # 1 core-second
            done.append((i, env.now))

        for i in range(16):
            env.process(work(i))
        env.run()
        # 16 one-second tasks on 8 cores: two waves.
        assert [t for _, t in done] == [1.0] * 8 + [2.0] * 8

    def test_compute_multicore_speedup(self):
        env, cluster = make_cluster(n=1)
        rate = cluster.spec.node.spmv_flops_per_core

        def work():
            yield env.process(cluster.compute(0, 8 * rate, cores=8))

        p = env.process(work())
        env.run(p)
        assert env.now == pytest.approx(1.0)  # node-wide: 8 cores in 1 s

    def test_compute_core_validation(self):
        env, cluster = make_cluster(n=1)
        with pytest.raises(ValueError):
            env.run(env.process(cluster.compute(0, 1e9, cores=9)))

    def test_fs_read_without_storage_raises(self):
        env = Environment()
        cluster = SimCluster(env, hopper(), nodes_in_use=1)
        with pytest.raises(RuntimeError):
            cluster.fs_read(0, GB)

    def test_trace_records_io_and_compute(self):
        """Each activity lands on the tracer as one span of the engine's
        vocabulary: node i is pid i, the lane is the activity kind."""
        env, cluster = make_cluster(n=4)

        def run():
            yield cluster.fs_read(3, 1.45 * GB, label="blk")
            yield cluster.fs_read(3, GB, label="prefetch")
            yield env.process(cluster.compute(0, 1e9, label="spmv"))
            yield cluster.send(1, 2, GB, label="partial")

        env.run(env.process(run()))
        events = cluster.tracer.events()
        assert all(e.ph == "X" for e in events)
        assert [e.ts for e in events] == sorted(e.ts for e in events)
        by_kind = {(e.cat, e.name, e.lane): e for e in events}
        assert len(by_kind) == len(events) == 5
        load = by_kind[("storage", "load", "io")]
        assert (load.node, load.ts, load.args) == (3, 0.0, {"label": "blk"})
        assert load.dur == pytest.approx(1.0)
        prefetch = by_kind[("sched", "prefetch", "io")]
        assert prefetch.node == 3 and prefetch.ts == pytest.approx(1.0)
        task = by_kind[("task", "task", "compute")]
        assert task.node == 0 and task.args == {"label": "spmv"}
        sent = by_kind[("storage", "fetch_remote", "send")]
        received = by_kind[("storage", "fetch_remote", "recv")]
        assert (sent.node, received.node) == (1, 2)
        assert (sent.ts, sent.dur) == (received.ts, received.dur)
        validate_chrome_trace(to_chrome(events))  # raises on a bad shape

    def test_nodes_in_use_bounds(self):
        env = Environment()
        with pytest.raises(ValueError):
            SimCluster(env, carver_ssd_testbed(), nodes_in_use=41)

    def test_open_latency_defers_flow(self):
        env = Environment()
        spec = carver_ssd_testbed()
        cluster = SimCluster(env, spec, nodes_in_use=1, rng=RngTree(0))
        # Zero out jitter influence by measuring relative to latency.
        ev = cluster.fs_read(0, 0.0)
        env.run()
        assert ev.processed
        assert env.now >= spec.filesystem.open_latency_s
