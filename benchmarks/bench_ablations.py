"""Ablations over the design choices DESIGN.md calls out.

Each ablation switches off one modelled mechanism and reports how the
reproduced Table III/IV behaviour degrades — evidence that the mechanism
(not a tuned constant) carries the corresponding effect in the paper.
"""

import pytest

from repro.testbed import TestbedParams, run_testbed_spmv


@pytest.mark.paper
def bench_ablate_prefetch_window(once):
    """Without the prefetch window (window=1), the interleaved policy
    loses its ability to hide barrier waits behind next-iteration reads."""

    def run():
        base = run_testbed_spmv(16, "interleaved", seed=1)
        no_window = run_testbed_spmv(
            16, "interleaved", seed=1,
            params=TestbedParams(window=1))
        return base, no_window

    base, no_window = once(run)
    print()
    print(f"  window=4: {base.time_s:.0f} s, "
          f"non-overlapped {100 * base.non_overlapped_fraction:.0f}%")
    print(f"  window=1: {no_window.time_s:.0f} s, "
          f"non-overlapped {100 * no_window.non_overlapped_fraction:.0f}%")
    assert no_window.time_s > base.time_s


@pytest.mark.paper
def bench_ablate_gpfs_jitter(once):
    """Without shared-GPFS bandwidth variation, barriers have nothing to
    amplify: the simple policy's non-overlapped fraction collapses toward
    its compute-only floor, far below Table III's 30-36%."""

    def run():
        noisy = run_testbed_spmv(16, "simple", seed=1)
        quiet = run_testbed_spmv(
            16, "simple", seed=1,
            params=TestbedParams(jitter_cv0=0.0, jitter_cv_per_node=0.0))
        return noisy, quiet

    noisy, quiet = once(run)
    print()
    print(f"  jittered GPFS: non-overlapped "
          f"{100 * noisy.non_overlapped_fraction:.0f}% "
          f"(paper: 36%), t={noisy.time_s:.0f} s")
    print(f"  ideal GPFS:    non-overlapped "
          f"{100 * quiet.non_overlapped_fraction:.0f}%, t={quiet.time_s:.0f} s")
    assert quiet.non_overlapped_fraction < noisy.non_overlapped_fraction
    assert quiet.time_s < noisy.time_s


@pytest.mark.paper
def bench_ablate_local_aggregation(once):
    """The interleaved policy's per-node aggregation cuts reduction traffic
    5x; shipping raw intermediates through the receive path is what makes
    the simple policy's reduction phase expensive."""

    def run():
        simple = run_testbed_spmv(25, "simple", seed=1)
        inter = run_testbed_spmv(25, "interleaved", seed=1)
        return simple, inter

    simple, inter = once(run)
    print()
    print(f"  raw intermediates (simple): {simple.time_s:.0f} s")
    print(f"  aggregated partials (interleaved): {inter.time_s:.0f} s")
    assert inter.time_s < simple.time_s


@pytest.mark.paper
def bench_ablate_contention_loss(once):
    """GPFS aggregate degradation under many clients produces the GFlop/s
    plateau's slight decline; without it the plateau is flat-to-rising."""

    def run():
        base = run_testbed_spmv(36, "simple", seed=1)
        ideal = run_testbed_spmv(
            36, "simple", seed=1,
            spec=_spec_without_contention(36))
        return base, ideal

    base, ideal = once(run)
    print()
    print(f"  with contention loss: {base.gflops:.2f} GF/s (paper: 3.15)")
    print(f"  ideal aggregate:      {ideal.gflops:.2f} GF/s")
    assert ideal.gflops > base.gflops


@pytest.mark.paper
def bench_ablate_scheduler_reordering(once, tmp_path):
    """Switching off the local scheduler's data-aware reordering in the
    REAL threaded engine reverts Fig. 5's load counts to the naive plan —
    the contribution's headline mechanism, isolated."""
    import numpy as np

    from repro.core import DOoCEngine
    from repro.spmv.csrfile import serialize_csr
    from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
    from repro.spmv.partition import GridPartition, column_owner
    from repro.spmv.program import build_iterated_spmv

    def run(reorder):
        k, n, iterations = 3, 150, 3
        rng = np.random.default_rng(3)
        p = GridPartition(n, k)
        m = gap_uniform_csr(n, n, choose_gap_parameter(n, 20.0), rng)
        blocks = p.split_matrix(m)
        result = build_iterated_spmv(
            blocks, p.split_vector(rng.normal(size=n)),
            iterations=iterations, n_nodes=k, policy="simple",
            owner=column_owner(k, k))
        a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(
            n_nodes=k, workers=1,
            memory_budget_per_node=int(a_bytes * 1.5) + 3000,
            scratch_dir=tmp_path / str(reorder),
            scheduler_reorder=reorder,
        )
        report = eng.run(result.program, timeout=300)
        return sum(
            c for m in report.metrics.values()
            for a, c in m.get("loads_by_label", {}).items()
            if a.startswith("A_")
        )

    def both():
        return run(True), run(False)

    smart, naive = once(both)
    print()
    print(f"  data-aware reordering: {smart} matrix loads "
          f"(Fig. 5b plan: 21)")
    print(f"  FIFO (naive plan):     {naive} matrix loads "
          f"(Fig. 5a plan: 27)")
    assert smart < naive


def _spec_without_contention(nodes):
    import dataclasses

    from repro.cluster.spec import carver_ssd_testbed

    spec = carver_ssd_testbed(compute_nodes=nodes)
    fs = dataclasses.replace(spec.filesystem, contention_loss_per_client=0.0)
    return dataclasses.replace(spec, filesystem=fs)
