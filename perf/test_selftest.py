"""Self-test of the benchmark itself, on tiny shapes (under 30 s).

    python3 perf/run.py --selftest      or      pytest perf/

Not part of the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import re
import shutil
import sys
import traceback

import run

TINY = ("ooc_zlib", "solver_loop", "incore_proc", "server_mix")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declaration_within_limits():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_every_declared_metric_is_emitted_once_with_its_unit():
    spec = run.load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    res = run.run_one(spec, "incore_proc", 1, 0.0, False, tiny=True)
    assert res["correct"] and res["failed"] == 0, res["report"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]
    import probes  # once for all four: they do not depend on the workload
    scratch = run.TMP / "selftest-probes"
    try:
        probe_values, _ = probes.run_probes(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    computed = set()
    for name in TINY:
        res = run.run_one(spec, name, 1, 0.0, True, tiny=True,
                          probe_values=probe_values)
        assert res["correct"] and res["failed"] == 0, res["report"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == layers
        computed |= res["computed"]
    assert not set(layers) - computed, (
        f"declared but computed by no workload: {set(layers) - computed}")


def test_flipped_bit_is_counted_as_failed():
    run.configure_process()
    import bench
    import workloads

    for name in ("incore_proc", "solver_loop", "server_mix"):
        w = workloads.make_tiny(name)
        prepare = w.prepare

        def prepare_then_corrupt(seed, w=w, prepare=prepare):
            prepare(seed)
            w.corrupt_reference()

        w.prepare = prepare_then_corrupt
        scratch = run.TMP / f"selftest-{name}"
        try:
            res = bench.measure_workload(w, seed=1, seconds=0.0, trace=False,
                                         scratch=scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert res["attempted"] > 0 and res["failed"] == res["attempted"], (
            name, res["attempted"], res["failed"])
        assert res["problems"], name


def test_seeded_program_matches_the_library_builder():
    run.configure_process()
    import numpy as np
    import workloads
    from repro.spmv.partition import GridPartition
    from repro.spmv.program import build_iterated_spmv

    p = GridPartition(96, 3)
    rng = np.random.default_rng(5)
    blocks = {uv: workloads.random_block(32, 32, 4, rng, 0.1)
              for uv in p.coords()}
    x0 = p.split_vector(rng.uniform(-1, 1, 96))
    for policy in ("simple", "interleaved"):
        want = build_iterated_spmv(blocks, x0, 3, n_nodes=1, policy=policy)
        got = build_iterated_spmv(blocks, x0, 3, n_nodes=1, policy=policy)
        scratch = run.TMP / "selftest-builder"
        try:
            workloads.seed_matrix_files(got.program, scratch, "zlib", 1)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert got.program.tasks == want.program.tasks
        assert got.program.arrays == want.program.arrays
        assert got.program.initial_home == want.program.initial_home
        assert set(got.program.initial_data) == set(want.program.initial_data)
        for name, data in got.program.initial_data.items():
            if name.startswith("A_"):
                assert data is None  # now a file, no longer held in memory
            else:
                assert np.array_equal(data, want.program.initial_data[name])
        assert got.final_vector_names() == want.final_vector_names()


def test_aa_verdict_has_no_direction():
    run.configure_process()
    slow, fast = [1.70, 1.65, 1.75], [0.97, 0.96, 0.98]
    assert run.aa_verdict(slow, fast, 0.25)["verdict"] == "DISAGREE"
    assert run.aa_verdict(fast, slow, 0.25)["verdict"] == "DISAGREE"
    wide = [1.0, 1.5, 2.0, 1.2]
    assert run.aa_verdict(wide, wide, 0.25)["verdict"] == "UNRESOLVED"
    assert run.aa_verdict(fast, fast, 0.25)["verdict"] == "ok"


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok    {name}")
            except Exception:  # noqa: BLE001 - report and go on
                failed += 1
                traceback.print_exc(file=sys.stdout)
                print(f"FAIL  {name}")
    return 1 if failed else 0
