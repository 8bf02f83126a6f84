"""The bench harness: report schema, regression gate, operand cache."""

import json

import numpy as np
import pytest

from repro.bench import (
    SCHEMA,
    Workload,
    check_regression,
    load_report,
    pinned_workloads,
    run_workload,
    write_report,
)
from repro.bench.cli import main as cli_main
from repro.core.opcache import (
    OPERAND_CONTEXT_KEY,
    DecodedOperandCache,
    OperandContext,
    cached_decode,
)

#: every field a workload entry must carry (the documented schema)
WORKLOAD_FIELDS = {
    "config", "workers", "wall_seconds", "tasks", "tasks_per_second",
    "bytes_copied", "bytes_copied_per_task", "opcache", "loads", "spills",
    "io_retries", "task_reexecutions", "io_bytes", "phases",
    "bit_identical", "max_abs_err",
}

PHASE_FIELDS = {"task", "grant_wait", "load", "spill", "fetch_remote",
                "read", "write"}

TINY = Workload("tiny", n=64, k=2, nnz_per_row=4.0, iterations=2,
                n_nodes=1, memory_budget=32 * 2**20)


class TestRunWorkload:
    def test_report_matches_documented_schema(self, tmp_path):
        trace = tmp_path / "tiny.trace.json"
        r = run_workload(TINY, trace_path=trace, repeats=1)
        assert set(r) == WORKLOAD_FIELDS
        assert set(r["phases"]) == PHASE_FIELDS
        assert set(r["opcache"]) == {"hits", "misses", "hit_rate"}
        assert r["config"] == TINY.config()
        assert r["tasks"] > 0 and r["workers"] >= 1
        assert r["wall_seconds"] > 0 and r["tasks_per_second"] > 0
        for counter in ("bytes_copied", "loads", "spills", "io_retries",
                        "task_reexecutions"):
            assert r[counter] >= 0
        assert all(v >= 0 for v in r["phases"].values())
        assert 0.0 <= r["opcache"]["hit_rate"] <= 1.0
        assert r["bit_identical"] is True
        assert r["max_abs_err"] == 0.0
        # The Chrome trace export is valid JSON with events.
        events = json.loads(trace.read_text())
        assert events["traceEvents"]

    def test_pinned_matrix_is_stable(self):
        for quick in (True, False):
            names = [w.name for w in pinned_workloads(quick=quick)]
            assert names == ["in_core", "in_core_process", "out_of_core",
                             "faulty"]
        quick = {w.name: w for w in pinned_workloads(quick=True)}
        assert quick["faulty"].fault_seed == 0
        assert quick["out_of_core"].n_nodes == 2
        assert quick["in_core_process"].worker_plane == "process"
        assert quick["in_core"].worker_plane == "thread"
        # Pinned = calling twice yields identical configs.
        assert ([w.config() for w in pinned_workloads(quick=True)]
                == [w.config() for w in pinned_workloads(quick=True)])


def report_with(name="out_of_core", wall=1.0, copied=0, bit_identical=True,
                mode="quick"):
    return {
        "schema": SCHEMA,
        "tag": "t",
        "mode": mode,
        "workloads": {
            name: {
                "wall_seconds": wall,
                "bytes_copied": copied,
                "bit_identical": bit_identical,
            },
        },
        "totals": {"wall_seconds": wall, "tasks": 1,
                   "tasks_per_second": 1.0, "bytes_copied": copied},
    }


class TestCheckRegression:
    def test_identical_reports_pass(self):
        base = report_with()
        assert check_regression(report_with(), base) == []

    def test_wall_within_tolerance_passes(self):
        assert check_regression(report_with(wall=1.2), report_with(wall=1.0),
                                tolerance_pct=25.0) == []

    def test_wall_regression_fails(self):
        failures = check_regression(report_with(wall=1.5),
                                    report_with(wall=1.0),
                                    tolerance_pct=25.0)
        assert any("wall time regressed" in f for f in failures)

    def test_any_bytes_copied_increase_fails(self):
        failures = check_regression(report_with(copied=1),
                                    report_with(copied=0))
        assert any("bytes_copied increased" in f for f in failures)

    def test_lost_bit_identity_fails(self):
        failures = check_regression(report_with(bit_identical=False),
                                    report_with())
        assert any("bit-identical" in f for f in failures)

    def test_missing_workload_fails(self):
        failures = check_regression(report_with(name="other"), report_with())
        assert any("missing" in f for f in failures)

    def test_mode_mismatch_fails(self):
        failures = check_regression(report_with(mode="quick"),
                                    report_with(mode="full"))
        assert any("mode mismatch" in f for f in failures)


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = write_report(report_with(), tmp_path / "BENCH_t.json")
        assert load_report(path) == report_with()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "dooc-bench/0"}))
        with pytest.raises(ValueError, match="refresh the baseline"):
            load_report(path)


class TestCLICheck:
    def test_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["--check",
                           "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = write_report(report_with(wall=1.0),
                            tmp_path / "BENCH_baseline.json")
        good = write_report(report_with(wall=1.1), tmp_path / "BENCH_ok.json")
        bad = write_report(report_with(wall=9.0, copied=7),
                           tmp_path / "BENCH_bad.json")
        assert cli_main(["--check", "--baseline", str(base),
                           "--candidate", str(good)]) == 0
        assert cli_main(["--check", "--baseline", str(base),
                           "--candidate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err


class TestDecodedOperandCache:
    def test_hit_miss_accounting(self):
        c = DecodedOperandCache(1024)
        assert c.get("a", (0,)) is None
        assert c.put("a", (0,), "v", 100)
        assert c.get("a", (0,)) == "v"
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_lru_eviction_under_budget(self):
        c = DecodedOperandCache(250)
        c.put("a", (0,), "va", 100)
        c.put("b", (0,), "vb", 100)
        c.get("a", (0,))                     # refresh a: b is now LRU
        c.put("c", (0,), "vc", 100)          # must evict b, not a
        assert c.get("b", (0,)) is None
        assert c.get("a", (0,)) == "va"
        assert c.get("c", (0,)) == "vc"
        assert c.evictions == 1
        assert c.in_use <= 250

    def test_oversized_entry_rejected(self):
        c = DecodedOperandCache(100)
        assert not c.put("a", (0,), "v", 101)
        assert len(c) == 0

    def test_stale_generation_misses(self):
        c = DecodedOperandCache(1024)
        c.put("a", (0,), "v", 10)
        assert c.get("a", (1,)) is None      # bumped generation: miss
        assert c.get("a", (0,)) == "v"

    def test_invalidate_drops_all_generations(self):
        c = DecodedOperandCache(1024)
        c.put("a", (0,), "v0", 10)
        c.put("a", (1,), "v1", 10)
        c.put("b", (0,), "w", 10)
        assert c.invalidate("a") == 2
        assert len(c) == 1 and c.get("b", (0,)) == "w"
        assert c.in_use == 10


class TestCachedDecode:
    def test_plain_decode_without_context(self):
        calls = []
        raw = np.arange(4.0)
        out = cached_decode({}, "a", raw, lambda r: calls.append(1) or "d")
        assert out == "d" and calls == [1]

    def test_second_decode_is_a_hit(self):
        cache = DecodedOperandCache(1 << 20)
        meta = {OPERAND_CONTEXT_KEY: OperandContext(cache, {"a": (3,)})}
        calls = []
        raw = np.arange(4.0)
        decode = lambda r: calls.append(1) or "d"  # noqa: E731
        assert cached_decode(meta, "a", raw, decode) == "d"
        assert cached_decode(meta, "a", raw, decode) == "d"
        assert calls == [1]                  # decoded exactly once
        assert cache.hits == 1

    def test_unknown_array_falls_back(self):
        cache = DecodedOperandCache(1 << 20)
        meta = {OPERAND_CONTEXT_KEY: OperandContext(cache, {"a": (0,)})}
        calls = []
        cached_decode(meta, "other", np.arange(2.0),
                      lambda r: calls.append(1) or "d")
        assert calls == [1] and len(cache) == 0
