"""The HTTP surface: routing, status codes, long-poll, drain."""

import json
import threading
import time
import urllib.request

import pytest

from repro.server.client import JobClient, ServerError
from repro.server.http import DoocJobServer
from repro.server.jobs import JobSpec, JobState
from repro.server.manager import ServerConfig


@pytest.fixture
def server(tmp_path):
    srv = DoocJobServer(("127.0.0.1", 0), ServerConfig(
        memory_budget=8 * 2**20,
        max_concurrent=2,
        engine={"memory_budget_per_node": 32 * 2**20},
        work_dir=tmp_path / "jobs",
    )).start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.drain(timeout=15)
        srv.server_close()
        thread.join(timeout=10)


@pytest.fixture
def client(server):
    return JobClient(f"http://127.0.0.1:{server.port}")


def _spec(**kw):
    kw.setdefault("tenant", "t")
    kw.setdefault("kind", "jacobi")
    kw.setdefault("n", 64)
    kw.setdefault("parts", 2)
    kw.setdefault("iterations", 6)
    return JobSpec(**kw)


class TestRoutes:
    def test_healthz_and_stats(self, client):
        assert client.healthy()
        stats = client.stats()
        assert stats["memory_budget"] == 8 * 2**20
        assert "metrics" in stats

    def test_submit_longpoll_trace(self, client):
        rec = client.submit(_spec())
        assert rec["state"] in ("queued", "running")
        final = client.status(rec["id"], wait=60)
        assert final["state"] == "done"
        assert final["outcome"]["digest"]
        assert final["spec"]["kind"] == "jacobi"  # verbose record
        trace = client.trace(rec["id"])
        assert [e["event"] for e in trace["events"]] == \
            ["job_submit", "job_start", "job_done"]

    def test_rejection_is_429_with_reason(self, server, client):
        rec = client.submit(_spec(working_set_bytes=10**12))
        assert rec["state"] == "rejected"
        assert "can never be scheduled" in rec["outcome"]["reason"]
        # and the transport-level code really is 429
        body = json.dumps(_spec(working_set_bytes=10**12).to_json())
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/jobs",
            data=body.encode(), headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        err.value.close()
        assert err.value.code == 429

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/jobs", {"tenant": "t", "kind": "cg",
                                              "bogus_field": 1})
        assert err.value.status == 400
        assert "bogus_field" in err.value.payload["error"]

    def test_nan_body_is_400_and_queues_nothing(self, server, client):
        before = client.stats()
        # json.loads takes a bare NaN; the spec must not
        body = ('{"tenant": "t", "kind": "cg", "n": 16, "parts": 2, '
                '"nnz_per_row": NaN}')
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/jobs", data=body.encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "nnz_per_row" in json.loads(err.value.read())["error"]
        err.value.close()
        after = client.stats()
        assert client._request("GET", "/jobs") == []
        assert (after["queue_depth"], after["metrics"]) == \
            (before["queue_depth"], before["metrics"])

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client.status("ghost")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_cancel_running_then_conflict(self, client):
        rec = client.submit(_spec(kind="spmv", n=96, iterations=400,
                                  checkpoint_every=2))
        cancelled = client.cancel(rec["id"])
        assert cancelled["id"] == rec["id"]
        final = client.wait_terminal(rec["id"], timeout=30)
        assert final["state"] == "cancelled"
        with pytest.raises(ServerError) as err:
            client.cancel(rec["id"])
        assert err.value.status == 409

    def test_jobs_listing(self, client):
        a = client.submit(_spec())
        b = client.submit(_spec(working_set_bytes=10**12))
        ids = {r["id"] for r in client.jobs()}
        assert {a["id"], b["id"]} <= ids

    def test_drain_endpoint(self, server, client):
        rec = client.submit(_spec(kind="spmv", n=96, iterations=400,
                                  checkpoint_every=2))
        assert client.drain()["draining"] is True
        # the server drains in the background; wait for the manifest
        deadline = threading.Event()
        for _ in range(200):
            if server.drain_manifest is not None:
                break
            deadline.wait(0.1)
        assert server.drain_manifest is not None
        assert server.drain_manifest["undrained"] == []
        assert server.manager.get(rec["id"]).state in (
            JobState.PREEMPTED, JobState.DONE)


class TestShutdown:
    def test_idle_server_stops_without_waiting_out_a_poll(self, tmp_path):
        """``shutdown`` wakes the accept loop itself: an idle server stops
        at once, not at its next poll (``serve_forever`` has none)."""
        for i in range(3):
            srv = DoocJobServer(("127.0.0.1", 0), ServerConfig(
                work_dir=tmp_path / f"jobs{i}"))
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            try:
                # a served request: the loop is back in its wait
                assert JobClient(f"http://127.0.0.1:{srv.port}").healthy()
                start = time.perf_counter()
                srv.shutdown()
                stopped = time.perf_counter() - start
                thread.join(timeout=5)
                srv.shutdown()  # a second stop returns at once
            finally:
                srv.server_close()
            assert not thread.is_alive()
            assert stopped < 0.05
