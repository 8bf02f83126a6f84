"""CI smoke for the job service: one real server, eight real clients.

Starts ``python -m repro serve`` as a subprocess (fault injection on via
``DOOC_FAULT_SEED``), drives a mixed batch from 8 concurrent clients —
including one over-budget job, one past-deadline job, one preemption
victim, and fault-exposed ordinary jobs — then SIGTERMs the server and
asserts:

* every job ended in a *structured* terminal state (done / rejected /
  deadline-exceeded / cancelled), never a hang or a watchdog stall;
* a preempted victim resumed from the step its last ``job_preempt``
  logged (the newest intact checkpoint its attempt left, ``None`` before
  the first), and at least one preemption found a checkpoint;
* the server exited 0 after the drain wrote its manifest;
* /dev/shm and the scratch tempdir hold no ``dooc-*`` litter.

Exit status: 0 on success, 1 on any violated expectation.

    PYTHONPATH=src python scripts/server_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.server.client import JobClient  # noqa: E402
from repro.server.jobs import JobState  # noqa: E402

BIG = 4 * 2**20  # two of these fill the 8 MiB budget exactly


def start_server(env: dict) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-W", "ignore", "-m", "repro", "serve",
         "--port", "0", "--memory-budget-mb", "8", "--engine-budget-mb",
         "32", "--max-concurrent", "2",
         "--quota", "vip=2,4,4.0", "--quota", "bulk=2,4,1.0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    for _ in range(20):
        line = proc.stdout.readline()
        if not line:
            break
        print(f"[server] {line.rstrip()}")
        m = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if m:
            return proc, f"http://127.0.0.1:{m.group(1)}"
    raise RuntimeError("server never printed its listen address")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONUNBUFFERED="1")
    env.setdefault("DOOC_FAULT_SEED", "29")
    print(f"fault seed: {env['DOOC_FAULT_SEED']}")
    proc, url = start_server(env)
    pump = threading.Thread(
        target=lambda: [print(f"[server] {ln.rstrip()}")
                        for ln in proc.stdout], daemon=True)
    pump.start()
    client = JobClient(url, timeout=60)
    results: dict[int, dict] = {}
    errors: list[str] = []
    heavy_ids: list[str] = []
    lock = threading.Lock()

    def record(i, rec):
        with lock:
            results[i] = rec

    def run_client(i: int) -> None:
        try:
            if i == 0:  # over budget: must be rejected by name
                rec = client.submit({"tenant": "bulk", "kind": "cg",
                                     "n": 64, "parts": 2,
                                     "working_set_bytes": 10**12})
                record(i, rec)
                return
            if i == 1:  # past deadline: supervisor must cancel it
                rec = client.submit({"tenant": "bulk", "kind": "spmv",
                                     "n": 96, "parts": 2,
                                     "iterations": 5000,
                                     "checkpoint_every": 10,
                                     "deadline_s": 1.0})
            elif i in (2, 3):  # heavy bulk pair: preemption victims
                rec = client.submit({"tenant": "bulk", "kind": "spmv",
                                     "n": 96, "parts": 2,
                                     "iterations": 600,
                                     "checkpoint_every": 2,
                                     "working_set_bytes": BIG})
                with lock:
                    heavy_ids.append(rec["id"])
            elif i == 4:  # the heavier tenant that provokes preemption:
                # wait until both victims hold the whole budget, so the
                # vip job cannot fit without suspending one of them.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    with lock:
                        ids = list(heavy_ids)
                    if len(ids) == 2 and all(
                            client.status(j)["state"] == "running"
                            for j in ids):
                        break
                    time.sleep(0.1)
                time.sleep(1.0)  # let them pass a checkpoint boundary
                rec = client.submit({"tenant": "vip", "kind": "jacobi",
                                     "n": 64, "parts": 2, "iterations": 8,
                                     "working_set_bytes": BIG})
            else:  # ordinary fault-exposed jobs across kinds
                kind = ("jacobi", "cg", "lanczos")[i % 3]
                rec = client.submit({"tenant": ("vip", "bulk")[i % 2],
                                     "kind": kind, "n": 64, "parts": 2,
                                     "iterations": 6, "seed": i})
            if rec["state"] == JobState.REJECTED:
                record(i, rec)
                return
            record(i, client.wait_terminal(rec["id"], timeout=240))
        except Exception as exc:  # noqa: BLE001 - reported below
            with lock:
                errors.append(f"client {i}: {exc!r}")

    threads = [threading.Thread(target=run_client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)

    ok = True
    if errors:
        ok = False
        for e in errors:
            print(f"FAIL: {e}")
    for i, rec in sorted(results.items()):
        print(f"client {i}: {rec['id']} -> {rec['state']} "
              f"(attempts={rec.get('attempts')}, "
              f"preemptions={rec.get('preemptions')})")
    expect = {0: JobState.REJECTED, 1: JobState.DEADLINE_EXCEEDED,
              4: JobState.DONE}
    for i, want in expect.items():
        got = results.get(i, {}).get("state")
        if got != want:
            print(f"FAIL: client {i} expected {want}, got {got}")
            ok = False
    for i, rec in results.items():
        if rec.get("state") not in JobState.TERMINAL:
            print(f"FAIL: client {i} job not terminal: {rec}")
            ok = False
        if rec.get("outcome", {}).get("error_type") == "StallError":
            print(f"FAIL: client {i} died as a watchdog stall: {rec}")
            ok = False
    victims = [rec for i, rec in results.items() if i in (2, 3)]
    resumed = [r for r in victims if r.get("preemptions", 0) > 0]
    if not resumed:
        print("FAIL: neither heavy bulk job was preempted")
        ok = False
    # A victim resumes from the newest intact checkpoint its preempted
    # attempt left, logged on its last job_preempt (None: preempted
    # before its first chunk ended, so it starts over).
    checkpointed = 0
    for rec in resumed:
        preempts = [e for e in client.trace(rec["id"])["events"]
                    if e["event"] == "job_preempt"]
        checkpointed += sum(e["checkpoint"] is not None for e in preempts)
        if rec["state"] == JobState.DONE and \
                rec["outcome"].get("restored_from") != preempts[-1][
                    "checkpoint"]:
            print(f"FAIL: preempted job {rec['id']} resumed from "
                  f"{rec['outcome'].get('restored_from')}, not from its "
                  f"newest checkpoint {preempts[-1]['checkpoint']}")
            ok = False
    if resumed and not checkpointed:
        print("FAIL: no preempted job had passed a checkpoint")
        ok = False

    # graceful SIGTERM drain
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=90)
    except subprocess.TimeoutExpired:
        proc.kill()
        print("FAIL: server did not exit within 90 s of SIGTERM")
        return 1
    print(f"server exit code: {rc}")
    if rc != 0:
        ok = False

    litter = [f for f in os.listdir("/dev/shm") if f.startswith("dooc-")]
    if litter:
        print(f"FAIL: /dev/shm litter after drain: {litter}")
        ok = False
    tmp = Path(tempfile.gettempdir())
    dirt = [p.name for p in tmp.iterdir()
            if re.match(rf"dooc-{proc.pid}-", p.name)]
    if dirt:
        print(f"FAIL: scratch litter after drain: {dirt}")
        ok = False

    print("SERVER SMOKE " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
