#!/usr/bin/env python
"""End-to-end smoke test of the serving daemon (``make serve-smoke``).

Exercises the full robustness surface against a real subprocess, speaking
the versioned API exclusively through :class:`repro.api.ServeClient` (the
only raw sockets here probe protocol corners the client deliberately
cannot produce — an idle keep-alive connection and the deprecated
unversioned alias):

1. start ``repro serve`` with a valid model on an ephemeral port;
2. score a generated netlist (200, non-degraded) over ``/v1/score``;
3. score a set through ``/v1/score:batch`` and check the answers match
   solo scoring exactly (batching must not change labels), that the set
   was one scoring pass, and that a solo request on the idle daemon
   waited for nothing in the queue;
4. reject malformed input (400) and a structurally broken netlist (422),
   both carrying the exit-code taxonomy;
5. overload the queue (at least one 429 with ``Retry-After``; every
   accepted request answered);
6. expire a deadline (504);
7. hot-reload a corrupt checkpoint (422 + rollback; predictions
   unchanged) then a valid one (200);
8. confirm the legacy ``/score`` alias still answers with a
   ``Deprecation`` header;
9. admissions ran in the forked admission workers, not inline (the exec
   fabric's task counter for the ``admission`` engine moved with them);
10. SIGTERM under load: the in-flight request completes, exit status 0,
    and no admission worker of the daemon outlives it.

Exits non-zero with a one-line FAIL message on the first violated check.
"""

from __future__ import annotations

import io
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import ServeClient, ServeClientError  # noqa: E402
from repro.circuit import generate_design  # noqa: E402
from repro.circuit.bench import write_bench  # noqa: E402
from repro.core.model import GCN, GCNConfig  # noqa: E402
from repro.core.serialize import save_gcn  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"ok: {message}")


def parse_metrics(text: str) -> dict[str, float]:
    """{sample-line-key: value} from Prometheus exposition text."""
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.rpartition(" ")
        try:
            values[key] = float(value)
        except ValueError:
            pass
    return values


def forked_children(pid: int) -> list[int]:
    """Pids of ``pid``'s children that are forks of it (same command line)
    — the admission workers, not multiprocessing's resource tracker."""
    cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # the field after the parenthesised command name and the state
            ppid = int((entry / "stat").read_text().rpartition(")")[2].split()[1])
            if ppid == pid and (entry / "cmdline").read_bytes() == cmdline:
                children.append(int(entry.name))
        except (OSError, ValueError, IndexError):
            continue  # raced a process exiting
    return children


def wait_for_banner(proc) -> str:
    """Scan startup output for the announce line; log lines may precede it."""
    for _ in range(50):
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            return line.split("listening on", 1)[1].split()[0].strip()
    fail("server never announced 'listening on http://...'")


def main() -> None:
    work = Path(ROOT / "results" / "serve-smoke")
    work.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    write_bench(generate_design(400, seed=13), buf)
    bench = buf.getvalue()

    model = save_gcn(GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,))), work / "model.npz")
    corrupt = work / "corrupt.npz"
    corrupt.write_bytes(b"this is not a checkpoint")

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--model",
            str(model),
            "--port",
            "0",
            "--workers",
            "1",
            "--queue-capacity",
            "8",
            "--debug",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    try:
        base = wait_for_banner(proc)
        check(base.startswith("http://"), f"server started on {base}")
        host, _, port = base.partition("//")[2].rpartition(":")
        # max_retries=0: the overload section below must *see* the 429s
        # the typed client would otherwise absorb.
        client = ServeClient.connect(host, int(port), max_retries=0)

        # --- basic scoring over /v1 ----------------------------------- #
        scored = client.score(bench, design="smoke", request_id="smoke-1")
        check(
            scored.stages_ms.get("queue_wait", 1e9) < 5.0,
            f"a solo request on the idle daemon is scored at once "
            f"(stages_ms {scored.stages_ms})",
        )
        check(scored.degraded is False, "model-backed score is not degraded")
        check(
            len(scored.labels) == scored.num_nodes,
            "one prediction per node",
        )
        check(scored.request_id == "smoke-1", "request_id echoed in the response")
        baseline = scored.labels.tolist()

        # --- batch endpoint matches solo scoring ---------------------- #
        passes = parse_metrics(client.metrics())
        batch = client.score_many([bench] * 4, design="smoke-batch")
        check(
            all(item.labels.tolist() == baseline for item in batch),
            "score:batch answers identical to solo scoring",
        )
        check(
            all(item.batched and item.batch_size == 4 for item in batch),
            "every score:batch member came from the one pass of four",
        )

        # --- metrics: families exist, counters moved ------------------- #
        text = client.metrics()
        before = parse_metrics(text)
        check(
            (
                before["repro_serve_batch_size_count"] - passes["repro_serve_batch_size_count"],
                before["repro_serve_batch_size_sum"] - passes["repro_serve_batch_size_sum"],
            )
            == (1.0, 4.0),
            "the four members were enqueued at once and scored in one pass",
        )
        check(
            before.get('repro_serve_requests_total{event="accepted"}') == 5.0,
            "accepted counter is 5 after one solo + four batch members",
        )
        check(
            before.get("repro_serve_request_latency_seconds_count", 0) >= 2.0,
            "latency histogram observed the scores",
        )
        check(
            "repro_serve_queue_depth" in before,
            "queue depth gauge is exported",
        )
        check(
            'repro_stage_seconds_count{stage="predict"}' in before,
            "stage histogram is exported",
        )
        check(
            "# TYPE repro_serve_requests_total counter" in text,
            "/metrics carries TYPE metadata",
        )

        # --- admission control + exit-code taxonomy ------------------- #
        try:
            client.score("a = FROB(b)\n")
            fail("malformed netlist was not rejected")
        except ServeClientError as exc:
            check(
                (exc.status, exc.code, exc.exit_code)
                == (400, "netlist_parse_error", 3),
                "malformed netlist rejected with 400 + typed body + exit code 3",
            )
        try:
            client.score("INPUT(a)\nb = NOT(a)\n")
            fail("structurally invalid netlist was not rejected")
        except ServeClientError as exc:
            check(
                (exc.status, exc.code) == (422, "netlist_invalid"),
                "structurally invalid netlist rejected with 422",
            )

        # --- backpressure --------------------------------------------- #
        # batchable=False keeps these on the solo lane: the coalescer
        # would otherwise drain the queue into one merged pass and absorb
        # the overload this section exists to produce.
        outcomes: list[object] = []

        def fire():
            try:
                outcomes.append(
                    client.score(bench, debug_sleep_ms=1000, batchable=False)
                )
            except ServeClientError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for t in threads:
            t.start()
            # Spaced wider than one admission: the one admission worker
            # takes the bodies in turn, and arrivals that pile up behind it
            # would be refused at the admission gate (4 slots here) before
            # the queue this section is about ever filled.
            time.sleep(0.02)
        for t in threads:
            t.join(timeout=90)
        check(len(outcomes) == 12, "every overload request got an answer")
        rejected = [o for o in outcomes if isinstance(o, ServeClientError)]
        check(
            all(o.status == 429 for o in rejected) and rejected,
            f"queue overload produced only 429s "
            f"({len(rejected)} rejected of {len(outcomes)})",
        )
        check(
            all(o.headers.get("Retry-After") is not None for o in rejected),
            "every 429 carries a Retry-After header",
        )

        # --- deadlines ------------------------------------------------ #
        try:
            client.score(bench, debug_sleep_ms=3000, deadline_ms=150)
            fail("expired deadline did not 504")
        except ServeClientError as exc:
            check(
                (exc.status, exc.code) == (504, "deadline_exceeded"),
                "expired deadline returns 504",
            )

        # --- metrics moved under load --------------------------------- #
        after = parse_metrics(client.metrics())
        accepted = 'repro_serve_requests_total{event="accepted"}'
        overload = 'repro_serve_requests_total{event="rejected_overload"}'
        expired = 'repro_serve_requests_total{event="expired"}'
        check(
            after[accepted] > before[accepted],
            f"accepted counter moved under load ({before[accepted]:.0f} -> "
            f"{after[accepted]:.0f})",
        )
        check(after[overload] >= 1.0, "overload rejections counted")
        check(after[expired] >= 1.0, "expired deadline counted")

        # --- hot reload + rollback ------------------------------------ #
        try:
            client.reload(corrupt)
            fail("corrupt reload was not rejected")
        except ServeClientError as exc:
            check(
                (exc.status, exc.code) == (422, "checkpoint_corrupt"),
                "corrupt reload rejected with 422",
            )
            check(
                exc.body.get("rollback", {}).get("last_good") == str(model),
                "rollback reports the last-good model",
            )
        scored = client.score(bench)
        check(
            scored.labels.tolist() == baseline and scored.degraded is False,
            "predictions identical after rolled-back reload",
        )
        body = client.reload(model)
        check(
            body["model"]["level"] == "gcn",
            "valid reload swaps the model",
        )

        # --- deprecated alias still answers, flagged ------------------ #
        # Raw socket on purpose: the typed client never speaks /score.
        legacy = socket.create_connection((host, int(port)), timeout=30)
        legacy.sendall(
            b"POST /score HTTP/1.1\r\nHost: smoke\r\n"
            b"Content-Length: 0\r\nConnection: close\r\n\r\n"
        )
        head = legacy.recv(65536).decode("utf-8", "replace")
        legacy.close()
        check(
            head.startswith("HTTP/1.1 400"),
            "legacy /score alias still answers (400 on an empty body)",
        )
        check(
            "deprecation: true" in head.lower(),
            "legacy /score answers carry a Deprecation header",
        )
        check(
            'rel="successor-version"' in head,
            "legacy /score points at its /v1 successor",
        )

        # --- admission ran off the daemon's GIL ----------------------- #
        admission_tasks = 'repro_exec_tasks_total{engine="admission",backend="forkpool"}'
        final = parse_metrics(client.metrics())
        check(
            final.get(admission_tasks, 0.0) - before.get(admission_tasks, 0.0) >= 4.0,
            f"admissions ran in forked workers ({admission_tasks} "
            f"{before.get(admission_tasks, 0.0):.0f} -> "
            f"{final.get(admission_tasks, 0.0):.0f})",
        )
        check(
            final.get('repro_exec_fallbacks_total{engine="admission",backend="forkpool"}', 0.0)
            == 0.0,
            "no admission fell back to the handler thread",
        )
        workers = forked_children(proc.pid)
        check(len(workers) == 1, f"one admission worker per --workers ({workers})")

        # --- SIGTERM drain under load --------------------------------- #
        # An idle HTTP/1.1 keep-alive connection (the client closes per
        # request, so it can't produce one): its handler thread blocks
        # reading a next request that never comes, and the drain join
        # must not wait on it forever.
        idle = socket.create_connection((host, int(port)), timeout=30)
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
        idle.recv(65536)  # consume the response; stay connected, go idle

        inflight: dict = {}

        def slow_score():
            try:
                inflight["result"] = client.score(bench, debug_sleep_ms=1500)
            except ServeClientError as exc:
                inflight["result"] = exc

        t = threading.Thread(target=slow_score)
        t.start()
        time.sleep(0.3)  # let the request reach a worker
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=60)
        check("result" in inflight, "in-flight request answered during drain")
        check(
            not isinstance(inflight["result"], ServeClientError),
            f"in-flight request completed cleanly (got {inflight['result']!r})",
        )
        code = proc.wait(timeout=60)
        check(
            code == 0,
            f"SIGTERM drain exits 0 despite idle keep-alive client (got {code})",
        )
        idle.close()
        left = [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        check(not left, f"no admission worker outlives the daemon (left: {left})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        else:
            print(proc.stdout.read() or "", end="")
    print("serve-smoke: all checks passed")


if __name__ == "__main__":
    main()
