"""service: a closed loop of plan reads and keyed ingests against ``repro serve``.

Set-up boots the server as a subprocess and creates two sessions — a
storage-backed ``linear_normal`` session (n=2,000, 256-object pages) and a
``urx_uniqueness`` session (n=500), both budgeted at 10% of their total
cost — timed three times (the first two servers are stopped again).  Two
client threads then each hold one keep-alive connection and send their next
request only when the previous reply has arrived.  Every op picks its
session from the seed, so both connections meet on each session's lock:
half are keyed ingests, half plan reads, 40% of them anytime read-backs at
a smaller budget.  Each session's ingests are the events of one
``synthesize_journal`` over that session's own database (reveals and cost
changes only: reveals draw from the object's own distribution and never
revisit an object, cost changes scale its original cost), sent in journal
order in their dict wire form.  The loop runs for the run's time and at
least 1,000 requests, so the request p99 has ten samples beyond it; it
stops early if a session's journal runs out.  Afterwards
``repro.service.verify_history`` replays each session's journal serially
and checks every response: byte-equal plans, recomputed signatures,
contiguous acks and monotone reads.

The traced phase serves through ``launcher.py`` instead, which installs the
probes in the server process; each request carries ``X-Request-Id`` so the
client's latency can be split into the server's handler span and the rest
(socket and HTTP framing).
"""

from __future__ import annotations

import http.client
import json
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    Clock,
    Phase,
    files_size,
    median,
    nearest_rank,
    p99_supported,
    process_peak_rss_mb,
    program_env,
)
from spans import SpanRecorder
from layers import TraceView, attach

CONNECTIONS = 2
SETUPS = 3
MIN_REQUESTS = 1000
INGEST_SHARE = 0.5
READBACK_SHARE = 0.4
BUDGET_FRACTION = 0.1
BOOT_TIMEOUT_S = 60.0
#: Ingest events synthesized per session.  At ~45 requests/s (each reply
#: waits ~44 ms) a run sends a few hundred per session, so the loop ends on
#: time, not by running out of events.
JOURNAL_EVENTS = 2000
INGEST_MIX = {"insert": 0.0, "remove": 0.0}


class EventFeed:
    """A session's journal, handed out one event at a time to both connections."""

    def __init__(self, events: List[dict]):
        self._events = iter(events)
        self._lock = threading.Lock()

    def next(self) -> Optional[dict]:
        with self._lock:
            return next(self._events, None)


def session_configs(seed: int) -> Tuple[List[dict], List[EventFeed]]:
    """The two session configs and, for each, the feed of its ingest events."""
    from repro.service.sessions import SessionConfig
    from repro.streaming import event_to_dict, synthesize_journal

    configs = [
        {"kind": "linear_normal", "n": 2000, "seed": seed, "storage_backed": True, "page_size": 256},
        {"kind": "urx_uniqueness", "n": 500, "seed": seed},
    ]
    feeds = []
    for position, config in enumerate(configs):
        database, _ = SessionConfig.from_payload(config).build_inputs()
        config["budget"] = round(BUDGET_FRACTION * database.total_cost, 6)
        journal = synthesize_journal(database, JOURNAL_EVENTS, seed=seed * 10 + position, mix=INGEST_MIX)
        feeds.append(EventFeed([event_to_dict(event) for event in journal.events]))
    return configs, feeds


class Client:
    """One keep-alive connection; no retries (a failed request is a failure)."""

    def __init__(self, url: str):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.connection = http.client.HTTPConnection(host, int(port), timeout=60)

    def call(self, method: str, path: str, body=None, headers=None) -> Tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        self.connection.request(method, path, body=payload, headers=headers or {})
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}

    def close(self) -> None:
        self.connection.close()


class Server:
    """A ``repro serve`` (or traced launcher) subprocess on a free port."""

    def __init__(self, root: Path, log_path: Path, spans_path: Optional[Path] = None):
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--root", str(root), "--port", "0"]
        else:
            command = [sys.executable, str(BENCH_DIR / "launcher.py"), "--root", str(root), "--spans", str(spans_path)]
        self._log = open(log_path, "a")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True, env=program_env(), cwd=ROOT
        )
        self.url = self._await_listening()

    def _await_listening(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if line.startswith("SERVICE LISTENING "):
                    return line.split(" ", 2)[2].strip()
                if not line:
                    break
        self.stop()
        raise RuntimeError("the server did not report a listening address")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()


def _setup(root: Path, out: Path, configs: List[dict], spans_path: Optional[Path] = None):
    shutil.rmtree(root, ignore_errors=True)
    server = Server(root, out / "server.log", spans_path)
    client = Client(server.url)
    sessions = []
    try:
        for config in configs:
            status, body = client.call("POST", "/sessions", config)
            if status != 201:
                raise RuntimeError(f"session creation returned {status}: {body}")
            sessions.append((body["session"], config))
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    return server, sessions


def _worker(
    url: str, thread: int, seed: int, sessions, feeds, stop: threading.Event, sink: List[dict], errors: List[str]
) -> None:
    rng = random.Random(f"{seed}:{thread}")
    client = Client(url)
    position = 0
    try:
        while not stop.is_set():
            choice = rng.randrange(len(sessions))
            session, config = sessions[choice]
            request_id = f"{thread}-{position}"
            headers = {"X-Request-Id": request_id, "Content-Type": "application/json"}
            if rng.random() < INGEST_SHARE:
                event = feeds[choice].next()
                if event is None:
                    stop.set()
                    break
                headers["X-Idempotency-Key"] = f"b{seed}-t{thread}-op{position}"
                kind, method, path, body = "ingest", "POST", f"/sessions/{session}/events", event
            else:
                query = ""
                if rng.random() < READBACK_SHARE:
                    query = f"?budget={config['budget'] * rng.uniform(0.2, 0.95):.12g}"
                kind, method, path, body = "read", "GET", f"/sessions/{session}/plan{query}", None
            started = time.perf_counter()
            try:
                status, reply = client.call(method, path, body, headers)
            except (OSError, http.client.HTTPException, ValueError) as error:
                errors.append(f"{request_id}: {type(error).__name__}: {error}")
                client.close()
                client = Client(url)
                position += 1
                continue
            latency = time.perf_counter() - started
            if status != 200:
                errors.append(f"{request_id}: {method} {path} returned {status}: {reply}")
            else:
                sink.append(
                    {
                        "type": kind,
                        "session": session,
                        "thread": thread,
                        "position": position,
                        "request_id": request_id,
                        "version": int(reply["version"]),
                        "seq": reply.get("seq"),
                        "budget": reply.get("budget"),
                        "plan": [int(i) for i in reply["plan"]],
                        "signature": str(reply["signature"]),
                        "idempotent_replay": bool(reply.get("idempotent_replay", False)),
                        "prefix_kept": reply.get("prefix_kept"),
                        "latency_ms": 1e3 * latency,
                    }
                )
            position += 1
    finally:
        client.close()


def _closed_loop(url: str, seed: int, sessions, feeds, clock: Clock) -> Tuple[List[dict], List[str], float]:
    stop = threading.Event()
    sinks: List[List[dict]] = [[] for _ in range(CONNECTIONS)]
    errors: List[str] = []
    threads = [
        threading.Thread(target=_worker, args=(url, i, seed, sessions, feeds, stop, sinks[i], errors), daemon=True)
        for i in range(CONNECTIONS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    while clock.more(sum(len(sink) for sink in sinks)) and not stop.is_set():
        time.sleep(0.02)
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        errors.append("a client thread did not finish")
    return [row for sink in sinks for row in sink], errors, wall


def _store_files(root: Path) -> List[Path]:
    return sorted(root.glob("*.sqlite")) + sorted(root.glob("*.sqlite-wal"))


def run_phase(seed: int, seconds: float, out: Path, rec: Optional[SpanRecorder], full: bool = True) -> Phase:
    from repro.service import verify_history

    configs, feeds = session_configs(seed)
    root = out / "service-root"
    spans_path = out / "server-spans.json" if rec is not None else None
    setups: List[float] = []
    for attempt in range(SETUPS if full else 1):
        started = time.perf_counter()
        server, sessions = _setup(root, out, configs, spans_path)
        setups.append(time.perf_counter() - started)
        if attempt < (SETUPS if full else 1) - 1:
            server.stop()

    bytes_before = files_size(_store_files(root))
    try:
        clock = Clock(seconds, min_ops=MIN_REQUESTS if full else 1)
        observations, failures, wall = _closed_loop(server.url, seed, sessions, feeds, clock)
        peak_rss = process_peak_rss_mb(server.process.pid)
        warm = cold = 0
        client = Client(server.url)
        for session, _ in sessions:
            _, info = client.call("GET", f"/sessions/{session}")
            warm, cold = warm + info["warm_solves"], cold + info["cold_solves"]
        client.close()
    finally:
        server.stop()
    grown_bytes = files_size(_store_files(root)) - bytes_before

    counters = verify_history(str(root), observations)
    for key in ("plan_mismatches", "signature_mismatches", "version_violations"):
        failures.extend(f"{key}: {item}" for item in counters[key])
    if counters["responses_verified"] != len(observations):
        failures.append(f"verified {counters['responses_verified']} of {len(observations)} responses")
    shutil.rmtree(root, ignore_errors=True)

    reads = [o["latency_ms"] for o in observations if o["type"] == "read"]
    ingests = [o for o in observations if o["type"] == "ingest" and not o["idempotent_replay"]]
    ingest_ms = [o["latency_ms"] for o in ingests]
    every = [o["latency_ms"] for o in observations]
    named = {
        "read_p50_ms": median(reads),
        "ingest_p50_ms": median(ingest_ms),
        "request_p95_ms": nearest_rank(every, 0.95),
        "request_p99_ms": nearest_rank(every, 0.99),
        "read_p98_ms": nearest_rank(reads, 0.98),
        "ingest_p98_ms": nearest_rank(ingest_ms, 0.98),
        "ops_per_s": len(observations) / wall,
        "reads": len(reads),
        "ingests": len(ingest_ms),
    }
    if not p99_supported(len(every)):
        del named["request_p99_ms"]
    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "main_ms": median(reads),
            "side_ms": median(ingest_ms),
            "tail_ms": nearest_rank(every, 0.95),
            "ops_per_s": len(observations) / wall,
        },
        named=named,
        attempted=len(observations) + len(failures),
        failures=failures,
    )
    if rec is not None:
        latency = {o["request_id"]: o["latency_ms"] / 1e3 for o in observations}
        view = TraceView()
        index = view.add(json.loads(spans_path.read_text()), ("service.handler",), set(latency))
        handler = {span[5]: span[3] - span[2] for span in index.named("service.handler") if span[5] in latency}
        socket = sum(latency[rid] - seconds_in for rid, seconds_in in handler.items())
        attach(
            phase,
            view,
            len(handler),
            {
                "service.socket_ms": 1e3 * socket / max(len(handler), 1),
                "streaming.warm_ratio": warm / max(warm + cold, 1),
                "streaming.prefix_kept": sum(o["prefix_kept"] for o in ingests) / max(len(ingests), 1),
                "store.bytes_per_event": grown_bytes / max(len(ingests), 1),
            },
            total=sum(latency[rid] for rid in handler),
            outside={"service.socket": socket},
        )
    return phase
