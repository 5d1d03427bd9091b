"""``serve_point`` — monitoring clients against ``nepal serve``.

``nepal serve --data-dir ... --port 0 --port-file ...`` runs as a subprocess
holding the paper-scale service graph; this process drives it through
``NepalClient.query`` from two threads (one connection each at a time): 80 %
current-scope placement lookups ``VM(id=...)->OnServer()->Host()`` and 20 %
Table-1 ``top-down``, Zipf-skewed over 128 distinct texts, which fit the
256-entry plan cache.  ``server`` and ``core`` snapshot pins do most of the
work and ``storage.memgraph`` almost none, so an asyncio front end,
keep-alive or admission change shows here and a traversal-kernel change
must not.

Phase A is a closed loop (2 clients) and gives throughput.  Phase B is an
open loop at three fixed rates; each request is timed from when it was
*due*, so a stall is charged to every request it delays.  The latency
limit is a due-time p99 of ``SLO_P99_MS`` with no growing backlog.  The
measured seconds are cut into ``CYCLES`` rounds of (A, B).
"""

from __future__ import annotations

import http.client
import itertools
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import NepalDB
from repro.inventory.workload import table1_workload
from repro.server.client import NepalClient, ServerError

from benchmarks.e2e.graphs import (
    expected_digests,
    oracle_digests,
    placement,
    retrieve,
    service_db,
)
from benchmarks.e2e.measure import (
    P99_SEGMENTS,
    ROOT,
    STRUCTURE_SEED,
    Metric,
    derive_seed,
    ms,
    payload_digest,
    percentile,
    result_digest,
    segment_p99,
)
from benchmarks.e2e.workload import Measurement, ProbeItem, Workload

CLIENTS = 2
PLACEMENT_TEXTS = 102
TOP_DOWN_TEXTS = 26
PLACEMENT_SHARE = 0.8
#: The issue's 400 / 800 / 1 200 req/s, times one common factor chosen so
#: that on the seed commit the lowest rate meets the limit and the highest
#: does not (see README.md).
RATE_FACTOR = 1.0
RATES = tuple(int(rate * RATE_FACTOR) for rate in (400, 800, 1200))
SLO_P99_MS = 20.0
SLO_ANSWERED = 0.999
#: Shares of the measured seconds: phase A, then the three rate steps.  The
#: middle step is where latency is reported from, so it gets the most
#: samples; the outer two only have to decide whether they meet the limit.
CLOSED_LOOP_SHARE = 0.25
STEP_SHARES = (0.15, 0.40, 0.20)
#: As many as p99 has segments, so the segment-median p99 of a merged step
#: is the median of its cycles' p99s.
CYCLES = P99_SEGMENTS
SELF_CHECK_SECONDS = 1.0
SELF_CHECK_LAG_MS = 5.0
SELF_CHECK_ATTEMPTS = 3
REQUEST_STREAM = 1 << 16


def zipf_index(rng: random.Random, weights: list[float]) -> int:
    return rng.choices(range(len(weights)), cum_weights=weights)[0]


@dataclass
class Step:
    """What one open-loop rate step saw."""

    rate: int
    latencies: list[float]  # from due time, in due order
    lags: list[float]  # actual send time minus due time
    due: int
    answered: int
    failed: int
    backlog_mid: int
    backlog_end: int

    @property
    def p99_ms(self) -> float:
        return ms(segment_p99(self.latencies))

    @classmethod
    def merged(cls, parts: list["Step"]) -> "Step":
        """One rate's steps from every cycle, in time order."""
        return cls(
            rate=parts[0].rate,
            latencies=[s for part in parts for s in part.latencies],
            lags=[s for part in parts for s in part.lags],
            due=sum(part.due for part in parts),
            answered=sum(part.answered for part in parts),
            failed=sum(part.failed for part in parts),
            backlog_mid=sum(part.backlog_mid for part in parts),
            backlog_end=sum(part.backlog_end for part in parts),
        )

    @property
    def meets_slo(self) -> bool:
        return (
            self.p99_ms <= SLO_P99_MS
            and self.answered >= SLO_ANSWERED * self.due
            and self.backlog_end <= max(2 * self.backlog_mid, CLIENTS)
        )


def open_loop(send_factory: Callable[[], Callable[[int], bool]], rate: int, seconds: float) -> Step:
    """Send request *i* at ``start + i / rate`` from ``CLIENTS`` threads.

    A thread that falls behind sends at once and stays behind: the requests
    it delays are timed from their due time, and whatever is due but unsent
    when the step ends is the backlog.
    """
    clock = time.perf_counter
    start = clock() + 0.05
    end = start + seconds
    results: list[list[tuple[int, float, float, float, bool]]] = [[] for _ in range(CLIENTS)]

    def client(offset: int) -> None:
        send = send_factory()
        out = results[offset]
        index = offset
        while True:
            due = start + index / rate
            if due >= end:
                return
            now = clock()
            if now >= end:
                return
            if now < due:
                time.sleep(due - now)
            sent = clock()
            ok = send(index)
            out.append((index, due, sent, clock(), ok))
            index += CLIENTS

    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rows = sorted(row for part in results for row in part)
    due_total = int(seconds * rate)
    middle = start + seconds / 2

    def backlog(at: float) -> int:
        return int((at - start) * rate) - sum(1 for row in rows if row[2] <= at)

    return Step(
        rate=rate,
        latencies=[done - due for _, due, _, done, _ in rows],
        lags=[sent - due for _, due, sent, _, _ in rows],
        due=due_total,
        answered=sum(1 for row in rows if row[4]),
        failed=sum(1 for row in rows if not row[4]),
        backlog_mid=max(0, backlog(middle)),
        backlog_end=max(0, due_total - len(rows)),
    )


class ServePoint(Workload):
    name = "serve_point"
    database_process = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.server: subprocess.Popen | None = None
        self.log_path = workdir / "server.log"
        # The same seeded graph twice: on disk for the server, and in this
        # process as the oracle (and, traced, as the server's stand-in).
        self.local, handles = service_db(traced)
        data_dir = workdir / "data"
        on_disk, _ = service_db(data_dir=str(data_dir))
        on_disk.checkpoint()
        on_disk.close()

        rng = random.Random(derive_seed(seed, "requests"))
        vms = rng.sample(handles.vms, PLACEMENT_TEXTS)
        top_down = rng.sample(
            table1_workload(handles, 50, STRUCTURE_SEED)["top-down"],
            TOP_DOWN_TEXTS,
        )
        self.items = [
            ProbeItem(placement(vm), f"VM(id={vm})->OnServer()->Host()", self.local)
            for vm in vms
        ] + [ProbeItem(retrieve(i.rpe), i.rpe, self.local) for i in top_down]
        self.texts = [item.text for item in self.items]
        self.labels = ["placement"] * PLACEMENT_TEXTS + ["top_down"] * TOP_DOWN_TEXTS
        self.oracle = oracle_digests(self.local, self.texts, rendered=True)
        expected = expected_digests(self.name, seed, self.oracle)
        self.expected = [expected.get(text) for text in self.texts]
        # Zipf (s = 1) inside each class, 80/20 between them.
        cum_placement = _cumulative(PLACEMENT_TEXTS)
        cum_top_down = _cumulative(TOP_DOWN_TEXTS)
        self.requests = [
            zipf_index(rng, cum_placement) if rng.random() < PLACEMENT_SHARE
            else PLACEMENT_TEXTS + zipf_index(rng, cum_top_down)
            for _ in range(REQUEST_STREAM)
        ]
        self.cursor = 0
        try:
            self._start_server(workdir, data_dir)
            send = self._sender()
            if not all([send(which) for which in range(len(self.texts))]):  # warm-up round
                raise RuntimeError("a warm-up request failed or was answered wrongly")
            self.generator_lag_ms = self._self_check()
        except BaseException:
            self.close()
            raise

    # -- the server subprocess --------------------------------------------------

    def _start_server(self, workdir: Path, data_dir: Path) -> None:
        port_file = workdir / "port"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.log_path, "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--data-dir", str(data_dir),
                 "--port", "0", "--port-file", str(port_file)],
                env=env, stdout=log, stderr=log, cwd=str(workdir),
            )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "nepal serve did not come up:\n" + self.log_path.read_text(errors="replace")
                )
            time.sleep(0.01)
        host, _, port = port_file.read_text().strip().rpartition(":")
        self.address = (host, int(port))
        self.client().healthz()

    def client(self) -> NepalClient:
        # A 503 is a failed request here, not something to wait out.
        return NepalClient(*self.address, timeout=30.0, retry_503=0)

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    # -- requests -----------------------------------------------------------------

    def _sender(self) -> Callable[[int], bool]:
        """``send(which)``: query text *which*, say whether it was answered
        200 with the right rows.  One client per calling thread."""
        client = self.client()
        texts, expected = self.texts, self.expected

        def send(which: int) -> bool:
            try:
                payload = client.query(texts[which])
            except (ServerError, OSError, http.client.HTTPException):
                return False  # non-200, refused or reset: a failed request
            return payload_digest(payload) == expected[which]

        return send

    def _stream_sender(self) -> Callable[[int], bool]:
        """``send(i)``: issue the *i*-th request of this phase, continuing
        the seeded request stream where the last phase stopped."""
        send, requests, base = self._sender(), self.requests, self.cursor
        return lambda index: send(requests[(base + index) % REQUEST_STREAM])

    def _self_check(self) -> float:
        """Is the generator fast enough to be believed at the top rate?

        Drives ``/healthz`` at ``RATES[-1]`` and returns the p99 of how late
        sends ran.  Past ``SELF_CHECK_LAG_MS`` the generator, not Nepal,
        would be what phase B measures; a transient stall gets two more
        tries before the set-up fails.
        """
        def factory() -> Callable[[int], bool]:
            client = self.client()

            def ping(_index: int) -> bool:
                client.healthz()
                return True

            return ping

        lag = float("inf")
        for _ in range(SELF_CHECK_ATTEMPTS):
            step = open_loop(factory, RATES[-1], SELF_CHECK_SECONDS)
            lag = min(lag, ms(percentile(step.lags, 99)))
            if lag <= SELF_CHECK_LAG_MS:
                return lag
        raise RuntimeError(
            f"load generator is the bottleneck: /healthz at {RATES[-1]} req/s "
            f"ran {lag:.2f} ms late at p99 (limit {SELF_CHECK_LAG_MS} ms)"
        )

    # -- measuring ----------------------------------------------------------------

    def _closed_loop(self, seconds: float) -> tuple[list[float], int, float]:
        """Phase A: (latencies, failed, elapsed)."""
        clock = time.perf_counter
        results: list[tuple[list[float], int]] = []
        lock = threading.Lock()
        start = clock()
        deadline = start + seconds

        def client(offset: int) -> None:
            send = self._stream_sender()
            latencies, failed, index = [], 0, offset
            while True:
                begun = clock()
                if begun >= deadline:
                    break
                failed += not send(index)
                latencies.append(clock() - begun)
                index += CLIENTS
            with lock:
                results.append((latencies, failed))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock() - start
        latencies = [s for part, _ in results for s in part]
        return latencies, sum(failed for _, failed in results), elapsed

    def measure(self, seconds: float, tracer=None) -> Measurement:
        if tracer is not None:
            return self._replay(seconds, tracer)
        # CYCLES short rounds of (phase A, three rate steps) rather than one
        # long one: a stall of the machine then spoils one cycle's numbers,
        # and every number reported is a median over the cycles.
        closed_runs, per_rate = [], [[] for _ in RATES]
        for _ in range(CYCLES):
            closed_runs.append(self._closed_loop(seconds * CLOSED_LOOP_SHARE / CYCLES))
            self.cursor += len(closed_runs[-1][0])
            for parts, rate, share in zip(per_rate, RATES, STEP_SHARES):
                parts.append(open_loop(self._stream_sender, rate, seconds * share / CYCLES))
                self.cursor += len(parts[-1].latencies)
        steps = [Step.merged(parts) for parts in per_rate]
        closed = [s for latencies, _, _ in closed_runs for s in latencies]
        closed_failed = sum(failed for _, failed, _ in closed_runs)
        throughput = statistics.median(len(part) / elapsed for part, _, elapsed in closed_runs)
        middle = steps[len(steps) // 2]
        passing = [step.rate for step in steps if step.meets_slo]
        extras = {
            "max_rate_under_slo_rps": Metric(max(passing, default=0), "req/s", len(steps)),
            "closed_loop.p50_ms": Metric(ms(statistics.median(closed)), "ms", len(closed)),
            "closed_loop.p99_ms": Metric(ms(segment_p99(closed)), "ms", len(closed)),
            "self_check.generator_lag_ms": Metric(self.generator_lag_ms, "ms"),
        }
        for number, step in enumerate(steps, start=1):
            prefix = f"step{number}."
            count = len(step.latencies)
            extras[prefix + "rate"] = Metric(step.rate, "req/s")
            extras[prefix + "p50_ms"] = Metric(ms(statistics.median(step.latencies)), "ms", count)
            extras[prefix + "p99_ms"] = Metric(step.p99_ms, "ms", count)
            extras[prefix + "generator_lag_ms"] = Metric(ms(percentile(step.lags, 99)), "ms", count)
            extras[prefix + "backlog_mid"] = Metric(step.backlog_mid, "count")
            extras[f"server.backlog_end_step{number}"] = Metric(step.backlog_end, "count")
        return Measurement(
            attempted=len(closed) + sum(len(step.latencies) for step in steps),
            failed=closed_failed + sum(step.failed for step in steps),
            throughput=Metric(throughput, "1/s", len(closed)),
            latencies=middle.latencies,
            extras=extras,
        )

    def _replay(self, seconds: float, tracer) -> Measurement:
        """The traced phase: each request over HTTP, then the same text
        in-process — untraced and traced — on the identical local database.

        The server is a black box to this process; the local replay is what
        says where the time inside it goes, and HTTP latency minus the
        in-process latency is the front end's own cost.
        """
        clock = time.perf_counter
        client = self.client()
        db, texts, expected = self.local, self.texts, self.expected
        http, plain, traced, failed = [], [], [], 0
        deadline = clock() + seconds
        for which in self.requests:
            if clock() >= deadline:
                break
            text = texts[which]
            with tracer.op(self.labels[which], layer="server"):
                started = clock()
                payload = client.query(text)
                http.append(clock() - started)
            failed += payload_digest(payload) != expected[which]
            # Untraced and traced in-process, alternating which goes first:
            # the second of a pair runs on warm caches.
            for with_spans in ((False, True) if len(http) % 2 else (True, False)):
                if with_spans:
                    with tracer.op(self.labels[which]):
                        started = clock()
                        result = db.query(text)
                        traced.append(clock() - started)
                    failed += result_digest(result, rendered=True) != expected[which]
                else:
                    started = clock()
                    db.query(text)
                    plain.append(clock() - started)
        connects = []
        for _ in range(20):
            started = clock()
            client.healthz()
            connects.append(clock() - started)
        self.replayed = (sum(plain), sum(traced))
        extras = {
            "server.http_overhead_ms": Metric(
                ms(statistics.median(http) - statistics.median(plain)), "ms", len(http)
            ),
            "server.connect_ms": Metric(ms(statistics.median(connects)), "ms", len(connects)),
        }
        return Measurement(
            attempted=len(http) + len(traced),
            failed=failed,
            throughput=Metric(len(http) / sum(http), "1/s", len(http)),
            latencies=http,
            extras=extras,
        )

    def layer_seconds(self, tracer, wall: float) -> tuple[dict[str, float], float]:
        # The local replay is the inside of the HTTP op, not more work: take
        # it out of the server's self time and out of the wall time.
        plain, traced = self.replayed
        layers = dict(tracer.self_seconds)
        layers["server"] -= traced
        return layers, wall - tracer.op_seconds - plain

    def tracing_overhead(self, plain: Measurement, traced: Measurement) -> float:
        untraced_local, traced_local = self.replayed
        return traced_local / untraced_local

    def stats(self) -> dict:
        return self.client().stats()

    def database(self) -> NepalDB:
        return self.local

    def probe_items(self) -> list[ProbeItem]:
        return self.items


def _cumulative(count: int) -> list[float]:
    """Cumulative Zipf (s = 1) weights of ranks 1..count."""
    return list(itertools.accumulate(1.0 / rank for rank in range(1, count + 1)))
