"""The four benchmark workloads.

Each workload builds its own system in ``setup`` (timed, repeated, the
median becomes ``setup_s``), runs a timed ``window`` for the requested
number of seconds, and checks every output against a reference computed
outside the timed window.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time

from repro import (
    QUERY1_SQL,
    WSMED,
    QueryEngine,
    QueryOptions,
    ShareConfig,
)
from repro.runtime.multiprocess import ProcessKernel

from inputs import (
    ENGINE_BLOCK,
    ENGINE_CLIENTS,
    PARALLEL_54,
    SERVE_KINDS,
    engine_block,
    paper_rotation,
    q1_family,
    serve_schedule,
)
from measure import (
    Outcome,
    Stopwatch,
    bag,
    group_counts,
    is_subbag,
    peak_rss_mb,
    percentile,
    result_counters,
    speed_factor,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of a run (server logs, traced-server ledgers).
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 5
CENTRAL = QueryOptions(mode="central")


def _seed_pins() -> dict:
    """Query1's exact model seconds, from the seed fingerprint test."""
    sys.path.insert(0, ROOT)
    from tests.integration import test_seed_fingerprint as pins

    return {
        "central": pins.FIG1_CENTRAL_ELAPSED,
        "parallel": pins.FIG1_BEST_ELAPSED,
        "calls": pins.FIG1_CENTRAL_CALLS,
    }


def _paper_system() -> WSMED:
    wsmed = WSMED(profile="paper")
    wsmed.import_all()
    return wsmed


class Workload:
    """Interface: ``setup`` then ``window`` then ``finish``; ``probe``
    runs one representative operation for the overhead comparisons."""

    name = ""
    in_process = True

    def setup(self, seed: int, out: Outcome) -> None:
        raise NotImplementedError

    def window(self, seconds: float, out: Outcome, counters: list) -> None:
        raise NotImplementedError

    def probe(self, obs=None) -> None:
        raise NotImplementedError

    def finish(self, out: Outcome) -> None:
        """Post-window checks and teardown."""

    def close(self) -> None:
        """Release everything; safe to call twice."""


# -- paper_q1_oneshot ----------------------------------------------------------


class PaperOneShot(Workload):
    """Query1 one-shot on a fresh SimKernel per query, rotating the modes of
    the paper's Figs 1, 16 and 21."""

    name = "paper_q1_oneshot"

    def setup(self, seed: int, out: Outcome) -> None:
        for _ in range(SETUP_REPEATS):
            out.setup_factors.append(speed_factor())
            watch = Stopwatch()
            wsmed = _paper_system()
            out.setup_samples.append(watch.elapsed())
        self.wsmed = wsmed
        self.seed = seed
        self.pins = _seed_pins()
        self.reference = bag(wsmed.sql(QUERY1_SQL, options=CENTRAL).rows)
        adaptive = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="adaptive"))
        # No adaptive pin exists in the fingerprint test; every adaptive
        # run must repeat the first one bit for bit.
        self.pins["adaptive"] = adaptive.elapsed

    def window(self, seconds: float, out: Outcome, counters: list) -> None:
        watch = Stopwatch()
        rotation = 0
        # Whole rotations only, so per-query means cover each mode equally.
        while watch.elapsed() < seconds:
            out.calibrate()
            for options in paper_rotation(self.seed, rotation):
                started = time.perf_counter()
                result = self.wsmed.sql(QUERY1_SQL, options=options)
                out.latencies_ms.append((time.perf_counter() - started) * 1000.0)
                self._check(result, options.mode, out)
                out.counted.append((result.total_calls, result.elapsed))
                counters.append(result_counters(result))
            rotation += 1
        out.window_s = watch.elapsed()
        out.completed = len(out.latencies_ms)

    def _check(self, result, mode: str, out: Outcome) -> None:
        out.check(
            len(result.rows) == 360
            and result.total_calls == self.pins["calls"]
            and result.elapsed == self.pins[mode]
            and bag(result.rows) == self.reference,
            f"{mode}: rows={len(result.rows)} calls={result.total_calls} "
            f"model_s={result.elapsed!r} (pin {self.pins[mode]!r})",
        )

    def probe(self, obs=None) -> None:
        self.wsmed.sql(QUERY1_SQL, options=PARALLEL_54.replace(obs=obs))


# -- engine_zipf_shared --------------------------------------------------------


class EngineZipfShared(Workload):
    """A resident sharing QueryEngine on SimKernel fed by ``sql_many``
    batches of 8 virtual clients (closed loop, one thread) with a
    Zipf-skewed Query1-family stream and WSDL re-imports."""

    name = "engine_zipf_shared"
    CLIENTS = ENGINE_CLIENTS
    #: The window runs whole 64-query blocks of the stream: this many steps
    #: per requested second, rounded to whole blocks.  A fixed amount of
    #: work (rather than a deadline) makes every count and model second of
    #: the window repeat exactly for a seed.
    STEPS_PER_SECOND = 9.6

    def setup(self, seed: int, out: Outcome) -> None:
        for attempt in range(SETUP_REPEATS):
            out.setup_factors.append(speed_factor())
            watch = Stopwatch()
            wsmed = _paper_system()
            engine = QueryEngine(wsmed, share=ShareConfig(enabled=True))
            engine.sql(q1_family("Atlanta", 15.0), options=PARALLEL_54)
            out.setup_samples.append(watch.elapsed())
            if attempt < SETUP_REPEATS - 1:
                engine.close()
        self.wsmed, self.engine = wsmed, engine
        self.seed = seed
        self.results: list = []  # (step, row bag) of every timed query
        self._block(0, out, None)  # warm-up block: fills the shared cache
        self.shared_before = self.engine.shared.stats.as_dict()
        self.stats_before = self.engine.stats()

    def _block(self, index: int, out: Outcome, sink: list | None) -> None:
        """Run one block of the stream as batches of one query per client."""
        steps = engine_block(self.seed, index)
        for step in steps:
            if step.kind == "reimport":
                self.wsmed.import_wsdl(step.uri)
        queries = [step for step in steps if step.kind != "reimport"]
        for first in range(0, len(queries), self.CLIENTS):
            batch = queries[first : first + self.CLIENTS]
            if sink is not None:
                out.calibrate()
            started = time.perf_counter()
            results = self.engine.sql_many(
                [(step.sql(), PARALLEL_54) for step in batch], return_exceptions=True
            )
            # Each client waits for its batch: the batch's wall time is the
            # latency of every query in it.
            latency_ms = (time.perf_counter() - started) * 1000.0
            for step, result in zip(batch, results):
                if isinstance(result, Exception):
                    out.attempted += 1
                    out.fail(f"{step}: {type(result).__name__}: {result}")
                elif sink is not None:
                    sink.append((step, result, latency_ms))

    def window(self, seconds: float, out: Outcome, counters: list) -> None:
        blocks = max(1, round(seconds * self.STEPS_PER_SECOND / ENGINE_BLOCK))
        watch = Stopwatch()
        for index in range(1, blocks + 1):
            done: list = []
            self._block(index, out, done)
            for step, result, latency_ms in done:
                out.latencies_ms.append(latency_ms)
                self.results.append((step, bag(result.rows)))
                counters.append(result_counters(result))
                out.counted.append((result.total_calls, result.elapsed))
        out.window_s = watch.elapsed()
        out.completed = len(out.latencies_ms)
        stats = self.engine.stats()
        shared = self.engine.shared.stats.as_dict()
        before = self.stats_before
        shared_before = self.shared_before

        def grew(key: str) -> float:
            return shared[key] - shared_before[key]

        n = max(1, out.completed)
        out.layers.update(
            {
                "engine.shared_hit_ratio": _ratio(grew("hits") + grew("waits"), grew("misses")),
                "engine.singleflight_waits": grew("waits") / n,
                "engine.coalesced_calls": grew("batched_calls") / n,
                "engine.shared_evictions": grew("evictions") / n,
                "engine.plan_hit_ratio": _ratio(
                    stats.plan_cache_hits - before.plan_cache_hits,
                    stats.plan_cache_misses - before.plan_cache_misses,
                ),
                "engine.pool_reuse_ratio": _ratio(
                    stats.warm_leases - before.warm_leases,
                    stats.cold_starts - before.cold_starts,
                ),
                "engine.invalidations": (
                    stats.plan_cache_invalidations - before.plan_cache_invalidations
                ) / n,
                "engine.shared_entries": float(stats.shared_cache_entries),
            }
        )

    def finish(self, out: Outcome, fresh_references: bool = False) -> None:
        """Check every timed query against its variant's reference."""
        references = engine_references(
            {step.variant for step, _ in self.results}, stored_ok=not fresh_references
        )
        for step, rows in self.results:
            reference = references[step.variant]
            if step.kind == "rows":
                ok = rows == reference
            elif step.kind == "limit":
                ok = sum(rows.values()) == min(step.limit, sum(reference.values())) and (
                    is_subbag(rows, reference)
                )
            else:
                ok = rows == group_counts(reference)
            out.check(ok, f"{step}: wrong rows ({sum(rows.values())} rows)")
        out.info["variants_checked"] = len(references)

    def probe(self, obs=None) -> None:
        self.engine.sql(q1_family("Atlanta", 15.0), options=PARALLEL_54.replace(obs=obs))

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()


def engine_references(variants, stored_ok: bool = True) -> dict:
    """Row bags of one-shot central runs (no cache, no sharing) per
    (place, radius) variant.

    They depend only on the program and the variant, so they are kept in
    OUT_DIR under a hash of the source tree and the inputs module and
    computed again whenever either changes; the first run in a checkout
    pays for them.  ``stored_ok=False`` computes every one afresh.
    """
    digest = hashlib.sha256()
    for directory in (SRC, os.path.join(ROOT, "perfbench")):
        for folder, _, files in sorted(os.walk(directory)):
            for filename in sorted(files):
                if filename.endswith(".py") and (
                    directory == SRC or filename == "inputs.py"
                ):
                    with open(os.path.join(folder, filename), "rb") as handle:
                        digest.update(filename.encode() + handle.read())
    path = os.path.join(OUT_DIR, f"engine-references-{digest.hexdigest()[:16]}.json")
    stored: dict = {}
    if stored_ok and os.path.exists(path):
        with open(path) as handle:
            stored = json.load(handle)
    missing = [v for v in variants if f"{v[0]}|{v[1]}" not in stored]
    if missing:
        system = _paper_system()
        for place, distance in missing:
            rows = system.sql(q1_family(place, distance), options=CENTRAL).rows
            stored[f"{place}|{distance}"] = [list(row) for row in rows]
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(stored, handle)
    return {v: bag(stored[f"{v[0]}|{v[1]}"]) for v in variants}


# -- fleet_q1_wire -------------------------------------------------------------


class FleetWire(Workload):
    """A warm QueryEngine on ProcessKernel(workers=1): every plan function,
    parameter tuple, result and broker call crosses the pickle wire."""

    name = "fleet_q1_wire"

    def setup(self, seed: int, out: Outcome) -> None:
        for attempt in range(SETUP_REPEATS):
            out.setup_factors.append(speed_factor())
            watch = Stopwatch()
            wsmed = _paper_system()
            engine = QueryEngine(wsmed, kernel=ProcessKernel(workers=1))
            engine.sql(QUERY1_SQL, options=PARALLEL_54)  # spawns the worker
            out.setup_samples.append(watch.elapsed())
            if attempt < SETUP_REPEATS - 1:
                engine.close()
        self.engine = engine
        self.reference = bag(_paper_system().sql(QUERY1_SQL, options=CENTRAL).rows)

    def window(self, seconds: float, out: Outcome, counters: list) -> None:
        watch = Stopwatch()
        while watch.elapsed() < seconds:
            out.calibrate()
            started = time.perf_counter()
            result = self.engine.sql(QUERY1_SQL, options=PARALLEL_54)
            out.latencies_ms.append((time.perf_counter() - started) * 1000.0)
            out.check(
                result.total_calls == 311 and bag(result.rows) == self.reference,
                f"calls={result.total_calls} rows={len(result.rows)}",
            )
            out.counted.append((result.total_calls, result.elapsed))
            counters.append(result_counters(result))
        out.window_s = watch.elapsed()
        out.completed = len(out.latencies_ms)

    def finish(self, out: Outcome) -> None:
        # The program is the coordinator plus its worker processes.
        out.peak_rss_mb += sum(
            peak_rss_mb(pid) for pid in self.engine.kernel.worker_pool.pids()
        )

    def probe(self, obs=None) -> None:
        self.engine.sql(QUERY1_SQL, options=PARALLEL_54.replace(obs=obs))

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()


# -- serve_http_mix ------------------------------------------------------------

#: Open-loop phases: (rate in requests/s, share of --seconds).  The first
#: is the nominal rate that the latency metrics report.
SERVE_PHASES = ((4.0, 0.9), (24.0, 0.1), (96.0, 0.1))
#: p90 latency limit at which a rate still counts as sustained.
SERVE_P90_LIMIT_MS = 500.0
SERVE_CONNECTIONS = 2
SERVE_STOP_TIMEOUT_S = 10.0
SERVE_READY_TIMEOUT_S = 60.0
PROBE_REQUESTS = 8
WARMUP_ROUNDS = 3


class ServerProcess:
    """One ``python -m repro serve --port 0`` child (or the traced
    launcher), with bounded start and stop."""

    def __init__(self, traced_ledger: str | None = None) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if traced_ledger is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, os.path.join(ROOT, "perfbench", "serve_child.py"), traced_ledger]
        command += ["--port", "0", "--trace-dir", os.path.join(OUT_DIR, "traces")]
        self._log = open(os.path.join(OUT_DIR, "server.log"), "ab")
        watch = Stopwatch()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = self._await_ready()
        self.ready_s = watch.elapsed()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + SERVE_READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    return int(line.split()[2].rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError("server did not become ready")

    def stop(self) -> tuple[float, bool]:
        """SIGTERM, then wait a bounded time: (seconds taken, hung?)."""
        watch = Stopwatch()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=SERVE_STOP_TIMEOUT_S)
            hung = False
        except subprocess.TimeoutExpired:
            hung = True
            self.kill()
        self.process.stdout.close()
        self._log.close()
        return watch.elapsed(), hung

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def http_sql(port: int, body: dict) -> dict:
    """POST /sql and read the NDJSON stream; times are perf_counter."""
    record = {"sent": time.perf_counter()}
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(
            "POST", "/sql", body=json.dumps(body), headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        record["status"] = response.status
        if response.status != 200:
            response.read()
            record["end"] = time.perf_counter()
            return record
        json.loads(response.readline())  # the {"columns": [...]} header line
        record["header"] = time.perf_counter()
        rows = []
        trailer = None
        for line in response:
            item = json.loads(line)
            if isinstance(item, list):
                rows.append(tuple(item))
            else:
                trailer = item
        record["end"] = time.perf_counter()
        record["rows"] = rows
        record["trailer"] = trailer
        return record
    finally:
        connection.close()


def http_get(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class ServeHttpMix(Workload):
    """``repro serve`` in a subprocess, driven by an open-loop Poisson
    schedule from one client process with at most two connections."""

    name = "serve_http_mix"
    in_process = False

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self.server: ServerProcess | None = None
        self.ledger_path = os.path.join(OUT_DIR, f"serve-ledger-{os.getpid()}.json")

    def setup(self, seed: int, out: Outcome) -> None:
        self.seed = seed
        self.rejected = 0
        baseline = []
        for _ in range(SETUP_REPEATS):
            out.setup_factors.append(speed_factor())
            server = ServerProcess()
            out.setup_samples.append(server.ready_s)
            self.server = server
            baseline.append(self._probe_latency())
            self.server = None
            server.stop()
        out.info["probe_ms_untraced"] = sorted(baseline)[len(baseline) // 2]
        reference_system = _paper_system()
        self.references = {}
        for kind, sql, options, _ in SERVE_KINDS:
            text = sql.replace(" LIMIT 10", "")
            self.references[kind] = bag(reference_system.sql(text, options=CENTRAL).rows)
        self.server = ServerProcess(self.ledger_path if self.traced else None)
        if self.traced:
            out.info["probe_ms_traced"] = self._probe_latency()
        # Warm-up: compile each request shape and start its pools before
        # the clock starts, as a long-running server would have.
        for _ in range(WARMUP_ROUNDS):
            for _, sql, options, _ in SERVE_KINDS:
                http_sql(self.server.port, {"sql": sql, "options": options})

    def _probe_latency(self) -> float:
        """Median of a few sequential small requests, in ms."""
        times = []
        for _ in range(PROBE_REQUESTS):
            record = http_sql(self.server.port, {"sql": SERVE_KINDS[1][1]})
            times.append((record["end"] - record["sent"]) * 1000.0)
        return sorted(times)[len(times) // 2]

    def _phase(self, rate: float, seconds: float) -> list:
        schedule = serve_schedule(self.seed, rate, seconds)
        records: list = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05
        port = self.server.port

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = schedule[index]
                due = start + request.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    record = http_sql(port, request.body())
                except (OSError, http.client.HTTPException, ValueError) as error:
                    record = {"sent": time.perf_counter(), "end": time.perf_counter(),
                              "status": 0, "error": repr(error)}
                record["due"] = due
                record["request"] = request
                records[index] = record

        threads = [threading.Thread(target=client) for _ in range(SERVE_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def _check(self, record: dict, out: Outcome) -> bool:
        request = record["request"]
        if record.get("status") == 429 or record.get("status", 0) >= 500:
            self.rejected += 1
        if record.get("status") != 200:
            return out.check(False, f"{request.kind}: HTTP {record.get('status')} {record.get('error', '')}")
        trailer = record.get("trailer") or {}
        rows = bag(record["rows"])
        reference = self.references[request.kind]
        if request.kind == "q1_limit":
            ok = sum(rows.values()) == min(10, sum(reference.values())) and is_subbag(rows, reference)
        else:
            ok = rows == reference
        return out.check(
            ok and "error" not in trailer and trailer.get("rows") == len(record["rows"]),
            f"{request.kind}: rows={len(record['rows'])} trailer={trailer}",
        )

    def window(self, seconds: float, out: Outcome, counters: list) -> None:
        stats_before = http_get(self.server.port, "/stats")
        watch = Stopwatch()
        phases = []
        for rate, share in SERVE_PHASES:
            records = self._phase(rate, seconds * share)
            ok = [self._check(record, out) for record in records]
            latencies = [(r["end"] - r["due"]) * 1000.0 for r in records]
            lags = [(r["sent"] - r["due"]) * 1000.0 for r in records]
            quarter = max(1, len(lags) // 4)
            backlog = (
                sorted(lags[-quarter:])[quarter // 2] - sorted(lags[:quarter])[quarter // 2]
                > SERVE_P90_LIMIT_MS
            )
            phases.append(
                {
                    "rate": rate,
                    "requests": len(records),
                    "p50_ms": percentile(latencies, 50),
                    "p90_ms": percentile(latencies, 90),
                    "failed": ok.count(False),
                    "backlog": backlog,
                    "lag_p90_ms": percentile(lags, 90),
                }
            )
            if len(phases) == 1:
                out.latencies_ms = latencies
                out.completed = len(records)
                out.window_s = watch.elapsed()
                nominal = records
        out.info["phases"] = phases
        # The request latencies are mostly the services' simulated waits,
        # which a slower host does not stretch, so they are not scaled.
        out.layers["serve.max_rate_rps"] = max_sustained_rate(phases)
        for record in nominal:
            trailer = record.get("trailer") or {}
            counters.append({"calls": trailer.get("total_calls", 0)})
            out.counted.append((trailer.get("total_calls", 0), trailer.get("elapsed")))
        stats_after = http_get(self.server.port, "/stats")
        out.info["server_queries"] = stats_after["queries"]
        ok_records = [r for r in nominal if r.get("status") == 200]
        out.layers.update(
            {
                "serve.ttfb_ms": percentile([(r["header"] - r["sent"]) * 1000.0 for r in ok_records], 50),
                "serve.stream_ms": percentile([(r["end"] - r["header"]) * 1000.0 for r in ok_records], 50),
                "serve.rejected": float(self.rejected),
                "loadgen.lag_p90_ms": phases[0]["lag_p90_ms"],
                "engine.plan_hit_ratio": _ratio(
                    stats_after["plan_cache_hits"] - stats_before["plan_cache_hits"],
                    stats_after["plan_cache_misses"] - stats_before["plan_cache_misses"],
                ),
                "engine.pool_reuse_ratio": _ratio(
                    stats_after["warm_leases"] - stats_before["warm_leases"],
                    stats_after["cold_starts"] - stats_before["cold_starts"],
                ),
            }
        )

    def finish(self, out: Outcome) -> None:
        out.peak_rss_mb = peak_rss_mb(self.server.process.pid)
        stop_s, hung = self.server.stop()
        self.server = None
        out.layers["serve.stop_s"] = stop_s
        out.info["server_hung"] = hung
        if hung:
            out.fail(f"server did not exit within {SERVE_STOP_TIMEOUT_S}s of SIGTERM")
        out.attempted += 1  # the shutdown itself is an operation
        if self.traced and not hung:
            with open(self.ledger_path) as handle:
                out.info["server_ledger"] = json.load(handle)
            os.remove(self.ledger_path)

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def max_sustained_rate(phases: list) -> float:
    """Highest rate meeting the p90 limit with no failure and no growing
    backlog, interpolated on p90 toward the first rate that misses it."""
    passed = None
    for phase in phases:
        good = (
            phase["p90_ms"] <= SERVE_P90_LIMIT_MS
            and not phase["failed"]
            and not phase["backlog"]
        )
        if not good:
            if passed is None:
                return phase["rate"] * SERVE_P90_LIMIT_MS / max(phase["p90_ms"], SERVE_P90_LIMIT_MS)
            if phase["p90_ms"] <= SERVE_P90_LIMIT_MS:
                return passed["rate"]  # missed on failures or backlog, not latency
            span = phase["rate"] - passed["rate"]
            slack = (SERVE_P90_LIMIT_MS - passed["p90_ms"]) / (phase["p90_ms"] - passed["p90_ms"])
            return passed["rate"] + span * slack
        passed = phase
    return passed["rate"]


WORKLOADS = {
    cls.name: cls for cls in (PaperOneShot, EngineZipfShared, ServeHttpMix, FleetWire)
}
