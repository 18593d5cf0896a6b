"""The search workloads: ``search-distinct`` and ``search-hot``.

Untraced runs launch ``repro cluster up`` (two replicas, one job and
one shard each) over a packed 400-sequence database and drive the
router over one TCP connection with this module's own load loops.
Traced runs repeat that window for the router's telemetry, then run
the same serving layers inside this process under spans.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    STARTED_GROUPS,
    CheckFailed,
    Outcome,
    Tracer,
    descendants,
    die_with_parent,
    kill_group,
    median,
    nearest_rank,
    process_rss_mb,
    reap,
)

DB_SEQUENCES = 400
QUERY_LENGTH = 64
REPLICAS = 2
#: search-distinct: requests in flight on the one connection.
DISTINCT_INFLIGHT = 16
#: search-hot: offered rate (about twice the distinct capacity), pool
#: size (about 4x the router's 256-entry response cache) and Zipf skew.
HOT_RATE = 150.0
HOT_POOL = 1000
HOT_ZIPF = 1.0
HOT_POOL_SEED = 2006
#: search-hot warm-up: the most popular queries, fewer than the
#: router cache holds, then unmeasured traffic for a few seconds.
HOT_WARM = 192
HOT_WARM_SECONDS = 4.0
#: A request answered ``ok`` within this limit meets the SLO (ms).  The
#: hot limit lies inside the range of miss latencies; the distinct one
#: lies above the usual p99, so only a clear slowdown moves it.
SLO_LIMIT_MS = {"search-distinct": 500.0, "search-hot": 150.0}
#: Requests per block; ``wall_s`` is the median block's span.
BLOCK = 256
#: Served responses compared with an in-process search per run, drawn
#: from the first ``SAMPLE_FROM`` measured requests.
SAMPLE = 8
SAMPLE_FROM = 100
#: Client-side limit per request; a failed request counts this latency.
REQUEST_TIMEOUT = 30.0
#: Launches per run; ``setup_s`` is their median, the last one serves.
SETUP_REPEATS = 3
#: In-process traced phase length (seconds per half).
TRACED_SECONDS = 5.0

_ID = re.compile(r'"id":\s*"([^"]*)"')


# -- inputs ----------------------------------------------------------------


def database_config():
    from dataclasses import replace

    from repro.serve.server import DEFAULT_DATABASE

    return replace(DEFAULT_DATABASE, sequence_count=DB_SEQUENCES)


def pack(workdir: Path) -> Path:
    from repro.bio.synthetic import generate_database
    from repro.store.packdb import pack_database

    config = database_config()
    return pack_database(
        generate_database(config), workdir / "db", source_config=config
    )


def queries(count: int, seed: int, tag: str) -> list[dict]:
    """``count`` distinct 64-residue BLAST queries drawn from the database."""
    from repro.serve.loadgen import make_workload

    drawn = make_workload(
        database_config(), 2 * count, 2 * count, QUERY_LENGTH,
        "blast", seed, tag=tag,
    )
    unique, seen = [], set()
    for payload in drawn:
        if payload["query"] not in seen:
            seen.add(payload["query"])
            unique.append(payload)
    return unique[:count]


def numbered(payloads, prefix: str):
    for number, payload in enumerate(payloads):
        yield {**payload, "id": f"{prefix}{number}"}


def zipf_stream(pool: list[dict], seed: int):
    """Endless Zipf-skewed draws from ``pool`` (rank = pool position)."""
    rng = random.Random(seed)
    weights = itertools.accumulate(
        1.0 / (rank + 1) ** HOT_ZIPF for rank in range(len(pool))
    )
    cumulative = list(weights)
    while True:
        yield pool[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]


# -- client and load loops -------------------------------------------------


class Connection:
    """One JSON-lines connection; responses are matched by ``id``."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[str, asyncio.Future] = {}
        self.largest_line = 0
        self.reader_task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                raw = await self.reader.readline()
                if not raw:
                    break
                self.largest_line = max(self.largest_line, len(raw))
                response = json.loads(raw)
                future = self.pending.pop(str(response.get("id", "")), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, ValueError):
            pass
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection lost"))
            self.pending.clear()

    async def call(self, payload: dict) -> dict:
        if self.reader_task.done():
            raise ConnectionError("connection lost")
        future = asyncio.get_running_loop().create_future()
        self.pending[str(payload["id"])] = future
        try:
            self.writer.write((json.dumps(payload) + "\n").encode())
            await self.writer.drain()
            return await future
        finally:
            self.pending.pop(str(payload["id"]), None)

    async def close(self) -> None:
        self.reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self.reader_task
        with contextlib.suppress(ConnectionError):
            self.writer.close()
            await self.writer.wait_closed()


@dataclass
class Record:
    payload: dict
    due: float
    end: float
    status: str
    replica: str | None = None
    cached: bool = False
    response: dict | None = None

    @property
    def latency(self) -> float:
        if self.status != "ok":
            return REQUEST_TIMEOUT
        return self.end - self.due


async def _one(conn: Connection, payload: dict, due: float, keep) -> Record:
    loop = asyncio.get_running_loop()
    try:
        response = await asyncio.wait_for(conn.call(payload), REQUEST_TIMEOUT)
        status = str(response.get("status", "error"))
    except asyncio.TimeoutError:
        response, status = None, "timeout"
    except ConnectionError:
        response, status = None, "dropped"
    record = Record(payload, due, loop.time(), status)
    if response is not None:
        record.replica = response.get("replica")
        record.cached = bool(response.get("cached"))
        if payload["id"] in keep:
            record.response = response
    return record


async def closed_loop(conn, payloads, inflight: int, seconds: float,
                      keep=frozenset()) -> list[Record]:
    """``inflight`` callers, each sending its next request on a reply."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    iterator = iter(payloads)
    records: list[Record] = []

    async def caller() -> None:
        while loop.time() < deadline:
            payload = next(iterator, None)
            if payload is None:
                return
            records.append(await _one(conn, payload, loop.time(), keep))

    await asyncio.gather(*(caller() for _ in range(inflight)))
    return records


async def open_loop(conn, payloads, rate: float, seconds: float, seed: int,
                    keep=frozenset()) -> tuple[list[Record], list[float]]:
    """Seeded Poisson arrivals; each request is timed from its due time."""
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    start = due = loop.time() + 0.01
    tasks, lags = [], []
    for payload in payloads:
        due += rng.expovariate(rate)
        if due - start > seconds:
            break
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        tasks.append(loop.create_task(_one(conn, payload, due, keep)))
    return list(await asyncio.gather(*tasks)), lags


async def request(host: str, port: int, payload: dict) -> dict:
    conn = await Connection.open(host, port)
    try:
        return await asyncio.wait_for(conn.call(payload), 30.0)
    finally:
        await conn.close()


# -- the cluster -----------------------------------------------------------


class Cluster:
    """``repro cluster up`` as a child process of this benchmark."""

    def __init__(self, workdir: Path, db_path: Path, env: dict, n: int):
        self.state_dir = workdir / f"cluster-{n}"
        self.log_path = workdir / f"cluster-{n}.log"
        self.db_path = db_path
        self.env = env
        self.process: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0
        self.replica_pids: list[int] = []

    async def launch(self) -> float:
        """Start the cluster; seconds from launch to all replicas healthy."""
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            # Its own process group holds the router and everything it
            # starts, so the whole cluster can be signalled and awaited.
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", "up",
                 "--replicas", str(REPLICAS), "--jobs", "1",
                 "--shards", "1", "--port", "0",
                 "--state-dir", str(self.state_dir),
                 "--db-path", str(self.db_path)],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                process_group=0, preexec_fn=die_with_parent,
            )
        STARTED_GROUPS.add(self.process.pid)
        state = self.state_dir / "cluster.json"
        deadline = start + 120.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    "cluster exited during start-up:\n"
                    + self.log_path.read_text()[-2000:]
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("cluster did not start in 120 s")
            if state.exists():
                try:
                    address = json.loads(state.read_text())
                except ValueError:
                    address = None
                if address:
                    self.host, self.port = address["host"], address["port"]
                    status = await request(
                        self.host, self.port, {"op": "status", "id": "s"}
                    )
                    if status["cluster"]["healthy"] == REPLICAS:
                        break
            await asyncio.sleep(0.01)
        elapsed = time.perf_counter() - start
        self.replica_pids = [
            row["pid"] for row in status["cluster"]["replicas"]
        ]
        return elapsed

    def peak_rss_mb(self) -> float:
        """High-water RSS summed over the router and every descendant."""
        pids = [self.process.pid, *descendants(self.process.pid)]
        return sum(process_rss_mb(pid, peak=True) for pid in pids)

    async def telemetry(self) -> dict:
        answer = await request(
            self.host, self.port, {"op": "telemetry", "id": "t"}
        )
        return answer["telemetry"]

    async def drain(self) -> None:
        """Graceful drain; then check that no process of it is left."""
        if self.process is None:
            return
        with contextlib.suppress(OSError, asyncio.TimeoutError, KeyError):
            await request(self.host, self.port,
                          {"op": "admin", "action": "drain", "id": "d"})
        deadline = time.perf_counter() + 60.0
        while self.process.poll() is None and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        self.stop_router()
        # Helpers such as multiprocessing's resource tracker notice the
        # router's exit a moment later; give them a few seconds.
        deadline = time.perf_counter() + 5.0
        while self.running() and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        if self.running():
            self.stop()
            raise CheckFailed("cluster processes left after its drain")

    def running(self) -> bool:
        """Whether any process of the cluster's group is still there."""
        reap()
        try:
            os.killpg(self.process.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def stop_router(self) -> None:
        """Terminate the router process if it still runs, and reap it."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def stop(self) -> None:
        """Hard stop on every path out: kill the group and wait for it."""
        if self.process is None:
            return
        kill_group(self.process.pid)
        self.process.wait()
        deadline = time.perf_counter() + 10.0
        while self.running() and time.perf_counter() < deadline:
            time.sleep(0.02)
        if not self.running():
            STARTED_GROUPS.discard(self.process.pid)


# -- one measured window ---------------------------------------------------


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        value for key, value in snapshot.get("counters", {}).items()
        if key.split("{")[0] == name
    )


def _histogram(snapshot: dict, name: str) -> tuple[float, float]:
    count = total = 0.0
    for key, shaped in snapshot.get("histograms", {}).items():
        if key.split("{")[0] == name:
            count += shaped["count"]
            total += shaped["total"]
    return count, total


def telemetry_diff(before: dict, after: dict) -> dict:
    """Per-layer serving numbers over the measured window only."""

    def delta(part: str, name: str) -> float:
        return _counter(after[part], name) - _counter(before[part], name)

    def mean(name: str) -> float:
        count_a, total_a = _histogram(after["aggregate"], name)
        count_b, total_b = _histogram(before["aggregate"], name)
        count = count_a - count_b
        return (total_a - total_b) / count if count else 0.0

    # Router latency over dispatched requests minus replica latency is
    # the router hop; answers from the router cache take microseconds,
    # so their share of the router total is neglected.
    router_count, router_total = (
        a - b for a, b in zip(
            _histogram(after["router"], "router.request.latency"),
            _histogram(before["router"], "router.request.latency"),
        )
    )
    forwarded = router_count - delta("router", "router.cache.hits")
    dispatched = {
        key: value - before["router"]["counters"].get(key, 0)
        for key, value in after["router"]["counters"].items()
        if key.startswith("router.dispatched")
    }
    total_dispatched = sum(dispatched.values())
    return {
        "serve.queue_wait_ms": 1e3 * mean("serve.queue.wait"),
        "serve.batch_occupancy": mean("serve.batch.occupancy"),
        "serve.scan_ms": 1e3 * mean("serve.scan.latency"),
        "serve.shed": delta("aggregate", "serve.requests.shed")
        + delta("router", "router.requests.shed"),
        "serve.timeouts": delta("aggregate", "serve.requests.timeout"),
        "serve.errors": delta("aggregate", "serve.requests.error"),
        "cluster.redispatches": delta("router", "router.redispatches"),
        "cluster.failovers": delta("router", "router.failovers"),
        "cluster.ejections": delta("router", "router.replica.ejections"),
        "cluster.replica_share_pct": (
            100.0 * max(dispatched.values()) / total_dispatched
            if total_dispatched else 0.0
        ),
        "cluster.hop_ms": 1e3 * (
            router_total / forwarded - mean("serve.request.latency")
            if forwarded else 0.0
        ),
        "router_hits": delta("router", "router.cache.hits"),
    }


class Classifier:
    """Where each answer came from, as the client can tell.

    A response flagged ``cached`` came from the router's response
    cache.  Otherwise the replica that answered it had scanned the
    query before (a scan-memo hit) or had not (a miss).
    """

    def __init__(self) -> None:
        self.seen: set[tuple[str, str]] = set()

    def classify(self, record: Record) -> str:
        if record.status != "ok":
            return "failed"
        if record.cached:
            return "router"
        key = (record.replica or "", record.payload["query"])
        if key in self.seen:
            return "memo"
        self.seen.add(key)
        return "miss"


@dataclass
class Window:
    records: list[Record]
    lags: list[float]
    classes: dict[str, int]
    largest_line: int
    #: Router telemetry just before and just after the window.
    before: dict | None = None
    after: dict | None = None


async def drive(workload: str, host: str, port: int, seed: int,
                seconds: float, keep=frozenset(), snapshot=None) -> Window:
    """Warm up, then run the workload's measured window.

    ``snapshot``, when given, is awaited just before and just after the
    window, so that what it records leaves the warm-up out.
    """
    conn = await Connection.open(host, port)
    classifier = Classifier()
    try:
        if workload == "search-distinct":
            warm = queries(32, seed + 1009, "warm")
            for record in await closed_loop(
                conn, numbered(warm, "w"), DISTINCT_INFLIGHT, 60.0
            ):
                classifier.classify(record)
            measured = queries(int(150 * seconds) + BLOCK, seed, "d")
            before = snapshot and await snapshot()
            records = await closed_loop(
                conn, numbered(measured, "m"), DISTINCT_INFLIGHT,
                seconds, keep,
            )
            lags: list[float] = []
        else:
            # One fixed pool for every seed: the seed draws the arrival
            # times and the Zipf sequence, not which queries are popular.
            pool = queries(HOT_POOL, HOT_POOL_SEED, "h")
            warm = await closed_loop(
                conn, numbered(pool[:HOT_WARM], "w"), DISTINCT_INFLIGHT, 60.0
            )
            # Then the same traffic, unmeasured, until the burst of
            # first-time queries at start-up has passed.
            warm += (await open_loop(
                conn, numbered(zipf_stream(pool, seed + 1), "u"),
                HOT_RATE, HOT_WARM_SECONDS, seed + 1,
            ))[0]
            for record in warm:
                classifier.classify(record)
            before = snapshot and await snapshot()
            records, lags = await open_loop(
                conn, numbered(zipf_stream(pool, seed), "m"),
                HOT_RATE, seconds, seed, keep,
            )
        after = snapshot and await snapshot()
        classes = {"router": 0, "memo": 0, "miss": 0, "failed": 0}
        for record in records:
            classes[classifier.classify(record)] += 1
        return Window(
            records, lags, classes, conn.largest_line, before, after
        )
    finally:
        await conn.close()


def end_to_end(workload: str, window: Window) -> dict:
    records = window.records
    ok = [record for record in records if record.status == "ok"]
    began = min(record.due for record in records)
    ended = max(record.end for record in records)
    blocks = [
        records[start:start + BLOCK]
        for start in range(0, len(records) - BLOCK + 1, BLOCK)
    ] or [records]
    limit = SLO_LIMIT_MS[workload] / 1e3
    return {
        "wall_s": median(
            max(r.end for r in block) - min(r.due for r in block)
            for block in blocks
        ),
        "throughput_rps": len(ok) / (ended - began),
        "slo_met_pct": 100.0 * sum(
            1 for record in ok if record.end - record.due <= limit
        ) / len(records),
    }


def check_sample(window: Window, keep: set[str], db_path: Path) -> None:
    """Served results must equal an unsharded in-process search."""
    from repro.align.batch import make_query, result_to_dict, search_one
    from repro.serve.protocol import decode_search
    from repro.store.packdb import open_packed

    database = open_packed(db_path)
    checked = 0
    for record in window.records:
        if record.payload["id"] not in keep:
            continue
        if record.response is None or record.status != "ok":
            raise CheckFailed(f"sampled request {record.payload['id']} "
                              f"answered {record.status}")
        request = decode_search(record.payload)
        expected = result_to_dict(search_one(
            request.params,
            make_query(request.query_id, request.query_text),
            database,
        ))
        served = json.dumps(record.response["result"], sort_keys=True)
        if served != json.dumps(expected, sort_keys=True):
            raise CheckFailed(
                f"served result for {record.payload['id']} differs from "
                "an in-process search of the same query"
            )
        checked += 1
    if not checked:
        raise CheckFailed("no sampled response was checked")


# -- runs ------------------------------------------------------------------


async def _cluster_window(workload, seed, seconds, workdir, env, db_path,
                          launches: int):
    """Launch ``launches`` times; measure with the last cluster."""
    keep = {
        f"m{i}" for i in random.Random(seed).sample(range(SAMPLE_FROM), SAMPLE)
    }
    setups = []
    for n in range(launches):
        cluster = Cluster(workdir, db_path, env, n)
        try:
            setups.append(await cluster.launch())
            if n + 1 < launches:
                await cluster.drain()
                continue
            window = await drive(workload, cluster.host, cluster.port,
                                 seed, seconds, keep, cluster.telemetry)
            peak = cluster.peak_rss_mb()
            replica_rss = median(
                process_rss_mb(pid) for pid in cluster.replica_pids
            )
            await cluster.drain()
        finally:
            cluster.stop()
    check_sample(window, keep, db_path)
    layers = telemetry_diff(window.before, window.after)
    return setups, window, layers, peak, replica_rss


def run_search(workload: str, seed: int, seconds: float, trace: bool,
               workdir: Path, env: dict) -> Outcome:
    db_path = pack(workdir)
    setups, window, layers, peak, replica_rss = asyncio.run(_cluster_window(
        workload, seed, seconds, workdir, env, db_path,
        1 if trace else SETUP_REPEATS,
    ))
    records = window.records
    failed = sum(1 for record in records if record.status != "ok")
    router_hits = layers.pop("router_hits")
    if router_hits != window.classes["router"]:
        raise CheckFailed(
            f"router counted {router_hits} cache hits, the client saw "
            f"{window.classes['router']}"
        )
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": peak,
            **end_to_end(workload, window),
        }
        return Outcome(len(records), failed, metrics)
    sent = len(records)
    latencies = [record.latency for record in records]
    metrics = dict(layers)
    metrics.update({
        "cluster.cache_hit_pct": 100.0 * window.classes["router"] / sent,
        "cluster.memo_hit_pct": 100.0 * window.classes["memo"] / sent,
        "cluster.miss_pct": 100.0 * window.classes["miss"] / sent,
        "serve.response_bytes_max": window.largest_line,
        "store.replica_rss_mb": replica_rss,
        "bench.generator_lag_p99_ms": 1e3 * nearest_rank(window.lags, 99),
        "bench.failed_pct": 100.0 * failed / sent,
        "client.latency_p50_ms": 1e3 * nearest_rank(latencies, 50),
        "client.latency_p99_ms": 1e3 * nearest_rank(latencies, 99),
    })
    metrics.update(asyncio.run(_traced_in_process(workload, seed, db_path)))
    return Outcome(sent, failed, metrics)


# -- the traced, in-process phase ------------------------------------------


async def _in_process_cluster(db_path: Path):
    """Two replicas and the router in this process, over localhost TCP."""
    from repro.cluster.router import ClusterRouter, RouterConfig
    from repro.serve.server import AlignmentService, ServeConfig, serve_tcp

    services, servers = [], []
    router = ClusterRouter(RouterConfig())
    await router.start()
    for index in range(REPLICAS):
        service = AlignmentService(ServeConfig(
            database_path=str(db_path), shard_count=1, jobs=1,
            precompute=True, replica=f"r{index}",
        ))
        await service.start()
        server = await serve_tcp(service, "127.0.0.1", 0)
        services.append(service)
        servers.append(server)
        await router.add_replica(
            f"r{index}", "127.0.0.1", server.sockets[0].getsockname()[1]
        )
    front = await serve_tcp(router, "127.0.0.1", 0)
    return router, services, [front, *servers]


async def _close_in_process(router, services, servers) -> None:
    for server in servers:
        server.close()
        await server.wait_closed()
    await router.stop()
    for service in services:
        await service.stop()


def install_search_spans(tracer: Tracer) -> None:
    """Spans around the serving layers' public functions.

    The router sends each replica a private request id; the span on
    ``ReplicaHandle.request`` records which client id it stands for,
    so the replica's span joins the client request it serves.
    """
    import repro.align.batch as batch
    from repro.cluster.replicas import ReplicaHandle
    from repro.cluster.router import ClusterRouter
    from repro.runtime.engine import ExperimentRuntime
    from repro.serve.server import AlignmentService

    internal: dict[tuple[str, str], str] = {}

    def line_id(line: str) -> str | None:
        match = _ID.search(line)
        return match.group(1) if match else None

    def forwarded(handle, payload, *args, **kwargs):
        client_id = payload.get("id")
        # The handle numbers its next request ``x<sequence + 1>``.
        internal[(handle.name, f"x{handle._sequence + 1}")] = client_id
        return client_id

    tracer.wrap(ClusterRouter, "handle_line", "cluster.router",
                lambda router, line: line_id(line))
    tracer.wrap(ReplicaHandle, "request", "cluster.forward", forwarded)
    tracer.wrap(
        AlignmentService, "handle_line", "serve.replica",
        lambda service, line: internal.get(
            (service.config.replica, line_id(line))
        ),
    )
    tracer.wrap(ExperimentRuntime, "search_shards", "runtime.engine")
    tracer.wrap(batch, "make_engine", "align.compile")
    tracer.wrap(batch, "scan_shard", "align.scan")


async def _in_process_half(workload, seed, db_path, tracer, enabled):
    tracer.enabled = enabled
    router, services, servers = await _in_process_cluster(db_path)
    try:
        host, port = servers[0].sockets[0].getsockname()[:2]
        tracer.clear()
        counts = [service.runtime.metrics.counts() for service in services]
        window = await drive(workload, host, port, seed, TRACED_SECONDS)
        after = [service.runtime.metrics.counts() for service in services]
    finally:
        tracer.enabled = False
        await _close_in_process(router, services, servers)
    ok = [record for record in window.records if record.status == "ok"]
    runtime = {
        key: sum(a[key] - b[key] for a, b in zip(after, counts))
        for key in counts[0]
    }
    return window, ok, runtime


async def _traced_in_process(workload: str, seed: int, db_path: Path) -> dict:
    tracer = Tracer()
    install_search_spans(tracer)
    try:
        plain, plain_ok, _ = await _in_process_half(
            workload, seed, db_path, tracer, False
        )
        traced, traced_ok, runtime = await _in_process_half(
            workload, seed, db_path, tracer, True
        )
    finally:
        tracer.restore()
    compiles = tracer.named("align.compile")
    scans = tracer.named("align.scan")
    plain_mean = sum(r.end - r.due for r in plain_ok) / len(plain_ok)
    traced_mean = sum(r.end - r.due for r in traced_ok) / len(traced_ok)
    tracer.dump(Path(".bench_out") / f"spans-{workload}.jsonl")
    return {
        "align.compile_ms": 1e3 * median(s.duration for s in compiles),
        "align.scan_ms": 1e3 * median(s.duration for s in scans),
        "runtime.self_s": tracer.self_time("runtime.engine"),
        "runtime.tasks": runtime["tasks"],
        "runtime.cache_hit_pct": 100.0 * runtime["cache_hits"]
        / max(1, runtime["tasks"]),
        "runtime.retries": runtime["retries"],
        "bench.tracing_overhead_pct": 100.0
        * (traced_mean - plain_mean) / plain_mean,
    }
