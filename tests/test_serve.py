"""Tests for the ``repro.serve`` alignment-search service.

Covers the scheduler's edge cases (empty flush, deadline flush with a
single request, cancellation mid-batch, shed on a full queue), the
sharded scan's byte-identity with the unsharded search, wire framing
(undecodable and oversize lines answered with errors on a connection
that keeps serving), and a full loopback server/loadgen round trip.
"""

import asyncio
import json

import pytest

from repro.align.batch import (
    ALGORITHMS,
    SearchParams,
    make_engine,
    make_query,
    merge_shards,
    result_to_dict,
    scan_shard,
    search_one,
)
from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.serve.admission import AdmissionController, QueueFull
from repro.serve.loadgen import LoopbackClient, main_loadgen
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    decode_search,
    encode_line,
    read_line,
)
from repro.serve.scheduler import BatchPolicy, DynamicBatcher
from repro.serve.server import (
    AlignmentService,
    ServeConfig,
    serve_stdio,
    serve_tcp,
)
from repro.serve.telemetry import Telemetry

#: Small database so service tests stay fast (jobs=1, no precompute).
SMALL_DATABASE = SyntheticDatabaseConfig(
    sequence_count=10,
    family_count=2,
    family_size=2,
    seed=91,
    mean_length=120.0,
)


def small_config(**overrides) -> ServeConfig:
    defaults = dict(
        database=SMALL_DATABASE,
        shard_count=2,
        jobs=1,
        queue_capacity=32,
        policy=BatchPolicy(max_batch=4, max_wait=0.005),
        default_timeout=30.0,
        precompute=False,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def db_queries(count: int, length: int = 48) -> list[tuple[str, str]]:
    """Query slices of the small database (guaranteed real hits)."""
    sequences = generate_database(SMALL_DATABASE)
    queries = []
    for index in range(count):
        subject = sequences[index % len(sequences)]
        queries.append((f"q{index}", subject.text[:length]))
    return queries


def search_payload(request_id: str, query_id: str, text: str) -> dict:
    return {
        "op": "search",
        "id": request_id,
        "query_id": query_id,
        "query": text,
        "algorithm": "blast",
    }


# -- scheduler edge cases ---------------------------------------------------


def run_scheduler_scenario(scenario):
    """Drive one batcher scenario; returns (executed batches, telemetry)."""

    async def main():
        telemetry = Telemetry()
        admission = AdmissionController(16, telemetry)
        executed: list[list[str]] = []

        async def execute(batch):
            executed.append([p.request.request_id for p in batch])
            for pending in batch:
                pending.resolve(
                    {"id": pending.request.request_id, "status": "ok"}
                )

        batcher = DynamicBatcher(
            admission, execute, BatchPolicy(max_batch=4, max_wait=0.01),
            telemetry,
        )
        loop = asyncio.get_running_loop()
        task = loop.create_task(batcher.run())
        try:
            await scenario(admission, loop)
            await asyncio.sleep(0.05)
        finally:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        return executed, telemetry

    return asyncio.run(main())


def make_request(request_id: str, timeout=None):
    data = search_payload(request_id, "q", "ACDEFGHIKLMNPQRSTVWY")
    if timeout is not None:
        data["timeout"] = timeout
    return decode_search(data)


class TestScheduler:
    def test_deadline_flush_with_one_request(self):
        # One lonely request: the batch flushes at max_wait with a
        # single member rather than waiting for a full batch.
        async def scenario(admission, loop):
            pending = admission.submit(make_request("solo"), loop.time())
            response = await pending.future
            assert response["status"] == "ok"

        executed, _ = run_scheduler_scenario(scenario)
        assert executed == [["solo"]]

    def test_full_batch_flushes_without_waiting(self):
        async def scenario(admission, loop):
            now = loop.time()
            pendings = [
                admission.submit(make_request(str(n)), now)
                for n in range(4)
            ]
            await asyncio.gather(*(p.future for p in pendings))

        executed, _ = run_scheduler_scenario(scenario)
        assert executed == [["0", "1", "2", "3"]]

    def test_cancelled_member_dropped_mid_batch(self):
        # A request cancelled while queued is pruned at flush time;
        # the rest of the batch still executes.
        async def scenario(admission, loop):
            now = loop.time()
            keep = admission.submit(make_request("keep"), now)
            drop = admission.submit(make_request("drop"), now)
            drop.cancelled = True
            response = await keep.future
            assert response["status"] == "ok"
            assert not drop.future.done()

        executed, _ = run_scheduler_scenario(scenario)
        assert executed == [["keep"]]

    def test_expired_member_resolved_with_timeout(self):
        async def scenario(admission, loop):
            now = loop.time()
            expired = admission.submit(
                make_request("late", timeout=0.001), now
            )
            await asyncio.sleep(0.005)
            live = admission.submit(make_request("live"), now)
            responses = await asyncio.gather(
                expired.future, live.future
            )
            assert responses[0]["status"] == "timeout"
            assert responses[1]["status"] == "ok"

        executed, telemetry = run_scheduler_scenario(scenario)
        assert executed == [["live"]]
        assert telemetry.counter("serve.requests.timeout").value == 1

    def test_empty_flush_executes_nothing(self):
        # Every member died while queued: the flush counts as empty
        # and the executor is never called.
        async def scenario(admission, loop):
            now = loop.time()
            for n in range(3):
                pending = admission.submit(make_request(str(n)), now)
                pending.cancelled = True
            await asyncio.sleep(0.05)

        executed, telemetry = run_scheduler_scenario(scenario)
        assert executed == []
        assert telemetry.counter("serve.batches.empty").value >= 1

    def test_shed_on_full_queue(self):
        async def main():
            telemetry = Telemetry()
            admission = AdmissionController(2, telemetry)
            now = 0.0
            admission.submit(make_request("a"), now)
            admission.submit(make_request("b"), now)
            try:
                admission.submit(make_request("c"), now)
            except QueueFull:
                return telemetry
            raise AssertionError("expected QueueFull")

        async def scenario():
            telemetry = await main()
            assert telemetry.counter("serve.requests.shed").value == 1
            assert telemetry.counter("serve.requests.admitted").value == 2

        asyncio.run(scenario())


# -- sharded scan determinism ----------------------------------------------


class TestShardMerge:
    def test_sharded_merge_byte_identical_to_unsharded(self):
        # For every algorithm and shard count: scanning shards
        # independently and merging must serialize byte-identically
        # to the unsharded reference search.
        database = generate_database(SMALL_DATABASE)
        query = make_query("probe", database[1].text[5:69])
        for algorithm in ALGORITHMS:
            params = SearchParams(algorithm=algorithm, best_count=50)
            reference = json.dumps(
                result_to_dict(search_one(params, query, database)),
                sort_keys=True,
            )
            for shard_count in (1, 2, 3):
                scans = []
                for shard in range(shard_count):
                    scans.extend(scan_shard(
                        params, [make_engine(params, query)],
                        database, shard, shard_count,
                    ))
                merged = json.dumps(
                    result_to_dict(merge_shards(
                        params, query, scans, database.name
                    )),
                    sort_keys=True,
                )
                assert merged == reference, (algorithm, shard_count)

    def test_batched_shard_scan_matches_solo(self):
        # A multi-query batched BLAST shard scan must produce each
        # query's scans exactly as a one-query scan would.
        database = generate_database(SMALL_DATABASE)
        params = SearchParams(algorithm="blast", best_count=50)
        queries = [
            make_query(name, text) for name, text in db_queries(5)
        ]
        for shard in range(2):
            batch_engines = [make_engine(params, q) for q in queries]
            batched = scan_shard(
                params, batch_engines, database, shard, 2
            )
            for query, scan in zip(queries, batched):
                solo = scan_shard(
                    params, [make_engine(params, query)],
                    database, shard, 2,
                )[0]
                assert scan.raw == solo.raw
                assert scan.residues == solo.residues


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_decode_rejects_bad_lines(self):
        for line in ("not json", '["list"]', '{"op": "bogus"}'):
            try:
                decode_line(line)
            except ProtocolError:
                continue
            raise AssertionError(f"expected ProtocolError for {line!r}")

    def test_decode_search_validates(self):
        for data in (
            {"op": "search"},                       # no query
            {"op": "search", "query": "ACD", "timeout": -1},
            {"op": "search", "query": "ACD", "algorithm": "hmmer"},
        ):
            try:
                decode_search(data)
            except ProtocolError:
                continue
            raise AssertionError(f"expected ProtocolError for {data!r}")


# -- loopback service round trip -------------------------------------------


class TestLoopback:
    def test_search_matches_unsharded_reference(self):
        async def main():
            async with AlignmentService(small_config()) as service:
                client = LoopbackClient(service)
                ping = await client.request({"op": "ping", "id": "p"})
                assert ping["status"] == "ok"

                queries = db_queries(6)
                responses = await asyncio.gather(*(
                    client.request(search_payload(str(n), name, text))
                    for n, (name, text) in enumerate(queries)
                ))
                database = generate_database(SMALL_DATABASE)
                params = SearchParams(algorithm="blast")
                for n, (name, text) in enumerate(queries):
                    response = responses[n]
                    assert response["id"] == str(n)
                    assert response["status"] == "ok"
                    assert response["shards"] == 2
                    reference = result_to_dict(search_one(
                        params, make_query(name, text), database
                    ))
                    assert response["result"] == reference
                    assert response["result"]["hits"]

                telemetry = await client.request(
                    {"op": "telemetry", "id": "t"}
                )
                counters = telemetry["telemetry"]["counters"]
                assert counters["serve.requests.completed"] == 6
                assert counters["serve.requests.shed"] == 0
        asyncio.run(main())

    def test_tcp_round_trip(self):
        async def main():
            async with AlignmentService(small_config()) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                (name, text) = db_queries(1)[0]
                payload = search_payload("tcp-1", name, text)
                writer.write(
                    (json.dumps(payload) + "\n").encode()
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] == "tcp-1"
                assert response["status"] == "ok"
                assert response["result"]["hits"]
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
        asyncio.run(main())


class TestWireFraming:
    """Malformed and oversize lines get an error, never a dead link."""

    @staticmethod
    async def _exchange(lines: list[bytes]) -> list[dict]:
        """Send raw lines to a live TCP server; one response per line."""
        async with AlignmentService(small_config()) as service:
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=MAX_LINE_BYTES
            )
            responses = []
            try:
                # One line at a time: each answer arrives before the
                # next line goes out, so responses stay in send order.
                for line in lines:
                    writer.write(line)
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.readline(), 30)
                    assert raw, "connection closed"
                    responses.append(json.loads(raw))
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return responses

    def test_undecodable_line_then_next_request_answered(self):
        first, second = asyncio.run(self._exchange([
            b'\xff\xfe{"op": "ping"}\n',
            b'{"op": "ping", "id": "after"}\n',
        ]))
        assert first["status"] == "error"
        assert "UTF-8" in first["error"]
        assert second == {"id": "after", "status": "ok", "op": "ping"}

    def test_oversize_request_line_gets_error_response(self):
        first, second = asyncio.run(self._exchange([
            b"x" * (MAX_LINE_BYTES + 1000) + b"\n",
            b'{"op": "ping", "id": "after"}\n',
        ]))
        assert first["status"] == "error"
        assert "exceeds" in first["error"]
        assert second["id"] == "after"
        assert second["status"] == "ok"

    def test_stdio_shares_the_framing(self, monkeypatch):
        import io
        import sys

        stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(
            b'\xff\n'
            + b"y" * (MAX_LINE_BYTES + 1) + b"\n"
            + b'{"op": "ping", "id": "p"}'  # last line, no newline
        )))
        stdout = io.TextIOWrapper(io.BytesIO())
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", stdout)

        async def main():
            async with AlignmentService(small_config()) as service:
                await serve_stdio(service)

        asyncio.run(main())
        responses = [
            json.loads(line)
            for line in stdout.buffer.getvalue().splitlines()
        ]
        assert [r["status"] for r in responses] == ["error", "error", "ok"]
        assert responses[2]["id"] == "p"

    def test_read_line_realigns_after_split_oversize_line(self):
        async def main():
            reader = asyncio.StreamReader(limit=16)
            reader.feed_data(b"a" * 20)
            reader.feed_data(b"b" * 20 + b"\nok\n")
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_line(reader)
            assert await read_line(reader) == "ok\n"
            assert await read_line(reader) is None

        asyncio.run(main())

    def test_oversize_response_becomes_error(self):
        small = encode_line({"id": "s", "status": "ok"})
        assert json.loads(small)["status"] == "ok"
        huge = encode_line(
            {"id": "h", "status": "ok", "result": "z" * MAX_LINE_BYTES}
        )
        assert len(huge) < 1024
        response = json.loads(huge)
        assert response["id"] == "h"
        assert response["status"] == "error"


class TestLoadgen:
    def test_loopback_loadgen_exits_clean(self, tmp_path):
        report_path = tmp_path / "loadgen.json"
        status = main_loadgen([
            "--requests", "12", "--concurrency", "4",
            "--jobs", "1", "--shards", "2", "--batch-size", "4",
            "--query-pool", "4", "--db-sequences", "10",
            "--db-seed", "91", "--no-precompute",
            "--fail-on-error", "--report", str(report_path),
        ])
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["statuses"]["ok"] == 12
        assert report["throughput_rps"] > 0
        assert "p95" in report["latency"]
        assert (
            report["telemetry"]["counters"]["serve.requests.completed"]
            == 12 + report["query_pool"]  # measured + warmup
        )

    def test_p99_deadline_gate_passes_and_fails(self, tmp_path):
        report_path = tmp_path / "deadline.json"
        base = [
            "--requests", "8", "--concurrency", "4",
            "--jobs", "1", "--shards", "2", "--batch-size", "4",
            "--query-pool", "4", "--db-sequences", "10",
            "--db-seed", "91", "--no-precompute",
        ]
        status = main_loadgen(base + [
            "--require-p99-ms", "60000", "--report", str(report_path),
        ])
        assert status == 0
        deadline = json.loads(report_path.read_text())["deadline"]
        assert deadline["compliant"] is True
        assert deadline["limit_ms"] == 60000
        assert deadline["within_pct"] == 100.0
        # An impossible deadline flips the exit code, nothing else.
        assert main_loadgen(base + ["--require-p99-ms", "0.00001"]) == 1


class TestMultiTargetLoadgen:
    def test_targets_round_robin_two_servers(self, tmp_path):
        import threading

        ports: list[int] = []
        ready = threading.Event()
        shared: dict = {}

        def serve_thread():
            async def main():
                shared["loop"] = asyncio.get_running_loop()
                shared["stop"] = asyncio.Event()
                async with AlignmentService(
                    small_config(replica="r0")
                ) as first, AlignmentService(
                    small_config(replica="r1")
                ) as second:
                    servers = [
                        await serve_tcp(first, "127.0.0.1", 0),
                        await serve_tcp(second, "127.0.0.1", 0),
                    ]
                    ports.extend(
                        s.sockets[0].getsockname()[1] for s in servers
                    )
                    ready.set()
                    await shared["stop"].wait()
                    for server in servers:
                        server.close()
                        await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=serve_thread, daemon=True)
        thread.start()
        assert ready.wait(60), "servers never came up"
        try:
            report_path = tmp_path / "targets.json"
            targets = ",".join(f"127.0.0.1:{port}" for port in ports)
            status = main_loadgen([
                "--targets", targets,
                "--requests", "8", "--concurrency", "4",
                "--query-pool", "4", "--db-sequences", "10",
                "--db-seed", "91",
                "--require-p99-ms", "60000",
                "--fail-on-error", "--report", str(report_path),
            ])
            assert status == 0
            report = json.loads(report_path.read_text())
            assert report["statuses"]["ok"] == 8
            assert report["targets"] == [
                f"127.0.0.1:{port}" for port in ports
            ]
            assert report["deadline"]["compliant"] is True
            # Per-target telemetry keyed by address, each labelled
            # with the replica that produced it.
            assert set(report["telemetry"]) == set(report["targets"])
            labels = {
                view["labels"]["replica"]
                for view in report["telemetry"].values()
            }
            assert labels == {"r0", "r1"}
            # Round-robin: both servers actually served requests.
            for view in report["telemetry"].values():
                completed = view["counters"][
                    "serve.requests.completed"
                ]
                assert completed >= 1
        finally:
            shared["loop"].call_soon_threadsafe(shared["stop"].set)
            thread.join(30)


class TestDrain:
    def test_drain_sheds_new_requests_with_reason(self):
        async def main():
            queries = db_queries(1)
            async with AlignmentService(small_config()) as service:
                payload = search_payload("d1", *queries[0])
                first = await service.handle_line(json.dumps(payload))
                assert first["status"] == "ok"
                await service.drain(grace=2.0)
                assert service.draining
                late = await service.handle_line(
                    json.dumps(search_payload("d2", *queries[0]))
                )
                # The retryable busy signal a cluster router acts on.
                assert late["status"] == "shed"
                assert late["reason"] == "draining"

        asyncio.run(main())

    def test_drain_flushes_in_flight_requests(self):
        async def main():
            queries = db_queries(3)
            async with AlignmentService(small_config()) as service:
                loop = asyncio.get_running_loop()
                tasks = [
                    loop.create_task(service.handle_line(json.dumps(
                        search_payload(f"f{i}", *queries[i])
                    )))
                    for i in range(3)
                ]
                await asyncio.sleep(0)
                await service.drain(grace=30.0)
                responses = await asyncio.gather(*tasks)
                # Everything admitted before the drain still answers.
                assert all(
                    r["status"] in ("ok", "shed") for r in responses
                )
                admitted = [
                    r for r in responses if r["status"] == "ok"
                ]
                assert admitted, "drain dropped every in-flight request"
                assert service._inflight == 0

        asyncio.run(main())

    def test_status_op_reports_drain_state(self):
        async def main():
            async with AlignmentService(
                small_config(replica="r7")
            ) as service:
                status = await service.handle_line(
                    json.dumps({"op": "status", "id": "s"})
                )
                assert status["status"] == "ok"
                serve = status["serve"]
                assert serve["replica"] == "r7"
                assert serve["draining"] is False
                assert serve["queue_capacity"] == 32
                await service.drain(grace=1.0)
                drained = await service.handle_line(
                    json.dumps({"op": "status", "id": "s2"})
                )
                assert drained["serve"]["draining"] is True

        asyncio.run(main())
