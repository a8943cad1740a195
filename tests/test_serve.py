"""End-to-end tests for the measurement service (repro.serve).

Every test drives a real :class:`~repro.serve.ReproService` over a real
loopback socket via :func:`~repro.serve.http_get` — the wire protocol,
routing, cache tiers, coalescing and load shedding are all exercised
exactly as a client sees them.  Builds are injected (a counting build
function on a thread pool), so the tests pin the *service* semantics —
one build per key, 304 on matching ETags, 503 + Retry-After past the
queue bound — without paying process-pool latency; one slow test at the
bottom runs the production spawn pool end to end.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.datasets.checkpoint import CheckpointStore
from repro.serve import (
    SERVE_SCHEMA_VERSION,
    ReproService,
    http_get,
    result_key,
)
from repro.serve.http import HTTP_VERSION, Request


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


class CountingBuilder:
    """A build function that records every call, thread-safely."""

    def __init__(self, delay: float = 0.0, gate: threading.Event | None = None):
        self.calls: list[str] = []
        self.delay = delay
        self.gate = gate
        self._lock = threading.Lock()

    def __call__(self, job):
        with self._lock:
            self.calls.append(job.job_id)
        if self.gate is not None:
            assert self.gate.wait(10.0), "builder gate never released"
        name = job.experiments[0]
        return {
            name: {
                "text": f"{name} scale={job.scale:g} seed={job.seed}",
                "sha256": "0" * 64,
            }
        }


def run(coroutine):
    return asyncio.run(coroutine)


async def started_service(store, builder, **kwargs):
    kwargs.setdefault("executor", ThreadPoolExecutor(max_workers=4))
    service = ReproService(store=store, build_fn=builder, **kwargs)
    await service.start(port=0)
    return service


class TestCacheAndEtags:
    def test_second_identical_get_is_a_cache_hit(self, tmp_path):
        builder = CountingBuilder()

        async def scenario():
            service = await started_service(CheckpointStore(tmp_path), builder)
            try:
                target = "/experiments/fig2?scale=0.1&seed=3"
                status, headers, body = await http_get(
                    "127.0.0.1", service.port, target
                )
                assert status == 200
                status2, headers2, body2 = await http_get(
                    "127.0.0.1", service.port, target
                )
                assert status2 == 200
                assert body2 == body
                assert headers2["etag"] == headers["etag"]
                assert headers2["x-repro-key"] == headers["x-repro-key"]
                return json.loads(body)
            finally:
                await service.stop()

        payload = run(scenario())
        assert builder.calls == [builder.calls[0]] and len(builder.calls) == 1
        assert obs.counters()["serve.hits"] == 1
        assert obs.counters()["serve.misses"] == 1
        assert payload["schema_version"] == SERVE_SCHEMA_VERSION
        assert payload["experiment"] == "fig2"
        assert payload["scale"] == 0.1
        assert payload["seed"] == 3
        assert payload["result"]["text"] == "fig2 scale=0.1 seed=3"
        assert payload["key"] == result_key("fig2", 0.1, 3, {})

    def test_hits_answer_with_the_body_encoded_once(
        self, tmp_path, monkeypatch
    ):
        """A payload is encoded once, when it enters the memory tier
        (built, or loaded from the store by a fresh server); hits and
        304s re-send that body and ETag byte for byte."""
        from repro.serve import app

        encodes = []
        encode = app._json_body

        def counting(payload):
            encodes.append(payload)
            return encode(payload)

        monkeypatch.setattr(app, "_json_body", counting)
        builder = CountingBuilder()
        target = "/experiments/fig2?scale=0.1&seed=3"

        async def scenario():
            answers = []
            for _ in range(2):
                service = await started_service(
                    CheckpointStore(tmp_path), builder
                )
                try:
                    first = await http_get("127.0.0.1", service.port, target)
                    tag = first[1]["etag"]
                    hit = await http_get("127.0.0.1", service.port, target)
                    revalidated = await http_get(
                        "127.0.0.1",
                        service.port,
                        target,
                        headers={"if-none-match": tag},
                    )
                    answers.append((first, hit, revalidated))
                finally:
                    await service.stop()
            return answers

        answers = run(scenario())
        assert len(builder.calls) == 1
        assert len(encodes) == 2  # the build, then the store load
        bodies = {answer[0][2] for answer in answers} | {
            answer[1][2] for answer in answers
        }
        etags = {answer[i][1]["etag"] for answer in answers for i in (0, 1, 2)}
        assert len(bodies) == 1 and len(etags) == 1
        assert [answer[2][0] for answer in answers] == [304, 304]

    def test_if_none_match_yields_304(self, tmp_path):
        builder = CountingBuilder()

        async def scenario():
            service = await started_service(CheckpointStore(tmp_path), builder)
            try:
                target = "/experiments/fig2?scale=0.1&seed=3"
                _status, headers, _body = await http_get(
                    "127.0.0.1", service.port, target
                )
                etag = headers["etag"]
                results = []
                for sent in (
                    etag,
                    f"W/{etag}",
                    f'"zzz", {etag}',
                    "*",
                    '"mismatch"',
                ):
                    results.append(
                        await http_get(
                            "127.0.0.1",
                            service.port,
                            target,
                            headers={"if-none-match": sent},
                        )
                    )
                return etag, results
            finally:
                await service.stop()

        etag, results = run(scenario())
        for status, headers, body in results[:4]:
            assert status == 304
            assert body == b""
            assert headers["etag"] == etag  # revalidation still carries it
        status, _headers, body = results[4]
        assert status == 200 and body  # mismatched tag gets the body
        assert obs.counters()["serve.not_modified"] == 4

    def test_distinct_coordinates_get_distinct_keys(self, tmp_path):
        builder = CountingBuilder()

        async def scenario():
            service = await started_service(CheckpointStore(tmp_path), builder)
            try:
                seen = {}
                for target in (
                    "/experiments/fig2?scale=0.1&seed=3",
                    "/experiments/fig2?scale=0.1&seed=4",
                    "/experiments/fig2?scale=0.1&seed=3"
                    "&set=behavior.wrong_origin_sibling=0.9",
                    "/experiments/fig4?scale=0.1&seed=3",
                ):
                    _status, headers, _body = await http_get(
                        "127.0.0.1", service.port, target
                    )
                    seen[target] = (headers["x-repro-key"], headers["etag"])
                return seen
            finally:
                await service.stop()

        seen = run(scenario())
        keys = [key for key, _ in seen.values()]
        etags = [etag for _, etag in seen.values()]
        assert len(set(keys)) == len(keys)
        assert len(set(etags)) == len(etags)
        assert len(builder.calls) == 4

    def test_results_persist_across_service_instances(self, tmp_path):
        builder = CountingBuilder()
        target = "/experiments/fig2?scale=0.1&seed=3"

        async def first():
            service = await started_service(CheckpointStore(tmp_path), builder)
            try:
                return await http_get("127.0.0.1", service.port, target)
            finally:
                await service.stop()

        async def second():
            # A build function that explodes: the answer must come from disk.
            def refuse(job):
                raise AssertionError("disk-cached key must not rebuild")

            service = await started_service(CheckpointStore(tmp_path), refuse)
            try:
                return await http_get("127.0.0.1", service.port, target)
            finally:
                await service.stop()

        _status, headers, body = run(first())
        status2, headers2, body2 = run(second())
        assert status2 == 200
        assert body2 == body
        assert headers2["etag"] == headers["etag"]

    def test_tampered_result_entry_is_rebuilt(self, tmp_path):
        builder = CountingBuilder()
        store = CheckpointStore(tmp_path)
        target = "/experiments/fig2?scale=0.1&seed=3"
        key = result_key("fig2", 0.1, 3, {})

        async def get_once():
            service = await started_service(CheckpointStore(tmp_path), builder)
            try:
                return await http_get("127.0.0.1", service.port, target)
            finally:
                await service.stop()

        run(get_once())
        path = store.result_path(key)
        record = json.loads(path.read_text())
        record["payload"]["seed"] = 999  # tamper without re-digesting
        path.write_text(json.dumps(record))
        status, _headers, body = run(get_once())
        assert status == 200
        assert json.loads(body)["seed"] == 3  # rebuilt, not the tampered copy
        assert len(builder.calls) == 2
        assert obs.counters()["checkpoint.result_corrupt"] == 1
        assert not path.exists() or json.loads(path.read_text())["payload"][
            "seed"
        ] == 3


class TestCoalescing:
    def test_concurrent_identical_cold_requests_build_once(self, tmp_path):
        gate = threading.Event()
        builder = CountingBuilder(gate=gate)

        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), builder, builders=4
            )
            try:
                target = "/experiments/fig2?scale=0.1&seed=3"
                tasks = [
                    asyncio.create_task(
                        http_get("127.0.0.1", service.port, target)
                    )
                    for _ in range(8)
                ]
                # Let every request reach the coalescing point, then
                # release the single build they all share.
                await asyncio.sleep(0.2)
                gate.set()
                return await asyncio.gather(*tasks)
            finally:
                await service.stop()

        results = run(scenario())
        assert [status for status, _h, _b in results] == [200] * 8
        assert len({body for _s, _h, body in results}) == 1
        assert len(builder.calls) == 1
        assert obs.counters()["serve.misses"] == 1
        assert obs.counters()["serve.coalesced"] == 7

    def test_build_failure_propagates_to_every_waiter(self, tmp_path):
        def explode(job):
            raise RuntimeError("synthetic build failure")

        async def scenario():
            service = await started_service(CheckpointStore(tmp_path), explode)
            try:
                target = "/experiments/fig2?scale=0.1&seed=3"
                results = await asyncio.gather(
                    *[
                        http_get("127.0.0.1", service.port, target)
                        for _ in range(3)
                    ]
                )
                # The failure is not cached: a later request re-enqueues.
                retry = await http_get("127.0.0.1", service.port, target)
                return results, retry
            finally:
                await service.stop()

        results, retry = run(scenario())
        for status, _headers, body in results:
            assert status == 500
            assert "synthetic build failure" in json.loads(body)["error"]
        assert retry[0] == 500
        assert obs.counters()["serve.build_errors"] >= 2


class TestLoadShedding:
    def test_full_queue_returns_503_with_retry_after(self, tmp_path):
        gate = threading.Event()
        builder = CountingBuilder(gate=gate)

        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path),
                builder,
                executor=ThreadPoolExecutor(max_workers=1),
                queue_limit=1,
                builders=1,
            )
            try:
                host, port = "127.0.0.1", service.port
                # Seed 0 occupies the single builder; seed 1 fills the
                # queue; seed 2 must be shed.
                first = asyncio.create_task(
                    http_get(host, port, "/experiments/fig2?scale=0.1&seed=0")
                )
                await asyncio.sleep(0.2)
                second = asyncio.create_task(
                    http_get(host, port, "/experiments/fig2?scale=0.1&seed=1")
                )
                await asyncio.sleep(0.2)
                shed = await http_get(
                    host, port, "/experiments/fig2?scale=0.1&seed=2"
                )
                gate.set()
                served = await asyncio.gather(first, second)
                # With the queue drained, the shed key goes through.
                retried = await http_get(
                    host, port, "/experiments/fig2?scale=0.1&seed=2"
                )
                return shed, served, retried
            finally:
                await service.stop()

        shed, served, retried = run(scenario())
        status, headers, body = shed
        assert status == 503
        assert headers["retry-after"] == "1"
        assert "queue full" in json.loads(body)["error"]
        assert [s for s, _h, _b in served] == [200, 200]
        assert retried[0] == 200
        assert obs.counters()["serve.rejected"] == 1


class TestMetaEndpoints:
    def test_healthz_and_experiments(self, tmp_path):
        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                health = await http_get("127.0.0.1", service.port, "/healthz")
                table = await http_get(
                    "127.0.0.1", service.port, "/experiments"
                )
                return health, table
            finally:
                await service.stop()

        health, table = run(scenario())
        payload = json.loads(health[2])
        assert health[0] == 200
        assert payload["status"] == "ok"
        assert payload["store"] == str(tmp_path)
        assert payload["queue_depth"] == 0
        listing = json.loads(table[2])
        names = [entry["name"] for entry in listing["experiments"]]
        assert "fig2" in names and len(names) >= 10
        assert all(
            entry.keys() == {"name", "title", "paper_ref"}
            for entry in listing["experiments"]
        )

    def test_metrics_snapshot_schema(self, tmp_path):
        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                await http_get(
                    "127.0.0.1",
                    service.port,
                    "/experiments/fig2?scale=0.1&seed=3",
                )
                return await http_get("127.0.0.1", service.port, "/metrics")
            finally:
                await service.stop()

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["content-type"] == "application/json"
        snapshot = json.loads(body)
        assert snapshot.keys() == {"schema_version", "timings_s", "metrics"}
        counters = snapshot["metrics"]["counters"]
        assert counters["serve.requests"] >= 1
        assert counters["serve.misses"] == 1
        assert snapshot["metrics"]["gauges"]["serve.inflight"] == 0

    def test_request_spans_are_not_kept(self, tmp_path):
        """A long-lived server keeps no span per request: the root count
        does not grow with the request count, the flat timing does."""
        service = ReproService(
            store=CheckpointStore(tmp_path), build_fn=CountingBuilder()
        )
        healthz = Request("GET", "/healthz", "/healthz")

        async def serve(n):
            for _ in range(n):
                await service._route(healthz)

        def after(n):
            run(serve(n))
            return (
                len(obs.root_spans()),
                obs.snapshot(spans=False)["timings_s"]["serve.request"],
                obs.counters()["serve.requests"],
            )

        with obs.span("outer"):
            pass
        roots_10, seconds_10, requests_10 = after(10)
        roots_200, seconds_200, requests_200 = after(190)
        assert roots_10 == roots_200 == 1
        assert seconds_200 > seconds_10 > 0
        assert (requests_10, requests_200) == (10, 200)

    def test_sweep_endpoints_read_the_ledger(self, tmp_path):
        from repro.sweep.ledger import RunLedger
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_mapping(
            {
                "name": "serve-test",
                "axes": {"scale": [0.1], "seed": [0, 1]},
            }
        )
        jobs = spec.expand()
        ledger = RunLedger.open(tmp_path / "sweeps", spec, jobs)
        ledger.append("start", jobs[0].job_id, 1)
        ledger.append(
            "done", jobs[0].job_id, 1, seconds=0.5, payload={"x": 1}
        )
        ledger.close()

        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                index = await http_get("127.0.0.1", service.port, "/sweeps")
                detail = await http_get(
                    "127.0.0.1", service.port, f"/sweeps/{spec.sweep_id}"
                )
                missing = await http_get(
                    "127.0.0.1", service.port, "/sweeps/deadbeef"
                )
                return index, detail, missing
            finally:
                await service.stop()

        index, detail, missing = run(scenario())
        listing = json.loads(index[2])
        assert [m["sweep_id"] for m in listing["sweeps"]] == [spec.sweep_id]
        payload = json.loads(detail[2])
        assert payload["manifest"]["name"] == "serve-test"
        states = payload["jobs"]
        assert states[jobs[0].job_id]["status"] == "done"
        assert states[jobs[1].job_id]["status"] == "pending"
        assert missing[0] == 404

    def test_sweep_directories_do_not_pollute_cache_entries(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "sweeps" / "abc").mkdir(parents=True)
        (tmp_path / "results").mkdir(exist_ok=True)
        store.save_result("k" * 16, {"fine": True})
        assert store.entries() == []


class TestRequestValidation:
    def test_unknown_routes_and_experiments_404(self, tmp_path):
        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                return (
                    await http_get("127.0.0.1", service.port, "/nope"),
                    await http_get(
                        "127.0.0.1", service.port, "/experiments/unknown"
                    ),
                )
            finally:
                await service.stop()

        route, experiment = run(scenario())
        assert route[0] == 404
        assert experiment[0] == 404
        assert "choose from" in json.loads(experiment[2])["error"]

    @pytest.mark.parametrize(
        "target",
        [
            "/experiments/fig2?scale=bogus",
            "/experiments/fig2?seed=1.5",
            "/experiments/fig2?scale=0",
            "/experiments/fig2?scale=99",
            "/experiments/fig2?unknown=1",
            "/experiments/fig2?set=noequals",
            "/experiments/fig2?set=not.a.path=1",
        ],
    )
    def test_bad_queries_400(self, tmp_path, target):
        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                return await http_get("127.0.0.1", service.port, target)
            finally:
                await service.stop()

        status, _headers, body = run(scenario())
        assert status == 400
        assert json.loads(body)["error"]

    def test_non_get_methods_405(self, tmp_path):
        async def scenario():
            service = await started_service(
                CheckpointStore(tmp_path), CountingBuilder()
            )
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(
                    f"POST /healthz {HTTP_VERSION}\r\n"
                    f"host: x\r\nconnection: close\r\n\r\n".encode()
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                writer.close()
                await writer.wait_closed()
                return head.decode()
            finally:
                await service.stop()

        head = run(scenario())
        assert " 405 " in head.splitlines()[0]
        assert "allow: GET" in head


class TestResultEntries:
    def test_round_trip_and_counters(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_result("a" * 16) is None
        store.save_result("a" * 16, {"value": [1, 2, 3]})
        assert store.load_result("a" * 16) == {"value": [1, 2, 3]}
        assert store.result_keys() == ["a" * 16]
        counters = obs.counters()
        assert counters["checkpoint.result_saved"] == 1
        assert counters["checkpoint.result_miss"] == 1
        assert counters["checkpoint.result_hit"] == 1

    def test_save_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_result("b" * 16, {"value": 1})
        store.save_result("b" * 16, {"value": 2})  # first write wins
        assert store.load_result("b" * 16) == {"value": 1}


class TestProductionPool:
    def test_real_build_over_the_spawn_pool(self, tmp_path):
        """One full-stack request: spawn pool, run_job, disk, 304."""

        async def scenario():
            service = ReproService(store=CheckpointStore(tmp_path), workers=1)
            await service.start(port=0)
            try:
                target = "/experiments/fig2?scale=0.03&seed=1"
                status, headers, body = await http_get(
                    "127.0.0.1", service.port, target, timeout=300
                )
                assert status == 200, body
                revalidated = await http_get(
                    "127.0.0.1",
                    service.port,
                    target,
                    headers={"if-none-match": headers["etag"]},
                )
                return json.loads(body), revalidated
            finally:
                await service.stop()

        payload, revalidated = run(scenario())
        assert payload["experiment"] == "fig2"
        assert payload["result"]["text"]
        assert len(payload["result"]["sha256"]) == 64
        assert revalidated[0] == 304
