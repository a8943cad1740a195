"""The measurement service: routes, result cache, coalescing, build queue.

:class:`ReproService` turns the batch pipeline into a long-lived query
API.  Requests for rendered experiment payloads are answered in three
tiers, fastest first:

1. **memory** — a small LRU of recently served payloads, each held as
   the JSON body and ETag it is answered with (encoded once);
2. **disk** — the checkpoint store's digest-verified result entries
   (``<cache dir>/results/<key>.json``), shared with every other
   process using the store;
3. **build** — a bounded background queue drained by worker tasks that
   run the job in the sweep process pool (the same
   :func:`repro.sweep.worker.run_job` a sweep worker runs, so served
   payloads are byte-identical to sweep and ``repro reproduce`` output).

An ``at=YYYY-MM-DD`` query parameter answers against a *live* world
instead: the worker wraps the cached base world in a
:class:`repro.delta.live.LiveWorld`, advances the observation instant to
``at`` (ROA validity windows shift; only the affected cover set is
re-validated), and runs the experiment there.  ``at`` joins the result
key, so each instant caches independently.

Identity is content-addressed: the key is
:func:`repro.datasets.checkpoint.content_key` over (experiment, scale,
seed, canonical overrides), computed *before* any build — two requests
for the same measurement share one cache entry, one in-flight build
(per-key future coalescing) and one strong ETag, across processes and
restarts.

Invariants (DESIGN §14):

* the event loop never blocks on a build — misses enqueue and await;
* at most one build per key is in flight at any time;
* a full queue refuses new keys with 503 + ``Retry-After`` (load
  shedding, never unbounded buffering);
* a served payload is always digest-verified (memory entries were
  verified on the way in; disk entries are re-verified on load).

Concurrency note: :mod:`repro.obs` spans form a single stack and must
not be held across an ``await`` (interleaved tasks would corrupt the
tree), so ``serve.request`` spans wrap only the synchronous routing and
cache-lookup portion of each request; queue waits and builds are
observable through the ``serve.*`` counters and gauges instead.
"""

from __future__ import annotations

import asyncio
import json
import logging
from collections import OrderedDict
from typing import Callable, Mapping, NamedTuple

from repro import obs
from repro.config import RuntimeConfig
from repro.datasets.checkpoint import CheckpointStore, content_key
from repro.delta.live import run_job_at
from repro.experiments.registry import REGISTRY
from repro.scenario.config import ScenarioConfig
from repro.serve.http import HttpError, Request, read_request, response_bytes
from repro.sweep.ledger import RunLedger
from repro.sweep.scheduler import worker_pool
from repro.sweep.spec import Job, SweepSpecError, apply_overrides, job_id_for
from repro.sweep.worker import run_job

__all__ = [
    "DEFAULT_BUILDERS",
    "DEFAULT_QUEUE_LIMIT",
    "SERVE_SCHEMA_VERSION",
    "ReproService",
    "result_key",
    "serve_forever",
]

log = logging.getLogger(__name__)

#: Bumped whenever the served payload shape changes; part of every
#: result key, so a schema bump can never resurrect stale cache entries.
SERVE_SCHEMA_VERSION = 2

#: Default bound on queued (not yet building) cold misses.
DEFAULT_QUEUE_LIMIT = 32

#: Default number of queue-drain tasks (concurrent builds).
DEFAULT_BUILDERS = 2

#: Bound on the in-memory payload LRU.
MEMORY_ENTRIES = 128

#: Default measurement coordinates, matching the CLI defaults.
DEFAULT_SCALE = 0.2
DEFAULT_SEED = 42

_JSON_HEADERS = {"content-type": "application/json"}

#: What a cold miss resolves to: ``("ok", payload)`` or ``("error",
#: detail)``.  Plain results rather than future exceptions, so a waiter
#: that disconnected mid-build never leaves an unretrieved exception.
BuildResult = tuple[str, object]


def result_key(
    experiment: str,
    scale: float,
    seed: int,
    overrides: Mapping[str, object],
    at: str | None = None,
) -> str:
    """The content-addressed identity of one served measurement.

    ``at`` (an ISO date) keys live-world answers separately per instant;
    it enters the identity dict only when set, so every pre-existing key
    is unchanged.
    """
    identity: dict[str, object] = {
        "schema_version": SERVE_SCHEMA_VERSION,
        "experiment": experiment,
        "scale": scale,
        "seed": seed,
        "overrides": {str(k): overrides[k] for k in sorted(overrides)},
    }
    if at is not None:
        identity["at"] = at
    return content_key(identity, kind="serve-result")


def _json_body(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True, indent=1).encode()


def _etag_for(body: bytes) -> str:
    import hashlib

    return '"' + hashlib.sha256(body).hexdigest() + '"'


class _Encoded(NamedTuple):
    """A served payload's JSON body and strong ETag, encoded once."""

    body: bytes
    etag: str


def _encoded(payload: object) -> _Encoded:
    body = _json_body(payload)
    return _Encoded(body, _etag_for(body))


def _matches(etag: str, if_none_match: str) -> bool:
    if if_none_match.strip() == "*":
        return True
    candidates = (tag.strip() for tag in if_none_match.split(","))
    return etag in {tag[2:] if tag.startswith("W/") else tag for tag in candidates}


class ReproService:
    """One server instance: routing + cache + coalescing + build queue.

    ``build_fn``/``executor`` are injectable for tests (a counting
    build function on a thread pool exercises coalescing and queue
    saturation without process-pool latency); production uses
    :func:`repro.sweep.worker.run_job` on the sweep
    :func:`~repro.sweep.scheduler.worker_pool`.
    """

    def __init__(
        self,
        store: CheckpointStore | None = None,
        runtime: RuntimeConfig | None = None,
        build_fn: Callable[[Job], dict] | None = None,
        build_at_fn: Callable[[Job, str], dict] | None = None,
        executor=None,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        builders: int = DEFAULT_BUILDERS,
        memory_entries: int = MEMORY_ENTRIES,
    ):
        self.store = store
        self.runtime = runtime
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.builders = max(1, builders)
        self._build_fn = build_fn or run_job
        self._build_at_fn = build_at_fn or run_job_at
        self._executor = executor
        self._owns_executor = executor is None
        #: Served payloads, as the body and ETag every hit answers with.
        self._memory: OrderedDict[str, _Encoded] = OrderedDict()
        self._memory_entries = max(1, memory_entries)
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue | None = None
        self._drainers: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, start the drain tasks, and begin accepting connections."""
        if self._executor is None:
            import multiprocessing

            # ``spawn``, not the platform default ``fork``: pool workers
            # start lazily, and a worker forked mid-connection would
            # inherit (and hold open) duplicates of live client sockets.
            self._executor = worker_pool(
                self.workers,
                self.runtime,
                mp_context=multiprocessing.get_context("spawn"),
            )
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._drainers = [
            asyncio.create_task(self._drain_loop(), name=f"serve-drain-{i}")
            for i in range(self.builders)
        ]
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, cancel drains, resolve stranded waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._drainers:
            task.cancel()
        for task in self._drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drainers = []
        for future in self._inflight.values():
            if not future.done():
                future.set_result(("error", "server shutting down"))
        self._inflight.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    async def serve_until_cancelled(self) -> None:
        assert self._server is not None, "start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(
                        response_bytes(
                            error.status,
                            _json_body({"error": error.detail}),
                            dict(_JSON_HEADERS),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, headers, body = await self._respond(request)
                keep = request.keep_alive
                writer.write(response_bytes(status, body, headers, keep_alive=keep))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, request: Request
    ) -> tuple[int, dict[str, str], bytes]:
        """Route + error envelope: every outcome becomes a JSON response."""
        try:
            status, payload, extra = await self._route(request)
        except HttpError as error:
            obs.add("serve.errors")
            headers = dict(_JSON_HEADERS)
            headers.update(error.headers)
            return error.status, headers, _json_body({"error": error.detail})
        except Exception as error:  # noqa: BLE001 - one request, not the server
            log.exception("unhandled error for %s", request.target)
            obs.add("serve.errors")
            return (
                500,
                dict(_JSON_HEADERS),
                _json_body({"error": f"{type(error).__name__}: {error}"}),
            )
        if isinstance(payload, _Encoded):
            body, etag = payload
        else:
            body, etag = _encoded(payload)
        headers = dict(_JSON_HEADERS)
        headers.update(extra)
        headers["etag"] = etag
        if_none_match = request.headers.get("if-none-match", "")
        if status == 200 and if_none_match and _matches(etag, if_none_match):
            obs.add("serve.not_modified")
            return 304, headers, b""
        return status, headers, body

    # -- routing -------------------------------------------------------------

    async def _route(
        self, request: Request
    ) -> tuple[int, object, dict[str, str]]:
        if request.method != "GET":
            raise HttpError(
                405, f"method {request.method} not allowed", {"allow": "GET"}
            )
        path = request.path.rstrip("/") or "/"
        obs.add("serve.requests")
        if path == "/healthz":
            with obs.span("serve.request", route="healthz"):
                return 200, self._health_payload(), {}
        if path == "/metrics":
            with obs.span("serve.request", route="metrics"):
                return 200, obs.snapshot(spans=False), {}
        if path == "/experiments":
            with obs.span("serve.request", route="experiments"):
                return 200, self._experiments_payload(), {}
        if path.startswith("/experiments/"):
            return await self._experiment(request, path.split("/", 2)[2])
        if path == "/sweeps":
            with obs.span("serve.request", route="sweeps"):
                return 200, self._sweeps_payload(), {}
        if path.startswith("/sweeps/"):
            with obs.span("serve.request", route="sweep"):
                return 200, self._sweep_payload(path.split("/", 2)[2]), {}
        raise HttpError(404, f"no route for {request.path}")

    # -- meta endpoints ------------------------------------------------------

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "schema_version": SERVE_SCHEMA_VERSION,
            "experiments": len(REGISTRY),
            "store": str(self.store.root) if self.store else None,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
        }

    def _experiments_payload(self) -> dict:
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "experiments": [
                {
                    "name": spec.name,
                    "title": spec.title,
                    "paper_ref": spec.paper_ref,
                }
                for spec in REGISTRY.values()
            ],
        }

    def _sweeps_payload(self) -> dict:
        sweeps = []
        if self.store is not None:
            root = self.store.root / "sweeps"
            if root.is_dir():
                for directory in sorted(root.iterdir()):
                    if not directory.is_dir():
                        continue
                    manifest = RunLedger(directory).manifest()
                    if manifest:
                        sweeps.append(manifest)
        return {"schema_version": SERVE_SCHEMA_VERSION, "sweeps": sweeps}

    def _sweep_payload(self, sweep_id: str) -> dict:
        if self.store is None:
            raise HttpError(404, "no checkpoint store configured")
        directory = self.store.root / "sweeps" / sweep_id
        if not directory.is_dir():
            raise HttpError(404, f"no sweep {sweep_id[:16]}")
        ledger = RunLedger(directory)
        manifest = ledger.manifest()
        # The ledger only has events for jobs that ran; jobs listed in
        # the manifest but never started report as pending.
        jobs = {
            entry["job_id"]: {
                "status": "pending",
                "attempts": 0,
                "last_error": None,
                "total_seconds": 0.0,
            }
            for entry in manifest.get("jobs", [])
            if isinstance(entry, dict) and "job_id" in entry
        }
        jobs.update(
            (
                job_id,
                {
                    "status": state.status,
                    "attempts": state.attempts,
                    "last_error": state.last_error,
                    "total_seconds": round(state.total_seconds, 6),
                },
            )
            for job_id, state in sorted(ledger.job_states().items())
        )
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "manifest": manifest,
            "jobs": jobs,
        }

    # -- the experiment endpoint ---------------------------------------------

    async def _experiment(
        self, request: Request, name: str
    ) -> tuple[int, object, dict[str, str]]:
        # Synchronous phase (span-safe): parse, key, cache lookup.
        with obs.span("serve.request", route="experiment", experiment=name):
            job, key, at = self._parse_experiment(request, name)
            payload = self._cached(key)
            if payload is not None:
                obs.add("serve.hits")
        if payload is None:
            payload = await self._build(key, job, at)
        return 200, payload, {"x-repro-key": key}

    def _parse_experiment(
        self, request: Request, name: str
    ) -> tuple[Job, str, str | None]:
        if name not in REGISTRY:
            raise HttpError(
                404,
                f"unknown experiment {name!r}; "
                f"choose from {', '.join(REGISTRY)}",
            )
        allowed = {"scale", "seed", "set", "at"}
        unknown = set(request.query) - allowed
        if unknown:
            raise HttpError(
                400,
                f"unknown query parameter(s) {sorted(unknown)}; "
                f"choose from {sorted(allowed)}",
            )
        try:
            scale = float(request.first("scale", str(DEFAULT_SCALE)))
            seed = int(request.first("seed", str(DEFAULT_SEED)))
        except ValueError as error:
            raise HttpError(400, f"bad scale/seed: {error}") from None
        if not 0 < scale <= 10:
            raise HttpError(400, f"scale {scale:g} out of range (0, 10]")
        overrides: dict[str, object] = {}
        for assignment in request.query.get("set", []):
            path, separator, raw = assignment.partition("=")
            if not separator or not path:
                raise HttpError(
                    400, f"set={assignment!r} is not <dotted.path>=<value>"
                )
            try:
                value = json.loads(raw)
            except ValueError:
                value = raw  # unquoted strings (e.g. dates) pass through
            overrides[path] = value
        try:
            apply_overrides(overrides, ScenarioConfig())
        except SweepSpecError as error:
            raise HttpError(400, str(error)) from None
        at = request.first("at", "") or None
        if at is not None:
            from datetime import date as _date

            try:
                _date.fromisoformat(at)
            except ValueError as error:
                raise HttpError(400, f"bad at date: {error}") from None
        job = Job(
            job_id=job_id_for(overrides, scale, seed, (name,)),
            scenario="serve",
            overrides=overrides,
            scale=scale,
            seed=seed,
            experiments=(name,),
        )
        return job, result_key(name, scale, seed, overrides, at=at), at

    # -- cache tiers ---------------------------------------------------------

    def _cached(self, key: str) -> _Encoded | None:
        encoded = self._memory.get(key)
        if encoded is not None:
            self._memory.move_to_end(key)
            return encoded
        if self.store is not None:
            payload = self.store.load_result(key)
            if payload is not None:
                return self._remember(key, payload)
        return None

    def _remember(self, key: str, payload: dict) -> _Encoded:
        """Encode ``payload`` once and keep it in the memory tier."""
        encoded = self._memory[key] = _encoded(payload)
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)
        return encoded

    # -- the build queue -----------------------------------------------------

    async def _build(
        self, key: str, job: Job, at: str | None = None
    ) -> _Encoded:
        """Resolve a cold miss: coalesce onto in-flight work or enqueue."""
        assert self._queue is not None, "start() first"
        future = self._inflight.get(key)
        if future is not None:
            obs.add("serve.coalesced")
        else:
            obs.add("serve.misses")
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            obs.gauge("serve.inflight", len(self._inflight))
            try:
                self._queue.put_nowait((key, job, at, future))
            except asyncio.QueueFull:
                self._inflight.pop(key, None)
                obs.gauge("serve.inflight", len(self._inflight))
                obs.add("serve.rejected")
                raise HttpError(
                    503,
                    f"build queue full ({self.queue_limit} pending)",
                    {"retry-after": "1"},
                ) from None
            obs.gauge("serve.queue_depth", self._queue.qsize())
        outcome, value = await asyncio.shield(future)
        if outcome != "ok":
            raise HttpError(500, f"build failed: {value}")
        return value  # type: ignore[return-value]

    async def _drain_loop(self) -> None:
        """One background builder: dequeue, build in the pool, publish."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            key, job, at, future = await self._queue.get()
            obs.gauge("serve.queue_depth", self._queue.qsize())
            result: BuildResult
            try:
                if at is not None:
                    # Live-world path: build (or load) the base world in
                    # the worker, advance it to the requested instant,
                    # and run the experiment against the result.
                    raw = await loop.run_in_executor(
                        self._executor, self._build_at_fn, job, at
                    )
                else:
                    raw = await loop.run_in_executor(
                        self._executor, self._build_fn, job
                    )
                result = ("ok", self._publish(key, job, raw, at))
            except asyncio.CancelledError:
                if not future.done():
                    future.set_result(("error", "server shutting down"))
                self._inflight.pop(key, None)
                raise
            except Exception as error:  # noqa: BLE001 - per-request isolation
                log.exception("build failed for %s", key[:16])
                obs.add("serve.build_errors")
                result = ("error", f"{type(error).__name__}: {error}")
            self._inflight.pop(key, None)
            obs.gauge("serve.inflight", len(self._inflight))
            if not future.done():
                future.set_result(result)
            self._queue.task_done()

    def _publish(
        self,
        key: str,
        job: Job,
        raw: Mapping[str, dict],
        at: str | None = None,
    ) -> _Encoded:
        """Wrap a built result into the served payload and cache it."""
        name = job.experiments[0]
        if name not in raw:
            raise ValueError(f"build returned no payload for {name!r}")
        spec = REGISTRY[name]
        payload = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "key": key,
            "experiment": name,
            "title": spec.title,
            "paper_ref": spec.paper_ref,
            "scale": job.scale,
            "seed": job.seed,
            "overrides": dict(job.overrides),
            "result": dict(raw[name]),
        }
        if at is not None:
            payload["at"] = at
        encoded = self._remember(key, payload)
        if self.store is not None:
            self.store.save_result(key, payload)
        obs.add("serve.built")
        return encoded


async def serve_forever(
    service: ReproService, host: str, port: int, announce=print
) -> None:
    """Start ``service`` and run until cancelled (the CLI entry point)."""
    await service.start(host, port)
    announce(f"serving on http://{host}:{service.port}")
    try:
        await service.serve_until_cancelled()
    finally:
        await service.stop()
