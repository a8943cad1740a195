"""The four benchmark workloads and the bookkeeping they share.

Each workload function takes a :class:`Run` and fills it with set-up
samples, round times, op latencies, op counts and (when traced) span
forests.  Inputs come only from ``run.seed``.  Rounds run in fresh
processes (``child.py``); the serve workload drives a ``repro serve``
subprocess from this process with at most two requests in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import Prober

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Rounds every run makes before ``--seconds`` is consulted; a traced
#: run alternates traced and untraced rounds, so it needs two of each.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
MAX_ROUNDS = 200

#: The round whose process also runs the output checks, after its timed
#: part: the first traced round of a traced run.  Round 0 is left
#: untraced because the first process after a checkout compiles bytecode.
CHECK_ROUND = 1

CHILD_TIMEOUT_S = 150.0
MISS_TIMEOUT_S = 120.0
HIT_TIMEOUT_S = 10.0

#: Worlds that reproduce and replay rounds cycle through (see world_seed).
REPRODUCE_WORLDS = 3
REPLAY_WORLDS = 2

#: Set-ups per run: warm store preparations, serve server starts.
SETUPS = 3

#: Points of a replay stream where the live world is materialised and
#: digested, evenly spaced and ending at the last event.
REPLAY_CHECKPOINTS = 2

#: The observation instant of the ``?at=`` query (before every snapshot).
AT_DATE = "2021-06-01"

#: Scale of the set-up miss and the ``?at=`` query: small enough that
#: they time the server and pool start and the delta path, not a build.
WARM_UP_SCALE = 0.05


def child_env(traced: bool) -> dict[str, str]:
    """The environment of every process the suite starts.

    ``REPRO_*`` knobs are scrubbed so that the pinned runtime config is
    the only one in force; traced processes stamp span RSS.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if traced:
        env["REPRO_SPAN_RSS"] = "1"
    return env


class Run:
    """Samples, op counts and spans gathered by one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.params: dict = {}
        #: Per set-up, the durations of its parts in order.
        self.setups: list[list[float]] = []
        #: Per round, the durations of its timed calls in call order.
        self.rounds: list[list[float]] = []
        self.traced_rounds: list[list[float]] = []
        #: Op latencies (artefacts, applies or hits) of untraced rounds.
        self.ops: list[float] = []
        #: Per untraced round, its op latencies in op order, for workloads
        #: whose rounds run the same ops (the twelve artefacts).
        self.round_ops: list[list[float]] | None = None
        self.rss: list[float] = []
        #: Host-speed probes of every process that timed calls.
        self.prober = Prober()
        self.spawns: list[float] = []
        self.entry_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.firsts: dict = {}
        #: Traced processes: ``{"label", "round", "spans"}``.
        self.processes: list[dict] = []
        #: Workload-specific samples printed beside the metrics.
        self.extras: dict[str, tuple[list[float], str]] = {}

    def check(self, ok: bool, problem: str) -> bool:
        """Count one op (or output check); record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def agree(self, key: object, value: object, problem: str) -> None:
        """Check ``value`` against the first value filed under ``key``."""
        first = self.firsts.setdefault(key, value)
        if first is not value:
            self.check(first == value, problem)

    def extra(self, name: str, value: float, unit: str) -> None:
        self.extras.setdefault(name, ([], unit))[0].append(value)

    def round_ids(self):
        """Yield ``(round, traced)`` until the minimum and ``seconds`` are met."""
        minimum = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
        start = time.perf_counter()
        index = 0
        while index < minimum or (
            time.perf_counter() - start < self.seconds and index < MAX_ROUNDS
        ):
            yield index, self.trace and index % 2 == 1
            index += 1

    def child(self, task: dict, label: str, round_id: int | None = None) -> dict | None:
        """Run one ``child.py`` step; None (and a failed op) if it broke."""
        traced = bool(task.get("trace"))
        task = {**task, "t0": time.time()}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                cwd=ROOT,
                env=child_env(traced),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.check(False, f"{label}: timed out after {CHILD_TIMEOUT_S:.0f}s")
            return None
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.check(False, f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.prober.samples += out["probes_s"]
        self.problems += [f"{label}: {problem}" for problem in out["problems"]]
        if out["failed"] and proc.stderr:
            print(proc.stderr[-4000:], file=sys.stderr)
        self.spawns.append(out["ready_s"])
        if "entry_mb" in out:
            self.entry_mb.append(out["entry_mb"])
        if traced:
            self.processes.append({"label": label, "round": round_id, "spans": out["spans"]})
        return out

    def add_round(self, out: dict | None, traced: bool) -> bool:
        """File a finished round's samples; False if the round broke."""
        if out is None or "round_s" not in out:
            return False
        if traced:
            self.traced_rounds.append(out["calls_s"])
            return True
        self.rounds.append(out["calls_s"])
        self.extra("round_wall_s", out["round_s"], "s")
        self.ops += out["ops_s"]
        if self.round_ops is not None:
            self.round_ops.append(out["ops_s"])
        self.rss.append(out["rss_mb"])
        if "setup_parts_s" in out:
            self.setups.append(out["setup_parts_s"])
        return True


def typical_op(run: Run) -> float:
    """The typical op latency.

    Where every round runs the same twelve artefacts, it is the geometric
    mean of the per-artefact medians: artefact times cluster far apart,
    so the median of the pooled samples, or of the twelve medians, sits
    in the gap between the sixth and seventh artefact, where a few
    samples move it a long way.  Elsewhere it is the median op latency.
    """
    if run.round_ops:
        return statistics.geometric_mean(
            statistics.median(column) for column in zip(*run.round_ops)
        )
    return statistics.median(run.ops) if run.ops else 0.0


def typical_round(rounds: list[list[float]]) -> float:
    """The sum, over a round's calls in order, of each call's median.

    Rounds (and set-ups, part by part) make the same calls in the same
    order.  Contention from other tenants of a shared host comes in
    bursts of a few seconds: a burst slows a whole two-second round, so
    a median of four round times moves with it, but it rarely slows the
    same call in most rounds.  Longer slow spells, which do slow every
    round of a run, are taken out of each call's time before it gets
    here (see :mod:`hostspeed`).
    """
    if not rounds:
        return 0.0
    length = Counter(len(calls) for calls in rounds).most_common(1)[0][0]
    aligned = [calls for calls in rounds if len(calls) == length]
    return sum(statistics.median(column) for column in zip(*aligned))


def world_seed(run: Run, k: int) -> int:
    """The seed of the run's ``k``-th world.

    Reproduce and replay rounds cycle through a few worlds, so that a
    run's medians do not hang on one draw: at scale 0.3 the number of
    MANRS participants alone varies by about 10% between seeds.
    """
    return run.seed * 10 + k


# -- cold_reproduce ----------------------------------------------------------


def cold_reproduce(run: Run, scale: float = 0.3) -> None:
    """``build_world`` → ``save`` → twelve artefacts, from nothing, per round."""
    run.params = {"scale": scale, "worlds": REPRODUCE_WORLDS}
    run.round_ops = []
    for index, traced in run.round_ids():
        k = index % REPRODUCE_WORLDS
        store = run.work / f"cold-{index}"
        out = run.child(
            {
                "step": "cold_round",
                "scale": scale,
                "seed": world_seed(run, k),
                "store": str(store),
                "trace": traced,
                "check": index == CHECK_ROUND,
            },
            f"round {index}",
            index,
        )
        shutil.rmtree(store, ignore_errors=True)
        if run.add_round(out, traced):
            run.agree(("hashes", k), out["hashes"], f"round {index}: artefacts differ")


# -- warm_reproduce ----------------------------------------------------------


def prepare_store(
    run: Run, store: Path, scale: float, seed: int, reference: bool, label: str
) -> dict | None:
    """Build and save one world into ``store`` in a fresh process."""
    out = run.child(
        {
            "step": "prepare",
            "scale": scale,
            "seed": seed,
            "store": str(store),
            "reference": reference,
            "trace": run.trace,
        },
        label,
    )
    return out if out is not None and "setup_parts_s" in out else None


def warm_round(
    run: Run, store: Path, scale: float, seed: int, index: int, traced: bool
) -> None:
    """One lazy ``load`` + twelve artefacts, checked against the cold build."""
    out = run.child(
        {
            "step": "warm_round",
            "scale": scale,
            "seed": seed,
            "store": str(store),
            "trace": traced,
            "check": index == CHECK_ROUND,
        },
        f"round {index}",
        index,
    )
    if not run.add_round(out, traced):
        return
    run.agree(("hashes", seed), out["hashes"], f"round {index}: artefacts differ from cold")
    if "digest" in out:
        run.agree(("digest", seed), out["digest"], "lazy-world digest differs from cold")


def warm_reproduce(run: Run, scale: float = 0.3) -> None:
    """Worlds reopened from their checkpoints; the build does no work.

    Each set-up builds and saves one world and records its digest and
    artefact hashes as the cold reference; rounds cycle through them.
    """
    run.params = {"scale": scale, "worlds": SETUPS}
    run.round_ops = []
    stores = []
    for k in range(SETUPS):
        store, seed = run.work / f"warm-{k}", world_seed(run, k)
        out = prepare_store(run, store, scale, seed, True, f"prepare {k}")
        if out is not None and "hashes" in out:
            run.setups.append(out["setup_parts_s"])
            run.firsts[("hashes", seed)] = out["hashes"]
            run.firsts[("digest", seed)] = out["digest"]
            stores.append((store, seed))
    if not stores:
        run.check(False, "no stored world to reopen")
        return
    for index, traced in run.round_ids():
        store, seed = stores[index % len(stores)]
        warm_round(run, store, scale, seed, index, traced)


# -- replay ------------------------------------------------------------------


def replay(run: Run, scale: float = 0.3, events: int = 40) -> None:
    """Synthesized events through ``LiveWorld.apply`` with periodic digests.

    Each round draws a new stream over one of the run's stored worlds.
    """
    run.params = {"scale": scale, "events": events, "worlds": REPLAY_WORLDS}
    stores = []
    for k in range(REPLAY_WORLDS):
        store, seed = run.work / f"replay-{k}", world_seed(run, k)
        if prepare_store(run, store, scale, seed, False, f"prepare {k}") is not None:
            stores.append((store, seed))
    if not stores:
        return
    for index, traced in run.round_ids():
        store, seed = stores[index % len(stores)]
        out = run.child(
            {
                "step": "replay_round",
                "scale": scale,
                "seed": seed,
                "store": str(store),
                "events": events,
                "kinds_seed": run.seed,
                "event_seed": run.seed * 1000 + index,
                "checkpoints": REPLAY_CHECKPOINTS,
                "trace": traced,
                "check": index == CHECK_ROUND,
            },
            f"round {index}",
            index,
        )
        if run.add_round(out, traced) and "artefact_errors" in out:
            run.extra("replay.live_artefact_errors", out["artefact_errors"], "count")


# -- serve -------------------------------------------------------------------

HOST = "127.0.0.1"
#: The experiments cached on the set-up world as hit targets, beside fig4.
HIT_EXPERIMENTS = (
    "fig2", "f70", "fig5", "f83", "tab1", "f87", "fig6", "fig7", "fig8", "tab2", "fig9"
)

#: Each round's misses on the world its fresh fig4 miss just built.
ROUND_WARM_MISSES = ("fig5", "fig6")

#: Hits between two host-speed probes (see hit_phase).
HIT_CHUNK = 100


def process_tree(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (Linux ``/proc``)."""
    found = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found += [child, *process_tree(child)]
    return found


def ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


class Server:
    """A ``repro serve --workers 2`` subprocess with its own cache directory."""

    def __init__(self, run: Run, cache: Path):
        self.run = run
        self.cache = cache
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> float:
        """Start the server; seconds until it announced its port."""
        self.cache.mkdir(parents=True)
        start = time.perf_counter()
        with open(self.cache.with_suffix(".stderr"), "w") as stderr:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0",
                "--cache-dir", str(self.cache),
                cwd=ROOT,
                env=child_env(self.run.trace),
                stdout=asyncio.subprocess.PIPE,
                stderr=stderr,
            )
        line = await asyncio.wait_for(self.proc.stdout.readline(), MISS_TIMEOUT_S)
        self.port = int(line.decode().rsplit(":", 1)[1])
        return time.perf_counter() - start

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ValueError("no VmHWM line")

    async def stop(self) -> None:
        """Interrupt the server and wait for it and its pool workers to end."""
        if self.proc is None or self.proc.returncode is not None:
            return
        descendants = process_tree(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.wait(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        deadline = time.monotonic() + 20
        while not all(ended(pid) for pid in descendants):
            if time.monotonic() > deadline:
                for pid in descendants:
                    if not ended(pid):
                        with contextlib.suppress(ProcessLookupError):
                            os.kill(pid, signal.SIGKILL)
            await asyncio.sleep(0.05)


class Client:
    """GETs against one server, each counted as an op.

    A response passes when it is a 200 whose ETag and body equal the
    first 200 for its target, or an empty-bodied 304 carrying that ETag.
    Anything else, including 503, an exception or a timeout, fails.
    """

    def __init__(self, run: Run, port: int):
        self.run = run
        self.port = port
        #: target → (etag, body) of its first 200.
        self.first: dict[str, tuple[str, bytes]] = {}

    async def get(self, target: str, timeout: float, revalidate: bool = False) -> int | None:
        from repro.serve import http_get

        headers = {"if-none-match": self.first[target][0]} if revalidate else None
        try:
            status, head, body = await http_get(HOST, self.port, target, headers, timeout)
        except (OSError, EOFError, asyncio.LimitOverrunError, ValueError, IndexError) as error:
            self.run.check(False, f"GET {target}: {error!r}")
            return None
        etag = head.get("etag", "")
        if status == 200:
            ok = self.first.setdefault(target, (etag, body)) == (etag, body)
        elif status == 304:
            ok = revalidate and not body and etag == self.first[target][0]
        else:
            ok = False
        self.run.check(ok, f"GET {target}: status {status}, {len(body)} bytes")
        return status

    def result_sha(self, target: str) -> str | None:
        if target not in self.first:
            return None
        return json.loads(self.first[target][1])["result"]["sha256"]


def experiment_target(name: str, scale: float, seed: int) -> str:
    return f"/experiments/{name}?scale={scale:g}&seed={seed}"


async def timed_get(client: Client, target: str, timeout: float) -> float:
    """Seconds one GET took, adjusted for host speed like a child's calls."""
    before = client.run.prober.start()
    start = time.perf_counter()
    await client.get(target, timeout)
    return client.run.prober.adjust(time.perf_counter() - start, before)


async def hit_phase(
    client: Client, targets: list[str], rng: random.Random, hits: int, spans: list | None
) -> float:
    """``hits`` GETs over ``targets`` from two closed-loop connections.

    Targets are drawn with ``rng``, one in ten with ``If-None-Match``
    carrying the target's ETag.  The hits go out in chunks of
    :data:`HIT_CHUNK`, with a host-speed probe between chunks that
    adjusts the latencies of the chunk it follows.  Returns the phase's
    adjusted seconds.
    """
    run = client.run
    plan = [(rng.choice(targets), rng.random() < 0.1) for _ in range(hits)]

    async def loop(part, latencies):
        for target, revalidate in part:
            start = time.perf_counter()
            await client.get(target, HIT_TIMEOUT_S, revalidate)
            end = time.perf_counter()
            latencies.append((end - start, revalidate))
            if spans is not None:
                name = "client.revalidate" if revalidate else "client.hit"
                spans.append({"name": name, "start": start, "end": end, "children": []})

    total = 0.0
    for first in range(0, hits, HIT_CHUNK):
        chunk = plan[first : first + HIT_CHUNK]
        latencies: list[tuple[float, bool]] = []
        before = run.prober.start()
        start = time.perf_counter()
        await asyncio.gather(loop(chunk[0::2], latencies), loop(chunk[1::2], latencies))
        elapsed = time.perf_counter() - start
        adjusted = run.prober.adjust(elapsed, before)
        total += adjusted
        for latency, revalidate in latencies:
            run.ops.append(latency * adjusted / elapsed)
            if revalidate:
                run.extra("serve.revalidate_ms", latency * adjusted / elapsed * 1000, "ms")
    return total


async def drive_server(run: Run, scale: float, hits: int) -> dict | None:
    """Set-ups and measured rounds; returns what the serve check needs.

    A set-up starts a server and sends it one miss for a tiny world, so
    it pays for the server start and the pool worker's spawn.  The last
    server is kept, and the other experiments on the tiny world are
    cached on it as the fixed set of hit targets.
    """
    servers: list[Server] = []
    warm_up = experiment_target("fig4", WARM_UP_SCALE, run.seed * 1000)
    try:
        for k in range(SETUPS):
            server = Server(run, run.work / f"serve-{k}")
            servers.append(server)
            before = run.prober.start()
            try:
                started = await server.start()
            except (OSError, ValueError, IndexError, asyncio.TimeoutError) as error:
                run.check(False, f"server {k} did not start: {error!r}")
                return None
            run.spawns.append(started)
            client = Client(run, server.port)
            started_adjusted = run.prober.adjust(started, before)
            first_miss = await timed_get(client, warm_up, MISS_TIMEOUT_S)
            run.setups.append([started_adjusted, first_miss])
            run.extra("serve.first_miss_s", first_miss, "s")
            if k < SETUPS - 1:
                await server.stop()

        for name in HIT_EXPERIMENTS:
            target = experiment_target(name, WARM_UP_SCALE, run.seed * 1000)
            await client.get(target, MISS_TIMEOUT_S)
        targets = sorted(client.first)
        rng = random.Random(run.seed)
        spans: list | None = [] if run.trace else None
        for index, traced in run.round_ids():
            seed = run.seed * 1000 + index + 1
            fresh = experiment_target("fig4", scale, seed)
            calls = [await timed_get(client, fresh, MISS_TIMEOUT_S)]
            for name in ROUND_WARM_MISSES:
                calls.append(
                    await timed_get(client, experiment_target(name, scale, seed), MISS_TIMEOUT_S)
                )
            run.extra("serve.miss_s", calls[0], "s")
            run.extra("serve.warm_miss_s", statistics.median(calls[1:]), "s")
            calls.append(await hit_phase(client, targets, rng, hits, spans))
            (run.traced_rounds if traced else run.rounds).append(calls)
        if spans is not None:
            run.processes.append({"label": "client", "round": None, "spans": spans})

        at = f"{warm_up}&at={AT_DATE}"
        run.extra("serve.at_s", await timed_get(client, at, MISS_TIMEOUT_S), "s")
        if await client.get("/metrics", HIT_TIMEOUT_S) == 200:
            counters = json.loads(client.first["/metrics"][1])["metrics"]["counters"]
            for name in ("serve.hits", "serve.misses", "serve.coalesced", "serve.rejected"):
                run.extra(name, counters.get(name, 0), "count")
        run.rss.append(server.vm_hwm_mb())
        return {"client": client, "seed": seed, "store": server.cache}
    finally:
        for server in servers:
            await server.stop()


def serve(run: Run, scale: float = 0.3, hits: int = 1000) -> None:
    """``repro serve`` under a closed loop: misses build, hits read the cache.

    This process, and so the server and its pool workers, which inherit
    its affinity, run on one CPU, where a hit costs the client's and the
    server's work back to back.  With the client and the server on two
    CPUs, hits took about 0.8 ms, but on the shared host this suite was
    written on some runs' hits took 1.7 ms throughout while the
    host-speed probe read as usual: waiting for an idle CPU to wake is a
    cost of the hypervisor that no probe follows.
    """
    run.params = {"scale": scale, "hits_per_round": hits}
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        served = asyncio.run(drive_server(run, scale, hits))
    finally:
        os.sched_setaffinity(0, affinity)
    if served is None:
        return
    client, seed = served["client"], served["seed"]
    out = run.child(
        {
            "step": "serve_check",
            "scale": scale,
            "seed": seed,
            "store": str(run.work / "serve-check"),
            "server_store": str(served["store"]),
            "trace": run.trace,
        },
        "serve check",
    )
    if out is None:
        return
    for name, sha in out["payload"].items():
        served_sha = client.result_sha(experiment_target(name, scale, seed))
        if served_sha is not None:
            run.check(served_sha == sha, f"served {name} differs from run_job in-process")


WORKLOADS = {
    "cold_reproduce": cold_reproduce,
    "warm_reproduce": warm_reproduce,
    "replay": replay,
    "serve": serve,
}
