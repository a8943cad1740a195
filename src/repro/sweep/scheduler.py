"""The fault-tolerant sweep scheduler.

Runs a :class:`~repro.sweep.spec.SweepSpec`'s jobs across a
``ProcessPoolExecutor``, with the failure envelope a long sweep needs:

* **skip** — jobs with a verified ``done`` ledger record are never
  re-run (this is what makes ``sweep resume`` cheap after a kill);
* **retry** — a failed attempt is retried up to ``spec.max_attempts``
  times with exponential backoff (``spec.backoff * 2**(attempt-1)``);
* **timeout** — each attempt runs under an in-worker SIGALRM budget
  (``spec.timeout``), with a driver-side backstop at roughly twice that
  budget for workers whose alarm cannot fire (blocked signals, a truly
  wedged interpreter) — the backstop tears the pool down and rebuilds
  it, sacrificing in-flight attempts (they count as failures and
  re-enter the retry policy);
* **crash isolation** — a worker that dies outright (the ``crash``
  fault, an OOM kill) breaks the pool; the scheduler records a failed
  attempt for every in-flight job, rebuilds the pool and carries on;
* **graceful degradation** — a job that exhausts its attempts is
  recorded as ``failed`` and the sweep *continues*; the outcome reports
  partial results rather than aborting the run.

Progress lands in :mod:`repro.obs`: a ``sweep.run`` span wrapping
``sweep.schedule``/``sweep.aggregate``, plus the counters
``sweep.jobs.{done,failed,retried,skipped}`` and a ``sweep.workers``
gauge.  Workers warm-start worlds through the PR 3 checkpoint store
(``REPRO_CACHE_DIR``), so jobs sharing a (config, scale, seed) build it
once per machine, not once per job.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import config as _config
from repro import obs
from repro.config import RuntimeConfig
from repro.sweep.ledger import RunLedger
from repro.sweep.spec import Job, SweepSpec
from repro.sweep.worker import execute_job

__all__ = ["SweepOutcome", "run_sweep", "worker_pool"]

#: Extra driver-side grace on top of twice the in-worker budget before
#: the backstop declares a worker wedged and rebuilds the pool.
BACKSTOP_GRACE_SECONDS = 30.0

ProgressFn = Callable[[str], None]


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call accomplished (and what it skipped)."""

    sweep_id: str
    ledger_dir: Path
    jobs: tuple[Job, ...]
    results: dict[str, dict] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    retries: int = 0
    duration_seconds: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when every job has a result (none failed)."""
        return not self.failures

    def summary(self) -> str:
        return (
            f"sweep {self.sweep_id[:12]}: {self.completed}/{len(self.jobs)} "
            f"done ({len(self.skipped)} skipped, {len(self.failures)} failed, "
            f"{self.retries} retried) in {self.duration_seconds:.1f}s"
        )


def run_sweep(
    spec: SweepSpec,
    ledger_root: str | Path,
    workers: int | None = None,
    progress: ProgressFn | None = None,
    runtime: RuntimeConfig | None = None,
) -> SweepOutcome:
    """Run (or resume) a sweep; never raises for individual job failures.

    Jobs already completed in the ledger are skipped; everything else is
    scheduled.  The returned outcome carries every available payload —
    including those of previous runs — so callers aggregate one object
    regardless of how many times the sweep was interrupted.

    ``runtime`` installs a :class:`repro.config.RuntimeConfig` for the
    driver *and* every pool worker (via a pool initializer), so an
    explicit config governs warm-start stores end to end instead of
    relying on inherited environment variables.
    """
    with _config.use(runtime):
        jobs = spec.expand()
        workers = max(1, workers or spec.workers or obs.resolve_jobs())
        say = progress or (lambda message: None)
        started = time.perf_counter()
        with obs.span(
            "sweep.run", sweep=spec.name, jobs=len(jobs), workers=workers
        ), RunLedger.open(ledger_root, spec, jobs) as ledger:
            obs.gauge("sweep.workers", workers)
            done_payloads = ledger.completed()
            skipped = tuple(
                job.job_id for job in jobs if job.job_id in done_payloads
            )
            if skipped:
                obs.add("sweep.jobs.skipped", len(skipped))
                say(f"resuming: {len(skipped)}/{len(jobs)} jobs already done")
            pending = deque(
                (job, 1) for job in jobs if job.job_id not in done_payloads
            )
            outcome = SweepOutcome(
                sweep_id=spec.sweep_id,
                ledger_dir=ledger.directory,
                jobs=jobs,
                results=dict(done_payloads),
                skipped=skipped,
            )
            if pending:
                with obs.span("sweep.schedule", pending=len(pending)):
                    _schedule(
                        spec, pending, ledger, workers, outcome, say, runtime
                    )
        outcome.duration_seconds = time.perf_counter() - started
        return outcome


def worker_pool(
    workers: int,
    runtime: RuntimeConfig | None = None,
    mp_context=None,
) -> ProcessPoolExecutor:
    """A process pool whose workers install ``runtime`` at startup.

    Shared by the sweep scheduler and the serve build queue, so both run
    builds under the same explicit config the driver resolved (workers
    inherit environment variables anyway; the initializer makes an
    explicit ``runtime`` authoritative over them).  ``mp_context`` picks
    the start method: the serve layer passes a ``spawn`` context so that
    lazily-started workers never inherit open connection fds from the
    event-loop process (a forked worker holding a duplicate client
    socket would keep the connection from ever reaching EOF).
    """
    kwargs: dict = {"max_workers": workers}
    if mp_context is not None:
        kwargs["mp_context"] = mp_context
    if runtime is not None:
        kwargs["initializer"] = _config.set_current
        kwargs["initargs"] = (runtime,)
    return ProcessPoolExecutor(**kwargs)


def _schedule(
    spec: SweepSpec,
    pending: deque[tuple[Job, int]],
    ledger: RunLedger,
    workers: int,
    outcome: SweepOutcome,
    say: ProgressFn,
    runtime: RuntimeConfig | None = None,
) -> None:
    total = len(outcome.jobs)
    backstop = (
        spec.timeout * 2 + BACKSTOP_GRACE_SECONDS if spec.timeout > 0 else None
    )
    pool = worker_pool(workers, runtime)
    inflight: dict[Future, tuple[Job, int, float]] = {}
    try:
        while pending or inflight:
            broken = False
            while pending and len(inflight) < workers * 2:
                job, attempt = pending.popleft()
                _backoff(spec, attempt)
                try:
                    future = pool.submit(
                        execute_job, job, attempt, spec.timeout
                    )
                except BrokenProcessPool:
                    # A worker died between waits; put the job back,
                    # drain whatever finished, then rebuild the pool.
                    pending.appendleft((job, attempt))
                    broken = True
                    break
                ledger.append("start", job.job_id, attempt)
                inflight[future] = (job, attempt, time.monotonic())
            finished, _ = wait(
                inflight, timeout=1.0, return_when=FIRST_COMPLETED
            )
            for future in finished:
                job, attempt, submitted = inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    _record_failure(
                        spec, ledger, pending, outcome, say, total,
                        job, attempt, "worker process died",
                        time.monotonic() - submitted,
                    )
                except Exception as error:  # noqa: BLE001 - per-job isolation
                    _record_failure(
                        spec, ledger, pending, outcome, say, total,
                        job, attempt, f"{type(error).__name__}: {error}",
                        time.monotonic() - submitted,
                    )
                else:
                    duration = time.monotonic() - submitted
                    ledger.append(
                        "done", job.job_id, attempt,
                        duration=duration, payload=payload,
                    )
                    outcome.results[job.job_id] = payload
                    outcome.failures.pop(job.job_id, None)
                    obs.add("sweep.jobs.done")
                    say(
                        f"[{len(outcome.results)}/{total}] job "
                        f"{job.job_id[:12]} done in {duration:.1f}s "
                        f"({job.scenario} scale={job.scale:g} seed={job.seed})"
                    )
            if broken or _backstop_tripped(inflight, backstop):
                pool, fresh = _rebuild_pool(
                    pool, inflight, workers, spec, ledger,
                    pending, outcome, say, total, broken, runtime,
                )
                inflight = fresh
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _backoff(spec: SweepSpec, attempt: int) -> None:
    if attempt > 1 and spec.backoff > 0:
        time.sleep(spec.backoff * 2 ** (attempt - 2))


def _record_failure(
    spec: SweepSpec,
    ledger: RunLedger,
    pending: deque,
    outcome: SweepOutcome,
    say: ProgressFn,
    total: int,
    job: Job,
    attempt: int,
    error: str,
    duration: float,
) -> None:
    if attempt < spec.max_attempts:
        ledger.append(
            "attempt_failed", job.job_id, attempt,
            error=error, duration=duration,
        )
        pending.append((job, attempt + 1))
        outcome.retries += 1
        obs.add("sweep.jobs.retried")
        say(
            f"job {job.job_id[:12]} attempt {attempt} failed ({error}); "
            f"retrying"
        )
    else:
        ledger.append(
            "failed", job.job_id, attempt, error=error, duration=duration
        )
        outcome.failures[job.job_id] = error
        obs.add("sweep.jobs.failed")
        say(
            f"job {job.job_id[:12]} FAILED after {attempt} attempt(s): {error}"
        )


def _backstop_tripped(
    inflight: dict[Future, tuple[Job, int, float]], backstop: float | None
) -> bool:
    if backstop is None:
        return False
    now = time.monotonic()
    return any(now - submitted > backstop for _, _, submitted in inflight.values())


def _rebuild_pool(
    pool: ProcessPoolExecutor,
    inflight: dict[Future, tuple[Job, int, float]],
    workers: int,
    spec: SweepSpec,
    ledger: RunLedger,
    pending: deque,
    outcome: SweepOutcome,
    say: ProgressFn,
    total: int,
    broken: bool,
    runtime: RuntimeConfig | None = None,
) -> tuple[ProcessPoolExecutor, dict]:
    """Tear down a broken/wedged pool; fail its in-flight attempts.

    Every in-flight attempt is recorded as failed (at-least-once
    semantics: some may actually have been executing normally next to
    the crashed or wedged worker) and re-enters the retry policy.
    """
    reason = "worker process died" if broken else "driver-side backstop timeout"
    obs.add("sweep.pool.rebuilt")
    say(f"rebuilding worker pool ({reason})")
    for future, (job, attempt, submitted) in list(inflight.items()):
        if not future.done():
            future.cancel()
        _record_failure(
            spec, ledger, pending, outcome, say, total,
            job, attempt, reason, time.monotonic() - submitted,
        )
    # Kill lingering worker processes so a wedged worker cannot outlive
    # the pool that owned it; the private _processes map is the only
    # handle the executor exposes, hence the guarded access.
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # noqa: BLE001 - best-effort cleanup
        pass
    pool.shutdown(wait=False, cancel_futures=True)
    return worker_pool(workers, runtime), {}
