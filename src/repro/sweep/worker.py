"""Job execution: what runs inside one sweep worker process.

:func:`run_job` is the *pure* unit of work — build or warm-start the
job's world (through the two-tier :func:`~repro.experiments.common.world_cache`,
so workers sharing a checkpoint store load shared worlds instead of
rebuilding them) and return :func:`experiment_payloads`: each selected
experiment's rendered text (what ``repro reproduce --only <name>``
renders), its SHA-256 and its evaluated findings.

:func:`execute_job` wraps ``run_job`` with the operational envelope the
scheduler needs: a per-attempt wall-clock alarm (SIGALRM, so even a job
stuck in a C loop or a sleep is interrupted) and the deterministic
fault-injection hook ``REPRO_SWEEP_FAIL_JOBS`` used by the tests to
exercise retry, timeout, crash-recovery and partial-completion paths::

    REPRO_SWEEP_FAIL_JOBS="<id-prefix>=<mode>[:<attempts>],..."

where ``mode`` is ``fail`` (raise), ``hang`` (sleep until the alarm
fires) or ``crash`` (kill the worker process outright, breaking the
pool), and ``attempts`` bounds which attempt numbers are affected
(default: all — e.g. ``deadbeef=fail:1`` fails only the first attempt,
so the retry succeeds).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from typing import Iterator

from repro import obs
from repro.experiments.common import world_cache
from repro.experiments.findings import evaluate
from repro.experiments.registry import select
from repro.scenario.world import World
from repro.sweep.spec import Job

__all__ = [
    "FAIL_JOBS_ENV",
    "InjectedFault",
    "JobTimeout",
    "execute_job",
    "experiment_payloads",
    "run_job",
]

#: Fault-injection knob (see the module docstring); parsed per attempt
#: inside the worker, so tests steer targeted jobs deterministically.
FAIL_JOBS_ENV = "REPRO_SWEEP_FAIL_JOBS"


class JobTimeout(Exception):
    """A job attempt exceeded its wall-clock budget."""


class InjectedFault(Exception):
    """A test-injected failure (``REPRO_SWEEP_FAIL_JOBS``)."""


def experiment_payloads(world: World, experiments: tuple[str, ...]) -> dict[str, dict]:
    """Run experiments (empty: all) on ``world``: ``{name: {text, sha256,
    findings}}``, where ``text`` is the rendered section without the
    finding lines ``repro reproduce`` adds and ``findings`` maps each
    finding id to ``{"measured": float or None, "passed": bool}``."""
    payload: dict[str, dict] = {}
    for spec in select(experiments or None):
        with obs.span(f"sweep.experiment.{spec.name}"):
            result = spec.run(world)
            text = spec.render(result)
        payload[spec.name] = {
            "text": text,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "findings": {
                outcome.finding.id: {"measured": outcome.measured, "passed": outcome.passed}
                for outcome in evaluate(spec.findings, result)
            },
        }
    return payload


def run_job(job: Job) -> dict[str, dict]:
    """Run one job's experiments on its world (:func:`experiment_payloads`)."""
    with obs.span(
        "sweep.job",
        job=job.job_id[:12],
        scenario=job.scenario,
        scale=job.scale,
        seed=job.seed,
    ):
        world = world_cache(job.scale, job.seed, config=job.config())
        return experiment_payloads(world, job.experiments)


def execute_job(job: Job, attempt: int, timeout: float) -> dict:
    """Pool entry point: fault hook + alarm around :func:`run_job`."""
    with _alarm(timeout, job.job_id):
        _maybe_inject_fault(job.job_id, attempt, timeout)
        return run_job(job)


# -- per-attempt wall-clock alarm -------------------------------------------


@contextmanager
def _alarm(timeout: float, job_id: str) -> Iterator[None]:
    """Raise :class:`JobTimeout` after ``timeout`` seconds (0 = disabled).

    Uses ``SIGALRM``/``setitimer`` where available (pool workers run
    tasks on their main thread, so the handler fires in the right
    place); elsewhere the attempt runs unbudgeted and the scheduler's
    driver-side backstop is the only limit.
    """
    usable = (
        timeout > 0
        and hasattr(signal, "setitimer")
        and hasattr(signal, "SIGALRM")
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler shape
        raise JobTimeout(
            f"job {job_id[:12]} exceeded its {timeout:g}s budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- deterministic fault injection ------------------------------------------


def _maybe_inject_fault(job_id: str, attempt: int, timeout: float) -> None:
    for prefix, mode, upto in _parse_fault_spec(os.environ.get(FAIL_JOBS_ENV, "")):
        if not job_id.startswith(prefix) or attempt > upto:
            continue
        if mode == "fail":
            raise InjectedFault(
                f"injected failure for job {job_id[:12]} attempt {attempt}"
            )
        if mode == "hang":
            # Sleep well past any plausible budget; the alarm (or the
            # scheduler's backstop) is what ends this attempt.
            time.sleep(max(3600.0, timeout * 100))
            raise InjectedFault(f"hang for {job_id[:12]} was not interrupted")
        if mode == "crash":
            # Simulate a hard worker death (OOM kill, segfault): no
            # exception propagates, the process just disappears and the
            # executor reports a broken pool.
            os._exit(23)


def _parse_fault_spec(raw: str) -> list[tuple[str, str, int]]:
    """Parse ``prefix=mode[:attempts]`` entries; malformed ones ignored."""
    entries = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk or "=" not in chunk:
            continue
        prefix, _, action = chunk.partition("=")
        mode, _, count = action.partition(":")
        if mode not in ("fail", "hang", "crash"):
            continue
        try:
            upto = int(count) if count else 1 << 30
        except ValueError:
            continue
        entries.append((prefix.strip(), mode, upto))
    return entries
