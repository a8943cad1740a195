"""Aggregation and rendering of sweep results.

A sweep's raw output is one payload per job — each experiment's
rendered text, its SHA-256 and its evaluated paper findings.
:func:`aggregate` regroups that by *experiment* across the sweep axes,
which is the question a sweep answers: for each paper artefact, does
each of its findings hold across seeds, scales and scenario variants,
and how far does its statistic move?

``render_status`` and ``render_report`` are the text views behind
``repro sweep status`` / ``repro sweep report``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro import obs
from repro.experiments.findings import format_measured
from repro.sweep.ledger import JobState
from repro.sweep.spec import Job

__all__ = ["aggregate", "render_report", "render_status"]


def aggregate(
    jobs: Iterable[Job], results: Mapping[str, Mapping[str, Mapping]]
) -> dict:
    """Group per-job payloads by experiment across the sweep axes.

    Returns a JSON-shaped mapping::

        {"experiments": {name: {"jobs": [...], "groups": {...}}},
         "missing": [job ids with no payload]}

    ``groups`` keys are ``"<scenario>@scale=<scale>"`` — the axes the
    paper varies *deliberately* — and each group records the seeds it
    covers plus, per finding, how many seeds it held at and its measured
    statistic at each seed (``None`` where it could not be computed).  A
    payload without ``findings`` (written before payloads carried them)
    contributes none.
    """
    with obs.span("sweep.aggregate"):
        experiments: dict[str, dict] = {}
        missing = []
        for job in jobs:
            payload = results.get(job.job_id)
            if payload is None:
                missing.append(job.job_id)
                continue
            for name, cell in payload.items():
                entry = experiments.setdefault(name, {"jobs": [], "groups": {}})
                entry["jobs"].append(
                    {"job_id": job.job_id, "scenario": job.scenario,
                     "scale": job.scale, "seed": job.seed}
                )
                group = entry["groups"].setdefault(
                    f"{job.scenario}@scale={job.scale:g}", {"seeds": [], "findings": {}}
                )
                group["seeds"].append(job.seed)
                for finding_id, value in cell.get("findings", {}).items():
                    tally = group["findings"].setdefault(
                        finding_id, {"passed": 0, "measured": []}
                    )
                    tally["passed"] += value["passed"]
                    tally["measured"].append(value["measured"])
        for entry in experiments.values():
            for group in entry["groups"].values():
                group["seeds"].sort()
                group["findings"] = dict(sorted(group["findings"].items()))
            entry["groups"] = dict(sorted(entry["groups"].items()))
        return {"experiments": experiments, "missing": sorted(missing)}


def render_report(aggregated: dict) -> str:
    """The ``sweep report`` text: per experiment and axis group, one line
    per finding with its pass count and measured range across seeds."""
    lines = ["Sweep report", "============"]
    if not aggregated["experiments"]:
        lines.append("(no completed jobs)")
    for name, entry in aggregated["experiments"].items():
        lines.append("")
        lines.append(f"{name}: {len(entry['jobs'])} job(s)")
        for key, group in entry["groups"].items():
            seeds = ",".join(str(seed) for seed in group["seeds"])
            lines.append(f"  {key}  seeds [{seeds}]")
            for finding_id, tally in group["findings"].items():
                values = [value for value in tally["measured"] if value is not None]
                measured = format_measured(min(values, default=None))
                if values and max(values) != min(values):
                    measured += f" to {format_measured(max(values))}"
                lines.append(
                    f"    {finding_id}  {tally['passed']}/{len(tally['measured'])} "
                    f"held  measured {measured}"
                )
    if aggregated["missing"]:
        lines.append("")
        lines.append(
            f"missing: {len(aggregated['missing'])} job(s) without results"
        )
        for job_id in aggregated["missing"]:
            lines.append(f"  {job_id[:12]}")
    return "\n".join(lines)


def render_status(
    jobs: Iterable[Job], states: Mapping[str, JobState]
) -> str:
    """The ``sweep status`` text: one line per job plus a tally."""
    jobs = list(jobs)
    lines = []
    tally = {"done": 0, "failed": 0, "pending": 0}
    for job in jobs:
        state = states.get(job.job_id)
        status = state.status if state else "pending"
        tally[status if status in tally else "pending"] += 1
        experiments = ",".join(job.experiments) or "all"
        detail = ""
        if state and state.attempts > 1:
            detail += f"  attempts={state.attempts}"
        if state and state.last_error:
            detail += f"  error={state.last_error}"
        lines.append(
            f"{job.job_id[:12]}  {status:<7}  {job.scenario} "
            f"scale={job.scale:g} seed={job.seed} [{experiments}]{detail}"
        )
    lines.append(
        f"-- {tally['done']} done, {tally['failed']} failed, "
        f"{tally['pending']} pending of {len(jobs)} job(s)"
    )
    return "\n".join(lines)
