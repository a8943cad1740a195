"""The experiment registry: one uniform API over every paper artefact.

Each figure/table/finding module exposes ``run(world) -> result``,
``render(result) -> str`` and its paper ``FINDINGS``; the registry wraps
them in :class:`ExperimentSpec` records keyed by a short stable name
(``fig5``, ``tab2``, ``f87``…), ordered as the paper presents them — the
same order ``reproduce`` has always printed.  Tooling (the CLI, the
benchmark runner, a future server) iterates :data:`REGISTRY` instead of
hardcoding module lists, and ``reproduce --only fig5,tab2`` filters by
name via :func:`select`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType, ModuleType
from typing import Any, Callable, Iterable, Mapping

import repro.experiments.f70_completeness as f70_completeness
import repro.experiments.f83_action4 as f83_action4
import repro.experiments.f87_stability as f87_stability
import repro.experiments.fig2_growth as fig2_growth
import repro.experiments.fig4_participation as fig4_participation
import repro.experiments.fig5_origination as fig5_origination
import repro.experiments.fig6_saturation as fig6_saturation
import repro.experiments.fig7_filtering as fig7_filtering
import repro.experiments.fig8_unconformant as fig8_unconformant
import repro.experiments.fig9_preference as fig9_preference
import repro.experiments.tab1_casestudies as tab1_casestudies
import repro.experiments.tab2_action1 as tab2_action1
from repro.experiments.common import text_table
from repro.experiments.findings import Finding, Outcome, evaluate
from repro.scenario.world import World
from repro.scenarios import FAMILIES as _SCENARIO_FAMILIES

__all__ = ["REGISTRY", "ExperimentSpec", "paper_findings", "registry_table", "select"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper artefact behind the uniform run/render API."""

    #: Short stable identifier (CLI filter key, benchmark label).
    name: str
    #: Human title, e.g. ``"Figure 5 — origination conformance"``.
    title: str
    #: Where the artefact lives in the paper, e.g. ``"§8, Figure 5"``.
    paper_ref: str
    #: Compute the artefact's data from a built world.
    run: Callable[[World], Any] = field(repr=False)
    #: Format a ``run`` result as printable text.
    render: Callable[[Any], str] = field(repr=False)
    #: The paper's claims about a ``run`` result (none for the scenario
    #: families, which are not paper artefacts).
    findings: tuple[Finding, ...] = field(default=(), repr=False)


def _artefact(name: str, title: str, paper_ref: str, module: ModuleType) -> ExperimentSpec:
    """A paper artefact's spec: its module's ``run``, ``render`` and ``FINDINGS``."""
    return ExperimentSpec(name, title, paper_ref, module.run, module.render, module.FINDINGS)


def _ordered_specs() -> tuple[ExperimentSpec, ...]:
    return (
        _artefact("fig2", "Figure 2 — MANRS growth", "§7, Figure 2", fig2_growth),
        _artefact("fig4", "Figure 4 — participation by RIR", "§7, Figure 4", fig4_participation),
        _artefact("f70", "Finding 7.0 — registration completeness", "§7, Finding 7.0",
                  f70_completeness),
        _artefact("fig5", "Figure 5 — origination conformance", "§8, Figure 5", fig5_origination),
        _artefact("f83", "Findings 8.3/8.4 — Action 4 conformance", "§8, Findings 8.3/8.4",
                  f83_action4),
        _artefact("tab1", "Table 1 — case studies", "§8, Table 1", tab1_casestudies),
        _artefact("f87", "Finding 8.7 — conformance stability", "§8.5, Finding 8.7", f87_stability),
        _artefact("fig6", "Figure 6 — RPKI saturation", "§8.6, Figure 6", fig6_saturation),
        _artefact("fig7", "Figure 7 — route filtering", "§9, Figure 7", fig7_filtering),
        _artefact("fig8", "Figure 8 — unconformant propagation", "§9, Figure 8", fig8_unconformant),
        _artefact("tab2", "Table 2 — Action 1 conformance", "§9, Table 2", tab2_action1),
        _artefact("fig9", "Figure 9 — MANRS transit preference", "§9, Figure 9", fig9_preference),
        # The scenario pack (repro.scenarios, DESIGN.md §17) rides the
        # same registry: families appear after the paper artefacts, in
        # the pack's own order.
        *(
            ExperimentSpec(family.name, family.title, family.paper_ref, family.run, family.render)
            for family in _SCENARIO_FAMILIES.values()
        ),
    )


#: Every paper artefact, in presentation order, keyed by stable name.
REGISTRY: Mapping[str, ExperimentSpec] = MappingProxyType(
    {spec.name: spec for spec in _ordered_specs()}
)


def select(names: Iterable[str] | str | None = None) -> list[ExperimentSpec]:
    """Resolve experiment names to specs, preserving registry order.

    ``names`` may be an iterable of names or one comma-separated string;
    ``None`` (or empty) selects everything.  Unknown names raise
    ``KeyError`` listing the valid choices, and the result follows the
    registry's paper order regardless of the order names were given in.
    """
    if names is None:
        return list(REGISTRY.values())
    if isinstance(names, str):
        names = [part.strip() for part in names.split(",") if part.strip()]
    wanted = set(names)
    if not wanted:
        return list(REGISTRY.values())
    unknown = wanted - REGISTRY.keys()
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {sorted(unknown)}; "
            f"choose from {list(REGISTRY)}"
        )
    return [spec for name, spec in REGISTRY.items() if name in wanted]


def paper_findings(world: World) -> list[Outcome]:
    """Every declared finding, evaluated on ``world`` in registry order.

    Each artefact that declares findings runs once; what ``repro
    report`` prints and the tier-1 shape tests check.
    """
    return [
        outcome
        for spec in REGISTRY.values()
        if spec.findings
        for outcome in evaluate(spec.findings, spec.run(world))
    ]


def registry_table() -> str:
    """The registry as an aligned text table (name, title, paper ref).

    What ``repro reproduce --list`` and ``repro sweep list`` print, so a
    user can discover valid ``--only`` / sweep ``experiments`` names
    without reading source.
    """
    lines = text_table(
        ("name", "title", "paper ref"),
        [(spec.name, spec.title, spec.paper_ref) for spec in REGISTRY.values()],
    )
    return "\n".join(lines)
