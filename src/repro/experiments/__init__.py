"""Experiments: one module per paper table/figure (see DESIGN.md §4)."""

from repro.experiments import (
    ablations,
    counterfactual,
    ext_other_actions,
    f70_completeness,
    f83_action4,
    f87_stability,
    fig2_growth,
    fig4_participation,
    fig5_origination,
    fig6_saturation,
    fig7_filtering,
    fig8_unconformant,
    fig9_preference,
    tab1_casestudies,
    tab2_action1,
)
from repro.experiments.common import (
    POPULATIONS,
    group_metric,
    population_label,
    world_cache,
)
from repro.experiments.findings import render_table
from repro.experiments.registry import REGISTRY, ExperimentSpec, paper_findings, select

__all__ = [
    "POPULATIONS",
    "REGISTRY",
    "ExperimentSpec",
    "paper_findings",
    "render_table",
    "select",
    "ablations",
    "counterfactual",
    "ext_other_actions",
    "f70_completeness",
    "f83_action4",
    "f87_stability",
    "fig2_growth",
    "fig4_participation",
    "fig5_origination",
    "fig6_saturation",
    "fig7_filtering",
    "fig8_unconformant",
    "fig9_preference",
    "group_metric",
    "population_label",
    "tab1_casestudies",
    "tab2_action1",
    "world_cache",
]
