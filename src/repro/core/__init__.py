"""Core analyses: the paper's §6 methodology."""

from repro.core.casestudy import CaseStudyRow, attribute_unconformant
from repro.core.classification import is_conformant, is_unconformant
from repro.core.conformance import (
    OriginationStats,
    PropagationStats,
    is_action1_fully_conformant,
    is_action4_conformant,
    origination_stats,
    propagation_stats,
)
from repro.core.impact import (
    SaturationReport,
    irr_coverage,
    preference_scores,
    rpki_saturation,
)
from repro.core.participation import (
    CompletenessReport,
    members_by_rir,
    registration_completeness,
    routed_space_share_by_rir,
)
from repro.core.report import Action1Summary, Action4Summary
from repro.core.stability import (
    StabilityClass,
    StabilityReport,
    conformance_stability,
)
from repro.core.readiness import (
    ReadinessReport,
    check_readiness,
    render_readiness,
)
from repro.core.rov_inference import (
    InferenceQuality,
    evaluate_inference,
    infer_rov,
)
from repro.core.stats import CDF, make_cdf

__all__ = [
    "Action1Summary",
    "Action4Summary",
    "CDF",
    "CaseStudyRow",
    "CompletenessReport",
    "InferenceQuality",
    "ReadinessReport",
    "check_readiness",
    "render_readiness",
    "evaluate_inference",
    "infer_rov",
    "OriginationStats",
    "PropagationStats",
    "SaturationReport",
    "StabilityClass",
    "StabilityReport",
    "attribute_unconformant",
    "conformance_stability",
    "irr_coverage",
    "is_action1_fully_conformant",
    "is_action4_conformant",
    "is_conformant",
    "is_unconformant",
    "make_cdf",
    "members_by_rir",
    "origination_stats",
    "preference_scores",
    "propagation_stats",
    "registration_completeness",
    "routed_space_share_by_rir",
    "rpki_saturation",
]
