"""Analytical calculators: state-space sizes, predicted bounds, statistics,
and plot-free reporting."""

from repro.analysis.reporting import ascii_chart
from repro.analysis.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    geometric_tail_fit,
    success_rate_ci,
    tail_probability,
)
from repro.analysis.statespace import (
    StateSpaceReport,
    burman_style_bits,
    cai_izumi_wada_bits,
    comparison_table,
    detect_collision_bits,
    elect_leader_bits,
    elect_leader_report,
    sublinear_ssr_quoted_bits,
    sublinear_ssr_quoted_time,
    sublinear_ssr_time_optimal_bits,
    theorem_bound_bits,
    tradeoff_frontier,
)
from repro.analysis.theory import (
    PowerLawFit,
    elect_leader_interactions,
    fit_power_law,
    normalized_ratio,
    predicted_stabilization_interactions,
    ratio_spread,
)

__all__ = [
    "StateSpaceReport",
    "elect_leader_report",
    "elect_leader_bits",
    "detect_collision_bits",
    "theorem_bound_bits",
    "cai_izumi_wada_bits",
    "burman_style_bits",
    "sublinear_ssr_quoted_bits",
    "sublinear_ssr_quoted_time",
    "sublinear_ssr_time_optimal_bits",
    "comparison_table",
    "tradeoff_frontier",
    "PowerLawFit",
    "fit_power_law",
    "elect_leader_interactions",
    "predicted_stabilization_interactions",
    "normalized_ratio",
    "ratio_spread",
    "ascii_chart",
    "ConfidenceInterval",
    "bootstrap_ci",
    "tail_probability",
    "geometric_tail_fit",
    "success_rate_ci",
]
