"""Adversarial initial configurations for self-stabilization testing."""

from repro.adversary.initializers import (
    ADVERSARIES,
    all_duplicate_rank,
    correct_verifier_configuration,
    corrupted_messages,
    duplicate_ranks,
    mid_ranking,
    mid_reset,
    mixed_generations,
    planted_top,
    probation_chaos,
    random_agent,
    random_soup,
    scrambled_observations,
    single_agent_scrambler,
)

__all__ = [
    "ADVERSARIES",
    "all_duplicate_rank",
    "correct_verifier_configuration",
    "corrupted_messages",
    "duplicate_ranks",
    "mid_ranking",
    "mid_reset",
    "mixed_generations",
    "planted_top",
    "probation_chaos",
    "random_agent",
    "random_soup",
    "scrambled_observations",
    "single_agent_scrambler",
]
