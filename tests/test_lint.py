"""The contract fixtures in ``tests/lint_fixtures/``.

Each fixture breaks one contract of ``tests/test_contracts.py``.  Its
own contract's scanner must flag it and no other scanner may, so the
fixtures double as precision probes for the scanners.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from test_contracts import (
    offences,
    scan_backend_compares,
    scan_clock_and_obs,
    scan_counts_dtype,
    scan_engine_classes,
    scan_rng_discipline,
    scan_transition_purity,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: contract -> (its scanner, the fixture that breaks it and nothing else)
CONTRACTS = {
    "L001": (scan_rng_discipline, "rng_violation.py"),
    "L002": (scan_engine_classes, "engine_violation.py"),
    "L003": (scan_backend_compares, "backend_conditional_violation.py"),
    "L004": (scan_transition_purity, "transition_violation.py"),
    "L006": (scan_counts_dtype, "counts_violation.py"),
    "L007": (scan_clock_and_obs, "obs_violation.py"),
}


class TestEveryRuleFires:
    @pytest.mark.parametrize("contract", sorted(CONTRACTS))
    def test_rule_fires_on_its_fixture(self, contract):
        scan, fixture = CONTRACTS[contract]
        assert offences(scan, [FIXTURES / fixture])

    @pytest.mark.parametrize("contract", sorted(CONTRACTS))
    def test_fixture_trips_only_its_own_rule(self, contract):
        fixture = FIXTURES / CONTRACTS[contract][1]
        flagged_by = [other for other, (scan, _) in CONTRACTS.items() if offences(scan, [fixture])]
        assert flagged_by == [contract]

    def test_every_registered_rule_has_a_fixture(self):
        fixtures = sorted(fixture for _, fixture in CONTRACTS.values())
        assert sorted(path.name for path in FIXTURES.glob("*.py")) == fixtures
