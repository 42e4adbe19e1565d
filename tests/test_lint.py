"""The ``repro.lint`` static-analysis gate.

Three contracts, in order of importance:

* **every rule fires** — each registered rule flags its fixture in
  ``tests/lint_fixtures/`` (and a fixture flags *only* its own rule, so
  the fixtures double as precision probes);
* **the shipped tree is clean** — ``repro lint`` over the real
  ``src``/``benchmarks``/``examples`` roots reports zero findings (this
  is the same invocation CI gates on);
* **waivers round-trip** — a ``# repro-lint: disable=LXXX`` comment on
  the flagged line suppresses exactly that finding and is counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    registered_rules,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.engine import (
    DEFAULT_LINT_ROOTS,
    LintUsageError,
    waived_rules_by_line,
)
from repro.lint.registry import RuleSelection, rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: rule id -> the fixture that violates it (and nothing else).
FIXTURE_BY_RULE = {
    "L001": "rng_violation.py",
    "L002": "engine_violation.py",
    "L003": "backend_conditional_violation.py",
    "L004": "transition_violation.py",
    "L006": "counts_violation.py",
    "L007": "obs_violation.py",
}


class TestEveryRuleFires:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_BY_RULE))
    def test_rule_fires_on_its_fixture(self, rule_id):
        fixture = FIXTURES / FIXTURE_BY_RULE[rule_id]
        report = run_lint([str(fixture)], base=REPO_ROOT)
        assert not report.clean
        assert any(f.rule == rule_id for f in report.findings), report.findings

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_BY_RULE))
    def test_fixture_trips_only_its_own_rule(self, rule_id):
        fixture = FIXTURES / FIXTURE_BY_RULE[rule_id]
        report = run_lint([str(fixture)], base=REPO_ROOT)
        assert {f.rule for f in report.findings} == {rule_id}, report.findings

    def test_every_registered_rule_has_a_fixture(self):
        assert set(FIXTURE_BY_RULE) == set(rule_ids())

    def test_findings_carry_location_and_hint(self):
        fixture = FIXTURES / FIXTURE_BY_RULE["L003"]
        report = run_lint([str(fixture)], base=REPO_ROOT)
        (finding,) = report.findings
        assert finding.path.endswith("backend_conditional_violation.py")
        assert finding.line > 0
        assert finding.hint  # rules ship a remediation pointer


class TestShippedTreeClean:
    def test_default_roots_are_clean(self):
        report = run_lint(base=REPO_ROOT)
        assert report.clean, render_text(report)
        assert report.checked_files > 0
        # The fixtures live under tests/ precisely so the default roots
        # never see them.
        assert all(root != "tests" for root in DEFAULT_LINT_ROOTS)

    def test_cli_exits_nonzero_on_a_fixture_and_zero_when_clean(self):
        fixture = FIXTURES / FIXTURE_BY_RULE["L001"]
        env_path = str(REPO_ROOT / "src")
        violating = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(fixture)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )
        assert violating.returncode == 1, violating.stdout + violating.stderr
        assert "L001" in violating.stdout
        listing = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )
        assert listing.returncode == 0
        assert all(rule_id in listing.stdout for rule_id in rule_ids())


class TestWaivers:
    def _waive(self, tmp_path: Path, fixture_name: str, rule_id: str) -> Path:
        """Copy a fixture with a waiver comment on each flagged line."""
        fixture = FIXTURES / fixture_name
        report = run_lint([str(fixture)], base=REPO_ROOT)
        flagged = {f.line for f in report.findings if f.rule == rule_id}
        assert flagged
        lines = fixture.read_text().splitlines()
        for number in flagged:
            lines[number - 1] += f"  # repro-lint: disable={rule_id}"
        waived = tmp_path / fixture_name
        waived.write_text("\n".join(lines) + "\n")
        return waived

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_BY_RULE))
    def test_waiver_suppresses_each_rule(self, tmp_path, rule_id):
        waived = self._waive(tmp_path, FIXTURE_BY_RULE[rule_id], rule_id)
        report = run_lint([str(waived)], base=REPO_ROOT)
        assert report.clean, report.findings
        assert report.waived > 0

    def test_disable_all_waives_everything(self, tmp_path):
        fixture = FIXTURES / FIXTURE_BY_RULE["L003"]
        lines = fixture.read_text().splitlines()
        report = run_lint([str(fixture)], base=REPO_ROOT)
        for finding in report.findings:
            lines[finding.line - 1] += "  # repro-lint: disable=all"
        waived = tmp_path / "all_waived.py"
        waived.write_text("\n".join(lines) + "\n")
        again = run_lint([str(waived)], base=REPO_ROOT)
        assert again.clean and again.waived == len(report.findings)

    def test_waiver_on_the_wrong_line_does_not_suppress(self, tmp_path):
        fixture = FIXTURES / FIXTURE_BY_RULE["L003"]
        text = "# repro-lint: disable=L003\n" + fixture.read_text()
        shifted = tmp_path / "shifted.py"
        shifted.write_text(text)
        report = run_lint([str(shifted)], base=REPO_ROOT)
        assert not report.clean  # waivers are per-line, not per-file

    def test_waiver_parsing(self):
        text = "x = 1  # repro-lint: disable=L001, L003\ny = 2\n"
        assert waived_rules_by_line(text) == {1: {"L001", "L003"}}


class TestReporting:
    def test_json_is_versioned_and_machine_readable(self):
        fixture = FIXTURES / FIXTURE_BY_RULE["L003"]
        report = run_lint([str(fixture)], base=REPO_ROOT)
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert set(payload["rules"]) == set(rule_ids())
        (finding,) = payload["findings"]
        assert finding["rule"] == "L003"
        assert finding["path"].endswith("backend_conditional_violation.py")

    def test_text_report_names_rule_and_location(self):
        fixture = FIXTURES / FIXTURE_BY_RULE["L006"]
        report = run_lint([str(fixture)], base=REPO_ROOT)
        text = render_text(report)
        assert "L006" in text and "counts_violation.py" in text

    def test_clean_report_says_so(self):
        report = run_lint(["src/repro/core"], base=REPO_ROOT)
        assert "clean" in render_text(report)


class TestEngineValidation:
    def test_unknown_rule_filter_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            RuleSelection.parse("L999")

    def test_missing_path_fails_loudly(self):
        with pytest.raises(LintUsageError, match="does not exist"):
            run_lint(["no/such/dir"], base=REPO_ROOT)

    def test_rules_filter_restricts_the_run(self):
        fixture = FIXTURES / FIXTURE_BY_RULE["L001"]
        report = run_lint([str(fixture)], base=REPO_ROOT, rules_filter="L006")
        assert report.clean  # L001 violations invisible to an L006-only run

    def test_rule_registry_is_complete(self):
        rules = registered_rules()
        assert [rule.rule_id for rule in rules] == sorted(rule.rule_id for rule in rules)
        assert all(rule.summary and rule.hint for rule in rules)
