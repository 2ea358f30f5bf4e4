"""The repository satisfies its own determinism & spawn-safety contract.

This is the test-suite twin of the blocking CI step: repro-lint over the
full tree must be clean against the committed (empty-for-RPL001..003)
baseline.  A new violation fails here first, with the rule's message.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro._lint import Baseline, DEFAULT_BASELINE_NAME, lint_paths, rule_codes

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_TARGETS = ["src", "tests", "benchmarks", "examples", "cdrbench"]


def test_repo_lints_clean():
    findings = lint_paths(LINT_TARGETS, REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    kept, stale = baseline.apply(findings)
    assert kept == [], "\n".join(finding.render() for finding in kept)
    assert stale == [], stale


def test_committed_baseline_is_empty_for_core_invariants():
    # Acceptance contract: RPL001 (implicit RNG), RPL002 (wall clock) and
    # RPL003 (raw json) violations were *fixed or pragma'd*, never
    # baselined — and they must stay that way.
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    core = {"RPL001", "RPL002", "RPL003"}
    offenders = [key for key in baseline.entries if key[1] in core]
    assert offenders == [], offenders


def test_cli_module_exits_zero_from_repo_root():
    # Exactly the blocking CI invocation, importable without numpy.
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro._lint", *LINT_TARGETS],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout


def test_every_rule_is_registered():
    assert rule_codes() == [f"RPL00{n}" for n in range(1, 9)]
