"""The repository satisfies its own determinism & spawn-safety contract.

This is the test-suite twin of the blocking CI step: repro-lint over the
full tree must be clean against the committed (empty) baseline.  A new
violation fails here first, with the rule's message.  The whole-tree lint
runs once per module, as exactly the CI invocation, and every contract
below reads that one run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lint import Baseline, DEFAULT_BASELINE_NAME, rule_codes

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_TARGETS = ["src", "tests", "benchmarks", "examples", "cdrbench"]


@pytest.fixture(scope="module")
def repo_lint_run() -> subprocess.CompletedProcess:
    """Exactly the blocking CI invocation, importable without numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro._lint", *LINT_TARGETS],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_repo_lints_clean(repo_lint_run):
    # Nothing grandfathered, and the run reports no finding (each would be
    # rendered above the summary line) and no stale baseline entry.
    assert Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME).entries == {}
    assert repo_lint_run.stdout.splitlines()[-1:] == ["0 findings"], repo_lint_run.stdout


def test_committed_baseline_is_empty_for_core_invariants():
    # Acceptance contract: RPL001 (implicit RNG), RPL002 (wall clock) and
    # RPL003 (raw json) violations were *fixed or pragma'd*, never
    # baselined — and they must stay that way.
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    core = {"RPL001", "RPL002", "RPL003"}
    offenders = [key for key in baseline.entries if key[1] in core]
    assert offenders == [], offenders


def test_cli_module_exits_zero_from_repo_root(repo_lint_run):
    assert repo_lint_run.returncode == 0, repo_lint_run.stdout + repo_lint_run.stderr
    assert "0 findings" in repo_lint_run.stdout


def test_every_rule_is_registered():
    assert rule_codes() == [f"RPL00{n}" for n in range(1, 10)]
