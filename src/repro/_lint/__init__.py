"""repro-lint — AST-based determinism & spawn-safety analyzer.

Every layer of this repository stakes its correctness on three repo-wide
invariants: all randomness flows from explicit ``SeedSequence`` /
``Generator`` paths, all persisted JSON goes through the strict RFC 8259
codec in :mod:`repro._jsonio`, and everything shipped to pool workers is
spawn-picklable.  This package turns those invariants (plus four
supporting ones) into machine-checked rules, enforced as a blocking CI
step::

    PYTHONPATH=src python -m repro._lint src tests benchmarks examples cdrbench

Suppression is explicit and audited: inline
``# repro-lint: disable=RPLxxx`` pragmas with a justification
(:mod:`repro._lint.pragmas`), or the shrink-only JSON baseline
(:mod:`repro._lint.baseline`).  The rule table lives in
:mod:`repro._lint.rules` and ARCHITECTURE.md.

The package is stdlib-only by contract — the CI lint job runs it without
numpy/scipy installed — and must stay importable that way.
"""

from .base import PARSE_ERROR_CODE, FileContext, Finding, Rule, all_rules, rule_codes
from .baseline import Baseline, BaselineError
from .cli import DEFAULT_BASELINE_NAME, main
from .pragmas import PragmaMap, collect_pragmas
from .walker import iter_python_files, lint_file, lint_paths, lint_source

__all__ = [
    "PARSE_ERROR_CODE",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "rule_codes",
    "Baseline",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "main",
    "PragmaMap",
    "collect_pragmas",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
