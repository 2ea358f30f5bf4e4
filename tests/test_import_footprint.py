"""Package inits export lazily: a study imports only the modules it runs.

Every subpackage ``__init__`` lists its public names in one
:func:`repro._exports.lazy_exports` table.  One fresh interpreter first
imports what a study script imports — :mod:`repro.experiments`,
:mod:`repro.link`, ``repro.core.config`` and ``repro.datapath.nrz``, and
from the first two the names a study builds its grid from — and records
which modules that loaded; it then resolves every exported name of
every package.  The tests below read that one run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._jsonio import loads_strict

SRC = Path(__file__).resolve().parents[1] / "src"

#: Views of the top-down flow that no study entry point runs: the analytic
#: design flow and multi-channel receiver, the PLL baseline, phase-noise
#: budgeting, InfiniBand compliance, the statistical JTOL/FTOL/bathtub/
#: Monte-Carlo sweeps, the time-domain jitter sources, and the eye-diagram
#: and text-table views that a study's results offer but do not build.
NOT_LOADED_BY_A_STUDY = (
    "repro.core.baselines",
    "repro.core.design_flow",
    "repro.core.elastic_buffer",
    "repro.core.gcco",
    "repro.core.multichannel",
    "repro.phasenoise",
    "repro.pll",
    "repro.specs",
    "repro.statistical.jtol",
    "repro.statistical.ftol",
    "repro.statistical.bathtub",
    "repro.statistical.montecarlo",
    "repro.jitter.sources",
    "repro.jitter.accumulation",
    "repro.analysis.eye",
    "repro.reporting.tables",
)

PROBE = r"""
import ast
import importlib
import json
import sys
from pathlib import Path

import repro.core.config
import repro.datapath.nrz
import repro.experiments
import repro.link
from repro.experiments import (
    MeasurementPlan, ParameterAxis, ScenarioSpec, StimulusSpec, SweepResult, run_grid,
)
from repro.link import LinkConfig, RxCtle, TrainingBudget, TxFfe

report = {"loaded": sorted(name for name in sys.modules if name.startswith("repro"))}
import repro.sweep

report["unlisted_submodule"] = repro.sweep.faults.__name__
report["subpackage"] = repro.link.training.__name__
try:
    repro.link.no_such_name
except AttributeError as exc:
    report["unknown_name"] = str(exc)

root = Path(repro.__file__).parent
packages = {}
for init in sorted(root.rglob("__init__.py")):
    name = ".".join(("repro",) + init.parent.relative_to(root).parts)
    table = {}
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            table = ast.literal_eval(node.args[1])
    package = importlib.import_module(name)
    owners = {export: sub for sub, exports in table.items() for export in exports}
    packages[name] = {
        "all": list(package.__all__),
        "table": sorted(owners),
        "missing_from_dir": sorted(set(package.__all__) - set(dir(package))),
        "not_owner_object": sorted(
            export
            for export, sub in owners.items()
            if getattr(package, export)
            is not getattr(importlib.import_module(f"{name}.{sub}"), export)
        ),
        "unresolved": sorted(e for e in package.__all__ if not hasattr(package, e)),
        "uncached": sorted(e for e in package.__all__ if e not in vars(package)),
    }
report["packages"] = packages

star = {}
exec("from repro.core import *", star)
report["star_core"] = sorted(name for name in star if not name.startswith("__"))

print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def footprint() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return loads_strict(run.stdout)


def test_study_imports_load_no_unused_view(footprint):
    loaded = [
        module
        for module in footprint["loaded"]
        if module.startswith(tuple(prefix + "." for prefix in NOT_LOADED_BY_A_STUDY))
        or module in NOT_LOADED_BY_A_STUDY
    ]
    assert loaded == []


def test_every_export_resolves_to_its_defining_object(footprint):
    for name, package in footprint["packages"].items():
        if package["table"]:
            assert sorted(package["all"]) == package["table"], name
        assert package["unresolved"] == [], name
        assert package["not_owner_object"] == [], name
        assert package["missing_from_dir"] == [], name
        assert package["uncached"] == [], name


def test_star_import_covers_all(footprint):
    assert footprint["star_core"] == sorted(footprint["packages"]["repro.core"]["all"])


def test_submodules_resolve_as_attributes(footprint):
    assert "repro.sweep.faults" not in footprint["loaded"]
    assert footprint["unlisted_submodule"] == "repro.sweep.faults"
    assert footprint["subpackage"] == "repro.link.training"


def test_unknown_name_raises_attribute_error(footprint):
    assert footprint["unknown_name"] == "module 'repro.link' has no attribute 'no_such_name'"
