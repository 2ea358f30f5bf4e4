"""Fixture-snippet coverage for every repro-lint rule.

Each rule gets the same three-way treatment the CI contract relies on:

* a **positive** fixture proving detection (plus a scope/negative twin),
* **pragma** suppression (inline ``# repro-lint: disable=RPLxxx``),
* **baseline** suppression (the shrink-only JSON file).

``lint_source`` scopes rules by the relpath the caller declares, so the
fixtures choose their scope by naming themselves into ``src/repro/...``
or ``tests/...``.
"""

import textwrap

import pytest

from repro._lint import Baseline, lint_source

SRC = "src/repro/jitter/fixture_mod.py"
TEST = "tests/fixture_mod.py"


def codes(source, relpath=SRC):
    return [finding.code for finding in lint_source(textwrap.dedent(source), relpath)]


def single(source, relpath=SRC):
    findings = lint_source(textwrap.dedent(source), relpath)
    assert len(findings) == 1, findings
    return findings[0]


# --- RPL001 implicit-rng ------------------------------------------------------


class TestImplicitRng:
    def test_legacy_global_numpy_rng_call(self):
        finding = single(
            """
            import numpy as np

            def noisy():
                return np.random.normal(0.0, 1.0)
            """
        )
        assert finding.code == "RPL001"
        assert "numpy.random.normal" in finding.message

    def test_unseeded_default_rng(self):
        assert codes("import numpy as np\nrng = np.random.default_rng()\n") == ["RPL001"]

    def test_default_rng_seeded_with_none_literal(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(None)\n") == ["RPL001"]

    def test_stdlib_random(self):
        assert codes("import random\nx = random.random()\n") == ["RPL001"]

    def test_stdlib_random_from_import(self):
        assert codes("from random import randint\nx = randint(0, 5)\n") == ["RPL001"]

    def test_seeded_paths_are_clean(self):
        assert (
            codes(
                """
                import numpy as np

                root = np.random.SeedSequence(7)
                rngs = [np.random.default_rng(child) for child in root.spawn(3)]
                """
            )
            == []
        )

    def test_local_variable_named_random_is_not_flagged(self):
        assert codes("random = object()\nrandom.shuffle()\n") == []

    def test_scope_is_src_only(self):
        assert codes("import numpy as np\nrng = np.random.default_rng()\n", TEST) == []

    def test_pragma_suppresses(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=RPL001 — fixture\n"
        )
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("import numpy as np\nrng = np.random.default_rng()\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL002 wall-clock --------------------------------------------------------


class TestWallClock:
    def test_time_time(self):
        finding = single("import time\nstamp = time.time()\n")
        assert finding.code == "RPL002"

    def test_datetime_now_via_from_import(self):
        assert codes("from datetime import datetime\nnow = datetime.now()\n") == ["RPL002"]

    def test_applies_outside_src_too(self):
        assert codes("import time\nstamp = time.time()\n", TEST) == ["RPL002"]

    def test_perf_counter_is_fine(self):
        assert codes("import time\nt0 = time.perf_counter()\n") == []

    @pytest.mark.parametrize(
        "relpath", ["src/repro/telemetry/tracer.py", "benchmarks/run_bench.py"]
    )
    def test_allowlist(self, relpath):
        assert codes("import time\nstamp = time.time()\n", relpath) == []

    def test_pragma_suppresses(self):
        source = "import time\nstamp = time.time()  # repro-lint: disable=RPL002 — fixture\n"
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("import time\nstamp = time.time()\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL003 raw-json ----------------------------------------------------------


class TestRawJson:
    def test_raw_dumps(self):
        finding = single("import json\ntext = json.dumps({})\n")
        assert finding.code == "RPL003"
        assert "dumps_strict" in finding.message

    def test_raw_loads_via_from_import(self):
        assert codes("from json import loads\nvalue = loads('{}')\n") == ["RPL003"]

    def test_jsonio_itself_is_exempt(self):
        assert codes("import json\ntext = json.dumps({})\n", "src/repro/_jsonio.py") == []

    def test_lint_package_is_exempt(self):
        assert codes("import json\ntext = json.dumps({})\n", "src/repro/_lint/baseline.py") == []

    def test_tests_are_out_of_scope(self):
        # Independent verification of codec output *should* use raw json.
        assert codes("import json\ntext = json.dumps({})\n", TEST) == []

    def test_jsondecodeerror_reference_is_fine(self):
        assert (
            codes(
                """
                import json

                def parse(text, fallback):
                    try:
                        return fallback(text)
                    except json.JSONDecodeError:
                        return None
                """
            )
            == []
        )

    def test_pragma_suppresses(self):
        source = "import json\ntext = json.dumps({})  # repro-lint: disable=RPL003 — fixture\n"
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("import json\ntext = json.dumps({})\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL004 spawn-unsafe-callable ---------------------------------------------


class TestSpawnUnsafeCallable:
    def test_lambda_worker(self):
        finding = single(
            """
            from repro.sweep import map_tasks_resilient

            def run(tasks):
                return map_tasks_resilient(lambda task, rng: task, tasks, seed=0)
            """
        )
        assert finding.code == "RPL004"
        assert "lambda" in finding.message

    def test_locally_defined_worker(self):
        finding = single(
            """
            from repro.sweep import map_tasks_resilient

            def run(tasks):
                def worker(task, rng):
                    return task
                return map_tasks_resilient(worker, tasks, seed=0)
            """
        )
        assert finding.code == "RPL004"
        assert "worker" in finding.message

    def test_lambda_into_executor_submit(self):
        assert (
            codes(
                """
                def run(pool):
                    return pool.submit(lambda: 1)
                """,
                TEST,
            )
            == ["RPL004"]
        )

    def test_module_level_worker_is_fine(self):
        assert (
            codes(
                """
                from repro.sweep import map_tasks_resilient

                def worker(task, rng):
                    return task

                def run(tasks):
                    return map_tasks_resilient(worker, tasks, seed=0)
                """
            )
            == []
        )

    def test_method_in_local_class_is_not_confused_with_closure(self):
        assert (
            codes(
                """
                from repro.sweep import map_tasks_resilient

                def worker(task, rng):
                    return task

                def run(tasks):
                    class Helper:
                        def worker(self, task, rng):
                            return task
                    return map_tasks_resilient(worker, tasks, seed=0)
                """
            )
            == []
        )

    def test_pragma_suppresses(self):
        source = textwrap.dedent(
            """
            from repro.sweep import map_tasks_resilient

            def run(tasks):
                # repro-lint: disable=RPL004 — fixture, serial-only test helper
                return map_tasks_resilient(lambda task, rng: task, tasks, seed=0, workers=1)
            """
        )
        assert [finding.code for finding in lint_source(source, SRC)] == []

    def test_baseline_suppresses(self, tmp_path):
        source = textwrap.dedent(
            """
            from repro.sweep import map_tasks_resilient

            def run(tasks):
                return map_tasks_resilient(lambda task, rng: task, tasks, seed=0)
            """
        )
        findings = lint_source(source, SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL005 unordered-iteration -----------------------------------------------


class TestUnorderedIteration:
    def test_for_over_set_literal(self):
        finding = single(
            """
            def run():
                for item in {"b", "a"}:
                    print(item)
            """
        )
        assert finding.code == "RPL005"

    def test_comprehension_over_set_call(self):
        assert codes("tasks = [t for t in set(range(5))]\n") == ["RPL005"]

    def test_list_conversion_of_set(self):
        assert codes("tasks = list(set((1, 2)))\n") == ["RPL005"]

    def test_sorted_set_is_fine(self):
        assert codes("tasks = sorted(set((1, 2)))\n") == []
        assert codes("for t in sorted({2, 1}):\n    print(t)\n") == []

    def test_membership_test_is_fine(self):
        assert codes("ok = 3 in {1, 2, 3}\n") == []

    def test_pragma_suppresses(self):
        source = "tasks = list(set((1, 2)))  # repro-lint: disable=RPL005 — fixture\n"
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("tasks = list(set((1, 2)))\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL006 float-equality ----------------------------------------------------


class TestFloatEquality:
    def test_nonzero_float_literal(self):
        finding = single("def gate(x):\n    return x == 1.5\n")
        assert finding.code == "RPL006"

    def test_negative_float_literal(self):
        assert codes("def gate(x):\n    return x != -0.25\n") == ["RPL006"]

    def test_float_call_operand(self):
        assert codes('def gate(x):\n    return x == float("inf")\n') == ["RPL006"]

    def test_math_inf_attribute(self):
        assert codes("import math\ndef gate(x):\n    return x == math.inf\n") == ["RPL006"]

    def test_exact_zero_gate_is_sanctioned(self):
        assert codes("def gate(x):\n    return x == 0.0 or x != 0.0\n") == []

    def test_int_comparison_is_fine(self):
        assert codes("def gate(x):\n    return x == 1\n") == []

    def test_scope_is_src_only(self):
        assert codes("def gate(x):\n    return x == 1.5\n", TEST) == []

    def test_pragma_suppresses(self):
        source = "def gate(x):\n    return x == 1.5  # repro-lint: disable=RPL006 — fixture\n"
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("def gate(x):\n    return x == 1.5\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL007 broad-except ------------------------------------------------------

BROAD = """
def guarded(task):
    try:
        return task()
    except Exception:
        return None
"""


class TestBroadExcept:
    def test_broad_except(self):
        finding = single(BROAD)
        assert finding.code == "RPL007"

    def test_bare_except(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert codes(source) == ["RPL007"]

    def test_tuple_containing_broad_type(self):
        source = "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(source) == ["RPL007"]

    def test_narrow_except_is_fine(self):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert codes(source) == []

    @pytest.mark.parametrize("relpath", ["src/repro/sweep/resilient.py"])
    def test_sanctioned_isolation_sites(self, relpath):
        assert codes(BROAD, relpath) == []

    def test_pragma_suppresses(self):
        source = BROAD.replace(
            "except Exception:", "except Exception:  # repro-lint: disable=RPL007 — fixture"
        )
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source(BROAD, SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- RPL008 environment-read --------------------------------------------------


class TestEnvironmentRead:
    def test_os_environ_subscript(self):
        finding = single('import os\nvalue = os.environ["REPRO_SEED"]\n')
        assert finding.code == "RPL008"
        assert "os.environ" in finding.message
        assert "manifest" in finding.message

    def test_os_environ_get_is_flagged_once(self):
        assert codes('import os\nvalue = os.environ.get("REPRO_SEED")\n') == ["RPL008"]

    def test_os_getenv(self):
        assert codes('import os\nvalue = os.getenv("REPRO_SEED")\n') == ["RPL008"]

    def test_platform_call(self):
        assert codes("import platform\nv = platform.python_version()\n") == ["RPL008"]

    def test_platform_from_import(self):
        assert codes("from platform import machine\narch = machine()\n") == ["RPL008"]

    def test_sys_version_info(self):
        assert codes("import sys\nok = sys.version_info >= (3, 11)\n") == ["RPL008"]

    def test_benchmarks_are_in_scope(self):
        assert codes(
            "import platform\nv = platform.python_version()\n", "benchmarks/run_bench.py"
        ) == ["RPL008"]

    def test_manifest_module_is_exempt(self):
        assert (
            codes(
                "import platform\nv = platform.python_version()\n",
                "src/repro/telemetry/manifest.py",
            )
            == []
        )

    def test_tests_are_out_of_scope(self):
        assert codes("import os\nvalue = os.getenv('X')\n", TEST) == []

    def test_other_sys_attributes_are_fine(self):
        assert codes("import sys\nsys.exit(1)\n") == []
        assert codes("import sys\npath = sys.path\n") == []

    def test_local_name_platform_is_not_confused(self):
        assert codes("platform = object()\nv = platform.python_version()\n") == []

    def test_pragma_suppresses(self):
        source = (
            "import os\n"
            'value = os.getenv("REPRO_SEED")  # repro-lint: disable=RPL008 — fixture\n'
        )
        assert codes(source) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source('import os\nvalue = os.getenv("X")\n', SRC)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []


# --- pragma placement & parse-error behaviour ---------------------------------


class TestPragmaMechanics:
    def test_comment_line_above_covers_next_line(self):
        source = (
            "import time\n"
            "# repro-lint: disable=RPL002 — fixture\n"
            "stamp = time.time()\n"
        )
        assert codes(source) == []

    def test_file_level_pragma(self):
        source = (
            "# repro-lint: disable-file=RPL002 — fixture module\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert codes(source) == []

    def test_disable_all(self):
        source = "import time\nstamp = time.time()  # repro-lint: disable=all — fixture\n"
        assert codes(source) == []

    def test_wrong_code_does_not_suppress(self):
        source = "import time\nstamp = time.time()  # repro-lint: disable=RPL001 — wrong\n"
        assert codes(source) == ["RPL002"]

    def test_pragma_inside_string_literal_is_inert(self):
        source = (
            "import time\n"
            'note = "# repro-lint: disable=RPL002"\n'
            "stamp = time.time()\n"
        )
        assert codes(source) == ["RPL002"]

    def test_syntax_error_reports_parse_error_code(self):
        findings = lint_source("def broken(:\n", SRC)
        assert [finding.code for finding in findings] == ["RPL000"]


class TestBaselineMechanics:
    def test_stale_entry_is_reported(self, tmp_path):
        findings = lint_source("import time\nstamp = time.time()\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        baseline = Baseline.load(tmp_path / "base.json")
        kept, stale = baseline.apply([])  # violation has been fixed
        assert kept == []
        assert len(stale) == 1 and stale[0]["code"] == "RPL002"

    def test_snippet_identity_survives_line_moves(self, tmp_path):
        findings = lint_source("import time\nstamp = time.time()\n", SRC)
        Baseline.write(tmp_path / "base.json", findings)
        moved = lint_source("import time\n\n\n# a comment\nstamp = time.time()\n", SRC)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(moved)
        assert kept == [] and stale == []

    def test_count_covers_duplicate_lines(self, tmp_path):
        source = "import time\na = time.time()\na = time.time()\n"
        findings = lint_source(source, SRC)
        assert len(findings) == 2
        Baseline.write(tmp_path / "base.json", findings)
        baseline = Baseline.load(tmp_path / "base.json")
        assert sum(baseline.entries.values()) == 2
        kept, stale = baseline.apply(findings)
        assert kept == [] and stale == []


# --- RPL009 eager-package-init ------------------------------------------------

INIT = "src/repro/events/__init__.py"


class TestEagerPackageInit:
    def test_relative_submodule_import(self):
        finding = single("from .kernel import Simulator\n", INIT)
        assert finding.code == "RPL009"
        assert "'repro.events.kernel'" in finding.message
        assert "lazy_exports" in finding.message

    @pytest.mark.parametrize(
        "source",
        [
            "from . import kernel\n",
            "import repro.events.kernel\n",
            "from repro.events.kernel import Simulator\n",
            "try:\n    from .kernel import Simulator\nexcept ImportError:\n    pass\n",
        ],
    )
    def test_every_import_time_form_is_flagged(self, source):
        assert codes(source, INIT) == ["RPL009"]

    def test_nested_package_resolves_its_own_level(self):
        relpath = "src/repro/link/training/__init__.py"
        assert codes("from .search import train_link\n", relpath) == ["RPL009"]
        assert codes("from ..stateye import statistical_eye\n", relpath) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from .._exports import lazy_exports\n",
            "from ..core.config import CdrChannelConfig\n",
            "import numpy as np\n",
            "def load():\n    from .kernel import Simulator\n    return Simulator\n",
        ],
    )
    def test_other_packages_and_function_level_imports_are_fine(self, source):
        assert codes(source, INIT) == []

    def test_only_package_inits_are_in_scope(self):
        assert codes("from .kernel import Simulator\n", "src/repro/events/signal.py") == []
        assert codes("from .kernel import Simulator\n", "tests/events/__init__.py") == []

    @pytest.mark.parametrize(
        "relpath",
        [
            "src/repro/__init__.py",
            "src/repro/telemetry/__init__.py",
            "src/repro/_lint/__init__.py",
        ],
    )
    def test_eager_packages_are_allowed(self, relpath):
        assert codes("from . import units\nfrom .base import Rule\n", relpath) == []

    def test_pragma_suppresses(self):
        source = "from .kernel import Simulator  # repro-lint: disable=RPL009 — fixture\n"
        assert codes(source, INIT) == []

    def test_baseline_suppresses(self, tmp_path):
        findings = lint_source("from .kernel import Simulator\n", INIT)
        Baseline.write(tmp_path / "base.json", findings)
        kept, stale = Baseline.load(tmp_path / "base.json").apply(findings)
        assert kept == [] and stale == []
