"""The nine repro-lint rules (RPL001–RPL009).

Each rule encodes one repo-wide invariant that a past PR was bitten by or
explicitly contracts (see ARCHITECTURE.md for the table).  Rules scope
themselves by ``FileContext.relpath``:

========  =====================================  ==========================
code      invariant                              scope
========  =====================================  ==========================
RPL001    all randomness flows from explicit     ``src/repro/``
          seeded SeedSequence/Generator paths
RPL002    numeric code is wall-clock-free        everywhere except
                                                 ``src/repro/telemetry/``
                                                 and ``benchmarks/``
RPL003    persisted JSON goes through the        ``src/repro/`` except
          strict codec in ``repro._jsonio``      ``_jsonio`` / ``_lint``
RPL004    callables shipped to pool workers      everywhere
          must be spawn-picklable
RPL005    no iteration over unordered sets in    everywhere
          deterministic data flow
RPL006    no float ``==``/``!=`` against         ``src/repro/``
          non-zero literals (exact-zero gates
          are the sanctioned idiom)
RPL007    no bare/broad ``except`` outside the   everywhere except the
          sanctioned isolation sites             sanctioned sites
RPL008    environment reads flow through the     ``src/repro/`` /
          provenance manifest                    ``benchmarks/`` /
          (``repro.telemetry.manifest``)         ``examples/``, except the
                                                 manifest module itself
========  =====================================  ==========================
"""

from __future__ import annotations

import ast

from .base import FileContext, Finding, Rule, register

__all__ = ["resolve_call_name", "import_aliases"]


# --- import-aware name resolution --------------------------------------------


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from every import statement in *tree*.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``;
    relative imports resolve to a leading-dot form that never collides
    with the stdlib roots the rules look for.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    return aliases


def resolve_call_name(func: ast.AST, aliases: dict[str, str]) -> str | None:
    """The imported dotted name a call target resolves to, or ``None``.

    Resolution requires the attribute chain to be rooted at an *imported*
    name — a local variable that happens to be called ``random`` never
    matches ``random.*``.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# --- RPL001 ------------------------------------------------------------------

#: numpy.random members that *are* the explicit seeded-path API.  Calling
#: anything else through numpy.random reaches the legacy global state.
_SAFE_NP_RANDOM = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}
#: Members of the safe set that still need an explicit seed argument.
_SEED_REQUIRED = {"default_rng", "SeedSequence"}


@register
class ImplicitRngRule(Rule):
    code = "RPL001"
    name = "implicit-rng"
    summary = (
        "randomness must flow from explicit SeedSequence/Generator paths; "
        "legacy np.random.* / stdlib random / unseeded default_rng() break "
        "run-to-run bit identity"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src:
            return []
        aliases = import_aliases(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name is None:
                continue
            if name == "random" or name.startswith("random."):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"stdlib global RNG call '{name}' — draw from an explicit "
                        f"np.random.Generator seeded via SeedSequence instead",
                    )
                )
            elif name.startswith("numpy.random."):
                member = name.split(".", 2)[2].split(".")[0]
                if member not in _SAFE_NP_RANDOM:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"legacy global numpy RNG call '{name}' — use an explicit "
                            f"seeded Generator (np.random.default_rng(seed_sequence))",
                        )
                    )
                elif member in _SEED_REQUIRED and (not node.args or _is_none(node.args[0])):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"unseeded '{name}()' draws OS entropy — pass a seed or "
                            f"spawned SeedSequence so the stream is reproducible",
                        )
                    )
        return findings


# --- RPL002 ------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
_WALL_CLOCK_ALLOWED_PREFIXES = ("src/repro/telemetry/", "benchmarks/")


@register
class WallClockRule(Rule):
    code = "RPL002"
    name = "wall-clock"
    summary = (
        "numeric code must be time-free so resumed checkpoints stay "
        "byte-identical; wall-clock reads live only in repro.telemetry "
        "and benchmarks/ (monotonic perf_counter durations are fine)"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.relpath.startswith(_WALL_CLOCK_ALLOWED_PREFIXES):
            return []
        aliases = import_aliases(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name in _WALL_CLOCK:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{name}' outside the telemetry/benchmark "
                        f"allowlist — deterministic layers must not observe the clock",
                    )
                )
        return findings


# --- RPL003 ------------------------------------------------------------------

_RAW_JSON = {"json.dump", "json.dumps", "json.load", "json.loads"}
# _jsonio *is* the codec; _lint must import without numpy (which _jsonio
# pulls in) and its findings/baseline payloads contain no floats.
_RAW_JSON_EXEMPT = ("src/repro/_jsonio.py", "src/repro/_lint/")


@register
class RawJsonRule(Rule):
    code = "RPL003"
    name = "raw-json"
    summary = (
        "persisted JSON goes through the strict RFC 8259 codec in "
        "repro._jsonio (dumps_strict/dumps_compact/loads_strict); raw "
        "json.dumps leaks bare NaN/Infinity tokens strict parsers reject"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src or ctx.relpath.startswith(_RAW_JSON_EXEMPT):
            return []
        aliases = import_aliases(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name in _RAW_JSON:
                short = name.split(".")[-1]
                replacement = {
                    "dump": "dumps_strict",
                    "dumps": "dumps_strict (or dumps_compact for JSONL)",
                    "load": "loads_strict",
                    "loads": "loads_strict",
                }[short]
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"raw '{name}' outside repro._jsonio — use "
                        f"repro._jsonio.{replacement}",
                    )
                )
        return findings


# --- RPL004 ------------------------------------------------------------------

#: Call targets that ship their callable arguments to pool workers.
_SPAWN_SINKS = {"map_tasks_resilient", "submit", "apply_async"}


@register
class SpawnUnsafeCallableRule(Rule):
    code = "RPL004"
    name = "spawn-unsafe-callable"
    summary = (
        "lambdas, closures and locally-defined functions are not picklable "
        "under the spawn start method — workers shipped to "
        "map_tasks_resilient/submit must be module-level functions"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def arg_problem(arg: ast.AST, func_scopes: list[set[str]]) -> str | None:
            if isinstance(arg, ast.Lambda):
                return "a lambda"
            if isinstance(arg, ast.Name):
                if any(arg.id in scope for scope in func_scopes):
                    return f"locally-defined function '{arg.id}'"
            if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
                if arg.func.id == "partial":
                    for inner in list(arg.args) + [kw.value for kw in arg.keywords]:
                        problem = arg_problem(inner, func_scopes)
                        if problem:
                            return f"partial over {problem}"
            return None

        def visit(node: ast.AST, func_scopes: list[set[str]], in_class: bool = False) -> None:
            child_in_class = False
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A def nested in a *function* is a local closure; a method
                # in a class body is only reachable via the class object,
                # never by bare name, so it is not recorded.
                if func_scopes and not in_class:
                    func_scopes[-1].add(node.name)
                func_scopes = func_scopes + [set()]
            elif isinstance(node, ast.Lambda):
                func_scopes = func_scopes + [set()]
            elif isinstance(node, ast.ClassDef):
                child_in_class = True
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                if func_scopes and not in_class:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            func_scopes[-1].add(target.id)
            if isinstance(node, ast.Call):
                tail = None
                if isinstance(node.func, ast.Name):
                    tail = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    tail = node.func.attr
                if tail in _SPAWN_SINKS:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        problem = arg_problem(arg, func_scopes)
                        if problem:
                            findings.append(
                                self.finding(
                                    ctx,
                                    arg,
                                    f"{problem} passed to '{tail}' is not "
                                    f"spawn-picklable — hoist it to module level",
                                )
                            )
            for child in ast.iter_child_nodes(node):
                visit(child, func_scopes, child_in_class)

        visit(ctx.tree, [])
        return findings


# --- RPL005 ------------------------------------------------------------------

_SET_CONSTRUCTORS = {"set", "frozenset"}
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CONSTRUCTORS
    return False


@register
class UnorderedIterationRule(Rule):
    code = "RPL005"
    name = "unordered-iteration"
    summary = (
        "iterating a set feeds hash-randomized order into task lists, "
        "serialized output or counter merges — sort it (sorted(...)) or "
        "keep an ordered container"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        message = (
            "iteration over an unordered set — wrap it in sorted(...) so the "
            "order is deterministic under hash randomization"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                findings.append(self.finding(ctx, node.iter, message))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        findings.append(self.finding(ctx, generator.iter, message))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_SENSITIVE_WRAPPERS:
                    for arg in node.args:
                        if _is_set_expr(arg):
                            findings.append(
                                self.finding(
                                    ctx,
                                    arg,
                                    f"'{node.func.id}(...)' over an unordered set "
                                    f"captures hash-randomized order — sort it first",
                                )
                            )
        return findings


# --- RPL006 ------------------------------------------------------------------

_NONFINITE_ATTRS = {"math.inf", "math.nan", "numpy.inf", "numpy.nan"}


def _is_nonzero_float_operand(node: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value != 0.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_nonzero_float_operand(node.operand, aliases)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return True
    if isinstance(node, ast.Attribute):
        name = resolve_call_name(node, aliases)
        return name in _NONFINITE_ATTRS
    return False


@register
class FloatEqualityRule(Rule):
    code = "RPL006"
    name = "float-equality"
    summary = (
        "bit-identity checks use tobytes()/np.array_equal and tolerance "
        "checks must be explicit; == / != against a non-zero float literal "
        "is almost always a latent tolerance bug (exact-zero gates like "
        "'x == 0.0' are the sanctioned disable-a-feature idiom)"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src:
            return []
        aliases = import_aliases(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_nonzero_float_operand(left, aliases) or _is_nonzero_float_operand(
                    right, aliases
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "float == / != against a non-zero float — compare bytes "
                            "(tobytes()/np.array_equal) for bit identity or use an "
                            "explicit tolerance (np.isclose, math.isinf, ...)",
                        )
                    )
        return findings


# --- RPL007 ------------------------------------------------------------------

#: The file whose broad excepts are the sanctioned failure-isolation
#: boundary (every worker exception must be caught and carried as a
#: structured record there).
_BROAD_EXCEPT_SANCTIONED = ("src/repro/sweep/resilient.py",)
_BROAD_NAMES = {"Exception", "BaseException"}


def _broad_name(node: ast.AST | None) -> str | None:
    if node is None:
        return "bare except"
    if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _BROAD_NAMES:
        return node.attr
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


@register
class BroadExceptRule(Rule):
    code = "RPL007"
    name = "broad-except"
    summary = (
        "bare/broad except swallows the determinism and spawn faults the "
        "resilient layer is designed to surface — catch the narrow type, or "
        "pragma the site with a justification"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.relpath in _BROAD_EXCEPT_SANCTIONED:
            return []
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _broad_name(node.type)
            if name is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name!s} outside the sanctioned isolation sites — catch "
                        f"the narrow exception type or justify with a pragma",
                    )
                )
        return findings


# --- RPL008 ------------------------------------------------------------------

#: Exact dotted names whose *reference* is an environment read.  Matching
#: is exact (not prefix), so ``os.environ.get(...)`` is reported once —
#: at the inner ``os.environ`` attribute — never twice.
_ENV_READS = {
    "os.environ",
    "os.environb",
    "os.getenv",
    "os.getenvb",
    "os.putenv",
    "sys.version",
    "sys.version_info",
    "sys.hexversion",
    "sys.api_version",
    "sys.implementation",
}
#: Everything under ``platform.`` is an environment read.
_ENV_READ_PREFIXES = ("platform.",)
#: The provenance manifest is the one sanctioned home of these reads.
_ENV_READ_EXEMPT = ("src/repro/telemetry/manifest.py",)
_ENV_READ_SCOPES = ("benchmarks/", "examples/")


@register
class EnvironmentReadRule(Rule):
    code = "RPL008"
    name = "environment-read"
    summary = (
        "environment reads (os.environ, platform.*, sys.version*) belong in "
        "repro.telemetry.manifest — scattered reads make run provenance "
        "incomplete and invite environment-dependent behaviour"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        in_scope = ctx.in_src or ctx.relpath.startswith(_ENV_READ_SCOPES)
        if not in_scope or ctx.relpath.startswith(_ENV_READ_EXEMPT):
            return []
        aliases = import_aliases(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = resolve_call_name(node, aliases)
            if name is None:
                continue
            if name in _ENV_READS or name.startswith(_ENV_READ_PREFIXES):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"environment read '{name}' outside repro.telemetry.manifest "
                        f"— record it in the RunManifest (collect_manifest) instead",
                    )
                )
        return findings


# --- RPL009 ------------------------------------------------------------------

#: Package inits that stay eager: the root binds only the stdlib-only
#: ``units``, and CI's numpy-free lint job and watch smoke import
#: ``repro._lint`` / ``repro.telemetry`` whole, which are cheap.
_EAGER_INIT_PACKAGES = ("repro", "repro.telemetry", "repro._lint")


def _import_time_imports(tree: ast.Module):
    """Import statements that run when the module is imported.

    Everything outside function bodies runs at import: module level, and
    ``if``/``try``/class bodies nested in it.
    """
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _own_submodule(node: ast.Import | ast.ImportFrom, package: str) -> str | None:
    """The first submodule of *package* that *node* imports, or ``None``."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    else:
        if node.level:
            parts = package.split(".")
            anchor = ".".join(parts[: len(parts) - node.level + 1])
            base = f"{anchor}.{node.module}" if node.module else anchor
        else:
            base = node.module or ""
        # ``from . import x`` inside the package's own init binds submodule x.
        modules = [f"{base}.{alias.name}" for alias in node.names] if base == package else [base]
    return next((module for module in modules if module.startswith(package + ".")), None)


@register
class EagerPackageInitRule(Rule):
    code = "RPL009"
    name = "eager-package-init"
    summary = (
        "a subpackage __init__ lists its exports in a repro._exports.lazy_exports "
        "table; a module-level import of its own submodules loads them into every "
        "study that touches the package, whether it runs them or not"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not (ctx.in_src and ctx.relpath.endswith("/__init__.py")):
            return []
        package = ctx.relpath[len("src/") : -len("/__init__.py")].replace("/", ".")
        if package in _EAGER_INIT_PACKAGES:
            return []
        findings = []
        for node in _import_time_imports(ctx.tree):
            module = _own_submodule(node, package)
            if module is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'{module}' imported when {package} is imported — list its "
                        f"names in the package's lazy_exports table instead",
                    )
                )
        return findings
