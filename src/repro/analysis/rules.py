"""The repo-specific lint rules: determinism and API invariants as code.

Each rule encodes one invariant the reproduction's guarantees rest on; the
``rationale`` strings double as the ``llamcat check --explain`` docs.  Codes
are grouped by family:

* ``DET``: determinism (seeded RNG discipline, no wall clock in simulated
  time, no unordered iteration feeding serialized output)
* ``REG``: registry wiring (registrations must be reachable from the lazy
  bootstrap, or ``llamcat list`` and name resolution silently miss them)
* ``SER``: serialization round-trips (``to_dict`` keys must be read back)
* ``API``: frozen-dataclass discipline
* ``CLI``: stdout purity (byte-comparison CI)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.engine import (
    Finding,
    LintRule,
    ParsedModule,
    ProjectRule,
    register_rule,
)

#: Wall-clock functions of the :mod:`time` module.
_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Wall-clock constructors of :class:`datetime.datetime` / ``date``.
_DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})

#: Legacy global-state ``numpy.random`` entry points.
_NUMPY_GLOBAL_RNG = frozenset(
    {"seed", "random", "rand", "randn", "randint", "shuffle", "choice", "permutation"}
)


def _parts(path: str) -> tuple[str, ...]:
    return Path(path).parts


def _in_library(path: str) -> bool:
    """Whether ``path`` is library code (a module under the ``repro`` package)."""

    return "repro" in _parts(path)


def _is_set_expression(node: ast.expr, known_sets: set[str]) -> bool:
    """Whether ``node`` syntactically evaluates to a set/frozenset."""

    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in known_sets:
        return True
    return False


@register_rule("DET001")
class StrayRandomRule(LintRule):
    """stdlib/global RNG outside repro.common.rng"""

    code = "DET001"
    summary = "stdlib/global RNG outside repro.common.rng"
    rationale = (
        "All randomness must flow through repro.common.rng.make_rng /\n"
        "derive_seed so one seed reproduces a run bit-for-bit.  The stdlib\n"
        "'random' module (and numpy's legacy global generator) carries hidden\n"
        "process-global state: unseeded it breaks reproducibility outright,\n"
        "and even seeded it aliases streams across components, so a new call\n"
        "site silently perturbs every later draw.  Content-hash sweep keys,\n"
        "golden fixtures and CI double-run byte comparisons all assume this\n"
        "never happens."
    )

    def applies(self, path: str) -> bool:
        return not path.endswith("repro/common/rng.py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "stdlib 'random' bypasses the seeded-RNG discipline; "
                            "use repro.common.rng.make_rng(seed)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module,
                        node,
                        "stdlib 'random' bypasses the seeded-RNG discipline; "
                        "use repro.common.rng.make_rng(seed)",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: ParsedModule, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        # numpy.random.<legacy global fn>(...) -- hidden process-global state.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NUMPY_GLOBAL_RNG
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
        ):
            yield self.finding(
                module,
                node,
                f"numpy's global RNG (np.random.{func.attr}) is process-wide "
                "state; use repro.common.rng.make_rng(seed)",
            )
        # default_rng(...) anywhere else -- bypasses the DEFAULT_SEED policy.
        if (
            isinstance(func, ast.Attribute) and func.attr == "default_rng"
        ) or (isinstance(func, ast.Name) and func.id == "default_rng"):
            yield self.finding(
                module,
                node,
                "construct generators through repro.common.rng.make_rng(seed), "
                "not np.random.default_rng directly",
            )


@register_rule("DET002")
class WallClockRule(LintRule):
    """wall-clock reads in deterministic modules"""

    code = "DET002"
    summary = "wall-clock reads in deterministic modules"
    rationale = (
        "Simulated time is the only clock deterministic code may read.  A\n"
        "wall-clock call (time.time, time.perf_counter, datetime.now, ...)\n"
        "that leaks into metrics, traces or stored results makes seeded runs\n"
        "differ byte-for-byte and breaks the CI double-run 'cmp' checks.\n"
        "Wall-clock profiling belongs in repro.obs.profile, which is\n"
        "allowlisted; elsewhere a deliberate, output-invisible use\n"
        "needs an explicit '# repro: noqa[DET002]' with a justification."
    )

    def applies(self, path: str) -> bool:
        return not path.endswith("repro/obs/profile.py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        time_aliases = {"time"}
        datetime_classes = set()
        from_imported: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCTIONS:
                            from_imported[alias.asname or alias.name] = alias.name
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_imported:
                yield self._flag(module, node, f"time.{from_imported[func.id]}")
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in time_aliases
                    and func.attr in _TIME_FUNCTIONS
                ):
                    yield self._flag(module, node, f"time.{func.attr}")
                elif func.attr in _DATETIME_FUNCTIONS and (
                    (isinstance(base, ast.Name) and base.id in datetime_classes)
                    or (
                        isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date")
                        and isinstance(base.value, ast.Name)
                        and base.value.id == "datetime"
                    )
                ):
                    yield self._flag(module, node, f"datetime.{func.attr}")

    def _flag(self, module: ParsedModule, node: ast.Call, what: str) -> Finding:
        return self.finding(
            module,
            node,
            f"{what}() reads the wall clock; deterministic code must use "
            "simulated time (profiling belongs in repro.obs.profile)",
        )


class _SetScopeVisitor(ast.NodeVisitor):
    """Shared scope walker: tracks which locals are known sets, per function."""

    def __init__(self, rule: "UnorderedIterationRule | UnorderedSumRule",
                 module: ParsedModule) -> None:
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self.known_sets: set[str] = set()

    def _enter_scope(self, node: ast.AST) -> None:
        outer, self.known_sets = self.known_sets, set()
        self.generic_visit(node)
        self.known_sets = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expression(node.value, self.known_sets):
                self.known_sets.add(name)
            else:
                self.known_sets.discard(name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expression(node.value, self.known_sets):
                self.known_sets.add(node.target.id)
            else:
                self.known_sets.discard(node.target.id)
        self.generic_visit(node)


@register_rule("DET003")
class UnorderedIterationRule(LintRule):
    """iteration over an unordered set"""

    code = "DET003"
    summary = "iteration over an unordered set"
    rationale = (
        "Iterating a set observes hash order, which varies with insertion\n"
        "history and interpreter salt -- unordered provenance.  When such an\n"
        "iteration feeds serialized output (metrics dicts, JSONL stores,\n"
        "traces) the bytes differ across runs and every content-hash and\n"
        "golden-fixture guarantee breaks.  Sort the elements (sorted(...)) or\n"
        "keep an ordered container (dicts preserve insertion order).\n"
        "Set-to-set comprehensions are exempt: their result is unordered\n"
        "anyway, so no order is observed."
    )

    #: Builtins that materialize their argument's iteration order.
    _ORDER_OBSERVING_CALLS = ("list", "tuple", "enumerate")

    def check(self, module: ParsedModule) -> list[Finding]:
        visitor = _IterationVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings

    def flag(self, module: ParsedModule, node: ast.AST, how: str) -> Finding:
        return self.finding(
            module,
            node,
            f"{how} observes nondeterministic set order; wrap in sorted(...) "
            "or use an ordered container",
        )


class _IterationVisitor(_SetScopeVisitor):
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter, self.known_sets):
            self.findings.append(self.rule.flag(self.module, node.iter, "for-loop"))
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp | ast.DictComp, kind: str
    ) -> None:
        for generator in node.generators:
            if _is_set_expression(generator.iter, self.known_sets):
                self.findings.append(
                    self.rule.flag(self.module, generator.iter, kind)
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, "generator expression")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in UnorderedIterationRule._ORDER_OBSERVING_CALLS
            and node.args
            and _is_set_expression(node.args[0], self.known_sets)
        ):
            self.findings.append(
                self.rule.flag(self.module, node.args[0], f"{node.func.id}(...)")
            )
        self.generic_visit(node)


@register_rule("DET004")
class UnorderedSumRule(LintRule):
    """float accumulation over an unordered set"""

    code = "DET004"
    summary = "float accumulation over an unordered set"
    rationale = (
        "Float addition is not associative: sum() over a set accumulates in\n"
        "hash order, so the same elements can produce different totals across\n"
        "runs -- exactly the kind of last-ulp drift that makes 'identical'\n"
        "metrics fail byte comparison.  Sum a sorted sequence (or an ordered\n"
        "container) so the accumulation order is pinned."
    )

    def check(self, module: ParsedModule) -> list[Finding]:
        visitor = _SumVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings

    def flag(self, module: ParsedModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "sum() over a set accumulates floats in nondeterministic hash "
            "order; sum over sorted(...) instead",
        )


class _SumVisitor(_SetScopeVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and _is_set_expression(node.args[0], self.known_sets)
        ):
            self.findings.append(self.rule.flag(self.module, node.args[0]))
        self.generic_visit(node)


@register_rule("REG001")
class RegistryBootstrapRule(ProjectRule):
    """registration invisible to its registry's lazy bootstrap"""

    code = "REG001"
    summary = "registration invisible to its registry's lazy bootstrap"
    rationale = (
        "Registries import their bootstrap modules lazily on first lookup; a\n"
        "library module that registers a component (@register_workload,\n"
        "@register_arrival, @RULES.register, ...) without being named in that\n"
        "registry's bootstrap tuple is only registered if something else\n"
        "happens to import it first -- 'llamcat list', name resolution and\n"
        "sweep grids silently miss it.  Add the module to the registry's\n"
        "bootstrap tuple (out-of-tree plugins instead load through\n"
        "LLAMCAT_PLUGINS)."
    )

    def applies(self, path: str) -> bool:
        return _in_library(path)

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        registries: dict[str, tuple[str, ...]] = {}  # registry var -> bootstrap
        decorators: dict[str, str] = {}  # decorator fn name -> registry var

        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign) or isinstance(node, ast.AnnAssign):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else ([node.target] if node.value is not None else [])
                    )
                    value = node.value
                    if (
                        value is not None
                        and isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "Registry"
                        and len(targets) == 1
                        and isinstance(targets[0], ast.Name)
                    ):
                        registries[targets[0].id] = self._bootstrap_of(value)
                elif isinstance(node, ast.FunctionDef):
                    owner = self._wrapped_registry(node)
                    if owner is not None:
                        decorators[node.name] = owner

        for module in modules:
            mod_name = module.module_name
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                for decorator in node.decorator_list:
                    registry_var = self._decorated_registry(
                        decorator, decorators, registries
                    )
                    if registry_var is None:
                        continue
                    bootstrap = registries.get(registry_var, ())
                    if mod_name is not None and mod_name not in bootstrap:
                        yield Finding(
                            code=self.code,
                            message=(
                                f"module {mod_name!r} registers into "
                                f"{registry_var} but is missing from its "
                                f"bootstrap {list(bootstrap)}; lazy lookups "
                                "will not see this registration"
                            ),
                            path=module.path,
                            line=decorator.lineno,
                            col=decorator.col_offset,
                        )

    @staticmethod
    def _bootstrap_of(call: ast.Call) -> tuple[str, ...]:
        for keyword in call.keywords:
            if keyword.arg == "bootstrap" and isinstance(
                keyword.value, (ast.Tuple, ast.List)
            ):
                return tuple(
                    elt.value
                    for elt in keyword.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
        return ()

    @staticmethod
    def _wrapped_registry(node: ast.FunctionDef) -> str | None:
        """The registry var behind a ``def register_x: return VAR.register``."""

        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "register"
                and isinstance(stmt.value.func.value, ast.Name)
            ):
                return stmt.value.func.value.id
        return None

    @staticmethod
    def _decorated_registry(
        decorator: ast.expr,
        decorators: dict[str, str],
        registries: dict[str, tuple[str, ...]],
    ) -> str | None:
        if not isinstance(decorator, ast.Call):
            return None
        func = decorator.func
        if isinstance(func, ast.Name) and func.id in decorators:
            return decorators[func.id]
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "register"
            and isinstance(func.value, ast.Name)
            and func.value.id in registries
        ):
            return func.value.id
        return None


@register_rule("SER001")
class SerializationAsymmetryRule(LintRule):
    """to_dict writes a key from_dict never reads"""

    code = "SER001"
    summary = "to_dict writes a key from_dict never reads"
    rationale = (
        "to_dict/from_dict pairs must round-trip: every key written must be\n"
        "read back, or reloading a stored result silently drops state and\n"
        "re-serialization changes the bytes (breaking store content hashes).\n"
        "Derived ride-along blocks that are recomputed on load are the one\n"
        "legitimate exception -- mark those keys '# repro: noqa[SER001]' so\n"
        "the asymmetry is visibly deliberate."
    )

    def applies(self, path: str) -> bool:
        return _in_library(path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            to_dict = methods.get("to_dict")
            from_dict = methods.get("from_dict")
            if to_dict is None or from_dict is None:
                continue
            read = {
                n.value
                for n in ast.walk(from_dict)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
            for key_node, key in self._written_keys(to_dict):
                if key not in read:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{node.name}.to_dict writes {key!r} but "
                            f"{node.name}.from_dict never reads it back"
                        ),
                        path=module.path,
                        line=key_node.lineno,
                        col=key_node.col_offset,
                    )

    @staticmethod
    def _written_keys(to_dict: ast.FunctionDef) -> Iterator[tuple[ast.expr, str]]:
        for n in ast.walk(to_dict):
            if isinstance(n, ast.Dict):
                for key in n.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        yield key, key.value
            elif isinstance(n, ast.Assign):
                for target in n.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        yield target.slice, target.slice.value


@register_rule("API001")
class FrozenMutationRule(LintRule):
    """frozen-dataclass mutation outside __post_init__"""

    code = "API001"
    summary = "frozen-dataclass mutation outside __post_init__"
    rationale = (
        "Frozen dataclasses (scenarios, configs, metrics) are hashable\n"
        "identities: sweep keys and golden fixtures assume they never change\n"
        "after construction.  object.__setattr__ is the documented backdoor\n"
        "for derived fields inside __post_init__ only; anywhere else it\n"
        "mutates an identity that other code has already keyed on.  A\n"
        "deliberate lazily-memoized derived field (never part of the content\n"
        "key) needs an explicit '# repro: noqa[API001]' justification."
    )

    def applies(self, path: str) -> bool:
        return _in_library(path)

    def check(self, module: ParsedModule) -> list[Finding]:
        findings: list[Finding] = []
        self._walk(module, module.tree, enclosing=None, findings=findings)
        return findings

    def _walk(
        self,
        module: ParsedModule,
        node: ast.AST,
        enclosing: str | None,
        findings: list[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(module, child, enclosing=child.name, findings=findings)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__setattr__"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "object"
                and enclosing != "__post_init__"
            ):
                where = f"in {enclosing}()" if enclosing else "at module level"
                findings.append(
                    self.finding(
                        module,
                        child,
                        f"object.__setattr__ {where} mutates a frozen "
                        "dataclass outside __post_init__",
                    )
                )
            self._walk(module, child, enclosing=enclosing, findings=findings)


@register_rule("CLI001")
class StdoutPurityRule(LintRule):
    """stdout write outside the CLI rendering modules"""

    code = "CLI001"
    summary = "stdout write outside the CLI rendering modules"
    rationale = (
        "CI pins CLI output with plain 'cmp' across double runs, and sweep\n"
        "resume checks grep exact stdout lines; a print() buried in library\n"
        "code pollutes that channel (and worker processes' interleaving makes\n"
        "it nondeterministic).  Only the CLI entry point (repro/cli.py) and\n"
        "the timeline renderer may write stdout; library code logs through\n"
        "the 'repro' logger hierarchy on stderr instead."
    )

    def applies(self, path: str) -> bool:
        if not _in_library(path):
            return False
        return not (
            path.endswith("repro/cli.py") or path.endswith("repro/obs/timeline.py")
        )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                if not self._prints_to_stderr(node):
                    yield self.finding(
                        module,
                        node,
                        "print() writes stdout from library code; log via "
                        "logging.getLogger(__name__) (stderr) instead",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "stdout"
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "sys"
            ):
                yield self.finding(
                    module,
                    node,
                    "sys.stdout.write from library code pollutes the "
                    "byte-compared CLI channel",
                )

    @staticmethod
    def _prints_to_stderr(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if (
                keyword.arg == "file"
                and isinstance(keyword.value, ast.Attribute)
                and keyword.value.attr == "stderr"
            ):
                return True
        return False
