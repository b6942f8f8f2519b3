"""The contract rules: the static twins of the runtime guarantees.

Each rule guards one invariant the tier-1 suite otherwise only catches at
runtime — after the violation is written, and only if a test exercises it:

=====  ==================================================================
R001   Determinism: no global-state randomness, wall-clock, or unordered
       set iteration inside the estimation kernels.
R003   Schema stability: the field lists of the content-addressed request,
       cache entry, and run-ledger record match the pinned snapshot in
       ``analysis/schemas.json`` unless the matching version constant was
       bumped — the static twin of the golden-digest tests.
R004   Float persistence: inline float production (``float()``, ``round()``,
       float-formatted f-strings) must not reach ``json.dump`` payloads in
       the bit-identical persistence paths; route through ``float.hex``.
R005   Telemetry hygiene: no ``print()`` or root-logger calls in library
       code, and metric handles only touched behind the ``enabled`` check.
=====  ==================================================================

The set is closed: :data:`RULES` holds one instance of each rule, in id
order, and is what both ``run_check`` and ``repro-anon check --list-rules``
read.  Suppress a deliberate exception on its line with
``# repro: ignore[R001]`` (see :mod:`repro.analysis.lint.findings`).
"""

from __future__ import annotations

import ast
import json
from typing import TYPE_CHECKING

from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:
    from repro.analysis.lint.walker import Project

__all__ = [
    "ContractRule",
    "DeterminismRule",
    "SchemaDriftRule",
    "FloatPersistenceRule",
    "TelemetryHygieneRule",
    "RULES",
    "SCHEMA_SNAPSHOT_PATH",
    "PINNED_SCHEMAS",
    "current_schemas",
]


class ContractRule:
    """One static contract: an id, a scope, and a per-file or project check.

    Two hooks, both optional to override:

    ``check(tree, source, path)``
        Per-file pass over one parsed module.  ``path`` is repo-relative
        posix (``src/repro/batch/engine.py``); the walker only calls it for
        files the rule's ``scope``/``exclude`` prefixes admit.
    ``check_project(project)``
        One whole-project pass after the per-file walk — for rules whose
        invariant spans files (the schema-drift rule compares dataclasses
        against a pinned snapshot).  Findings from this hook are not
        line-suppressible; they guard repo-level contracts.
    """

    #: Rule identifier (``R001``...), the name ``--rule`` selects and the
    #: key of the ``# repro: ignore[...]`` suppression idiom.
    id: str = "R000"
    #: One-line description, shown by ``repro-anon check --list-rules``.
    title: str = ""
    #: Repo-relative posix path prefixes the per-file check runs on.
    #: ``None`` scopes the rule to the whole walked tree.
    scope: tuple[str, ...] | None = None
    #: Prefixes excluded even when ``scope`` admits them.
    exclude: tuple[str, ...] = ()

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether the per-file check runs on ``path`` (repo-relative posix)."""
        if any(path.startswith(prefix) for prefix in cls.exclude):
            return False
        if cls.scope is None:
            return True
        return any(path.startswith(prefix) for prefix in cls.scope)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        """Per-file pass; the default participates only in ``check_project``."""
        return []

    def check_project(self, project: "Project") -> list[Finding]:
        """Whole-project pass after the file walk; default: nothing."""
        return []

    def finding(self, path: str, line: int, message: str) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(path=path, line=line, rule=self.id, message=message)


# ---------------------------------------------------------------------- #
# Shared AST helpers                                                      #
# ---------------------------------------------------------------------- #


def _attribute_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``np.random.rand`` → ``("np", "random", "rand")``; ``None`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _collect_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Module aliases and from-imports of one module.

    Returns ``(aliases, from_imports)`` where ``aliases`` maps a local name
    to the dotted module it is bound to (``np`` → ``numpy``) and
    ``from_imports`` maps a local name to ``(module, original_name)``.
    """
    aliases: dict[str, str] = {}
    from_imports: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                from_imports[name.asname or name.name] = (node.module, name.name)
    return aliases, from_imports


# ---------------------------------------------------------------------- #
# R001 — determinism                                                      #
# ---------------------------------------------------------------------- #

#: ``numpy.random`` attributes that construct explicit, seedable generators
#: rather than touching the process-global legacy state.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "RandomState",
    }
)

#: ``random`` module attributes that construct instances instead of calling
#: the hidden module-global generator.
_STDLIB_RANDOM_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}

_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


class DeterminismRule(ContractRule):
    """R001: the estimation kernels must be pure functions of the seed.

    The bit-identical ``(seed, shards)`` contract — and with it the content-
    addressed cache and the run-ledger diff — dies the moment a kernel reads
    global random state, the wall clock, or the iteration order of a set.
    Flags, inside ``batch/``, ``combinatorics/``, ``adversary/``, and
    ``routing/``:

    * calls through the ``random`` module's global generator and
      ``numpy.random``'s legacy global state (explicit ``Generator``
      construction — ``default_rng``, ``SeedSequence`` — stays legal);
    * wall-clock and entropy taps: ``time.time()``, ``time.perf_counter()``,
      ``time.monotonic()`` (and their ``_ns`` twins), ``datetime.now()``,
      ``os.urandom()``, ``uuid.uuid4()``, anything from ``secrets`` — kernel
      timing must flow through the injectable telemetry clock
      (``registry.clock``) so tests can fake it and results never depend on
      it; deliberate elapsed-time *reporting* is suppressed per line;
    * iteration directly over a set literal or ``set()``/``frozenset()``
      call in a ``for`` or comprehension — hash-seed-dependent order that
      leaks into whatever the loop builds; sort first.
    """

    id = "R001"
    title = "determinism: no global randomness, wall clock, or set-order iteration"
    scope = (
        "src/repro/batch/",
        "src/repro/combinatorics/",
        "src/repro/adversary/",
        "src/repro/routing/",
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        aliases, from_imports = _collect_imports(tree)

        def module_of(local: str) -> str | None:
            return aliases.get(local)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(
                    self._check_call(node, path, module_of, from_imports)
                )
            elif isinstance(node, ast.For):
                findings.extend(self._check_set_iteration(node.iter, path))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    findings.extend(self._check_set_iteration(generator.iter, path))
        return findings

    def _check_call(self, node, path, module_of, from_imports) -> list[Finding]:
        chain = _attribute_chain(node.func)
        if chain is not None and len(chain) >= 2:
            module = module_of(chain[0])
            resolved = (module.split(".")[0], *chain[1:]) if module else None
            if resolved is None and chain[0] in from_imports:
                # e.g. ``from datetime import datetime; datetime.now()``.
                origin, original = from_imports[chain[0]]
                resolved = (origin.split(".")[0], original, *chain[1:])
            if resolved is not None:
                return self._check_resolved_chain(node, path, resolved)
        if isinstance(node.func, ast.Name):
            imported = from_imports.get(node.func.id)
            if imported is not None:
                return self._check_from_import(node, path, *imported)
        return []

    def _check_resolved_chain(self, node, path, chain) -> list[Finding]:
        root, attrs = chain[0], chain[1:]
        if root == "random" and attrs[0] not in _STDLIB_RANDOM_CONSTRUCTORS:
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"random.{attrs[0]}() reads the module-global generator; "
                    "thread an explicit seeded rng through instead",
                )
            ]
        if root == "secrets":
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"secrets.{attrs[0]}() is an OS entropy tap; kernels must "
                    "be pure functions of the seed",
                )
            ]
        if (
            root == "numpy"
            and len(attrs) >= 2
            and attrs[0] == "random"
            and attrs[1] not in _NP_RANDOM_CONSTRUCTORS
        ):
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"np.random.{attrs[1]}() touches numpy's global random "
                    "state; construct a Generator (np.random.default_rng) "
                    "and pass it explicitly",
                )
            ]
        if (root, attrs[0]) in _WALL_CLOCK:
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"{root}.{attrs[0]}() makes the result depend on the "
                    "environment, not the seed",
                )
            ]
        if root == "datetime" and attrs[-1] in _DATETIME_NOW:
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"datetime {attrs[-1]}() reads the wall clock; results "
                    "must be pure functions of the seed",
                )
            ]
        return []

    def _check_from_import(self, node, path, module, original) -> list[Finding]:
        flagged = (
            module == "random"
            and original not in _STDLIB_RANDOM_CONSTRUCTORS
            or module == "secrets"
            or (module.split(".")[0], original) in _WALL_CLOCK
            or module == "datetime"
            and original in _DATETIME_NOW
        )
        if flagged:
            return [
                self.finding(
                    path,
                    node.lineno,
                    f"{original}() (from {module}) injects global randomness "
                    "or wall-clock state into a deterministic kernel",
                )
            ]
        return []

    def _check_set_iteration(self, iterable: ast.expr, path: str) -> list[Finding]:
        is_set_literal = isinstance(iterable, (ast.Set, ast.SetComp))
        is_set_call = (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if is_set_literal or is_set_call:
            return [
                self.finding(
                    path,
                    iterable.lineno,
                    "iterating a set: the order is hash-seed-dependent and "
                    "leaks into whatever this loop builds; iterate "
                    "sorted(...) instead",
                )
            ]
        return []


# ---------------------------------------------------------------------- #
# R003 — schema drift                                                     #
# ---------------------------------------------------------------------- #

#: Repo-relative path of the pinned schema snapshot.
SCHEMA_SNAPSHOT_PATH = "src/repro/analysis/schemas.json"

#: module path -> (version constant, pinned dataclass names).  These are the
#: serialised contracts: the content digest's canonical form, the on-disk
#: cache entry, and the run-ledger record.
PINNED_SCHEMAS: dict[str, tuple[str, tuple[str, ...]]] = {
    "src/repro/service/request.py": (
        "CANONICAL_VERSION",
        ("DistributionSpec", "EstimateRequest"),
    ),
    "src/repro/service/cache.py": ("ENTRY_VERSION", ("CachedEstimate",)),
    "src/repro/telemetry/journal.py": ("JOURNAL_VERSION", ("RunRecord",)),
}


def _dataclass_fields(tree: ast.Module, class_name: str) -> list[str] | None:
    """Ordered annotated field names of one class, or ``None`` if absent."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ]
    return None


def _module_constant(tree: ast.Module, name: str) -> object | None:
    """The literal value of one module-level constant assignment."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Constant):
                    return value.value
    return None


def _class_line(tree: ast.Module, class_name: str) -> int:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node.lineno
    return 1


def current_schemas(project: "Project") -> dict:
    """The schema snapshot of the checkout as it stands (the re-pin form)."""
    modules: dict[str, dict] = {}
    for path, (constant, classes) in sorted(PINNED_SCHEMAS.items()):
        tree = project.tree(path)
        if tree is None:
            continue
        modules[path] = {
            "version_constant": constant,
            "version": _module_constant(tree, constant),
            "classes": {
                name: _dataclass_fields(tree, name) or [] for name in classes
            },
        }
    return {"modules": modules}


class SchemaDriftRule(ContractRule):
    """R003: serialised field lists match the pinned snapshot or bump a version.

    The golden-digest tests prove, at runtime, that the canonical form of a
    request still hashes to the pinned digest.  This rule is their static
    twin: the dataclass field lists of :class:`EstimateRequest`,
    :class:`DistributionSpec`, :class:`CachedEstimate`, and
    :class:`RunRecord` are compared against ``analysis/schemas.json``.  A
    drifted field list whose version constant (``CANONICAL_VERSION`` /
    ``ENTRY_VERSION`` / ``JOURNAL_VERSION``) was *not* bumped is the error
    this rule exists for; a drift with a bump — and a bump without a re-pin
    — still fires, telling the author to re-pin the snapshot
    (``repro-anon check --update-schemas``) so the next drift is caught.
    """

    id = "R003"
    title = "schema drift: serialised field lists are pinned against version bumps"

    def check_project(self, project: "Project") -> list[Finding]:
        snapshot_file = project.root / SCHEMA_SNAPSHOT_PATH
        if not snapshot_file.is_file():
            return [
                Finding(
                    path=SCHEMA_SNAPSHOT_PATH,
                    line=1,
                    rule=self.id,
                    message="pinned schema snapshot is missing; create it "
                    "with 'repro-anon check --update-schemas'",
                )
            ]
        try:
            pinned = json.loads(snapshot_file.read_text(encoding="utf-8"))["modules"]
        except (ValueError, KeyError):
            return [
                Finding(
                    path=SCHEMA_SNAPSHOT_PATH,
                    line=1,
                    rule=self.id,
                    message="pinned schema snapshot is unreadable; regenerate "
                    "it with 'repro-anon check --update-schemas'",
                )
            ]
        findings: list[Finding] = []
        for path, (constant, classes) in sorted(PINNED_SCHEMAS.items()):
            tree = project.tree(path)
            if tree is None:
                continue
            entry = pinned.get(path)
            if entry is None:
                findings.append(
                    self.finding(
                        path,
                        1,
                        f"module is not pinned in {SCHEMA_SNAPSHOT_PATH}; "
                        "re-pin with 'repro-anon check --update-schemas'",
                    )
                )
                continue
            version = _module_constant(tree, constant)
            pinned_version = entry.get("version")
            version_bumped = version != pinned_version
            drifted = False
            for class_name in classes:
                fields = _dataclass_fields(tree, class_name)
                pinned_fields = entry.get("classes", {}).get(class_name)
                if fields is None:
                    findings.append(
                        self.finding(
                            path, 1, f"pinned class {class_name} no longer exists"
                        )
                    )
                    continue
                if pinned_fields is None:
                    findings.append(
                        self.finding(
                            path,
                            _class_line(tree, class_name),
                            f"{class_name} is not pinned in "
                            f"{SCHEMA_SNAPSHOT_PATH}; re-pin with "
                            "'repro-anon check --update-schemas'",
                        )
                    )
                    continue
                if fields != list(pinned_fields):
                    drifted = True
                    if version_bumped:
                        findings.append(
                            self.finding(
                                path,
                                _class_line(tree, class_name),
                                f"field list of {class_name} changed "
                                f"(with a {constant} bump to {version!r}); "
                                f"re-pin {SCHEMA_SNAPSHOT_PATH} with "
                                "'repro-anon check --update-schemas'",
                            )
                        )
                    else:
                        findings.append(
                            self.finding(
                                path,
                                _class_line(tree, class_name),
                                f"field list of {class_name} changed without "
                                f"a {constant} bump: pinned "
                                f"{list(pinned_fields)}, found {fields}; "
                                "stale cache entries and journals would be "
                                f"misread — bump {constant} and re-pin "
                                f"{SCHEMA_SNAPSHOT_PATH}",
                            )
                        )
            if version_bumped and not drifted:
                findings.append(
                    self.finding(
                        path,
                        1,
                        f"{constant} changed (pinned {pinned_version!r}, found "
                        f"{version!r}) but the snapshot was not re-pinned; "
                        "run 'repro-anon check --update-schemas'",
                    )
                )
        return findings


# ---------------------------------------------------------------------- #
# R004 — float persistence                                                #
# ---------------------------------------------------------------------- #


class FloatPersistenceRule(ContractRule):
    """R004: floats in bit-identical persistence paths route through ``float.hex``.

    The cache and the run ledger promise bit-identical replay; a float that
    reaches JSON through ``round()``, a fresh ``float()`` coercion, or a
    formatted f-string is quantised or re-parsed, and the replayed report
    stops matching the computed one.  Inside the pinned persistence modules
    this rule inspects every ``json.dump``/``json.dumps`` payload —
    following one level of indirection into same-module helper functions and
    methods — and flags inline float production that is not immediately
    ``.hex()``-encoded.  (Opaque payloads built elsewhere are the runtime
    round-trip tests' job; this rule catches the easy-to-write regression at
    the call site.)
    """

    id = "R004"
    title = "float persistence: json payload floats go through float.hex"
    scope = ("src/repro/service/cache.py", "src/repro/telemetry/journal.py")

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        helpers = self._local_callables(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            is_dump = chain is not None and chain[0] == "json" and chain[-1] in (
                "dump",
                "dumps",
            )
            if not is_dump or not node.args:
                continue
            for payload in self._payload_expressions(node.args[0], helpers):
                self._scan_payload(payload, path, findings)
        return findings

    @staticmethod
    def _local_callables(tree: ast.Module) -> dict[str, ast.FunctionDef]:
        """Module functions and methods by (unqualified) name, latest wins."""
        callables: dict[str, ast.FunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                callables[node.name] = node
        return callables

    @staticmethod
    def _payload_expressions(
        payload: ast.expr, helpers: dict[str, ast.FunctionDef]
    ) -> list[ast.expr]:
        """The expressions whose values reach the dump, one hop deep."""
        if isinstance(payload, ast.Call):
            name = None
            if isinstance(payload.func, ast.Name):
                name = payload.func.id
            elif isinstance(payload.func, ast.Attribute):
                name = payload.func.attr
            helper = helpers.get(name) if name is not None else None
            if helper is not None:
                return [
                    statement.value
                    for statement in ast.walk(helper)
                    if isinstance(statement, ast.Return)
                    and statement.value is not None
                ]
        return [payload]

    def _scan_payload(
        self, node: ast.expr, path: str, findings: list[Finding]
    ) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "hex":
                # float(x).hex() / value.hex(): the sanctioned encoding.
                # Still scan the argument expressions underneath.
                inner = func.value
                children = list(node.args)
                if isinstance(inner, ast.Call):
                    children.extend(inner.args)
                else:
                    children.append(inner)
                for child in children:
                    self._scan_payload(child, path, findings)
                return
            if isinstance(func, ast.Name) and func.id in ("float", "round", "repr"):
                findings.append(
                    self.finding(
                        path,
                        node.lineno,
                        f"{func.id}() feeds a json.dump payload raw; "
                        "bit-identical persistence must encode floats with "
                        "float.hex (decode with float.fromhex)",
                    )
                )
        if isinstance(node, ast.JoinedStr):
            if any(
                isinstance(value, ast.FormattedValue) and value.format_spec is not None
                for value in node.values
            ):
                findings.append(
                    self.finding(
                        path,
                        node.lineno,
                        "format-spec f-string feeds a json.dump payload; "
                        "formatted floats are quantised — encode with "
                        "float.hex instead",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._scan_payload(child, path, findings)


# ---------------------------------------------------------------------- #
# R005 — telemetry hygiene                                                #
# ---------------------------------------------------------------------- #

_ROOT_LOGGER_CALLS = frozenset(
    {"debug", "info", "warning", "error", "critical", "exception", "log", "basicConfig"}
)
_METRIC_HANDLES = frozenset({"counter", "gauge", "histogram"})


class TelemetryHygieneRule(ContractRule):
    """R005: library code stays silent and pays for telemetry only when on.

    The library's contract is a ``NullHandler`` on the root ``repro`` logger
    and a measured ≤5% disabled-telemetry overhead.  ``print()`` and
    root-logger calls bypass the first; metric-handle calls
    (``.counter()``/``.gauge()``/``.histogram()``) outside an
    ``if <registry>.enabled`` guard bypass the second — each one allocates
    label tuples on the hot path even when telemetry is off.  The CLI
    (``src/repro/cli.py``) is the human-facing surface and is exempt; the
    telemetry package itself implements the handles and is exempt from the
    guard check.
    """

    id = "R005"
    title = "telemetry hygiene: no print/root-logger; metrics behind enabled"
    scope = ("src/repro/",)
    exclude = ("src/repro/cli.py",)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        in_telemetry = path.startswith("src/repro/telemetry/")
        self._visit(tree, path, guarded=False, in_telemetry=in_telemetry, findings=findings)
        return findings

    def _visit(self, node, path, guarded, in_telemetry, findings) -> None:
        if isinstance(node, ast.Call):
            self._check_call(node, path, guarded, in_telemetry, findings)
        if isinstance(node, (ast.If, ast.IfExp)):
            test_guards = self._test_mentions_enabled(node.test)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) else [node.orelse]
            self._visit_all(node.test, path, guarded, in_telemetry, findings)
            for child in body:
                self._visit(child, path, guarded or test_guards, in_telemetry, findings)
            for child in orelse:
                self._visit(child, path, guarded, in_telemetry, findings)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, path, guarded, in_telemetry, findings)

    def _visit_all(self, node, path, guarded, in_telemetry, findings) -> None:
        self._visit(node, path, guarded, in_telemetry, findings)

    @staticmethod
    def _test_mentions_enabled(test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                return True
            if isinstance(node, ast.Name) and node.id == "enabled":
                return True
        return False

    def _check_call(self, node, path, guarded, in_telemetry, findings) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            findings.append(
                self.finding(
                    path,
                    node.lineno,
                    "print() in library code; use the module logger "
                    "(logging.getLogger(__name__)) or return the text",
                )
            )
            return
        chain = _attribute_chain(func)
        if chain is not None and chain[0] == "logging":
            if chain[-1] in _ROOT_LOGGER_CALLS:
                findings.append(
                    self.finding(
                        path,
                        node.lineno,
                        f"logging.{chain[-1]}() configures/logs through the "
                        "root logger; use a module logger under the 'repro' "
                        "hierarchy",
                    )
                )
                return
            if chain[-1] == "getLogger":
                rootish = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in ("", "root")
                )
                if rootish and not node.keywords:
                    findings.append(
                        self.finding(
                            path,
                            node.lineno,
                            "logging.getLogger() grabs the root logger; pass "
                            "__name__ so handlers stay under 'repro'",
                        )
                    )
                return
        if (
            not in_telemetry
            and isinstance(func, ast.Attribute)
            and func.attr in _METRIC_HANDLES
            and not (
                isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
            )
            and not guarded
        ):
            findings.append(
                self.finding(
                    path,
                    node.lineno,
                    f".{func.attr}() metric handle touched outside an "
                    "'if <registry>.enabled' guard; the disabled hot path "
                    "must stay one enabled-check per chunk",
                )
            )


#: Every contract rule, in id order.  A new rule is one more entry here.
RULES: tuple[ContractRule, ...] = (
    DeterminismRule(),
    SchemaDriftRule(),
    FloatPersistenceRule(),
    TelemetryHygieneRule(),
)
