"""The file walker: parse the tree once, hand each rule its scoped files.

:class:`Project` is the linter's view of one repository checkout — a lazily
built cache of parsed modules plus a project-wide class index (class name →
concrete/abstract method names and base-class names) that cross-file rules
like the registry-contract check resolve against.  :func:`run_check` is the
entry point the CLI and the tests share: walk ``src/repro``, run every
registered rule on the files its scope admits, apply line suppressions, and
return the sorted findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.lint.findings import Finding, apply_suppressions
from repro.analysis.lint.registry import ContractRule, available_rules, get_rule
from repro.exceptions import ConfigurationError

__all__ = ["ClassInfo", "Project", "default_root", "run_check"]

#: The package subtree the contract rules govern, relative to the repo root.
PACKAGE_ROOT = "src/repro"


@dataclass
class ClassInfo:
    """What the class index records per class definition."""

    name: str
    path: str
    line: int
    #: Names of methods defined concretely in the class body.
    methods: frozenset[str]
    #: Names of methods defined with an ``abstractmethod`` decorator.
    abstract_methods: frozenset[str]
    #: Base-class names as written (dotted bases keep their last segment).
    bases: tuple[str, ...] = ()


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Attribute) and target.attr in (
            "abstractmethod",
            "abstractproperty",
        ):
            return True
        if isinstance(target, ast.Name) and target.id in (
            "abstractmethod",
            "abstractproperty",
        ):
            return True
    return False


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class Project:
    """A parsed view of the repository for one linter run."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        if not (self.root / PACKAGE_ROOT).is_dir():
            raise ConfigurationError(
                f"{self.root} does not look like a repo checkout: "
                f"missing {PACKAGE_ROOT}/"
            )
        self._sources: dict[str, str] = {}
        self._trees: dict[str, ast.Module | None] = {}
        self._class_index: dict[str, ClassInfo] | None = None
        self._parse_errors: list[Finding] = []

    # ------------------------------------------------------------------ #
    # Files and parsing                                                   #
    # ------------------------------------------------------------------ #

    def python_files(self) -> list[str]:
        """Repo-relative posix paths of every linted python file, sorted."""
        package = self.root / PACKAGE_ROOT
        return sorted(
            path.relative_to(self.root).as_posix()
            for path in package.rglob("*.py")
            if "__pycache__" not in path.parts
        )

    def source(self, path: str) -> str:
        """The text of one repo-relative file (cached)."""
        if path not in self._sources:
            self._sources[path] = (self.root / path).read_text(encoding="utf-8")
        return self._sources[path]

    def tree(self, path: str) -> ast.Module | None:
        """The parsed module, or ``None`` (with a finding) on a syntax error."""
        if path not in self._trees:
            try:
                self._trees[path] = ast.parse(self.source(path), filename=path)
            except SyntaxError as error:
                # Cache the failure too, so repeated lookups (the per-file
                # walk plus the class index) report one finding, not two.
                self._trees[path] = None
                self._parse_errors.append(
                    Finding(
                        path=path,
                        line=error.lineno or 1,
                        rule="R000",
                        message=f"file does not parse: {error.msg}",
                    )
                )
        return self._trees.get(path)

    @property
    def parse_errors(self) -> list[Finding]:
        """Syntax-error findings collected while parsing."""
        return list(self._parse_errors)

    # ------------------------------------------------------------------ #
    # The class index                                                     #
    # ------------------------------------------------------------------ #

    def class_index(self) -> dict[str, ClassInfo]:
        """Class name → :class:`ClassInfo` across the whole package.

        Later definitions of a duplicated class name win — matching the
        runtime, where the registries resolve whatever was registered last.
        """
        if self._class_index is None:
            index: dict[str, ClassInfo] = {}
            for path in self.python_files():
                tree = self.tree(path)
                if tree is None:
                    continue
                for node in ast.walk(tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    methods = set()
                    abstract = set()
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            if _is_abstract(item):
                                abstract.add(item.name)
                            else:
                                methods.add(item.name)
                    bases = tuple(
                        name
                        for name in (_base_name(base) for base in node.bases)
                        if name is not None
                    )
                    index[node.name] = ClassInfo(
                        name=node.name,
                        path=path,
                        line=node.lineno,
                        methods=frozenset(methods),
                        abstract_methods=frozenset(abstract),
                        bases=bases,
                    )
            self._class_index = index
        return self._class_index

    def concrete_methods(self, class_name: str) -> frozenset[str] | None:
        """Concrete methods of ``class_name`` including inherited ones.

        Walks base classes by name within the index; an ``abstractmethod``
        definition never satisfies the lookup (a concrete override in a
        subclass does).  Returns ``None`` when the class is not in the index
        at all.
        """
        index = self.class_index()
        if class_name not in index:
            return None
        resolved: set[str] = set()
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = index.get(name)
            if info is None:
                continue
            resolved.update(info.methods)
            queue.extend(info.bases)
        return frozenset(resolved)


def default_root() -> Path:
    """The repo root this module was loaded from (fallback: the cwd)."""
    here = Path(__file__).resolve()
    # .../<root>/src/repro/analysis/lint/walker.py -> parents[4] == <root>
    candidate = here.parents[4]
    if (candidate / PACKAGE_ROOT).is_dir():
        return candidate
    return Path.cwd()


def _instantiate(rule_ids: tuple[str, ...] | None) -> list[ContractRule]:
    # Importing the rules module registers the built-ins (exactly like
    # importing repro.batch.sharded registers the sharded backend).
    import repro.analysis.lint.rules  # noqa: F401  (registration side effect)

    ids = available_rules() if rule_ids is None else tuple(rule_ids)
    return [get_rule(rule_id)() for rule_id in ids]


def run_check(
    root: str | Path | None = None,
    rules: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Run the contract linter over one checkout; sorted findings.

    ``root`` defaults to the checkout this package was imported from;
    ``rules`` restricts the run to specific rule ids (default: all
    registered).  Per-file findings honour ``# repro: ignore[RULE]``
    suppressions; project-level findings (schema drift) do not.
    """
    project = Project(default_root() if root is None else root)
    active = _instantiate(rules)
    for rule in active:
        rule.bind(project)
    findings: list[Finding] = []
    for path in project.python_files():
        applicable = [rule for rule in active if rule.applies_to(path)]
        if not applicable:
            continue
        tree = project.tree(path)
        if tree is None:
            continue
        source = project.source(path)
        per_file: list[Finding] = []
        for rule in applicable:
            per_file.extend(rule.check(tree, source, path))
        findings.extend(apply_suppressions(per_file, source))
    findings.extend(project.parse_errors)
    for rule in active:
        findings.extend(rule.check_project(project))
    return sorted(findings)
