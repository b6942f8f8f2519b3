"""The file walker: parse the tree once, hand each rule its scoped files.

:class:`Project` is the linter's view of one repository checkout — a lazily
built cache of parsed modules that project-level checks (the schema-drift
rule) read as well.  :func:`run_check` is the entry point the CLI and the
tests share: walk ``src/repro``, run the selected rules of
:data:`~repro.analysis.lint.rules.RULES` on the files their scopes admit,
apply line suppressions, and return the sorted findings.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lint.findings import Finding, apply_suppressions
from repro.analysis.lint.rules import RULES
from repro.exceptions import ConfigurationError

__all__ = ["Project", "default_root", "run_check"]

#: The package subtree the contract rules govern, relative to the repo root.
PACKAGE_ROOT = "src/repro"


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
        self._parse_errors: list[Finding] = []

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
                # walk plus a project-level check) report one finding, not two.
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


def default_root() -> Path:
    """The repo root this module was loaded from (fallback: the cwd)."""
    here = Path(__file__).resolve()
    # .../<root>/src/repro/analysis/lint/walker.py -> parents[4] == <root>
    candidate = here.parents[4]
    if (candidate / PACKAGE_ROOT).is_dir():
        return candidate
    return Path.cwd()


def run_check(
    root: str | Path | None = None,
    rules: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Run the contract linter over one checkout; sorted findings.

    ``root`` defaults to the checkout this package was imported from;
    ``rules`` restricts the run to the named rule ids (default: every rule
    in :data:`~repro.analysis.lint.rules.RULES`); each selected rule runs
    once, in id order, however often it is named.  Per-file findings honour
    ``# repro: ignore[RULE]`` suppressions; project-level findings (schema
    drift) do not.
    """
    known = tuple(rule.id for rule in RULES)
    for rule_id in rules or ():
        if rule_id not in known:
            raise ConfigurationError(
                f"unknown contract rule {rule_id!r}; known rules: "
                + ", ".join(known)
            )
    active = [rule for rule in RULES if rules is None or rule.id in rules]
    project = Project(default_root() if root is None else root)
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
