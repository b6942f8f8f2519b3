"""The contract-rule registry, mirroring the estimator-backend registry idiom.

A rule is a class with an ``id``, a one-line ``title``, a package ``scope``,
and a ``check(tree, source, path)`` method returning structured
:class:`~repro.analysis.lint.findings.Finding` objects.  Rules register
themselves through :func:`register_rule` exactly like estimator backends
register through :func:`repro.batch.backends.register_backend`: registration is
how the built-ins arrive, and how a downstream repo adds (or, with
``overwrite=True``, replaces) a rule without touching the walker.

Two hooks, both optional to override:

``check(tree, source, path)``
    Per-file pass over one parsed module.  ``path`` is repo-relative posix
    (``src/repro/batch/engine.py``); the walker only calls it for files the
    rule's ``scope``/``exclude`` prefixes admit.
``check_project(project)``
    One whole-project pass after the per-file walk — for rules whose
    invariant spans files (the schema-drift rule compares dataclasses
    against a pinned snapshot).  Findings from this hook are not
    line-suppressible; they guard repo-level contracts.
"""

from __future__ import annotations

import abc
import ast
from typing import TYPE_CHECKING

from repro.analysis.lint.findings import Finding
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.analysis.lint.walker import Project

__all__ = [
    "ContractRule",
    "available_rules",
    "get_rule",
    "register_rule",
]


class ContractRule(abc.ABC):
    """One static contract: an id, a scope, and a per-file or project check."""

    #: Rule identifier (``R001``...), the key of the registry and of the
    #: ``# repro: ignore[...]`` suppression idiom.
    id: str = "R000"
    #: One-line description, shown by ``repro-anon check --list-rules``.
    title: str = ""
    #: Repo-relative posix path prefixes the per-file check runs on.
    #: ``None`` scopes the rule to the whole walked tree.
    scope: tuple[str, ...] | None = None
    #: Prefixes excluded even when ``scope`` admits them.
    exclude: tuple[str, ...] = ()

    def bind(self, project: "Project") -> None:
        """Hand the rule the project view before the file walk (optional).

        Cross-file rules (the registry-contract check resolves classes
        through the project-wide index) grab what they need here; the
        default keeps per-file rules project-free.
        """

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


_RULES: dict[str, type[ContractRule]] = {}


def register_rule(rule: type[ContractRule], overwrite: bool = False) -> type[ContractRule]:
    """Register a contract rule under its ``id``.

    Mirrors :func:`repro.batch.backends.register_backend`: later registrations
    with ``overwrite=True`` replace built-ins, a duplicate id without
    ``overwrite`` is an error.  Returns the class so it stacks as a
    decorator.
    """
    if rule.id in _RULES and not overwrite:
        raise ConfigurationError(
            f"contract rule {rule.id!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _RULES[rule.id] = rule
    return rule


def available_rules() -> tuple[str, ...]:
    """Registered rule ids, sorted."""
    return tuple(sorted(_RULES))


def get_rule(rule_id: str) -> type[ContractRule]:
    """The rule class registered under ``rule_id``."""
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise ConfigurationError(
            f"unknown contract rule {rule_id!r}; registered rules: {known}"
        ) from None
