"""Every third-party module the code imports is declared in ``pyproject.toml``.

CI installs the project from its own metadata (``pip install -e ".[test]"``),
so an import that ``pyproject.toml`` does not declare fails on a clean runner
before the first test runs.  This check is offline: it scans the top-level
imports of ``src/`` and ``tests/`` with ``ast``, drops the standard library
and the repo's own modules, and compares the rest against the runtime
dependencies plus every optional extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"


def top_level_imports(path: Path) -> set[str]:
    """Root package names imported at module level (including under if/try)."""
    names: set[str] = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        nested = isinstance(statement, (ast.If, ast.Try))
        for node in ast.walk(statement) if nested else (statement,):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                names.add(node.module.partition(".")[0])
    return names


def first_party_modules() -> set[str]:
    """The package under ``src/`` and every script module the tests import."""
    names = {path.name for path in (REPO / "src").iterdir() if path.is_dir()}
    for folder in ("tests", "scripts", "benchmarks"):
        names.update(path.stem for path in (REPO / folder).glob("*.py"))
    return names


def parse_requirement_arrays(text: str) -> list[str]:
    """``[project]`` dependencies and every optional extra, without tomllib.

    Enough TOML for this file's shape: section headers, and string arrays
    that may span lines and carry comments.
    """
    requirements: list[str] = []
    section = ""
    in_array = False
    for line in text.splitlines():
        content = line.split("#", 1)[0].strip()
        if not in_array and content.startswith("["):
            section = content.strip("[]").strip()
            continue
        if not in_array and "=" in content:
            key, value = (part.strip() for part in content.split("=", 1))
            wanted = section == "project.optional-dependencies" or (
                section == "project" and key == "dependencies"
            )
            if not (wanted and value.startswith("[")):
                continue
            in_array, content = True, value[1:]
        if in_array:
            requirements.extend(re.findall(r'"([^"]*)"', content))
            if "]" in re.sub(r'"[^"]*"', "", content):
                in_array = False
    return requirements


def declared_requirements(text: str) -> list[str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return parse_requirement_arrays(text)
    project = tomllib.loads(text)["project"]
    requirements = list(project.get("dependencies", ()))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return requirements


def distribution_name(requirement: str) -> str:
    """``'numpy>=1.24; python_version>"3.9"'`` -> ``'numpy'`` (normalised)."""
    match = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement.strip())
    assert match, f"unparseable requirement {requirement!r}"
    return re.sub(r"[-.]+", "_", match.group(0)).lower()


def test_every_third_party_import_is_declared():
    text = PYPROJECT.read_text(encoding="utf-8")
    declared = {distribution_name(requirement) for requirement in declared_requirements(text)}
    local = first_party_modules()
    missing: dict[str, list[str]] = {}
    for folder in ("src", "tests"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for name in top_level_imports(path):
                if name in sys.stdlib_module_names or name in local:
                    continue
                if name.lower() not in declared:
                    missing.setdefault(name, []).append(str(path.relative_to(REPO)))
    assert not missing, f"imported but not declared in pyproject.toml: {missing}"


def test_the_fallback_parser_reads_this_pyproject():
    requirements = parse_requirement_arrays(PYPROJECT.read_text(encoding="utf-8"))
    names = {distribution_name(requirement) for requirement in requirements}
    assert {"numpy", "pytest", "hypothesis"} <= names
    assert "scipy" not in names


def test_the_fallback_parser_handles_extras_markers_and_comments():
    text = """
[build-system]
requires = ["setuptools>=61"]

[project]
name = "demo"
dependencies = [
    "alpha>=1.0",  # a comment
    "beta[fast] ; python_version >= '3.10'",
]
classifiers = ["Not :: A dependency"]

[project.optional-dependencies]
test = ["gamma", "delta-pkg"]

[tool.other]
dependencies = ["not-this"]
"""
    requirements = parse_requirement_arrays(text)
    assert [distribution_name(requirement) for requirement in requirements] == [
        "alpha", "beta", "gamma", "delta_pkg",
    ]
    if sys.version_info >= (3, 11):
        assert requirements == declared_requirements(text)
