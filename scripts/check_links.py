#!/usr/bin/env python3
"""Fail on broken intra-repo links in Markdown docs.

Scans the given Markdown files (default: ``README.md`` and ``docs/*.md``) for
inline links and images, and checks every *intra-repository* target:

* relative file targets must exist on disk (resolved against the linking
  file's directory, ``#fragment`` stripped);
* fragments pointing into a Markdown file (``other.md#section`` or a bare
  ``#section``) must match a heading in that file, using GitHub's
  slugification rules (lowercase, punctuation dropped, spaces to hyphens);
* external schemes (``http://``, ``https://``, ``mailto:``) are ignored —
  this checker is for repo hygiene, not the internet.

With ``--rules-json``, every contract-rule id mentioned in the docs (R001,
R003, ...) is additionally checked against the linter's rule set, as listed
by ``repro-anon check --list-rules --json`` — a rule renamed or removed in
code cannot silently leave stale mentions behind:

    PYTHONPATH=src python -m repro.cli check --list-rules --json > rules.json
    python scripts/check_links.py --rules-json rules.json

Exit status 0 when every link (and rule mention) resolves, 1 otherwise (one
line per problem).  Stdlib only; used by the CI ``static-analysis`` job
and, with ``--rules-json``, by a tier-1 test.
"""

from __future__ import annotations

import argparse
import glob
import json
import re
import sys
from pathlib import Path

#: Inline Markdown links/images: [text](target) / ![alt](target).  Fenced
#: code blocks are stripped before matching.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^(```|~~~)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: Contract-rule ids as the docs write them (R001, R123, ...).  The word
#: boundary keeps hex strings and issue numbers out.
_RULE_ID_RE = re.compile(r"\bR\d{3}\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for one heading line."""
    # Drop inline markup the way GitHub's anchorizer does: keep word
    # characters, spaces, and hyphens; lowercase; spaces become hyphens.
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_lines_outside_fences(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def heading_slugs(path: Path) -> set[str]:
    """Every GitHub-style anchor available in one Markdown file."""
    slugs: set[str] = set()
    for line in markdown_lines_outside_fences(path.read_text(encoding="utf-8")):
        match = _HEADING_RE.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def check_file(path: Path, repo_root: Path) -> list[str]:
    """All broken-link complaints for one Markdown file."""
    problems: list[str] = []
    lines = markdown_lines_outside_fences(path.read_text(encoding="utf-8"))
    try:
        display = path.relative_to(repo_root)
    except ValueError:
        display = path
    for line_number, line in enumerate(lines, start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            location = f"{display}:{line_number}"
            base, _, fragment = target.partition("#")
            if not base:
                if fragment and github_slug(fragment) != fragment:
                    problems.append(
                        f"{location}: anchor #{fragment} is not in slug form"
                    )
                elif fragment and fragment not in heading_slugs(path):
                    problems.append(
                        f"{location}: no heading for anchor #{fragment}"
                    )
                continue
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                problems.append(f"{location}: target {target} does not exist")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_slugs(resolved):
                    problems.append(
                        f"{location}: {base} has no heading for anchor #{fragment}"
                    )
    return problems


def check_rule_mentions(path: Path, repo_root: Path, known: set[str]) -> list[str]:
    """Complaints for doc-mentioned rule ids that are not linter rules.

    Scans prose *and* code fences: suppression examples
    (``# repro: ignore[R001]``) name rule ids inside fenced blocks, and a
    stale id there misleads exactly as much as one in prose.
    """
    problems: list[str] = []
    try:
        display = path.relative_to(repo_root)
    except ValueError:
        display = path
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for rule_id in _RULE_ID_RE.findall(line):
            if rule_id not in known:
                problems.append(
                    f"{display}:{line_number}: rule {rule_id} is not a "
                    "linter rule (repro-anon check --list-rules)"
                )
    return problems


def load_known_rules(rules_json: Path) -> set[str]:
    """Rule ids from a ``repro-anon check --list-rules --json`` dump.

    ``R000`` is always known: it is the walker's reserved parse-error id,
    documented but never listed as a rule.
    """
    payload = json.loads(rules_json.read_text(encoding="utf-8"))
    return {rule["id"] for rule in payload["rules"]} | {"R000"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="Markdown files to check (default: README.md and docs/*.md)",
    )
    parser.add_argument(
        "--rules-json",
        default=None,
        help="output of 'repro-anon check --list-rules --json'; when given, "
        "every R### id mentioned in the docs must be a listed rule",
    )
    args = parser.parse_args(argv)
    repo_root = Path(__file__).resolve().parent.parent
    if args.files:
        files = [Path(name).resolve() for name in args.files]
    else:
        files = [repo_root / "README.md"] + [
            Path(name).resolve()
            for name in sorted(glob.glob(str(repo_root / "docs" / "*.md")))
        ]
    known_rules: set[str] | None = None
    if args.rules_json is not None:
        known_rules = load_known_rules(Path(args.rules_json))
    problems: list[str] = []
    for path in files:
        if not path.exists():
            problems.append(f"{path}: file not found")
            continue
        problems.extend(check_file(path, repo_root))
        if known_rules is not None:
            problems.extend(check_rule_mentions(path, repo_root, known_rules))
    for problem in problems:
        print(problem, file=sys.stderr)

    def display(path: Path) -> str:
        try:
            return str(path.relative_to(repo_root))
        except ValueError:
            return str(path)

    checked = ", ".join(display(path) for path in files)
    if problems:
        print(f"{len(problems)} broken link(s) in: {checked}", file=sys.stderr)
        return 1
    print(f"all intra-repo links resolve in: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
