"""Tests for the static contract linter (``repro.analysis.lint``).

Three layers: fixture snippets proving each rule fires / stays clean / is
suppressible with ``# repro: ignore[RULE]``; a whole-repo run proving HEAD
is clean (the gate CI enforces); and a schema-drift test mutating a field
list in a temp copy of the tree and asserting R003 fires with and without
the version bump.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    Finding,
    apply_suppressions,
    run_check,
    suppressed_rules,
)
from repro.analysis.lint.rules import PINNED_SCHEMAS, SCHEMA_SNAPSHOT_PATH
from repro.analysis.lint.walker import Project, default_root
from repro.cli import main
from repro.exceptions import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

RULE = {rule.id: rule for rule in RULES}


def check_snippet(rule_id: str, source: str, path: str) -> list[Finding]:
    """Run one rule's per-file check on a source snippet."""
    rule = RULE[rule_id]
    tree = ast.parse(source)
    return apply_suppressions(rule.check(tree, source, path), source)


# ---------------------------------------------------------------------- #
# Findings and suppression                                                #
# ---------------------------------------------------------------------- #


class TestFindings:
    def test_format_is_file_line_rule_message(self):
        finding = Finding(path="src/repro/x.py", line=7, rule="R001", message="boom")
        assert finding.format() == "src/repro/x.py:7: R001 boom"

    def test_ordering_is_path_line_rule(self):
        a = Finding(path="a.py", line=2, rule="R001", message="m")
        b = Finding(path="a.py", line=10, rule="R001", message="m")
        c = Finding(path="b.py", line=1, rule="R001", message="m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_suppression_parses_multiple_rules(self):
        source = "x = 1  # repro: ignore[R001, R004]\n"
        assert suppressed_rules(source) == {1: frozenset({"R001", "R004"})}

    def test_suppression_only_silences_named_rule(self):
        source = "x = 1  # repro: ignore[R004]\n"
        findings = [Finding(path="f.py", line=1, rule="R001", message="m")]
        assert apply_suppressions(findings, source) == findings

    def test_suppression_silences_matching_rule_on_line(self):
        source = "x = 1\ny = 2  # repro: ignore[R001]\n"
        findings = [Finding(path="f.py", line=2, rule="R001", message="m")]
        assert apply_suppressions(findings, source) == []


class TestRules:
    def test_rules_are_the_four_in_id_order(self):
        assert [rule.id for rule in RULES] == ["R001", "R003", "R004", "R005"]

    def test_every_rule_has_id_and_title(self):
        for rule in RULES:
            assert rule.id
            assert rule.title

    def test_unknown_rule_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="R001, R003, R004, R005"):
            run_check(root=REPO_ROOT, rules=("R999",))


# ---------------------------------------------------------------------- #
# R001 determinism                                                        #
# ---------------------------------------------------------------------- #

R001_PATH = "src/repro/batch/fixture.py"


class TestR001Determinism:
    def test_global_random_fires(self):
        source = "import random\n\ndef f():\n    return random.random()\n"
        findings = check_snippet("R001", source, R001_PATH)
        assert len(findings) == 1
        assert findings[0].rule == "R001"
        assert findings[0].line == 4

    def test_numpy_global_state_fires(self):
        source = "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n"
        assert len(check_snippet("R001", source, R001_PATH)) == 1

    def test_wall_clock_fires(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert len(check_snippet("R001", source, R001_PATH)) == 1

    def test_datetime_now_fires_through_from_import(self):
        source = "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
        assert len(check_snippet("R001", source, R001_PATH)) == 1

    def test_from_import_of_global_function_fires(self):
        source = "from random import shuffle\n\ndef f(items):\n    shuffle(items)\n"
        assert len(check_snippet("R001", source, R001_PATH)) == 1

    def test_set_iteration_fires(self):
        source = "def f():\n    return [x for x in {3, 1, 2}]\n"
        findings = check_snippet("R001", source, R001_PATH)
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_explicit_generator_is_clean(self):
        source = (
            "import numpy as np\n"
            "from numpy.random import default_rng\n\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    other = default_rng(seed)\n"
            "    return rng.random(), other.integers(10)\n"
        )
        assert check_snippet("R001", source, R001_PATH) == []

    def test_sorted_set_iteration_is_clean(self):
        source = "def f():\n    return [x for x in sorted({3, 1, 2})]\n"
        assert check_snippet("R001", source, R001_PATH) == []

    def test_suppression_silences(self):
        source = (
            "import random\n\ndef f():\n"
            "    return random.random()  # repro: ignore[R001]\n"
        )
        assert check_snippet("R001", source, R001_PATH) == []

    def test_out_of_scope_package_not_checked(self):
        rule = RULE["R001"]
        assert rule.applies_to("src/repro/batch/engine.py")
        assert rule.applies_to("src/repro/routing/path.py")
        assert not rule.applies_to("src/repro/cli.py")
        assert not rule.applies_to("src/repro/telemetry/metrics.py")


# ---------------------------------------------------------------------- #
# R003 schema drift                                                       #
# ---------------------------------------------------------------------- #


def project_copy(tmp_path: Path) -> Path:
    """A trimmed copy of the real tree that linter runs can mutate."""
    root = tmp_path / "checkout"
    shutil.copytree(
        REPO_ROOT / "src",
        root / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


class TestR003SchemaDrift:
    def test_pinned_snapshot_matches_head(self):
        assert run_check(root=REPO_ROOT, rules=("R003",)) == []

    def test_snapshot_covers_all_pinned_classes(self):
        snapshot = json.loads(
            (REPO_ROOT / SCHEMA_SNAPSHOT_PATH).read_text(encoding="utf-8")
        )
        for path, (constant, classes) in PINNED_SCHEMAS.items():
            entry = snapshot["modules"][path]
            assert entry["version_constant"] == constant
            for class_name in classes:
                assert entry["classes"][class_name], class_name

    def test_unbumped_field_change_fires(self, tmp_path):
        root = project_copy(tmp_path)
        request = root / "src/repro/service/request.py"
        text = request.read_text()
        assert "    seed: int" in text
        request.write_text(text.replace("    seed: int", "    seed: int\n    nonce: int", 1))
        findings = run_check(root=root, rules=("R003",))
        assert len(findings) == 1
        assert "EstimateRequest" in findings[0].message
        assert "CANONICAL_VERSION" in findings[0].message
        assert findings[0].path == "src/repro/service/request.py"

    def test_bumped_field_change_still_requires_repin(self, tmp_path):
        root = project_copy(tmp_path)
        request = root / "src/repro/service/request.py"
        text = request.read_text()
        text = text.replace("    seed: int", "    seed: int\n    nonce: int", 1)
        text = text.replace("CANONICAL_VERSION = 3", "CANONICAL_VERSION = 4", 1)
        request.write_text(text)
        findings = run_check(root=root, rules=("R003",))
        assert len(findings) == 1
        assert "re-pin" in findings[0].message

    def test_missing_snapshot_fires(self, tmp_path):
        root = project_copy(tmp_path)
        (root / SCHEMA_SNAPSHOT_PATH).unlink()
        findings = run_check(root=root, rules=("R003",))
        assert len(findings) == 1
        assert "missing" in findings[0].message

    def test_journal_record_drift_fires(self, tmp_path):
        root = project_copy(tmp_path)
        journal = root / "src/repro/telemetry/journal.py"
        text = journal.read_text()
        assert "    digest: str" in text
        journal.write_text(
            text.replace("    digest: str", "    digest: str\n    extra: int", 1)
        )
        findings = run_check(root=root, rules=("R003",))
        assert len(findings) == 1
        assert "RunRecord" in findings[0].message
        assert "JOURNAL_VERSION" in findings[0].message


# ---------------------------------------------------------------------- #
# R004 float persistence                                                  #
# ---------------------------------------------------------------------- #

R004_PATH = "src/repro/service/cache.py"


class TestR004FloatPersistence:
    def test_raw_float_in_payload_fires(self):
        source = (
            "import json\n\n"
            "def save(fh, value):\n"
            "    json.dump({'v': float(value)}, fh)\n"
        )
        findings = check_snippet("R004", source, R004_PATH)
        assert len(findings) == 1
        assert "float.hex" in findings[0].message

    def test_round_in_payload_fires(self):
        source = "import json\n\ndef save(value):\n    return json.dumps({'v': round(value, 6)})\n"
        assert len(check_snippet("R004", source, R004_PATH)) == 1

    def test_format_spec_fstring_in_payload_fires(self):
        source = "import json\n\ndef save(value):\n    return json.dumps({'v': f'{value:.3f}'})\n"
        assert len(check_snippet("R004", source, R004_PATH)) == 1

    def test_helper_indirection_is_followed(self):
        source = (
            "import json\n\n"
            "def _encode(value):\n"
            "    return {'v': round(value, 2)}\n\n"
            "def save(fh, value):\n"
            "    json.dump(_encode(value), fh)\n"
        )
        findings = check_snippet("R004", source, R004_PATH)
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_hex_encoded_float_is_clean(self):
        source = (
            "import json\n\n"
            "def save(fh, value):\n"
            "    json.dump({'v': float(value).hex(), 'w': value.hex()}, fh)\n"
        )
        assert check_snippet("R004", source, R004_PATH) == []

    def test_suppression_silences(self):
        source = (
            "import json\n\n"
            "def save(value):\n"
            "    return json.dumps({'v': round(value, 6)})  # repro: ignore[R004]\n"
        )
        assert check_snippet("R004", source, R004_PATH) == []

    def test_scoped_to_persistence_modules(self):
        rule = RULE["R004"]
        assert rule.applies_to("src/repro/service/cache.py")
        assert rule.applies_to("src/repro/telemetry/journal.py")
        assert not rule.applies_to("src/repro/telemetry/export.py")


# ---------------------------------------------------------------------- #
# R005 telemetry hygiene                                                  #
# ---------------------------------------------------------------------- #

R005_PATH = "src/repro/service/fixture.py"


class TestR005TelemetryHygiene:
    def test_print_fires(self):
        source = "def f():\n    print('hi')\n"
        findings = check_snippet("R005", source, R005_PATH)
        assert len(findings) == 1
        assert "print" in findings[0].message

    def test_root_logger_call_fires(self):
        source = "import logging\n\ndef f():\n    logging.warning('x')\n"
        assert len(check_snippet("R005", source, R005_PATH)) == 1

    def test_root_getlogger_fires(self):
        source = "import logging\n\nlogger = logging.getLogger()\n"
        assert len(check_snippet("R005", source, R005_PATH)) == 1

    def test_module_logger_is_clean(self):
        source = (
            "import logging\n\n"
            "logger = logging.getLogger(__name__)\n\n"
            "def f():\n    logger.warning('x')\n"
        )
        assert check_snippet("R005", source, R005_PATH) == []

    def test_unguarded_metric_call_fires(self):
        source = "def f(telemetry):\n    telemetry.counter('runs').inc()\n"
        findings = check_snippet("R005", source, R005_PATH)
        assert len(findings) == 1
        assert "enabled" in findings[0].message

    def test_guarded_metric_call_is_clean(self):
        source = (
            "def f(telemetry):\n"
            "    if telemetry.enabled:\n"
            "        telemetry.counter('runs').inc()\n"
            "        telemetry.histogram('latency').observe(0.5)\n"
        )
        assert check_snippet("R005", source, R005_PATH) == []

    def test_else_branch_of_guard_still_fires(self):
        source = (
            "def f(telemetry):\n"
            "    if telemetry.enabled:\n"
            "        pass\n"
            "    else:\n"
            "        telemetry.counter('runs').inc()\n"
        )
        assert len(check_snippet("R005", source, R005_PATH)) == 1

    def test_cli_is_exempt(self):
        rule = RULE["R005"]
        assert not rule.applies_to("src/repro/cli.py")
        assert rule.applies_to("src/repro/service/service.py")

    def test_telemetry_package_is_exempt_from_guard_check_only(self):
        source = "def f(registry):\n    registry.counter('x').inc()\n"
        assert check_snippet("R005", source, "src/repro/telemetry/export.py") == []
        # ... but a print in the telemetry package still fires.
        source = "def f():\n    print('x')\n"
        assert len(check_snippet("R005", source, "src/repro/telemetry/export.py")) == 1

    def test_suppression_silences(self):
        source = "def f():\n    print('hi')  # repro: ignore[R005]\n"
        assert check_snippet("R005", source, R005_PATH) == []


# ---------------------------------------------------------------------- #
# The walker and the whole-repo gate                                      #
# ---------------------------------------------------------------------- #


class TestProject:
    def test_rejects_non_checkout_roots(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Project(tmp_path)

    def test_default_root_is_this_checkout(self):
        assert default_root() == REPO_ROOT

    def test_python_files_are_sorted_and_package_scoped(self):
        project = Project(REPO_ROOT)
        files = project.python_files()
        assert files == sorted(files)
        assert all(path.startswith("src/repro/") for path in files)
        assert "src/repro/batch/engine.py" in files

    def test_syntax_error_becomes_r000_finding(self, tmp_path):
        root = project_copy(tmp_path)
        broken = root / "src/repro/batch/broken_fixture.py"
        broken.write_text("def broken(:\n")
        findings = [f for f in run_check(root=root) if f.rule == "R000"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/batch/broken_fixture.py"


class TestWholeRepoGate:
    def test_head_is_clean(self):
        assert run_check(root=REPO_ROOT) == []

    def test_cli_check_exits_zero_and_reports_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_cli_check_json_shape(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "check",
                "--json",
                "--root",
                str(REPO_ROOT),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["total"] == 0
        assert payload["findings"] == []

    def test_cli_exits_one_on_findings(self, tmp_path):
        root = project_copy(tmp_path)
        kernel = root / "src/repro/batch/fixture_bad.py"
        kernel.write_text("import random\n\ndef f():\n    return random.random()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "--root", str(root)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "fixture_bad.py:4: R001" in result.stdout

    def test_cli_list_rules_json_is_the_four_rules_in_id_order(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "--list-rules", "--json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        listed = [rule["id"] for rule in json.loads(result.stdout)["rules"]]
        assert listed == ["R001", "R003", "R004", "R005"]

    def test_cli_list_rules_text_is_the_four_rules_in_id_order(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["R001", "R003", "R004", "R005"]
        assert lines[1] == f"R003  {RULE['R003'].title}"

    def test_cli_unknown_rule_is_a_one_line_usage_error(self, capsys):
        assert main(["check", "--rule", "R002"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown contract rule 'R002'; known rules: "
            "R001, R003, R004, R005\n"
        )

    def test_cli_repeated_rule_runs_once(self, tmp_path, capsys):
        root = project_copy(tmp_path)
        kernel = root / "src/repro/batch/fixture_bad.py"
        kernel.write_text("import random\n\ndef f():\n    return random.random()\n")
        code = main(["check", "--root", str(root), "--rule", "R001", "--rule", "R001"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("src/repro/batch/fixture_bad.py:4: R001 ")
        assert lines[1] == "1 finding"

    def test_docs_name_only_existing_rules(self, tmp_path):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        listed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "--list-rules", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert listed.returncode == 0, listed.stderr
        rules_json = tmp_path / "rules.json"
        rules_json.write_text(listed.stdout, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "scripts/check_links.py", "--rules-json", str(rules_json)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_markdown_files_named_in_code_exist(self):
        """Every ``*.md`` path a module or benchmark cites is in the tree.

        Paths are read from the repository root, as the citations write
        them (``EXPERIMENTS.md``, ``docs/backends.md``).
        """
        cited = {}
        for source in sorted((REPO_ROOT / "src").rglob("*.py")) + sorted(
            (REPO_ROOT / "benchmarks").rglob("*.py")
        ):
            for name in re.findall(r"(?<![\w./-])([\w./-]*\w\.md)\b", source.read_text()):
                cited.setdefault(name, source.relative_to(REPO_ROOT))
        assert "EXPERIMENTS.md" in cited
        missing = {name: str(where) for name, where in cited.items() if not (REPO_ROOT / name).is_file()}
        assert missing == {}

    def test_update_schemas_round_trips(self, tmp_path):
        root = project_copy(tmp_path)
        (root / SCHEMA_SNAPSHOT_PATH).unlink()
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "check",
                "--update-schemas",
                "--root",
                str(root),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        regenerated = json.loads((root / SCHEMA_SNAPSHOT_PATH).read_text())
        pinned = json.loads((REPO_ROOT / SCHEMA_SNAPSHOT_PATH).read_text())
        assert regenerated == pinned


class TestRatchetFile:
    def test_ratchet_paths_exist(self):
        ratchet = (REPO_ROOT / "mypy-ratchet.txt").read_text().splitlines()
        paths = [l.strip() for l in ratchet if l.strip() and not l.startswith("#")]
        assert paths, "ratchet file must list at least one path"
        for rel in paths:
            assert (REPO_ROOT / rel).is_file(), rel

    def test_ratchet_covers_the_contract_core(self):
        ratchet = (REPO_ROOT / "mypy-ratchet.txt").read_text()
        for required in (
            "src/repro/service/request.py",
            "src/repro/service/cache.py",
            "src/repro/batch/engine.py",
            "src/repro/telemetry/journal.py",
        ):
            assert required in ratchet
