"""Tests for the perf-trajectory pipeline: ``perf_record.append_history``
and the ``compare_bench.py --trend`` rolling-median regression gate.

The acceptance contract: a synthetic 30% throughput regression in a fixture
``BENCH_history.jsonl`` is caught (and fails under ``--strict``), while a
flat history stays quiet.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for extra in ("benchmarks", "scripts"):
    path = str(REPO_ROOT / extra)
    if path not in sys.path:
        sys.path.insert(0, path)

import compare_bench  # noqa: E402  (scripts/)
import perf_record  # noqa: E402  (benchmarks/)

ENVIRONMENT = {"python": "3.12.0", "platform": "test-rig", "repro_version": "1.0.0"}


def _entry(
    benchmark: str = "batch",
    recorded_at: float = 0.0,
    environment: dict | None = None,
    smoke: bool = False,
    **results,
) -> dict:
    return {
        "benchmark": benchmark,
        "smoke": smoke,
        "recorded_at": recorded_at,
        "git_sha": "abc123",
        "environment": ENVIRONMENT if environment is None else environment,
        "results": results,
        "config": {},
    }


def _flat(n: int = 5, **overrides) -> list[dict]:
    return [
        _entry(recorded_at=float(i), trials_per_second=100_000.0 + 200.0 * i, **overrides)
        for i in range(n)
    ]


def _write_history(path: Path, entries: list[dict]) -> Path:
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
    return path


class TestAppendHistory:
    def _record(self, directory: Path, name: str = "batch", **extra) -> Path:
        payload = {
            "benchmark": name,
            "smoke": False,
            "config": {"n_trials": 1000},
            "environment": ENVIRONMENT,
            "trials_per_second": 123456.0,
            "elapsed_seconds": 1.5,
            "label": "not-a-number",
            "nested": {"skipped": 1},
            **extra,
        }
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_appends_one_line_per_record_with_numeric_results(self, tmp_path):
        self._record(tmp_path, "batch")
        self._record(tmp_path, "cycle", smoke=True)
        history = tmp_path / "BENCH_history.jsonl"
        appended = perf_record.append_history(
            tmp_path, history_path=history, git_sha="deadbeef", timestamp=42.0
        )
        assert appended == 2
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert [line["benchmark"] for line in lines] == ["batch", "cycle"]
        batch = lines[0]
        assert batch["git_sha"] == "deadbeef"
        assert batch["recorded_at"] == 42.0
        assert batch["results"] == {
            "trials_per_second": 123456.0,
            "elapsed_seconds": 1.5,
        }
        assert batch["environment"] == ENVIRONMENT
        assert lines[1]["smoke"] is True

    def test_appending_twice_accumulates(self, tmp_path):
        self._record(tmp_path)
        history = tmp_path / "h.jsonl"
        perf_record.append_history(tmp_path, history_path=history, git_sha="a")
        perf_record.append_history(tmp_path, history_path=history, git_sha="b")
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["git_sha"] for line in lines] == ["a", "b"]

    def test_summary_file_is_excluded(self, tmp_path):
        self._record(tmp_path)
        (tmp_path / perf_record.SUMMARY_NAME).write_text(
            json.dumps({"benchmark": "summary", "records": {}})
        )
        appended = perf_record.append_history(
            tmp_path, history_path=tmp_path / "h.jsonl"
        )
        assert appended == 1

    def test_empty_directory_appends_nothing(self, tmp_path):
        history = tmp_path / "h.jsonl"
        assert perf_record.append_history(tmp_path, history_path=history) == 0
        assert not history.exists()


class TestCheckTrend:
    def test_catches_a_30_percent_throughput_regression(self):
        entries = _flat(5)
        entries.append(
            _entry(recorded_at=10.0, trials_per_second=70_000.0)
        )
        violations, warnings, _ = compare_bench.check_trend(entries)
        assert len(violations) == 1
        assert "trials_per_second" in violations[0]
        assert warnings == []

    def test_quiet_on_flat_history(self):
        violations, warnings, _ = compare_bench.check_trend(_flat(6))
        assert violations == [] and warnings == []

    def test_duration_keys_flag_the_other_direction(self):
        entries = [
            _entry(recorded_at=float(i), build_seconds=10.0) for i in range(4)
        ]
        entries.append(_entry(recorded_at=9.0, build_seconds=14.0))
        violations, _, _ = compare_bench.check_trend(entries)
        assert len(violations) == 1 and "build_seconds" in violations[0]
        # A duration *improvement* is never flagged.
        entries[-1]["results"]["build_seconds"] = 6.0
        violations, _, _ = compare_bench.check_trend(entries)
        assert violations == []

    def test_memory_keys_flag_like_durations(self):
        entries = [
            _entry(recorded_at=float(i), traced_peak_mib=13.0) for i in range(4)
        ]
        entries.append(_entry(recorded_at=9.0, traced_peak_mib=190.0))
        violations, _, _ = compare_bench.check_trend(entries)
        assert len(violations) == 1 and "traced_peak_mib" in violations[0]
        entries[-1]["results"]["traced_peak_mib"] = 6.0
        violations, _, _ = compare_bench.check_trend(entries)
        assert violations == []

    def test_unknown_direction_keys_are_skipped(self):
        entries = [
            _entry(recorded_at=float(i), anonymity_bits=6.6) for i in range(4)
        ]
        entries.append(_entry(recorded_at=9.0, anonymity_bits=0.1))
        violations, warnings, _ = compare_bench.check_trend(entries)
        assert violations == [] and warnings == []

    def test_smoke_groups_warn_instead_of_failing(self):
        entries = _flat(5, smoke=True)
        entries.append(
            _entry(recorded_at=10.0, smoke=True, trials_per_second=50_000.0)
        )
        violations, warnings, _ = compare_bench.check_trend(entries)
        assert violations == []
        assert len(warnings) == 1 and "smoke" in warnings[0]

    def test_needs_two_prior_runs(self):
        entries = _flat(2)  # newest has only one predecessor
        violations, warnings, notes = compare_bench.check_trend(entries)
        assert violations == [] and warnings == []
        assert notes and "needs 2" in notes[0]

    def test_environment_change_starts_a_fresh_baseline(self):
        entries = _flat(5)
        moved = _entry(
            recorded_at=10.0,
            environment={**ENVIRONMENT, "platform": "new-rig"},
            trials_per_second=50_000.0,
        )
        violations, warnings, notes = compare_bench.check_trend(entries + [moved])
        # The regressed number is on a new environment: no baseline, no flag.
        assert violations == [] and warnings == []
        assert any("prior run" in note for note in notes)

    def test_window_bounds_the_median(self):
        # Ancient slow runs outside the window must not mask a regression.
        old = [
            _entry(recorded_at=float(i), trials_per_second=10_000.0)
            for i in range(3)
        ]
        recent = [
            _entry(recorded_at=10.0 + i, trials_per_second=100_000.0)
            for i in range(5)
        ]
        newest = _entry(recorded_at=100.0, trials_per_second=60_000.0)
        violations, _, _ = compare_bench.check_trend(
            old + recent + [newest], window=5
        )
        assert len(violations) == 1


class TestLoadHistory:
    def test_skips_corrupt_and_foreign_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps(_entry()) + "\n"
            + "{torn\n"
            + json.dumps(["not", "a", "dict"]) + "\n"
            + json.dumps({"no_benchmark_key": 1}) + "\n"
        )
        entries = compare_bench.load_history(path)
        assert len(entries) == 1


class TestTrendCliGate:
    def _main(self, tmp_path, entries, *extra) -> tuple[int, str]:
        import io
        from contextlib import redirect_stdout

        history = _write_history(tmp_path / "BENCH_history.jsonl", entries)
        buffer = io.StringIO()
        argv = [
            "--summary", str(tmp_path / "missing-summary.json"),
            "--trend", str(history),
            *extra,
        ]
        with redirect_stdout(buffer):
            code = compare_bench.main(argv)
        return code, buffer.getvalue()

    def test_regression_fails_under_strict(self, tmp_path):
        entries = _flat(5) + [_entry(recorded_at=10.0, trials_per_second=70_000.0)]
        code, out = self._main(tmp_path, entries, "--strict")
        assert code == 1
        assert "FAIL" in out

    def test_regression_warns_without_strict(self, tmp_path):
        entries = _flat(5) + [_entry(recorded_at=10.0, trials_per_second=70_000.0)]
        code, out = self._main(tmp_path, entries)
        assert code == 0
        assert "FAIL" in out

    def test_flat_history_passes_strict(self, tmp_path):
        code, out = self._main(tmp_path, _flat(6), "--strict")
        assert code == 0
        assert "no trajectory regressions" in out

    def test_missing_history_is_skipped_not_an_error(self, tmp_path):
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        argv = [
            "--summary", str(tmp_path / "missing-summary.json"),
            "--trend", str(tmp_path / "missing-history.jsonl"),
            "--strict",
        ]
        with redirect_stdout(buffer):
            code = compare_bench.main(argv)
        assert code == 0
        assert "trend skipped" in buffer.getvalue()

    def test_missing_summary_without_trend_still_errors(self, tmp_path, capsys):
        code = compare_bench.main(["--summary", str(tmp_path / "nope.json")])
        assert code == 2


@pytest.mark.parametrize(
    ("key", "expected"),
    [
        ("trials_per_second", 1),
        ("batch_numpy_trials_per_sec", 1),
        ("analyses_per_sec", 1),
        ("speedup_pure", 1),
        ("elapsed_seconds", -1),
        ("anonymity_bits", 0),
    ],
)
def test_direction_inference(key, expected):
    assert compare_bench._direction(key) == expected
