#!/usr/bin/env python3
"""Diff a consolidated benchmark summary against the committed perf floors.

``benchmarks/perf_record.py --summary`` folds every ``BENCH_*.json`` of a run
into one ``BENCH_summary.json``; this script compares that summary against
``benchmarks/bench_floors.json`` — the committed floor file — so a perf
regression shows up as a named, numbered violation in the CI log instead of
a silently smaller number in an artifact nobody opens.

Each floor rule names a record (the ``benchmark`` key of one per-benchmark
record), a top-level numeric key in it, and a ``min`` and/or ``max`` bound::

    {"record": "batch", "key": "speedup_numpy", "min": 10.0}

Records produced in ``--smoke`` mode carry ``"smoke": true`` and are checked
but only *warned* about — smoke workloads are sized for coverage, not for
meaningful timing — and a rule whose record or key is absent from the summary
is reported as skipped, never counted as a violation.

By default violations are warnings (exit 0), so the smoke job stays a
trend monitor; ``--strict`` turns full-workload violations into exit code 1
for jobs that run the real workloads.

Beyond the static floors, ``--trend BENCH_history.jsonl`` checks the perf
*trajectory*: the history file (appended by ``perf_record.py --history``,
one JSONL line per benchmark per run) is grouped by ``(benchmark,
environment fingerprint, smoke)``, and the newest entry of each group is
compared against the rolling median of its previous ``--trend-window`` runs.
A throughput key (``*per_sec*``, ``*speedup*``) more than ``--trend-drop``
below the median — or a duration (``*_seconds``) or memory (``*_mib``) key
the same fraction above it — is flagged.  Smoke groups only warn; full-workload regressions become
violations, gated by ``--strict`` like the floors.  Groups with fewer than
two prior runs are skipped (no median to trust yet), as are keys whose
better-direction cannot be inferred from the name.

Usage::

    python scripts/compare_bench.py                       # summary + floors in cwd/repo
    python scripts/compare_bench.py --summary BENCH_summary.json \
        --floors benchmarks/bench_floors.json --strict
    python scripts/compare_bench.py --trend BENCH_history.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FLOORS = REPO_ROOT / "benchmarks" / "bench_floors.json"

#: Newest-vs-median drop fraction that flags a trajectory regression.
DEFAULT_TREND_DROP = 0.25

#: Rolling-median window: previous same-group entries considered.
DEFAULT_TREND_WINDOW = 5


def load_rules(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    rules = data.get("rules", [])
    if not isinstance(rules, list):
        raise ValueError(f"{path}: 'rules' must be a list")
    for rule in rules:
        if "record" not in rule or "key" not in rule:
            raise ValueError(f"{path}: every rule needs 'record' and 'key': {rule}")
        if "min" not in rule and "max" not in rule:
            raise ValueError(f"{path}: rule has neither 'min' nor 'max': {rule}")
    return rules


def check(summary: dict, rules: list[dict]) -> tuple[list[str], list[str], list[str]]:
    """Returns (violations, warnings, skipped) as printable lines."""
    records = summary.get("records", summary)
    violations: list[str] = []
    warnings: list[str] = []
    skipped: list[str] = []
    for rule in rules:
        name, key = rule["record"], rule["key"]
        record = records.get(name)
        if record is None:
            skipped.append(f"{name}.{key}: record not in summary")
            continue
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            skipped.append(f"{name}.{key}: key missing or non-numeric")
            continue
        problems = []
        if "min" in rule and value < rule["min"]:
            problems.append(f"{value:g} < floor {rule['min']:g}")
        if "max" in rule and value > rule["max"]:
            problems.append(f"{value:g} > ceiling {rule['max']:g}")
        if not problems:
            continue
        line = f"{name}.{key}: " + "; ".join(problems)
        if record.get("smoke"):
            warnings.append(line + " (smoke workload; timing not meaningful)")
        else:
            violations.append(line)
    return violations, warnings, skipped


def load_history(path: Path) -> list[dict]:
    """Parse a ``BENCH_history.jsonl`` file, skipping unreadable lines.

    A torn append or a hand-edited line degrades to one fewer data point,
    never to a failed gate.
    """
    entries: list[dict] = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            continue
        if isinstance(data, dict) and "benchmark" in data:
            entries.append(data)
    return entries


def _environment_key(environment: dict) -> str:
    return "|".join(f"{key}={environment[key]}" for key in sorted(environment))


def _direction(key: str) -> int:
    """+1 when bigger is better, -1 when smaller is, 0 when unknowable."""
    if "per_sec" in key or "speedup" in key:
        return 1
    if key.endswith(("_seconds", "_mib")):
        return -1
    return 0


def check_trend(
    entries: list[dict],
    window: int = DEFAULT_TREND_WINDOW,
    drop: float = DEFAULT_TREND_DROP,
) -> tuple[list[str], list[str], list[str]]:
    """Returns (violations, warnings, notes) for the newest run of each group.

    Entries are grouped by ``(benchmark, environment fingerprint, smoke)`` so
    a machine change starts a fresh baseline instead of poisoning the median.
    Within a group the newest entry's numeric results are compared key-wise
    against the median of the previous ``window`` entries; the comparison
    direction is inferred from the key name (:func:`_direction`).
    """
    groups: dict[tuple, list[dict]] = {}
    for entry in entries:
        key = (
            entry.get("benchmark"),
            _environment_key(entry.get("environment", {})),
            bool(entry.get("smoke")),
        )
        groups.setdefault(key, []).append(entry)
    violations: list[str] = []
    warnings: list[str] = []
    notes: list[str] = []
    for (benchmark, _, smoke), group in sorted(
        groups.items(), key=lambda item: (str(item[0][0]), item[0][1], item[0][2])
    ):
        group.sort(key=lambda entry: entry.get("recorded_at", 0.0))
        history, newest = group[:-1], group[-1]
        if len(history) < 2:
            notes.append(
                f"{benchmark}: {len(history)} prior run(s) on this "
                "environment; trend needs 2"
            )
            continue
        baseline = history[-window:]
        for key, value in sorted(newest.get("results", {}).items()):
            direction = _direction(key)
            if direction == 0 or not isinstance(value, (int, float)):
                continue
            samples = [
                entry["results"][key]
                for entry in baseline
                if isinstance(entry.get("results", {}).get(key), (int, float))
            ]
            if len(samples) < 2:
                continue
            center = median(samples)
            if center <= 0:
                continue
            if direction > 0 and value < center * (1.0 - drop):
                problem = (
                    f"{benchmark}.{key}: {value:g} is "
                    f"{(1.0 - value / center) * 100:.0f}% below the median "
                    f"{center:g} of the last {len(samples)} run(s)"
                )
            elif direction < 0 and value > center * (1.0 + drop):
                problem = (
                    f"{benchmark}.{key}: {value:g} is "
                    f"{(value / center - 1.0) * 100:.0f}% above the median "
                    f"{center:g} of the last {len(samples)} run(s)"
                )
            else:
                continue
            if smoke:
                warnings.append(
                    problem + " (smoke workload; timing not meaningful)"
                )
            else:
                violations.append(problem)
    return violations, warnings, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--summary",
        default="BENCH_summary.json",
        help="consolidated summary written by perf_record.py --summary",
    )
    parser.add_argument(
        "--floors",
        default=str(DEFAULT_FLOORS),
        help="committed floor file (default: benchmarks/bench_floors.json)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on full-workload violations (smoke records still warn)",
    )
    parser.add_argument(
        "--trend",
        default=None,
        metavar="PATH",
        help="BENCH_history.jsonl to check the perf trajectory against "
        "(newest run of each benchmark/environment group vs rolling median)",
    )
    parser.add_argument(
        "--trend-window",
        type=int,
        default=DEFAULT_TREND_WINDOW,
        help="previous runs forming the rolling median (default: %(default)s)",
    )
    parser.add_argument(
        "--trend-drop",
        type=float,
        default=DEFAULT_TREND_DROP,
        help="fractional drop below the median that flags a regression "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    violations: list[str] = []
    summary_path = Path(args.summary)
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        rules = load_rules(Path(args.floors))
        floor_violations, warnings, skipped = check(summary, rules)
        violations.extend(floor_violations)
        checked = len(rules) - len(skipped)
        print(f"[compare_bench] {checked} rule(s) checked against {summary_path}")
        for line in skipped:
            print(f"  skip: {line}")
        for line in warnings:
            print(f"  WARN: {line}")
        for line in floor_violations:
            print(f"  FAIL: {line}")
        if not floor_violations and not warnings:
            print("  all checked floors hold")
    elif args.trend is None:
        print(f"error: summary {summary_path} does not exist", file=sys.stderr)
        return 2
    else:
        print(f"[compare_bench] no summary at {summary_path}; floors skipped")

    if args.trend is not None:
        trend_path = Path(args.trend)
        if not trend_path.exists():
            print(
                f"[compare_bench] no history at {trend_path}; trend skipped "
                "(first run of this environment?)"
            )
        else:
            entries = load_history(trend_path)
            trend_violations, warnings, notes = check_trend(
                entries, window=args.trend_window, drop=args.trend_drop
            )
            violations.extend(trend_violations)
            print(
                f"[compare_bench] trend checked over {len(entries)} history "
                f"entr(ies) in {trend_path}"
            )
            for line in notes:
                print(f"  skip: {line}")
            for line in warnings:
                print(f"  WARN: {line}")
            for line in trend_violations:
                print(f"  FAIL: {line}")
            if not trend_violations and not warnings:
                print("  no trajectory regressions")

    if violations and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
