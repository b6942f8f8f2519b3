"""Tests for the experiment registry, the reproduced figures, and the CLI."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.model import SystemModel
from repro.core.optimizer import best_uniform_for_mean, optimize_distribution
from repro.experiments import (
    EXPERIMENTS,
    ExperimentData,
    figure3a,
    figure3b,
    figure6,
    list_experiments,
    run_experiment,
    theorem1,
)
from repro.experiments import fig6
from repro.experiments.base import PAPER_N_COMPROMISED, PAPER_N_NODES
from repro.experiments.extensions import (
    adversary_ablation,
    protocol_comparison,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Experiment ids as the docs write them (fig3a, thm2, ext-sim, ...).
EXPERIMENT_ID = re.compile(r"\b(?:fig\d+[a-z]?|thm\d+|ext-[a-z]+)\b")


class TestRegistry:
    def test_every_figure_of_the_paper_is_registered(self):
        identifiers = set(list_experiments())
        assert {
            "fig3a",
            "fig3b",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig4d",
            "fig5a",
            "fig5b",
            "fig5c",
            "fig5d",
            "fig6",
        }.issubset(identifiers)

    def test_theorems_and_extensions_registered(self):
        identifiers = set(list_experiments())
        assert {"thm1", "thm2", "thm3", "ext-c", "ext-adv", "ext-proto", "ext-sim"}.issubset(
            identifiers
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_registry_callables_return_experiment_data(self):
        data = run_experiment("fig3b")
        assert isinstance(data, ExperimentData)
        assert data.experiment_id == "fig3b"

    def test_docs_cite_only_registered_experiments(self):
        known = set(list_experiments())
        cited = {}
        for path in [REPO_ROOT / "README.md", *sorted(REPO_ROOT.glob("docs/*.md"))]:
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                for match in EXPERIMENT_ID.finditer(line):
                    cited[match.group()] = f"{path.name}:{number}"
        assert "fig3a" in cited
        assert {
            experiment_id: where
            for experiment_id, where in cited.items()
            if experiment_id not in known
        } == {}


class TestFigure3:
    def test_fig3a_reduced_size_checks_pass(self):
        data = figure3a(n_nodes=40)
        assert data.all_checks_pass
        assert len(data.sweep.x_values) == 39

    def test_fig3a_paper_size_key_points(self):
        data = figure3a()
        assert data.all_checks_pass
        assert data.key_points["N"] == 100
        # The paper's band: the whole curve lives between 6.4 and 6.6 bits.
        assert 6.4 < data.key_points["H* at optimal length"] < 6.6
        assert data.key_points["H* at length 1"] < data.key_points["H* at optimal length"]

    def test_fig3b_short_path_effect(self):
        data = figure3b()
        assert data.all_checks_pass
        assert data.key_points["H* at l=0"] == 0.0

    def test_renders_to_text(self):
        text = figure3b().render()
        assert "Figure 3(b)" in text and "PASS" in text


class TestFigure6AndTheorems:
    def test_fig6_small_system_optimization_dominates(self):
        data = figure6(n_nodes=30, means=[3, 6, 9])
        assert data.all_checks_pass

    def test_fig6_full_simplex_at_paper_scale(self, monkeypatch):
        # figure6 keeps the better of the scan and the full-simplex solver,
        # so the solver's own answers are recorded on the way through.
        outcomes = {}

        def recorded(model, **kwargs):
            outcomes[kwargs["mean"]] = outcome = optimize_distribution(model, **kwargs)
            return outcome

        monkeypatch.setattr(fig6, "optimize_distribution", recorded)
        data = figure6(full_simplex=True)
        assert len(data.checks) == 3 and data.all_checks_pass, data.checks
        assert sorted(outcomes) == list(range(2, 50, 3))
        model = SystemModel(n_nodes=PAPER_N_NODES, n_compromised=PAPER_N_COMPROMISED)
        for mean, outcome in outcomes.items():
            scan = best_uniform_for_mean(model, int(mean))
            assert outcome.degree_bits >= scan.best_degree - 1e-9, mean

    def test_theorem1_small_system(self):
        data = theorem1(n_nodes=50)
        assert data.all_checks_pass
        assert data.key_points["max |closed - enumeration| (N=8)"] < 1e-9


class TestExtensions:
    def test_adversary_ablation_checks(self):
        data = adversary_ablation(n_nodes=50, lengths=(1, 5, 20, 49))
        assert data.all_checks_pass

    def test_protocol_comparison_checks(self):
        data = protocol_comparison(n_nodes=60)
        assert data.all_checks_pass
        assert "ranking (best to worst)" in data.key_points


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig3b"])
        assert args.command == "figure"
        assert args.experiment_id == "fig3b"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig3a" in output and "fig6" in output

    def test_figure_command(self, capsys):
        assert main(["figure", "fig3b"]) == 0
        assert "short-path effect" in capsys.readouterr().out

    def test_degree_command(self, capsys):
        assert main(["degree", "--n", "50", "--strategy", "uniform", "--low", "2", "--high", "8"]) == 0
        output = capsys.readouterr().out
        assert "anonymity degree" in output

    def test_degree_command_geometric(self, capsys):
        assert main(["degree", "--n", "30", "--strategy", "geometric", "--p-forward", "0.6"]) == 0
        assert "anonymity degree" in capsys.readouterr().out

    def test_degree_refuses_cycle_strategies_like_the_exact_backend(self, capsys):
        # It used to print the simple-path closed form, labelled paths=simple.
        for strategy in ("crowds-cycles", "onion-routing-2-cycles", "hordes"):
            errors = []
            for command in (["degree"], ["batch", "--backend", "exact"]):
                code = main([*command, "--n", "100", "--strategy", strategy])
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                errors.append(captured.err)
            degree_error, batch_error = errors
            assert degree_error == batch_error
            assert degree_error.startswith("error:")
            assert degree_error.count("\n") == 1

    def test_degree_refusal_names_a_command_that_runs(self, capsys):
        """``degree`` has no ``--backend``, so the hint names the whole command."""
        assert main(["degree", "--n", "100", "--strategy", "crowds-cycles"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        hint = captured.err.split("; use ", 1)[1]
        assert hint.startswith("repro-anon batch --backend batch ")
        command = hint.split()[1:4]
        assert command == ["batch", "--backend", "batch"]
        assert main([*command, "--n", "100", "--strategy", "crowds-cycles",
                     "--trials", "2000", "--seed", "1"]) == 0
        assert "backend=batch" in capsys.readouterr().out

    def test_degree_truncates_crowds_like_batch(self, capsys):
        # Below N = 99 it used to fail with "Truncate the distribution first";
        # batch --backend exact reads 5.4241 at N = 50 and 2.6369 at N = 10.
        for n, degree in (("50", "5.42405"), ("10", "2.63693")):
            assert main(["degree", "--n", n, "--strategy", "crowds"]) == 0
            assert f"H*(S) = {degree} bits" in capsys.readouterr().out

    def test_optimize_command_with_mean(self, capsys):
        assert main(["optimize", "--n", "40", "--mean", "6"]) == 0
        assert "best uniform" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "--n", "40"]) == 0
        assert "Crowds" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "protocol",
        ["anonymizer", "crowds", "freedom", "hordes", "onion-routing-1", "pipenet", "remailer"],
    )
    def test_simulate_command(self, capsys, protocol):
        assert (
            main(
                [
                    "simulate",
                    "--n",
                    "15",
                    "--protocol",
                    protocol,
                    "--trials",
                    "60",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "estimated H*" in output

    def test_batch_command(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--n",
                    "20",
                    "--strategy",
                    "uniform",
                    "--low",
                    "2",
                    "--high",
                    "8",
                    "--trials",
                    "20000",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "estimated H*" in output
        assert "trials/sec" in output
        assert "backend" in output

    def test_batch_command_geometric_truncates(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--n",
                    "15",
                    "--strategy",
                    "geometric",
                    "--p-forward",
                    "0.9",
                    "--trials",
                    "5000",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        assert "closed-form H*" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["exact", "event", "batch"])
    def test_batch_command_every_backend(self, backend, capsys):
        assert (
            main(
                [
                    "batch",
                    "--n",
                    "12",
                    "--strategy",
                    "fixed",
                    "--length",
                    "3",
                    "--trials",
                    "300",
                    "--seed",
                    "2",
                    "--backend",
                    backend,
                ]
            )
            == 0
        )
        assert f"backend={backend}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--compromised", "2"],
            ["--strategy", "crowds-cycles"],
            ["--topology", "ring"],
        ],
        ids=["multi-compromised", "cycles", "topology"],
    )
    def test_exact_backend_off_domain_is_one_line_from_estimate_and_batch(
        self, flags, capsys
    ):
        errors = []
        for command in (["estimate", "--precision", "0.05"], ["batch"]):
            code = main([*command, "--n", "15", "--backend", "exact", *flags])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            errors.append(captured.err)
        estimate_error, batch_error = errors
        assert estimate_error == batch_error
        assert estimate_error.startswith("error:")
        assert estimate_error.count("\n") == 1
        assert "--backend batch" in estimate_error

    def test_unknown_experiment_via_cli(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "nope"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'nope'" in captured.err
        assert "Traceback" not in captured.err


class TestExperimentDataContract:
    @pytest.mark.parametrize("experiment_id", list_experiments())
    def test_checks_pass(self, experiment_id):
        data = EXPERIMENTS[experiment_id]()
        assert data.experiment_id == experiment_id
        assert data.all_checks_pass, data.checks

    @pytest.mark.parametrize("experiment_id", ["fig3b", "fig4a", "fig5a", "thm1"])
    def test_sweeps_have_aligned_series(self, experiment_id):
        data = EXPERIMENTS[experiment_id]()
        for series in data.sweep.series:
            assert len(series.values) == len(data.sweep.x_values)

    @pytest.mark.parametrize("experiment_id", ["fig3b", "fig4d", "fig5d"])
    def test_values_respect_entropy_bounds(self, experiment_id):
        data = EXPERIMENTS[experiment_id]()
        bound = math.log2(100) + 1e-9
        for series in data.sweep.series:
            for value in series.values:
                if not math.isnan(value):
                    assert -1e-9 <= value <= bound
