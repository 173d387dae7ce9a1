"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from repro.datagen.profiles import default_profiles
from repro.recipedb.io_json import save_json


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """A small on-disk corpus shared by the CLI tests (3 paper cuisines)."""
    profiles = {
        name: profile
        for name, profile in default_profiles().items()
        if name in ("Japanese", "Greek", "UK")
    }
    db = SyntheticRecipeDBGenerator(GeneratorConfig(seed=3, scale=0.03), profiles=profiles).generate()
    path = tmp_path_factory.mktemp("cli") / "corpus.json"
    save_json(db, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--seed", "7", "--scale", "0.1", "--min-support", "0.3", "mine"]
        )
        assert args.seed == 7
        assert args.scale == 0.1
        assert args.min_support == 0.3
        assert args.command == "mine"


class TestGenerate:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        output = tmp_path / "corpus.jsonl"
        exit_code = main(["--scale", "0.01", "generate", str(output)])
        assert exit_code == 0
        assert output.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_unsupported_format(self, tmp_path, capsys):
        exit_code = main(["--scale", "0.01", "generate", str(tmp_path / "corpus.xml")])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestMine:
    def test_mine_prints_table1(self, corpus_file, capsys):
        exit_code = main(["--corpus", str(corpus_file), "mine"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table I (reproduced)" in out
        assert "Japanese" in out

    def test_mine_with_paper_comparison(self, corpus_file, capsys):
        exit_code = main(["--corpus", str(corpus_file), "mine", "--compare-paper"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Paper vs measured" in out
        assert "soy sauce" in out


class TestAnalyze:
    def test_analyze_outputs_summary_and_report(self, corpus_file, tmp_path, capsys):
        report = tmp_path / "report.md"
        summary = tmp_path / "summary.json"
        exit_code = main(
            [
                "--corpus", str(corpus_file),
                "analyze", "--json", "--report", str(report), "--summary-json", str(summary),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["n_regions"] == 3
        assert report.exists()
        assert "Table I" in report.read_text()
        assert json.loads(summary.read_text())["n_regions"] == 3

    def test_analyze_default_output_is_human_readable(self, corpus_file, capsys):
        exit_code = main(["--corpus", str(corpus_file), "analyze"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "analyzed" in out
        assert "cuisines" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestFigures:
    def test_figure1_prints_series(self, corpus_file, capsys):
        exit_code = main(["--corpus", str(corpus_file), "figures", "--figure", "figure1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "WCSS" in out or "wcss" in out

    def test_figure2_prints_dendrogram(self, corpus_file, capsys):
        exit_code = main(["--corpus", str(corpus_file), "figures", "--figure", "figure2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "metric=euclidean" in out
        assert "Japanese" in out
