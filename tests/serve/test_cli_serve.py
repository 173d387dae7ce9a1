"""CLI tests for the serve-warm / query / classify subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

ARGS = ["--seed", "5", "--scale", "0.02"]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A warmed serve cache shared by the read-path CLI tests."""
    cache = tmp_path_factory.mktemp("serve") / "cache"
    assert main([*ARGS, "serve-warm", "--cache-dir", str(cache)]) == 0
    return cache


class TestServeStats:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        cache = tmp_path / "empty-cache"
        assert main([*ARGS, "serve-stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Persisted artifacts" in out
        assert "Store traffic" in out
        assert "evictions" in out

    def test_stats_json_reports_artifacts(self, cache_dir, capsys):
        assert main(
            [*ARGS, "serve-stats", "--cache-dir", str(cache_dir), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_dir"] == str(cache_dir)
        assert payload["artifacts"]["analyses"] >= 1
        assert payload["artifacts"]["mining_runs"] >= 1
        assert payload["artifacts"]["corpora"] >= 1
        assert set(payload["counters"]) >= {
            "memory_hits",
            "disk_hits",
            "misses",
            "writes",
            "deletes",
            "corrupt_recovered",
            "evictions",
            "disk_evictions",
            "bytes_written",
        }
        assert payload["backend"].startswith("directory")
        assert payload["store_bytes"] > 0
        assert payload["max_memory_entries"] == 32
        assert "eviction" not in payload  # disk_eviction is the only policy

    def test_stats_surface_deletes_in_table(self, cache_dir, capsys):
        assert main([*ARGS, "serve-stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "deletes" in out
        assert "bytes_written" in out


class TestServeWarm:
    def test_first_warm_computes_then_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([*ARGS, "serve-warm", "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "cache miss" in first
        assert "served from computed" in first
        assert main([*ARGS, "serve-warm", "--cache-dir", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "cached analyses" in second

    def test_corpus_flag_rejected(self, tmp_path, capsys):
        code = main(
            [*ARGS, "--corpus", "whatever.json", "serve-warm",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 1
        assert "serve-warm cannot warm the cache from --corpus" in capsys.readouterr().err


class TestStoreBackendFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-warm", "--store-backend", "sqlite"],
            ["serve-warm", "--store-shards", "0"],
            ["store-migrate", "--to-backend", "directory"],
        ],
        ids=["store-backend", "store-shards", "store-migrate"],
    )
    def test_backend_choice_options_are_gone(self, argv, tmp_path, capsys):
        # The sharded cache directory is the one durable store: nothing
        # selects, reshapes or converts it.
        with pytest.raises(SystemExit) as exited:
            main([*ARGS, *argv, "--cache-dir", str(tmp_path / "cache")])
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "command", ["serve-warm", "serve", "serve-stats", "query", "classify"]
    )
    @pytest.mark.parametrize(
        "option",
        [["--resilient"], ["--store-retries", "3"], ["--inject-faults", "read:1:oserror"]],
        ids=["resilient", "store-retries", "inject-faults"],
    )
    def test_fault_options_are_gone(self, command, option, tmp_path, capsys):
        # The store owns backend faults: nothing wraps, tunes or faults it.
        # Parse only: with the option accepted, `serve` would run forever.
        argv = [*ARGS, command, "--cache-dir", str(tmp_path / "cache")]
        build_parser().parse_args(argv)  # the command parses without the option
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*argv, *option])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "usage:" in error and option[0] in error

    def test_eviction_spec_is_honoured_and_reported(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            [*ARGS, "serve-stats", "--cache-dir", str(cache),
             "--disk-eviction", "maxbytes:1048576+ttl:600", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disk_eviction"] == "maxbytes:1048576+ttl:600"

    def test_eviction_none_disables_eviction(self, tmp_path, capsys):
        assert main(
            [*ARGS, "serve-stats", "--cache-dir", str(tmp_path / "cache"),
             "--disk-eviction", "none", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disk_eviction"] == "none"

    def test_bad_eviction_spec_is_clean_error(self, tmp_path, capsys):
        code = main(
            [*ARGS, "serve-stats", "--cache-dir", str(tmp_path / "cache"),
             "--disk-eviction", "fifo:3"]
        )
        assert code == 1
        assert "unknown eviction policy" in capsys.readouterr().err

    def test_memory_eviction_flag_is_gone(self, tmp_path, capsys):
        # Served analyses have one memory bound, the service's
        # max_memory_entries; no policy spec selects a second one.
        with pytest.raises(SystemExit) as exited:
            main(
                [*ARGS, "serve", "--cache-dir", str(tmp_path / "cache"),
                 "--port", "0", "--max-requests", "0", "--eviction", "lru:4"]
            )
        assert exited.value.code == 2
        assert "unrecognized arguments: --eviction" in capsys.readouterr().err


class TestExplicitCorpus:
    @pytest.fixture(scope="class")
    def corpus_file(self, tmp_path_factory):
        from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
        from repro.datagen.profiles import default_profiles
        from repro.recipedb.io_json import save_json

        profiles = {
            name: profile
            for name, profile in default_profiles().items()
            if name in ("Japanese", "Greek", "UK")
        }
        db = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=3, scale=0.03), profiles=profiles
        ).generate()
        path = tmp_path_factory.mktemp("serve-corpus") / "corpus.json"
        save_json(db, path)
        return path

    def test_query_uses_supplied_corpus_and_bypasses_cache(
        self, corpus_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        code = main(
            [*ARGS, "--corpus", str(corpus_file), "query",
             "--cache-dir", str(cache), "--nearest", "Japanese"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Only the 3-cuisine corpus is in play, and nothing was cached.
        assert "Greek" in out and "UK" in out
        assert "Mexican" not in out
        assert not list(cache.glob("analysis-*.json")) if cache.exists() else True

    def test_classify_uses_supplied_corpus(self, corpus_file, tmp_path, capsys):
        code = main(
            [*ARGS, "--corpus", str(corpus_file), "classify",
             "--cache-dir", str(tmp_path / "cache"), "soy sauce, mirin"]
        )
        assert code == 0
        assert "->" in capsys.readouterr().out


class TestQuery:
    def test_nearest(self, cache_dir, capsys):
        code = main(
            [*ARGS, "query", "--cache-dir", str(cache_dir), "--nearest", "Japanese", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Nearest to Japanese" in out

    def test_patterns(self, cache_dir, capsys):
        code = main(
            [*ARGS, "query", "--cache-dir", str(cache_dir), "--patterns", "soy sauce"]
        )
        assert code == 0
        assert "soy sauce" in capsys.readouterr().out

    def test_cuisine_card_is_json(self, cache_dir, capsys):
        code = main([*ARGS, "query", "--cache-dir", str(cache_dir), "--cuisine", "Japanese"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cuisine"] == "Japanese"
        assert payload["top_patterns"]

    def test_no_query_flags_errors(self, cache_dir, capsys):
        code = main([*ARGS, "query", "--cache-dir", str(cache_dir)])
        assert code == 1
        assert "nothing to query" in capsys.readouterr().err

    def test_unknown_cuisine_is_clean_error(self, cache_dir, capsys):
        code = main(
            [*ARGS, "query", "--cache-dir", str(cache_dir), "--nearest", "Atlantis"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestClassify:
    def test_positional_recipes(self, cache_dir, capsys):
        code = main(
            [
                *ARGS,
                "classify",
                "--cache-dir", str(cache_dir),
                "soy sauce, mirin, white rice",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "soy sauce" in out

    def test_input_file_batch(self, cache_dir, tmp_path, capsys):
        recipes = tmp_path / "recipes.json"
        recipes.write_text(
            json.dumps([["soy sauce", "mirin"], "butter, flour, sugar"]),
            encoding="utf-8",
        )
        code = main(
            [*ARGS, "classify", "--cache-dir", str(cache_dir), "--input", str(recipes)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("->") == 2

    def test_no_recipes_is_clean_error(self, cache_dir, capsys):
        code = main([*ARGS, "classify", "--cache-dir", str(cache_dir)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_input_file_is_clean_error(self, cache_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(
            [*ARGS, "classify", "--cache-dir", str(cache_dir), "--input", str(bad)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_arguments_fail_before_any_compute(self, tmp_path, capsys):
        # A fresh cache dir: argument errors must not trigger the pipeline
        # (which would also populate the cache as a side effect).
        cache = tmp_path / "fresh-cache"
        code = main([*ARGS, "classify", "--cache-dir", str(cache)])
        assert code == 1
        assert not cache.exists()


class TestServe:
    """The async `serve` subcommand (front-end wiring; semantics in test_aio*)."""

    def test_serve_starts_binds_and_exits_at_request_limit_zero(self, cache_dir, capsys):
        code = main(
            [*ARGS, "serve", "--cache-dir", str(cache_dir), "--port", "0",
             "--max-requests", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in out

    def test_serve_warm_flag_precomputes_before_accepting(self, cache_dir, capsys):
        code = main(
            [*ARGS, "serve", "--cache-dir", str(cache_dir), "--port", "0",
             "--max-requests", "0", "--warm", "--refresh", "ttl:600"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed analysis" in out
        assert "serving on http://" in out

    def test_serve_rejects_external_corpus(self, cache_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text("{}", encoding="utf-8")
        code = main(
            [*ARGS, "--corpus", str(corpus), "serve", "--cache-dir", str(cache_dir),
             "--port", "0", "--max-requests", "0"]
        )
        assert code == 1
        assert "corpus" in capsys.readouterr().err

    def test_serve_rejects_bad_refresh_spec(self, cache_dir, capsys):
        code = main(
            [*ARGS, "serve", "--cache-dir", str(cache_dir), "--port", "0",
             "--max-requests", "0", "--refresh", "bogus"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServeStatsPolicySpecs:
    """serve-stats must surface the active policy spec and memory bound (not only counters)."""

    def test_text_output_reports_active_policy_specs(self, cache_dir, capsys):
        code = main(
            [*ARGS, "serve-stats", "--cache-dir", str(cache_dir),
             "--disk-eviction", "maxbytes:9999999"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Store configuration" in out
        assert "maxbytes:9999999" in out
        assert "max_memory_entries" in out

    def test_json_output_reports_async_counters(self, cache_dir, capsys):
        code = main(
            [*ARGS, "serve-stats", "--cache-dir", str(cache_dir), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_memory_entries"] == 32
        assert payload["disk_eviction"] == "none"
        assert "coalesced_hits" in payload["counters"]
        assert "background_refreshes" in payload["counters"]
