"""Classifier sidecar: byte-identical scores, zero-compile warm path, fallback.

Three property suites (Hypothesis) plus deterministic service-level tests:

* ``top_k(k)`` always equals the first k entries of the full ``ranked()``
  output, for random classifiers, recipes and weights;
* a sidecar-loaded classifier scores **byte-identically** to the fresh
  compile it was saved from (both hold the same float32/bitset arrays and
  run the same arithmetic);
* corrupt or stale sidecars raise :class:`SidecarError` on load, and the
  service falls back to a rebuild (counted as a compile, never an error).
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import AnalysisConfig
from repro.errors import SidecarError
from repro.files import sidecar_paths
from repro.serve.backends import MemoryBackend
from repro.serve.classify import CuisineClassifier, rank_scores
from repro.serve import service as service_module
from repro.serve.service import ANALYSIS_KIND, AnalysisService
from repro.serve.store import ArtifactStore

CONFIG = AnalysisConfig(seed=17, scale=0.02, elbow_k_max=6)


def synthetic_classifier(
    seed: int, pattern_weight: float = 1.0, authenticity_weight: float = 1.0
) -> CuisineClassifier:
    """A random but structurally valid classifier (no pipeline involved)."""
    rng = np.random.default_rng(seed)
    n_cuisines = int(rng.integers(2, 6))
    n_items = int(rng.integers(5, 40))
    n_patterns = int(rng.integers(1, 30))
    cuisines = tuple(f"Cuisine{chr(65 + i)}" for i in range(n_cuisines))
    vocabulary = tuple(f"item{i:02d}" for i in range(n_items))
    pattern_items = rng.random((n_patterns, n_items)) < 0.2
    supports = (
        rng.random((n_patterns, n_cuisines))
        * (rng.random((n_patterns, n_cuisines)) < 0.5)
    ).astype(np.float32)
    authenticity = (
        rng.normal(size=(n_items, n_cuisines))
        * (rng.random((n_items, n_cuisines)) < 0.5)
    ).astype(np.float32)
    return CuisineClassifier(
        cuisines,
        vocabulary,
        pattern_items,
        supports,
        authenticity,
        pattern_weight=pattern_weight,
        authenticity_weight=authenticity_weight,
    )


def random_recipes(seed: int, vocabulary: tuple[str, ...], n: int) -> list[list[str]]:
    """Random ingredient lists: known items plus the odd unknown token."""
    rng = np.random.default_rng(seed + 1)
    recipes = []
    for _ in range(n):
        size = int(rng.integers(0, min(8, len(vocabulary)) + 1))
        chosen = rng.choice(len(vocabulary), size=size, replace=False)
        recipe = [vocabulary[i] for i in chosen]
        if rng.random() < 0.3:
            recipe.append(f"unknown{int(rng.integers(0, 5))}")
        recipes.append(recipe)
    return recipes


class TestTopKProperty:
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 8),
        pattern_weight=st.floats(0.0, 4.0),
        authenticity_weight=st.floats(0.1, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_top_k_is_prefix_of_full_ranking(
        self, seed, k, pattern_weight, authenticity_weight
    ):
        classifier = synthetic_classifier(
            seed, pattern_weight=pattern_weight, authenticity_weight=authenticity_weight
        )
        recipes = random_recipes(seed, classifier.vocabulary, 5)
        full = classifier.classify_batch(recipes)
        trimmed = classifier.classify_batch(recipes, top_k=k)
        for complete, top in zip(full, trimmed):
            expected = complete.ranked()[: min(k, len(classifier.cuisines))]
            # Same floats, same order: the trimmed call runs the identical
            # arithmetic, it just materialises fewer cuisines.
            assert top.ranked() == expected
            assert list(top.scores.items()) == expected
            assert top.best == complete.best
            assert complete.top_k(k) == expected
            assert top.matched_patterns == complete.matched_patterns
            assert top.unknown_items == complete.unknown_items

    def test_rank_scores_helper_is_the_single_tie_rule(self):
        scores = {"B": 1.0, "A": 1.0, "C": 2.0}
        assert rank_scores(scores) == [("C", 2.0), ("A", 1.0), ("B", 1.0)]
        assert rank_scores(scores, 2) == [("C", 2.0), ("A", 1.0)]


class TestSidecarRoundTrip:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_loaded_scores_byte_identical(self, seed, tmp_path):
        fresh = synthetic_classifier(seed)
        prefix = tmp_path / f"s{seed}" / "corpus-x.classifier"
        fresh.save(prefix, fingerprint=f"fp{seed}")
        loaded = CuisineClassifier.load(prefix, expected_fingerprint=f"fp{seed}")
        assert loaded.cuisines == fresh.cuisines
        assert loaded.vocabulary == fresh.vocabulary
        recipes = random_recipes(seed, fresh.vocabulary, 6)
        for a, b in zip(
            fresh.classify_batch(recipes), loaded.classify_batch(recipes)
        ):
            # Bit-for-bit equality, not approx: both classifiers hold the
            # same float32/bitset arrays and run the same arithmetic.
            assert a == b

    @given(
        seed=st.integers(0, 10_000),
        corruption=st.sampled_from(
            ["missing", "garbage_meta", "bad_version", "stale", "truncated"]
        ),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_corrupt_or_stale_sidecars_raise(self, seed, corruption, tmp_path):
        classifier = synthetic_classifier(seed)
        prefix = tmp_path / f"c{seed}-{corruption}" / "corpus-x.classifier"
        classifier.save(prefix, fingerprint="fp")
        paths = sidecar_paths(prefix, CuisineClassifier.SIDECAR_ROLES)
        expected = "fp"
        if corruption == "missing":
            paths["meta"].unlink()
        elif corruption == "garbage_meta":
            paths["meta"].write_text("{not json", encoding="utf-8")
        elif corruption == "bad_version":
            meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
            meta["version"] = 999
            paths["meta"].write_text(json.dumps(meta), encoding="utf-8")
        elif corruption == "stale":
            expected = "a-different-corpus"
        elif corruption == "truncated":
            paths["patterns"].write_bytes(
                paths["patterns"].read_bytes()[:16]
            )
        with pytest.raises(SidecarError):
            CuisineClassifier.load(prefix, expected_fingerprint=expected)

    def test_set_pad_bits_detected(self, tmp_path):
        # 10 items -> 2 bit-words per pattern, 6 pad bits in the last byte.
        rng = np.random.default_rng(3)
        classifier = CuisineClassifier(
            ("A", "B"),
            tuple(f"i{k}" for k in range(10)),
            rng.random((4, 10)) < 0.5,
            rng.random((4, 2)).astype(np.float32),
            rng.random((10, 2)).astype(np.float32),
        )
        prefix = tmp_path / "corpus-x.classifier"
        classifier.save(prefix, fingerprint="fp")
        paths = sidecar_paths(prefix, CuisineClassifier.SIDECAR_ROLES)
        bits = np.load(paths["patterns"]).copy()
        bits[0, -1] |= 0x01  # a bit beyond the vocabulary
        np.save(paths["patterns"], bits)
        with pytest.raises(SidecarError, match="pad bits"):
            CuisineClassifier.load(prefix, expected_fingerprint="fp")

    def test_shape_mismatch_detected(self, tmp_path):
        classifier = synthetic_classifier(5)
        prefix = tmp_path / "corpus-x.classifier"
        classifier.save(prefix, fingerprint="fp")
        paths = sidecar_paths(prefix, CuisineClassifier.SIDECAR_ROLES)
        np.save(paths["supports"], np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(SidecarError, match="inconsistent"):
            CuisineClassifier.load(prefix, expected_fingerprint="fp")


@pytest.fixture()
def hashed(monkeypatch) -> list:
    """Every corpus file the service SHA-256s, in call order."""
    calls = []
    original = service_module.corpus_fingerprint

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(service_module, "corpus_fingerprint", counting)
    return calls


class TestServiceWarmPath:
    def test_warm_classifier_builds_zero_matrices(self, tmp_path, monkeypatch):
        cold = AnalysisService(tmp_path / "cache")
        served = cold.get_or_run(CONFIG)
        first = cold.classifier_for(CONFIG, results=served.results)
        assert cold.store.stats.classifier_compiles == 1
        assert cold.store.stats.classifier_sidecar_loads == 0

        warm = AnalysisService(tmp_path / "cache")
        # The warm path must never touch the dense compiler at all.
        monkeypatch.setattr(
            CuisineClassifier,
            "from_results",
            classmethod(
                lambda *a, **k: pytest.fail("warm path compiled dense matrices")
            ),
        )
        second = warm.classifier_for(CONFIG)
        assert warm.store.stats.classifier_compiles == 0
        assert warm.store.stats.classifier_sidecar_loads == 1
        recipes = [list(first.vocabulary[:5]), ["nope"], []]
        for a, b in zip(
            first.classify_batch(recipes), second.classify_batch(recipes)
        ):
            assert a == b  # byte-identical scores, sidecar vs fresh compile

    def test_cold_call_without_results_serves_then_persists(self, tmp_path):
        # With no persisted analysis, classifier_for must serve it first: a
        # cold compute takes the per-corpus lock, and it writes the corpus
        # file the sidecar is fingerprinted against.
        cold = AnalysisService(tmp_path / "cache")
        done = threading.Event()

        def classify_cold() -> None:
            cold.classifier_for(CONFIG)
            done.set()

        threading.Thread(target=classify_cold, daemon=True).start()
        assert done.wait(timeout=60), "classifier_for did not return"
        assert cold.store.stats.classifier_compiles == 1

        warm = AnalysisService(tmp_path / "cache")
        warm.classifier_for(CONFIG)
        assert warm.store.stats.classifier_compiles == 0
        assert warm.store.stats.classifier_sidecar_loads == 1

    def test_restarted_service_loads_the_sidecar_before_the_analysis(self, tmp_path):
        # The sidecar needs no results: a restart over a warm cache must
        # not decode the analysis artifact to answer classifier_for.
        cold = AnalysisService(tmp_path / "cache")
        cold.classifier_for(CONFIG, results=cold.get_or_run(CONFIG).results)
        restarted = AnalysisService(tmp_path / "cache")
        reads = []
        read = restarted.store.get
        restarted.store.get = lambda kind, key: reads.append(kind) or read(kind, key)
        assert restarted.classifier_for(CONFIG).cuisines
        assert ANALYSIS_KIND not in reads
        assert restarted.store.stats.classifier_sidecar_loads == 1
        assert restarted.store.stats.classifier_compiles == 0

    def test_memory_cache_returns_same_object(self, tmp_path):
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        first = service.classifier_for(CONFIG, results=served.results)
        assert service.classifier_for(CONFIG) is first
        assert service.store.stats.classifier_sidecar_loads == 0

    def test_memory_hit_hashes_no_corpus_file(self, tmp_path, hashed):
        # The corpus stage already holds the corpus fingerprint; a warm hit
        # must not SHA-256 the whole corpus file again.
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        first = service.classifier_for(CONFIG, results=served.results)
        hashed.clear()
        assert service.classifier_for(CONFIG) is first
        assert service.classifier_for(CONFIG, pattern_weight=1.0) is first
        assert hashed == []

    def test_restarted_service_hashes_the_corpus_file_once(self, tmp_path, hashed):
        # A restart answers /classify from the sidecar without running the
        # corpus stage, so no corpus fingerprint is held in memory: the
        # file is hashed once and then recognised by its stat stamp.
        cold = AnalysisService(tmp_path / "cache")
        cold.classifier_for(CONFIG, results=cold.get_or_run(CONFIG).results)
        hashed.clear()
        restarted = AnalysisService(tmp_path / "cache")
        first = restarted.classifier_for(CONFIG)
        assert restarted.classifier_for(CONFIG) is first
        assert restarted.classifier_for(CONFIG) is first
        assert hashed == [restarted.corpus_path(CONFIG)]
        assert restarted.store.stats.classifier_sidecar_loads == 1

    def test_concurrent_fingerprints_agree(self, tmp_path, hashed):
        # Executor threads share the memo: every caller must get the file's
        # hash, and each thread hashes at most once.
        AnalysisService(tmp_path / "cache").get_or_run(CONFIG)
        restarted = AnalysisService(tmp_path / "cache")
        expected = service_module.corpus_fingerprint(restarted.corpus_path(CONFIG))
        hashed.clear()
        answers = []

        def worker():
            for _ in range(20):
                answers.append(restarted._corpus_file_fingerprint(CONFIG))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 160
        assert 1 <= len(hashed) <= 8

    def test_replaced_corpus_file_is_hashed_again(self, tmp_path, hashed):
        cold = AnalysisService(tmp_path / "cache")
        cold.classifier_for(CONFIG, results=cold.get_or_run(CONFIG).results)
        restarted = AnalysisService(tmp_path / "cache")
        restarted.classifier_for(CONFIG)
        hashed.clear()
        path = restarted.corpus_path(CONFIG)
        replacement = path.with_name(path.name + ".new")
        replacement.write_bytes(path.read_bytes() + b" ")
        os.replace(replacement, path)
        restarted.classifier_for(CONFIG)
        assert hashed == [path]
        # The new bytes stale the sidecar, so the classifier is rebuilt.
        assert restarted.store.stats.classifier_compiles == 1

    def test_weight_variants_share_one_sidecar(self, tmp_path):
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        service.classifier_for(CONFIG, results=served.results)
        reweighted = service.classifier_for(CONFIG, pattern_weight=2.0)
        # Weights are scoring-time scalars, not sidecar contents: the second
        # variant memory-maps the same files instead of recompiling.
        assert reweighted.pattern_weight == 2.0
        assert service.store.stats.classifier_compiles == 1
        assert service.store.stats.classifier_sidecar_loads == 1

    def test_corrupt_sidecar_falls_back_to_rebuild(self, tmp_path):
        cold = AnalysisService(tmp_path / "cache")
        cold.get_or_run(CONFIG)
        cold.classifier_for(CONFIG)
        paths = sidecar_paths(
            cold.classifier_path(CONFIG), CuisineClassifier.SIDECAR_ROLES
        )
        paths["patterns"].write_bytes(b"garbage")

        warm = AnalysisService(tmp_path / "cache")
        classifier = warm.classifier_for(CONFIG)
        assert classifier.cuisines  # served despite the corrupt sidecar
        assert warm.store.stats.classifier_compiles == 1
        assert warm.store.stats.classifier_sidecar_loads == 0
        # The rebuild re-persisted the sidecar: a third service loads it.
        third = AnalysisService(tmp_path / "cache")
        third.classifier_for(CONFIG)
        assert third.store.stats.classifier_sidecar_loads == 1

    def test_stale_sidecar_falls_back_to_rebuild(self, tmp_path):
        cold = AnalysisService(tmp_path / "cache")
        cold.get_or_run(CONFIG)
        cold.classifier_for(CONFIG)
        paths = sidecar_paths(
            cold.classifier_path(CONFIG), CuisineClassifier.SIDECAR_ROLES
        )
        meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
        meta["fingerprint"] = "some-older-corpus"
        paths["meta"].write_text(json.dumps(meta), encoding="utf-8")

        warm = AnalysisService(tmp_path / "cache")
        warm.classifier_for(CONFIG)
        assert warm.store.stats.classifier_compiles == 1
        assert warm.store.stats.classifier_sidecar_loads == 0

    def test_rootless_backend_compiles_in_memory(self, full_results):
        # A rootless backend has nowhere for corpora or sidecars; classify
        # must still serve, compiling in memory from the supplied results.
        service = AnalysisService(ArtifactStore(backend=MemoryBackend()))
        classifier = service.classifier_for(CONFIG, results=full_results)
        assert classifier.cuisines
        assert service.store.stats.classifier_compiles == 1
        # Cached in memory even without a sidecar home.
        assert service.classifier_for(CONFIG) is classifier

    def test_describe_surfaces_classifier_counters(self, tmp_path):
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        service.classifier_for(CONFIG, results=served.results)
        payload = service.describe()
        assert payload["classifier"] == {
            "cached": 1,
            "compiles": 1,
            "sidecar_loads": 0,
        }
        assert payload["counters"]["classifier_compiles"] == 1
