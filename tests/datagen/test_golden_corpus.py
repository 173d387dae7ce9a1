"""Golden digests pinning the synthetic corpus bytes and one full analysis.

The digests were recorded before the corpus stage was optimised (raw-first
vocabulary probes, lazily built inverted indexes, per-profile signature
tables, one-shot JSON encoding).  Those fast paths promise the same RNG
stream, the same corpus JSON bytes and the same ``AnalysisResults``; any
drift in the generator's random draws, the ``save_json`` byte layout or the
analysis output fails here loudly.  A deliberate change must re-record the
digests and say why.

The analysis digest is checked through every producer of mining results:
the pipeline, a cold service that builds and saves the corpus CSR, a second
service that re-mines from the memory-mapped CSR sidecar, and a restart on
the persisted corpus JSON whose sidecar is gone, so the CSR is rebuilt from
the id form ``load_json`` builds from validated ``Recipe`` objects rather
than from the generator's.  A fifth producer reads the cold
service's artifact back from disk, through the store's packed float arrays.

``RESULTS_DIGEST`` was re-recorded when the production miner switched from
FP-Growth to Eclat.  ``STRIPPED_RESULTS_DIGEST`` was recorded before that
switch, over the same codec text with every region's ``algorithm`` label
removed (the view ``perfbench/oracle.py::analysis_digest`` checks), so it
pins that the switch changed nothing but the label.

``SIDECAR_DIGESTS`` pins the golden config's two sidecars, the CSR and the
compiled classifier: the meta file's text and each array's dtype, shape and
bytes (not the raw ``.npy`` files, whose header numpy owns).  A cache warmed
by an earlier build stays warm only while these hold.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import generate_corpus
from repro.files import sidecar_paths
from repro.mining.shm import CorpusMatrix
from repro.recipedb.io_json import save_json
from repro.recipedb.models import Recipe
from repro.serve import codec
from repro.serve.service import AnalysisService

#: SHA-256 of ``save_json(generate_corpus(seed, scale))``.
CORPUS_DIGESTS = {
    (2020, 0.02): "dd0e51a80ebdeaee81e4dfd8c20b6a001371047bd835938aea217adc8aa39a30",
    (7, 0.05): "a6ab0e786de128dbf32e70b0ac970e5f6445df19f6b59a6049da224d38d082e9",
    (11, 0.01): "855c149eba2a6dde5a719b12d36ffb7a7af397a7aa080db8c0b40ae5f6d57d35",
}

#: SHA-256 of the canonical codec text of the default analysis at scale 0.02.
RESULTS_DIGEST = "cfd3cb752fac8354543ea67d1951a44b3779b94135e8610aa96d387b57b3b05e"

#: The same, with every ``mining_results[*]["algorithm"]`` popped first.
STRIPPED_RESULTS_DIGEST = "45b7aa2cc0f06e26938f9e9e9284315367c8c6971e9aaf70c9c387b9e0a9ac29"

#: Per sidecar of the golden config: its array roles, in digest order, and
#: the SHA-256 of its meta text plus each array's dtype, shape and bytes.
SIDECAR_DIGESTS = {
    "matrix": (
        ("tids", "offsets"),
        "ad150d481e3e2aa0bc27b8f149f314525bf9d9fac1d0df331b64181ae3f8fd67",
    ),
    "classifier": (
        ("patterns", "supports", "authenticity"),
        "d9232ef6cf60308c0ea743ec7b088070bdddf4f8841cff0a2edf3d463fc59f67",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("seed", "scale"), sorted(CORPUS_DIGESTS))
def test_corpus_bytes_match_golden_digest(seed, scale, tmp_path):
    path = save_json(generate_corpus(seed, scale), tmp_path / "corpus.json")
    assert _sha256(path.read_bytes()) == CORPUS_DIGESTS[(seed, scale)]


@pytest.mark.parametrize(("seed", "scale"), sorted(CORPUS_DIGESTS))
def test_corpus_bytes_match_after_another_seed_at_the_scale(seed, scale, tmp_path):
    # The generator's pools are shared by every seed at a scale; drawing
    # another corpus first must leave them as they were.
    generate_corpus(seed + 1, scale)
    path = save_json(generate_corpus(seed, scale), tmp_path / "corpus.json")
    assert _sha256(path.read_bytes()) == CORPUS_DIGESTS[(seed, scale)]


def test_cold_service_builds_no_recipe_and_writes_golden_bytes(tmp_path, monkeypatch):
    """A cold compute runs on the id form end to end: no ``Recipe`` is made."""
    made = []
    validate = Recipe.__post_init__
    view = Recipe.from_normalised.__func__

    def counting_validate(recipe):
        made.append(recipe.recipe_id)
        validate(recipe)

    def counting_view(cls, *fields):
        made.append(fields[0])
        return view(cls, *fields)

    monkeypatch.setattr(Recipe, "__post_init__", counting_validate)
    monkeypatch.setattr(Recipe, "from_normalised", classmethod(counting_view))
    service = AnalysisService(tmp_path / "cache")
    config = AnalysisConfig(seed=7, scale=0.05)
    assert service.get_or_run(config).source == "computed"
    assert made == []
    digest = _sha256(service.corpus_path(config).read_bytes())
    assert digest == CORPUS_DIGESTS[(7, 0.05)]


GOLDEN_CONFIG = AnalysisConfig(scale=0.02)


def _from_pipeline(tmp_path, monkeypatch):
    return CuisineClusteringPipeline(GOLDEN_CONFIG).run()


def _from_cold_service(tmp_path, monkeypatch):
    """Generates and saves the corpus, builds and saves the CSR, mines it."""
    served = AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed"
    return served.results


def _from_mapped_arena(tmp_path, monkeypatch):
    """A second service re-mines from the memory-mapped CSR sidecar."""
    AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    warm = AnalysisService(tmp_path / "cache")
    warm.invalidate(GOLDEN_CONFIG, mining=True)
    served = warm.get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed" and not served.mining_reused
    return served.results


def _from_reloaded_corpus(tmp_path, monkeypatch):
    """A restart on the corpus JSON alone rebuilds the CSR from ``load_json``."""
    cold = AnalysisService(tmp_path / "cache")
    cold.get_or_run(GOLDEN_CONFIG)
    prefix = cold.matrix_path(GOLDEN_CONFIG)
    for path in sidecar_paths(prefix, CorpusMatrix.SIDECAR_ROLES).values():
        path.unlink()
    builds = []
    original = CuisineClusteringPipeline.build_transactions

    def counting(pipeline, database):
        builds.append(1)
        return original(pipeline, database)

    monkeypatch.setattr(CuisineClusteringPipeline, "build_transactions", counting)
    restarted = AnalysisService(tmp_path / "cache")
    restarted.invalidate(GOLDEN_CONFIG, mining=True)
    served = restarted.get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed" and not served.mining_reused
    assert builds == [1]
    return served.results


def _from_disk_read(tmp_path, monkeypatch):
    """A fresh service decodes the cold service's persisted artifact."""
    AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    served = AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    assert served.source == "disk"
    return served.results


@pytest.mark.parametrize(
    "produce",
    [
        _from_pipeline,
        _from_cold_service,
        _from_mapped_arena,
        _from_reloaded_corpus,
        _from_disk_read,
    ],
    ids=["pipeline", "cold-service", "mapped-arena", "reloaded-corpus", "disk-read"],
)
def test_analysis_codec_digest_matches_golden(produce, tmp_path, monkeypatch):
    results = produce(tmp_path, monkeypatch)
    payload = codec.results_to_dict(results)
    assert _sha256(codec.dumps(payload).encode("utf-8")) == RESULTS_DIGEST
    labels = [entry.pop("algorithm") for entry in payload["mining_results"].values()]
    assert labels == ["eclat"] * 26
    assert _sha256(codec.dumps(payload).encode("utf-8")) == STRIPPED_RESULTS_DIGEST


@pytest.fixture(scope="module")
def golden_sidecars(tmp_path_factory):
    """A cold service's CSR and classifier sidecar prefixes, by name."""
    service = AnalysisService(tmp_path_factory.mktemp("sidecars") / "cache")
    served = service.get_or_run(GOLDEN_CONFIG)
    service.classifier_for(GOLDEN_CONFIG, results=served.results)
    return {
        "matrix": service.matrix_path(GOLDEN_CONFIG),
        "classifier": service.classifier_path(GOLDEN_CONFIG),
    }


@pytest.mark.parametrize("sidecar", sorted(SIDECAR_DIGESTS))
def test_sidecar_contents_match_golden_digest(sidecar, golden_sidecars):
    prefix = golden_sidecars[sidecar]
    roles, expected = SIDECAR_DIGESTS[sidecar]
    digest = hashlib.sha256()
    digest.update(prefix.with_name(prefix.name + ".meta.json").read_bytes())
    for role in roles:
        array = np.load(prefix.with_name(f"{prefix.name}.{role}.npy"), allow_pickle=False)
        digest.update(f"{role} {array.dtype.str} {array.shape}".encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == expected
