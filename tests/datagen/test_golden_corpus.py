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
the validated ``Recipe`` objects ``load_json`` returns rather than from the
generator's.

``RESULTS_DIGEST`` was re-recorded when the production miner switched from
FP-Growth to Eclat.  ``STRIPPED_RESULTS_DIGEST`` was recorded before that
switch, over the same codec text with every region's ``algorithm`` label
removed (the view ``perfbench/oracle.py::analysis_digest`` checks), so it
pins that the switch changed nothing but the label.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import generate_corpus
from repro.mining.shm import CorpusMatrix, sidecar_paths
from repro.recipedb.io_json import save_json
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("seed", "scale"), sorted(CORPUS_DIGESTS))
def test_corpus_bytes_match_golden_digest(seed, scale, tmp_path):
    path = save_json(generate_corpus(seed, scale), tmp_path / "corpus.json")
    assert _sha256(path.read_bytes()) == CORPUS_DIGESTS[(seed, scale)]


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
    assert warm.last_mining_report.compiles == 0
    return served.results


def _from_reloaded_corpus(tmp_path, monkeypatch):
    """A restart on the corpus JSON alone rebuilds the CSR from ``load_json``."""
    cold = AnalysisService(tmp_path / "cache")
    cold.get_or_run(GOLDEN_CONFIG)
    for path in sidecar_paths(cold.matrix_path(GOLDEN_CONFIG)).values():
        path.unlink()
    builds = []
    original = CorpusMatrix.from_transactions.__func__

    def counting(cls, transactions):
        builds.append(1)
        return original(cls, transactions)

    monkeypatch.setattr(CorpusMatrix, "from_transactions", classmethod(counting))
    restarted = AnalysisService(tmp_path / "cache")
    restarted.invalidate(GOLDEN_CONFIG, mining=True)
    served = restarted.get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed" and not served.mining_reused
    assert builds == [1]
    return served.results


@pytest.mark.parametrize(
    "produce",
    [_from_pipeline, _from_cold_service, _from_mapped_arena, _from_reloaded_corpus],
    ids=["pipeline", "cold-service", "mapped-arena", "reloaded-corpus"],
)
def test_analysis_codec_digest_matches_golden(produce, tmp_path, monkeypatch):
    results = produce(tmp_path, monkeypatch)
    payload = codec.results_to_dict(results)
    assert _sha256(codec.dumps(payload).encode("utf-8")) == RESULTS_DIGEST
    labels = [entry.pop("algorithm") for entry in payload["mining_results"].values()]
    assert labels == ["eclat"] * 26
    assert _sha256(codec.dumps(payload).encode("utf-8")) == STRIPPED_RESULTS_DIGEST
