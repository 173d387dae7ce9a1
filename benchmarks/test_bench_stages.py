"""Per-stage seconds and peak RSS of a cold compute, a disk read and a restart re-mine.

Three runs per corpus scale, each in its own subprocess so its peak RSS is
its own:

* ``cold`` -- a fresh :class:`~repro.serve.service.AnalysisService` on an
  empty cache computes the default analysis: the generator's set-up
  (``generator_init``: its pools, built once per process and scale) and
  corpus generation (its same-stream pass, decode and any per-recipe
  fallback), the corpus JSON, the corpus CSR and its sidecar, mining and
  stages 3-8 (``finish_run``, of which ``elbow``, ``authenticity``,
  ``figure5``, ``fingerprints`` and ``validation`` are timed apart), all
  over the corpus's id form -- it must build the CSR once and no
  ``Recipe`` object; then ``ArtifactStore.put`` persists the analysis
  (``put_analysis``, of which ``encode_analysis`` is packing plus
  canonical JSON);
* ``disk`` -- a second fresh service on the same cache answers the
  persisted analysis from disk: ``store_get`` reads, parses and unpacks it,
  then ``results_from_dict`` decodes it.  This is what a restart pays per
  warm config;
* ``restart`` -- a third fresh service on the same cache, after
  ``invalidate(mining=True)``, re-mines: it reloads the corpus JSON
  straight into the id form (``corpus_load``, of which
  ``columns_from_recipes``: each recipe is validated as a ``Recipe``, and
  none is kept), maps the CSR sidecar and must build no CSR at all.

``recipes_materialized`` counts the ``Recipe`` objects a run constructs, and
``artifact_mb`` is the size of the analysis artifact on disk after the run.
``peak_rss_mb`` is the run's high-water mark (``VmHWM``), and
``peak_rss_rise_mb`` how far each stage raised it, summed over its calls
(a stage's rise includes the stages inside it): the stages listed there
are the ones that set the peak.

No ``perfbench`` workload reaches the disk or restart paths, so these are
their numbers.  Results go to ``BENCH_stages.json`` at the repository root;
there is no wall-clock gate.  Scales 0.05 and 0.2 always run; set
``REPRO_BENCH_FULL_SCALE=1`` to add the paper's full scale (1.0, ~118k
recipes: about 25 s more, and the restart peaks near 0.8 GB).

Run one measurement by hand with
``PYTHONPATH=src python benchmarks/test_bench_stages.py cold 0.2 CACHE_DIR``.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_stages.json"
SEED = 11
SCALES = (0.05, 0.2) + ((1.0,) if os.environ.get("REPRO_BENCH_FULL_SCALE") == "1" else ())


def _instrument(
    seconds: dict[str, float], calls: dict[str, int], rises: dict[str, float]
) -> None:
    """Wrap each stage's entry point with a timer, a call counter and a
    high-water-mark readout."""
    from repro.core.pipeline import CuisineClusteringPipeline
    from repro.datagen.generator import SyntheticRecipeDBGenerator
    from repro.mining.shm import CorpusMatrix
    from repro.recipedb.columns import RecipeColumns
    from repro.recipedb.models import Recipe
    from repro.serve import codec, service, store

    def timer(stage: str, started: float) -> None:
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - started
        calls[stage] = calls.get(stage, 0) + 1

    stages = (
        ("generator_init", SyntheticRecipeDBGenerator, "__init__"),
        ("generate", SyntheticRecipeDBGenerator, "generate"),
        ("generate_stream", SyntheticRecipeDBGenerator, "_stream_region"),
        ("generate_decode", SyntheticRecipeDBGenerator, "_decode_region"),
        ("generate_fallback", SyntheticRecipeDBGenerator, "_exact_region"),
        ("corpus_save", service, "save_json"),
        ("corpus_load", service, "load_json"),
        ("columns_from_recipes", RecipeColumns, "from_recipes"),
        ("fingerprint", service, "corpus_fingerprint"),
        ("csr_build", CuisineClusteringPipeline, "build_transactions"),
        ("csr_save", CorpusMatrix, "save"),
        ("csr_load", CorpusMatrix, "load"),
        ("mine", service, "mine_corpus_with_report"),
        ("finish_run", CuisineClusteringPipeline, "finish_run"),
        ("elbow", CuisineClusteringPipeline, "run_elbow"),
        ("authenticity", CuisineClusteringPipeline, "build_authenticity"),
        ("figure5", CuisineClusteringPipeline, "run_authenticity_clustering"),
        ("fingerprints", CuisineClusteringPipeline, "build_fingerprints"),
        ("validation", CuisineClusteringPipeline, "validate_against_geography"),
        ("store_get", store.ArtifactStore, "get"),
        ("results_from_dict", codec, "results_from_dict"),
    )
    for stage, owner, attribute in stages:
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw

        def timed(*args, _function=function, _stage=stage, **kwargs):
            peak = _peak_rss_mb()
            started = time.perf_counter()
            try:
                return _function(*args, **kwargs)
            finally:
                timer(_stage, started)
                rises[_stage] = rises.get(_stage, 0.0) + _peak_rss_mb() - peak

        wrapped = functools.wraps(function)(timed)
        setattr(owner, attribute, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    # Every Recipe made, validated or as a view of the id form: counted, not timed.
    validate, view = Recipe.__post_init__, Recipe.from_normalised.__func__

    def counted_validate(recipe):
        calls["recipes"] = calls.get("recipes", 0) + 1
        validate(recipe)

    def counted_view(cls, *fields):
        calls["recipes"] = calls.get("recipes", 0) + 1
        return view(cls, *fields)

    Recipe.__post_init__ = counted_validate
    Recipe.from_normalised = classmethod(counted_view)

    # Each put timed by artifact kind, and the encode inside it (packing
    # plus canonical JSON) by the kind of the put it serves.
    putting: list[str] = []
    put, dumps = store.ArtifactStore.put, store.dumps

    def timed_put(self, kind, key, payload):
        putting.append(kind)
        started = time.perf_counter()
        try:
            return put(self, kind, key, payload)
        finally:
            timer(f"put_{kind}", started)
            putting.pop()

    def timed_dumps(payload):
        started = time.perf_counter()
        try:
            return dumps(payload)
        finally:
            timer(f"encode_{putting[-1]}", started)

    store.ArtifactStore.put = timed_put
    store.dumps = timed_dumps


def _peak_rss_mb() -> float:
    """This process's peak resident set since its ``exec``.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces; the
    ``ru_maxrss`` fallback (non-Linux) also counts the parent's peak at fork.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(run: str, scale: float, cache_dir: str) -> dict[str, object]:
    """One ``cold``, ``disk`` or ``restart`` run in this process."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    rises: dict[str, float] = {}
    _instrument(seconds, calls, rises)

    from repro.core.config import AnalysisConfig
    from repro.serve.service import ANALYSIS_KIND, AnalysisService

    config = AnalysisConfig(seed=SEED, scale=scale)
    service = AnalysisService(cache_dir)
    if run == "restart":
        service.invalidate(config, mining=True)
    started = time.perf_counter()
    served = service.get_or_run(config)
    total = time.perf_counter() - started
    if run == "disk":
        assert served.source == "disk"
    else:
        assert served.source == "computed" and not served.mining_reused
    artifact = service.store.path_for(ANALYSIS_KIND, served.key)
    return {
        "total_s": round(total, 4),
        "stages_s": {stage: round(value, 4) for stage, value in sorted(seconds.items())},
        "csr_builds": calls.get("csr_build", 0),
        "recipes_materialized": calls.get("recipes", 0),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "peak_rss_rise_mb": {
            stage: round(value, 1) for stage, value in sorted(rises.items()) if value >= 0.05
        },
        "artifact_mb": round(artifact.stat().st_size / 2**20, 2),
        "corpus_files_mb": round(
            sum(path.stat().st_size for path in Path(cache_dir).glob("corpus-*")) / 2**20, 2
        ),
    }


def _run_in_subprocess(run: str, scale: float, cache_dir: Path) -> dict[str, object]:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, __file__, run, str(scale), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    document: dict[str, object] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "scales": {},
    }
    for scale in SCALES:
        cache_dir = tmp_path_factory.mktemp(f"stages-{scale}")
        document["scales"][str(scale)] = {
            run: _run_in_subprocess(run, scale, cache_dir)
            for run in ("cold", "disk", "restart")
        }
    REPORT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return document


@pytest.mark.parametrize("scale", SCALES)
def test_cold_compute_builds_the_csr_once(report, scale):
    cold = report["scales"][str(scale)]["cold"]
    assert cold["csr_builds"] == 1
    assert cold["recipes_materialized"] == 0
    assert cold["stages_s"]["generate"] > 0.0


@pytest.mark.parametrize("scale", SCALES)
def test_disk_read_decodes_without_compute(report, scale):
    disk = report["scales"][str(scale)]["disk"]
    assert disk["csr_builds"] == 0
    assert disk["recipes_materialized"] == 0
    assert "generate" not in disk["stages_s"] and "mine" not in disk["stages_s"]
    assert disk["stages_s"]["store_get"] > 0.0


@pytest.mark.parametrize("scale", SCALES)
def test_restart_remine_builds_no_csr(report, scale):
    restart = report["scales"][str(scale)]["restart"]
    assert restart["csr_builds"] == 0
    assert "generate" not in restart["stages_s"]
    assert restart["stages_s"]["csr_load"] > 0.0


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], float(sys.argv[2]), sys.argv[3])))
