"""Per-stage seconds and peak RSS of a cold compute and of a restart re-mine.

Two runs per corpus scale, each in its own subprocess so its peak RSS is its
own:

* ``cold`` -- a fresh :class:`~repro.serve.service.AnalysisService` on an
  empty cache computes the default analysis: corpus generation, the corpus
  JSON, the corpus CSR and its sidecar, mining and stages 3-8;
* ``restart`` -- a second fresh service on the same cache, after
  ``invalidate(mining=True)``, re-mines: it reloads the corpus JSON, maps
  the CSR sidecar and must build no CSR at all.

No ``perfbench`` workload reaches the restart path, so this is its number.
Results go to ``BENCH_stages.json`` at the repository root; there is no
wall-clock gate.  Scales 0.05 and 0.2 always run; set
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


def _instrument(seconds: dict[str, float], calls: dict[str, int]) -> None:
    """Wrap each stage's entry point with a timer (and a call counter)."""
    from repro.core.pipeline import CuisineClusteringPipeline
    from repro.datagen.generator import SyntheticRecipeDBGenerator
    from repro.mining.shm import CorpusMatrix
    from repro.serve import service

    stages = (
        ("generate", SyntheticRecipeDBGenerator, "generate"),
        ("corpus_save", service, "save_json"),
        ("corpus_load", service, "load_json"),
        ("fingerprint", service, "corpus_fingerprint"),
        ("csr_build", CuisineClusteringPipeline, "build_transactions"),
        ("csr_from_transactions", CorpusMatrix, "from_transactions"),
        ("csr_save", CorpusMatrix, "save"),
        ("csr_load", CorpusMatrix, "load"),
        ("mine", service, "mine_corpus_with_report"),
        ("finish_run", CuisineClusteringPipeline, "finish_run"),
    )
    for stage, owner, attribute in stages:
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw

        def timed(*args, _function=function, _stage=stage, **kwargs):
            started = time.perf_counter()
            try:
                return _function(*args, **kwargs)
            finally:
                seconds[_stage] = seconds.get(_stage, 0.0) + time.perf_counter() - started
                calls[_stage] = calls.get(_stage, 0) + 1

        wrapped = functools.wraps(function)(timed)
        setattr(owner, attribute, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)


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
    """One ``cold`` or ``restart`` run in this process."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    _instrument(seconds, calls)

    from repro.core.config import AnalysisConfig
    from repro.serve.service import AnalysisService

    config = AnalysisConfig(seed=SEED, scale=scale)
    service = AnalysisService(cache_dir)
    if run == "restart":
        service.invalidate(config, mining=True)
    started = time.perf_counter()
    served = service.get_or_run(config)
    total = time.perf_counter() - started
    assert served.source == "computed" and not served.mining_reused
    return {
        "total_s": round(total, 4),
        "stages_s": {stage: round(value, 4) for stage, value in sorted(seconds.items())},
        "csr_builds": calls.get("csr_from_transactions", 0),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
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
            run: _run_in_subprocess(run, scale, cache_dir) for run in ("cold", "restart")
        }
    REPORT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return document


@pytest.mark.parametrize("scale", SCALES)
def test_cold_compute_builds_the_csr_once(report, scale):
    cold = report["scales"][str(scale)]["cold"]
    assert cold["csr_builds"] == 1
    assert cold["stages_s"]["generate"] > 0.0


@pytest.mark.parametrize("scale", SCALES)
def test_restart_remine_builds_no_csr(report, scale):
    restart = report["scales"][str(scale)]["restart"]
    assert restart["csr_builds"] == 0
    assert "generate" not in restart["stages_s"]
    assert restart["stages_s"]["csr_load"] > 0.0


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], float(sys.argv[2]), sys.argv[3])))
