"""Shared emitter for the compute-core benchmark report (``BENCH_core.json``).

The mining, classify, async-serving and lease benchmarks record their
measured timings and speedups here.  The first call in a process starts a
fresh document, so sections from benchmarks that no longer exist do not
linger in a local report; later calls add their section to it and rewrite
the file, so a partial run still leaves a valid report.  CI uploads the
file as a build artifact.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

_document: dict = {"python": platform.python_version()}


def record(section: str, payload: dict) -> None:
    """Add one benchmark section to this process's ``BENCH_core.json``."""
    _document[section] = payload
    REPORT_PATH.write_text(
        json.dumps(_document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
