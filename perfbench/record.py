"""Record ``perfbench/reference.json``: the expected answer to every pool request.

    python3 perfbench/record.py [--only cold-analyze|read-mix]

Run it only when the program's outputs change on purpose.  Cold-analyze
references are computed in-process through ``AnalysisService`` (one full
compute per corpus seed at scale 0.2, several minutes in all); the
read-mix pool is replayed once against a live server.  Responses are recorded
as digests of the same views the benchmark compares.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import harness, mix, oracle  # noqa: E402
from perfbench.harness import Connection, Server  # noqa: E402


def _scratch() -> Path:
    root = harness.WORK_ROOT
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="record-", dir=root))


def record_cold(responses: dict[str, str]) -> dict:
    from repro.core.config import AnalysisConfig
    from repro.serve.service import AnalysisService

    keys: dict[str, str] = {}
    artifacts: dict[str, str] = {}
    warmup_key = ""
    for name, config in [("warmup", mix.WARMUP_CONFIG)] + [
        (str(seed), {"seed": seed, "scale": mix.COLD_SCALE}) for seed in mix.COLD_SEEDS
    ]:
        cache = _scratch()
        try:
            service = AnalysisService(cache)
            served = service.get_or_run(AnalysisConfig(**config))
            body = json.dumps(
                {"served": served.to_dict(), "summary": served.results.summary()}, default=str
            ).encode("utf-8")
            responses[f"cold.{name}"] = oracle.body_digest("analyze", body)
            service.store.close()
            artifacts.update(oracle.persisted_digests(cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if name == "warmup":
            warmup_key = served.key
        else:
            keys[name] = served.key
        print(f"cold {name}: {served.key[:12]} in {served.elapsed_seconds:.2f}s", flush=True)
    return {"warmup_key": warmup_key, "keys": keys, "artifacts": artifacts}


def _expect(connection: Connection, request: mix.Request, responses: dict[str, str]) -> None:
    status, body = connection.request(request.raw)
    if status != request.status:
        raise RuntimeError(f"{request.id}: status {status}, expected {request.status}: {body[:200]!r}")
    if status == 200:
        responses[request.id] = oracle.body_digest(request.check, body)


def record_reads(responses: dict[str, str]) -> None:
    pool = mix.read_pool()
    cache = _scratch()
    try:
        with Server(cache / "cache", cache / "server.log") as server:
            connection = Connection(server.port)
            for index in pool.analyze:
                _expect(connection, pool.entries[index], responses)
            for entry in pool.entries:
                _expect(connection, entry, responses)
            connection.close()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    print(f"reads: {len(pool.entries)} requests", flush=True)


def _pool_of(request_id: str) -> str:
    return "cold-analyze" if request_id.startswith("cold.") else "read-mix"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark's reference answers")
    parser.add_argument("--only", choices=("cold-analyze", "read-mix"))
    args = parser.parse_args(argv)
    path = oracle.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {"responses": {}}
    # A re-recorded pool keeps no answer to a request it no longer sends.
    responses = {
        request_id: digest
        for request_id, digest in reference["responses"].items()
        if args.only not in (None, _pool_of(request_id))
    }
    if args.only in (None, "read-mix"):
        record_reads(responses)
    if args.only in (None, "cold-analyze"):
        reference["cold-analyze"] = record_cold(responses)
    reference["responses"] = dict(sorted(responses.items()))
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
