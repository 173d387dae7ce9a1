"""The inline read path: memory hits and their ops answered on the event loop.

A warm ``/analyze``, every ``/query`` op and ``/classify`` submit nothing to
the executor; ``/stats`` and a miss still do.  Cold requests still coalesce
into one compute, and the loop keeps answering while it runs.  Each
connection yields once per request, so a pipelining client cannot starve
another one, and under asyncio debug mode a warm mix of every route logs no
slow loop step.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import shutil
import threading
import time

import pytest

from repro.core.config import AnalysisConfig
from repro.serve import codec
from repro.serve.aio import AnalysisServer, AsyncAnalysisService
from repro.serve.backends import DirectoryBackend
from repro.serve.service import ANALYSIS_KIND, AnalysisService
from repro.serve.store import ArtifactStore
from tests.faults import FaultInjectingBackend, resolve_fault_plan

CONFIG = AnalysisConfig(seed=5, scale=0.02)
CONFIG_JSON = {"seed": 5, "scale": 0.02}
ITEMS = ("soy sauce", "rice", "garlic", "olive oil", "tomato", "basil", "ginger", "onion")

#: One warm request per route that reads an analysis: (method, path, body).
WARM_READS = (
    ("POST", "/analyze", {"config": CONFIG_JSON}),
    ("POST", "/query", {"config": CONFIG_JSON, "op": "nearest", "cuisine": "Japanese", "k": 3}),
    ("POST", "/query", {"config": CONFIG_JSON, "op": "patterns", "items": ["rice"], "limit": 5}),
    ("POST", "/query", {"config": CONFIG_JSON, "op": "top-patterns", "cuisine": "Japanese"}),
    ("POST", "/query", {"config": CONFIG_JSON, "op": "authenticity", "item": "soy sauce"}),
    ("POST", "/query", {"config": CONFIG_JSON, "op": "cuisine", "cuisine": "Japanese"}),
    (
        "POST",
        "/classify",
        {
            "config": CONFIG_JSON,
            "recipes": [[ITEMS[(n + i) % len(ITEMS)] for i in range(3 + n % 5)] for n in range(64)],
        },
    ),
)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("aio-inline") / "cache"
    AnalysisService(cache).get_or_run(CONFIG)
    return cache


def encode(method: str, path: str, payload: dict | None = None) -> bytes:
    """One keep-alive HTTP/1.1 request."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    """One Content-Length framed response: (status, decoded JSON body)."""
    status = int((await reader.readline()).split()[1])
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


class Client:
    """One keep-alive connection to the server under test."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server: AnalysisServer) -> "Client":
        return cls(*await asyncio.open_connection(server.host, server.port))

    async def call(self, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        self.writer.write(encode(method, path, payload))
        return await read_response(self.reader)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def count_hops(svc: AsyncAnalysisService) -> list:
    """Record every executor submission of *svc* (its ``_run_blocking`` calls)."""
    hops: list = []
    original = svc._run_blocking

    async def counting(fn, *args):
        hops.append(fn)
        return await original(fn, *args)

    svc._run_blocking = counting
    return hops


def test_warm_reads_submit_nothing_to_the_executor(warm_cache):
    async def main():
        svc = AsyncAnalysisService(AnalysisService(warm_cache))
        hops = count_hops(svc)
        async with AnalysisServer(svc) as server:
            client = await Client.connect(server)
            # A fresh service: the first read is a memory miss (a disk read),
            # and the first classify fetches the classifier.  Both take the
            # executor.
            for request in WARM_READS:
                assert (await client.call(*request))[0] == 200
            warmup = len(hops)
            for request in WARM_READS:
                assert (await client.call(*request))[0] == 200
            warm = len(hops) - warmup
            assert (await client.call("GET", "/stats"))[0] == 200
            stats = len(hops) - warmup - warm
            await client.close()
        return warmup, warm, stats

    warmup, warm, stats = asyncio.run(main())
    assert warmup == 2  # the disk read and classifier_for
    assert warm == 0
    assert stats == 1


def test_memory_hit_honours_invalidate_from_another_handle(warm_cache, tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    service = AnalysisService(cache)
    key = codec.analysis_key(CONFIG)

    async def main():
        async with AsyncAnalysisService(service) as svc:
            first = await svc.get(CONFIG)
            second = await svc.get(CONFIG)
            AnalysisService(cache).invalidate(CONFIG)
            probes = []
            original = service.store.exists
            service.store.exists = lambda kind, key: probes.append((kind, key)) or original(kind, key)
            third = await svc.get(CONFIG)
            return first, second, third, probes

    first, second, third, probes = asyncio.run(main())
    assert (first.source, second.source) == ("disk", "memory")
    assert third.source == "computed"  # not the decoded copy the other handle deleted
    assert probes[0] == (ANALYSIS_KIND, key)


def test_cold_requests_coalesce_while_the_loop_answers(tmp_path):
    service = AnalysisService(tmp_path / "cache")
    gate = threading.Event()
    computes = []
    compute = service._compute

    def gated(config):
        computes.append(config)
        assert gate.wait(30), "compute gate never released"
        return compute(config)

    service._compute = gated

    async def main():
        async with AnalysisServer(AsyncAnalysisService(service)) as server:
            clients = [await Client.connect(server) for _ in range(17)]
            analyses = [
                asyncio.ensure_future(client.call("POST", "/analyze", {"config": CONFIG_JSON}))
                for client in clients[:16]
            ]
            deadline = time.monotonic() + 30
            while service.store.stats.coalesced_hits < 15 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            try:
                health = await asyncio.wait_for(clients[16].call("GET", "/healthz"), 5)
            finally:
                gate.set()
            answers = await asyncio.gather(*analyses)
            for client in clients:
                await client.close()
            return health, answers

    (health_status, health), answers = asyncio.run(main())
    assert health_status == 200 and health["inflight"] == 1
    assert len(computes) == 1
    assert all(status == 200 for status, _ in answers)
    assert sum(body["served"]["coalesced"] for _, body in answers) == 15
    assert service.store.stats.coalesced_hits == 15


def test_a_pipelining_client_cannot_starve_another_connection(warm_cache):
    nearest = {"config": CONFIG_JSON, "op": "nearest", "cuisine": "Japanese"}

    async def main():
        async with AnalysisServer(AsyncAnalysisService(AnalysisService(warm_cache))) as server:
            a, b = await Client.connect(server), await Client.connect(server)
            assert (await a.call("POST", "/query", nearest))[0] == 200
            assert (await b.call("GET", "/healthz"))[0] == 200
            await asyncio.sleep(0.05)  # both handlers wait on their next request
            order = []
            write = server._write_response

            async def recording(writer, status, payload, keep_alive=False):
                order.append("healthz" if "status" in payload else "query")
                await write(writer, status, payload, keep_alive)

            server._write_response = recording
            a.writer.write(encode("POST", "/query", nearest) * 300)
            b.writer.write(encode("GET", "/healthz"))
            answers = [await read_response(a.reader) for _ in range(300)]
            health = await read_response(b.reader)
            await a.close()
            await b.close()
            return order, answers, health

    order, answers, health = asyncio.run(main())
    assert all(status == 200 for status, _ in answers) and health[0] == 200
    assert order.count("query") == 300
    # B is answered before A's 300th response, not after it.
    assert order.index("healthz") < 300


def on_the_loop() -> bool:
    """Whether the calling thread is running an event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


#: A loop step this slow fails the guard.  On 2 vCPUs under debug mode the
#: slowest warm step took 5 ms and a cold compute at this scale 0.37 s.
SLOW_STEP_SECONDS = 0.05


def test_a_warm_mix_never_stalls_the_loop(warm_cache, tmp_path, caplog, monkeypatch):
    """The loop-stall guard: asyncio debug mode over a mix of every route.

    A fresh service over a warm cache makes one disk read and one cold
    compute (another config), then serves every route from memory.  No
    loop step may take ``SLOW_STEP_SECONDS`` (a compute moved onto the loop
    would), and no disk read or decode may run on the loop's thread.  The store runs under the exported fault
    plan, if there is one: the memory probe's ``exists`` runs on the loop.
    """
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    plan = resolve_fault_plan(None)
    backend = DirectoryBackend(cache)
    store = ArtifactStore(backend=FaultInjectingBackend(backend, plan) if plan else backend)
    calls = []

    def spy(name, fn):
        def call(*args, **kwargs):
            calls.append((name, on_the_loop()))
            return fn(*args, **kwargs)

        return call

    store.get = spy("store.get", store.get)
    monkeypatch.setattr(codec, "results_from_dict", spy("decode", codec.results_from_dict))
    mix = WARM_READS + (("GET", "/healthz", None), ("GET", "/stats", None))

    async def main():
        asyncio.get_running_loop().slow_callback_duration = SLOW_STEP_SECONDS
        async with AnalysisServer(AsyncAnalysisService(AnalysisService(store))) as server:
            client = await Client.connect(server)
            cold = {"config": {**CONFIG_JSON, "seed": 6}}
            assert (await client.call("POST", "/analyze", cold))[0] == 200
            for _ in range(6):
                for request in mix:
                    assert (await client.call(*request))[0] == 200
            await client.close()

    gc.collect()
    gc.disable()  # a collection pause is not a step the program made slow
    try:
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            asyncio.run(main(), debug=True)
    finally:
        gc.enable()
    slow = [record.getMessage() for record in caplog.records if "took" in record.getMessage()]
    assert slow == []
    assert ("decode", False) in calls
    assert all(not loop for _, loop in calls)
