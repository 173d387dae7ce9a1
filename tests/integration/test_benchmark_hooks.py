"""The traced benchmark launcher's hook table still resolves against ``src/``.

``perfbench/launch.py`` wraps every entry point in ``SYNC_PATCHES`` and
``ASYNC_PATCHES`` with a span before it starts the server.  Its ``_patch``
reads a class attribute from the class's own ``__dict__``, so a method that
moves to a base class or a mixin, or a name a module stops binding, breaks
every traced benchmark run while the untraced suite stays green.  These
tests resolve the table the way the launcher does.
"""

from __future__ import annotations

import inspect

import pytest

from perfbench import launch
from repro.mining.regions import MiningReport

SYNC_IDS = [f"{module}:{path}" for module, path, _ in launch.SYNC_PATCHES]
ASYNC_IDS = [f"{module}:{path}" for module, path, _ in launch.ASYNC_PATCHES]


def _raw(module_name: str, path: str):
    """The object ``_patch`` would wrap, or a failed assertion saying why not."""
    owner, attribute = launch._resolve(module_name, path)
    if isinstance(owner, type):
        assert attribute in owner.__dict__, (
            f"{owner.__name__}.{attribute} is not defined on the class itself"
        )
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        return raw
    assert hasattr(owner, attribute), f"{module_name} binds no {attribute!r}"
    return getattr(owner, attribute)


@pytest.mark.parametrize(("module_name", "path", "span"), launch.SYNC_PATCHES, ids=SYNC_IDS)
def test_sync_hook_resolves(module_name, path, span):
    raw = _raw(module_name, path)
    assert callable(raw)
    assert not inspect.iscoroutinefunction(raw)


@pytest.mark.parametrize(
    ("module_name", "path", "span"), launch.ASYNC_PATCHES, ids=ASYNC_IDS
)
def test_async_hook_resolves_to_a_coroutine_function(module_name, path, span):
    assert inspect.iscoroutinefunction(_raw(module_name, path))


def test_the_launcher_patches_its_two_extra_hooks_on_their_own_classes():
    assert inspect.iscoroutinefunction(
        _raw("repro.serve.aio", "AsyncAnalysisService._run_blocking")
    )
    assert callable(_raw("repro.serve.service", "AnalysisService.__init__"))


def test_the_mining_tag_reads_a_serial_report():
    report = MiningReport(outcomes=())
    assert report.dispatch is None
    assert launch._mining_tag(({}, report)) == {
        "mode": "serial",
        "overhead": 0.0,
        "patterns": 0,
    }
