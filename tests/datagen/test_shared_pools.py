"""Generator pools are built once per process and shared read-only.

A ``_WeightedPool`` depends on its names and Zipf exponent alone -- the
scale's vocabulary size and the profiles' signature entities, never the
seed -- so every generator at one scale shares one pool and its sorted name
table.  Sharing must not change a byte: a corpus drawn after another seed
at its scale, or by four threads at once, is the corpus drawn alone.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datagen.generator import (
    GeneratorConfig,
    SyntheticRecipeDBGenerator,
    _shared_pool,
    generate_corpus,
)
from repro.recipedb.io_json import save_json

POOLS = ("_ingredient_pool", "_process_pool", "_utensil_pool")


def _corpus_bytes(seed: int, scale: float, directory: Path) -> bytes:
    path = save_json(generate_corpus(seed, scale), directory / f"corpus-{seed}.json")
    return path.read_bytes()


def test_generators_at_one_scale_share_their_pools():
    first = SyntheticRecipeDBGenerator(GeneratorConfig(seed=1, scale=0.03))
    second = SyntheticRecipeDBGenerator(GeneratorConfig(seed=2, scale=0.03))
    for name in POOLS:
        assert getattr(first, name) is getattr(second, name)


def test_another_scale_or_exponent_gets_its_own_pool():
    base = SyntheticRecipeDBGenerator(GeneratorConfig(seed=1, scale=0.03))
    larger = SyntheticRecipeDBGenerator(GeneratorConfig(seed=1, scale=0.3))
    steeper = SyntheticRecipeDBGenerator(
        GeneratorConfig(seed=1, scale=0.03, zipf_exponent=0.9)
    )
    assert larger._ingredient_pool is not base._ingredient_pool
    assert len(larger.ingredient_pool) > len(base.ingredient_pool)
    assert steeper._ingredient_pool is not base._ingredient_pool
    assert steeper.ingredient_pool == base.ingredient_pool


@pytest.mark.parametrize("name", POOLS)
def test_shared_pool_arrays_are_read_only(name):
    pool = getattr(SyntheticRecipeDBGenerator(GeneratorConfig(seed=3, scale=0.03)), name)
    for array in (pool.ranks, pool.cumulative, pool._bucket_index):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]
    with pytest.raises(TypeError):
        pool.index_of[pool.names[0]] = 1
    assert isinstance(pool.table, tuple) and isinstance(pool.names, tuple)
    assert list(pool.table) == sorted(set(pool.normalised))
    assert [pool.table[rank] for rank in pool.ranks] == list(pool.normalised)
    assert np.all(np.diff(pool.cumulative) >= 0) and pool.cumulative[-1] == 1.0


def test_four_threads_at_once_give_the_serial_bytes(tmp_path):
    seeds = (21, 22, 23, 24)
    # A scale no other test draws, so the threads race to build its pools.
    scale = 0.017
    (tmp_path / "serial").mkdir()
    (tmp_path / "threads").mkdir()
    threaded: dict[int, bytes] = {}
    barrier = threading.Barrier(len(seeds))

    def draw(seed: int) -> None:
        barrier.wait()
        threaded[seed] = _corpus_bytes(seed, scale, tmp_path / "threads")

    # More threads than cores, switching often: a pool shared mid-build or
    # written by one draw would change another's bytes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # Then one at a time over freshly built pools.
    _shared_pool.cache_clear()
    serial = {seed: _corpus_bytes(seed, scale, tmp_path / "serial") for seed in seeds}
    assert threaded == serial
