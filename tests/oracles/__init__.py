"""Reference implementations that check the production code.

Nothing under ``src/`` imports this package; the tests and ``benchmarks/``
do, from the repository root (``python -m pytest`` puts it on ``sys.path``).

* :mod:`tests.oracles.fpgrowth` -- the paper's FP-Growth (Han, Pei & Yin
  2000) as a string-keyed pure-Python pass over :mod:`tests.oracles.fptree`.
  The production miner, :class:`repro.mining.eclat.EclatMiner`, must return
  the same :class:`~repro.mining.itemsets.MiningResult` apart from its
  ``algorithm`` label (``tests/mining/test_engine_parity.py``), and
  ``benchmarks/test_bench_mining.py`` gates its speed against this pass.
* :mod:`tests.oracles.generator` -- the synthetic corpus drawn one recipe at
  a time, by name, through the validating ``Recipe(...)`` constructor.
  :class:`repro.datagen.generator.SyntheticRecipeDBGenerator`, which draws
  whole regions into integer ids, must materialise the same recipes
  (``tests/datagen/test_generator_oracle.py``).

An oracle stays here while the fast path it checks exists.  One reference
stays next to its fast path: ``CuisineClassifier.classify_batch_naive`` in
``repro.serve.classify``.  ``repro.cluster.linkage.linkage`` has no fast
path to check; ``tests/cluster/test_linkage.py`` pins its merge tables.
"""
