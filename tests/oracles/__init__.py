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
* :mod:`tests.oracles.prevalence` -- equation 1's prevalence counted over
  per-cuisine frozensets.
  :func:`repro.authenticity.prevalence.prevalence_matrix`, which counts the
  corpus's integer ids with one ``np.bincount``, must return the same
  matrix exactly (``tests/recipedb/test_fast_paths.py`` and
  ``tests/recipedb/test_columns.py``).
* :mod:`tests.oracles.classify` -- ``classify_batch_naive``, a classifier's
  recipes scored one at a time with Python loops.
  :meth:`repro.serve.classify.CuisineClassifier.classify_batch` must match
  it within 1e-5 (``tests/serve/test_classify.py``), and
  ``benchmarks/test_bench_classify.py`` gates its speed against it.

An oracle stays here while the fast path it checks exists.
``repro.cluster.linkage.linkage`` has no fast path to check;
``tests/cluster/test_linkage.py`` pins its merge tables.
"""
