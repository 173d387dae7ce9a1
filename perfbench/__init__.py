"""End-to-end benchmark of the cuisine-clustering server.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
starts the real server (``python -m repro.cli serve``) as a subprocess,
drives one seeded workload at it over HTTP, checks every answer against
references recorded in ``perfbench/reference.json``, and prints the metrics
declared in ``BENCHMARK.json`` as the last line of standard output.  With
``--trace 1`` the server is started through :mod:`perfbench.launch`, which
wraps the public entry points of every layer with spans, and the run prints
the per-layer metrics instead.
"""
