"""End-to-end + per-layer benchmark of the Meteorograph simulator.

See ``bench/README.md``.  Entry points: ``python3 bench/run.py`` (the
command ``BENCHMARK.json`` names) or ``PYTHONPATH=src python -m bench.run``.
"""
