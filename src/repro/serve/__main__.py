"""CLI entry point: ``PYTHONPATH=src python -m repro.serve [--smoke]``.

Sweep modes: throughput (default), ``--mem``, ``--stream``,
``--prefix``, ``--latency``, ``--spec``, and ``--gateway`` (durable serving gateway vs raw engine).
"""

from repro.serve.bench import main

main()
