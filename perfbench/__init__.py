"""perfbench: the layered benchmark of the FineQ serving stack.

``python -m perfbench run`` measures seven workloads through the public
API of ``repro`` and prints every metric by name with its unit;
``--trace`` repeats them with spans recorded around each layer.  The
metric lists, and the four workloads its driver holds to their bounds,
live in ``BENCHMARK.json`` at the repository root;
``perfbench/README.md`` explains what each one is for.
"""
