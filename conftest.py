"""Suite-wide pytest hygiene: tier-1 collects ``benchmarks/``,
``perfbench/`` and ``tests/`` into one process."""

import gc

import pytest
from hypothesis import settings

# Hypothesis profiles.  Every ``@given`` test sets its own example count;
# the profile's budget is what the engine state machine
# (tests/serve/test_engine_state_machine.py) runs under: ``default``
# keeps it well inside 20 s for both backends and runs the same examples
# on every machine and every run (derandomized, no example database — a
# failure found on a laptop is the failure CI sees); ``soak``
# (``--hypothesis-profile=soak``) is the long, random run.
settings.register_profile("default", max_examples=60, stateful_step_count=40,
                          deadline=None, derandomize=True, database=None)
settings.register_profile("soak", max_examples=2000, stateful_step_count=100,
                          deadline=None)
settings.load_profile("default")

#: Directories whose tests assert on milliseconds.
TIMED = ("benchmarks/", "perfbench/")


@pytest.fixture(autouse=True)
def fresh_gc_generations(request):
    """Start every timing test with empty garbage-collector generations.

    The ``benchmarks/`` ratios and the perfbench smoke test's trace
    coverage assert on milliseconds — the latter on a traced round that
    is ~12 ms long now that serving allocates no ``Tensor`` per op.  A
    generation-1 or -2 collection that is merely *due*, because of the
    garbage earlier tests left behind, costs 0.5-20 ms wherever it
    happens to fire, so whether such a test passed depended on what ran
    before it in the process.  (A full collection is ~35 ms here, hence
    not before every unit test.)
    """
    if request.node.nodeid.startswith(TIMED):
        gc.collect()
