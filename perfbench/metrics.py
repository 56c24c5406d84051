"""The metric contract: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root is the single list of
end-to-end and per-layer metrics; this module reads it so that the
runner, ``compare`` and the smoke test all agree with the file the
driver checks.  The only thing added here is :data:`DEMOTED`: metrics a
user sees that not every workload can emit, which the driver's contract
therefore cannot list as end-to-end (see the README, "Demoted
metrics").  ``run`` still prints them beside the end-to-end metrics and
``compare`` still holds them to their bound; in ``BENCHMARK.json`` they
appear as layer metrics under their layer's prefix.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Span dumps and journal files go here (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: name -> the same keys an end-to-end entry of ``BENCHMARK.json`` has.
DEMOTED = {
    "ttft_ms_p95": {"unit": "ms", "better": "lower", "bound": 0.25},
    "quantize_mweights_s": {"unit": "Mweights/s", "better": "higher",
                            "bound": 0.10},
    "eval_tok_s": {"unit": "tok/s", "better": "higher", "bound": 0.10},
    "file_out_tok_s": {"unit": "tok/s", "better": "higher", "bound": 0.25},
}

#: End-to-end metrics that repeat exactly for a seed: ``compare`` holds
#: them to equality between two files of the same seed, whatever bound
#: ``BENCHMARK.json`` gives the driver (whose spreads are taken across
#: seeds, where ``kv_bytes_per_token`` moves with speculative acceptance).
EXACT = frozenset({"kv_bytes_per_token", "ppl_ratio_w", "ppl_ratio_kv",
                   "bits_per_weight", "accel_energy_eff_x"})


@lru_cache(maxsize=1)
def spec() -> dict:
    """``BENCHMARK.json`` parsed once."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in spec()["end_to_end"]}


def gated() -> dict[str, dict]:
    """Every metric ``compare`` holds to a bound."""
    return {**end_to_end(), **DEMOTED}


def per_layer() -> dict[str, dict]:
    return {m["name"]: m for m in spec()["per_layer"]}


def gated_workloads() -> list[str]:
    """The workloads the driver of ``BENCHMARK.json`` runs and holds to
    the bounds; ``run`` without ``--workload`` measures every workload
    of :func:`perfbench.runner.registry` (see the README, "Gated
    workloads")."""
    return [w["name"] for w in spec()["workloads"]]
