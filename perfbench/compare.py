"""``python -m perfbench compare BASE.json NEW.json``.

One row per (workload, gated metric): the end-to-end metrics of
``BENCHMARK.json`` plus the demoted ones of :mod:`perfbench.metrics`,
wherever BASE reports the metric.  The verdict compares the change
with the metric's bound, which is 0 for the metrics of
:data:`perfbench.metrics.EXACT` when both files were run at the same
seed (they repeat exactly, so any difference is a change):

``worse``       NEW is worse than BASE by more than the bound;
``better``      NEW is better by more than the bound;
``unresolved``  neither, but the spread between a file's own rounds
                (interquartile range over median) is wider than the
                bound, so "no change" cannot be claimed either;
``same``        otherwise.

A workload or metric that BASE has and NEW lacks is ``worse``.  Exits 1
on any ``worse`` and on a higher fail ratio, 2 when the two files were
not run at the same size and length and so do not compare.
"""

from __future__ import annotations

import json
import statistics

from perfbench import metrics


def spread(rounds: list[float]) -> float:
    """Interquartile range of per-round values as a share of their
    median (0 when there are too few rounds to say)."""
    if len(rounds) < 4:
        return 0.0
    low, _, high = statistics.quantiles(rounds, n=4)
    middle = statistics.median(rounds)
    return (high - low) / abs(middle) if middle else 0.0


def verdict(base: dict, new: dict, better: str, bound: float
            ) -> tuple[float, str]:
    """``(ratio, verdict)`` of one metric; ``ratio`` is new over base."""
    if base["value"] == 0:
        ratio = 1.0 if new["value"] == 0 else float("inf")
    else:
        ratio = new["value"] / base["value"]
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if worsening > bound:
        return ratio, "worse"
    if -worsening > bound:
        return ratio, "better"
    noise = max(spread(base.get("rounds", [])), spread(new.get("rounds", [])))
    return ratio, "unresolved" if noise > bound else "same"


def compare_files(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = {r["workload"]: r for r in json.load(handle)["results"]}
    with open(new_path) as handle:
        new = {r["workload"]: r for r in json.load(handle)["results"]}
    specs = metrics.gated()
    bad = False
    row = "{:<20} {:<22} {:>12} {:>12} {:>8} {:>6}  {}".format
    print(row("workload", "metric", "base", "new", "ratio", "bound",
              "verdict"))
    for workload, old in base.items():
        cur = new.get(workload)
        if cur is None:
            print(row(workload, "(all)", "", "missing", "", "", "worse"))
            bad = True
            continue
        shape = [(r["provenance"]["seconds"], r["provenance"]["quick"])
                 for r in (old, cur)]
        if shape[0] != shape[1]:
            print(f"perfbench: {workload} was run at (seconds, quick) = "
                  f"{shape[0]} in BASE and {shape[1]} in NEW")
            return 2
        same_seed = old["provenance"]["seed"] == cur["provenance"]["seed"]
        for name, entry in specs.items():
            if name not in old["end_to_end"]:
                continue
            before = old["end_to_end"][name]
            if name not in cur["end_to_end"]:
                print(row(workload, name, f"{before['value']:.4f}",
                          "missing", "", "", "worse"))
                bad = True
                continue
            after = cur["end_to_end"][name]
            bound = (0.0 if same_seed and name in metrics.EXACT
                     else entry["bound"])
            ratio, word = verdict(before, after, entry["better"], bound)
            bad |= word == "worse"
            print(row(workload, name, f"{before['value']:.4f}",
                      f"{after['value']:.4f}", f"{ratio:.3f}",
                      f"{bound:.2f}", word))
        fails = [r["failed"] / r["attempted"] for r in (old, cur)]
        word = "worse" if fails[1] > fails[0] else "same"
        bad |= word == "worse"
        print(row(workload, "fail_ratio", f"{fails[0]:.4f}",
                  f"{fails[1]:.4f}", "", "0.00", word))
    return 1 if bad else 0
