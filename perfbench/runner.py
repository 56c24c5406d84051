"""Runs one workload: set-up, timed rounds, checks, named metrics.

``run_workload`` is what ``python -m perfbench run --workload NAME``
executes in a fresh process.  With tracing off it serves untraced rounds
for ``seconds`` and reports the end-to-end metrics; with tracing on it
alternates untraced and traced rounds of the same size, so that the
per-layer numbers and the tracing overhead come from one run while the
end-to-end numbers never include a traced round.  Every round and every
set-up is bracketed by the fixed kernel of :mod:`perfbench.calibrate`,
whose seconds state the timings at reference speed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import calibrate, metrics
from perfbench.trace import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per run: at least ``SETUP_REPEATS``, and more while they have
#: used less than ``SETUP_SHARE`` of the run's seconds (a chat engine
#: sets up in 50 ms, and three samples of that hold no bound);
#: ``setup_s`` is their median (see :func:`_set_up`).
SETUP_REPEATS = 3
SETUP_SHARE = 0.04


def registry() -> dict:
    from perfbench import gateway_open, offline, suite
    classes = (suite.ChatPaged, suite.ChatFineq, suite.LongctxFineq,
               suite.MixedPrefixFineq, suite.Spec13b,
               gateway_open.GatewayOpen, offline.OfflineQuantEval)
    return {cls.name: cls for cls in classes}


def _mount_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (journal files)."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(Path(path).resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=metrics.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, seconds: float, quick: bool,
               journal_dir: str | None) -> dict:
    """``journal_dir`` is where the workload's journal files lived
    (``None``: it wrote none)."""
    return {
        "git_sha": _git_sha(), "seed": seed, "seconds": seconds,
        "quick": quick, "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": os.cpu_count(),
        "journal_dir": (str(Path(journal_dir).relative_to(metrics.ROOT))
                        if journal_dir else None),
        "journal_fs": _mount_type(journal_dir) if journal_dir else None,
    }


def _keep_going(elapsed: float, budget: float, last: float) -> bool:
    """Start another round only if it is expected to end nearer the
    budget than stopping now would."""
    return elapsed + 0.5 * last < budget


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, process_start: float | None = None
                 ) -> dict:
    """Measure one workload; returns the full result dictionary."""
    started = time.perf_counter() if process_start is None else process_start
    meter = calibrate.Speedometer()
    started += meter.samples[0]     # the kernel's seconds are not set-up
    workload, setups = _set_up(registry()[name], seed, quick, started, meter,
                               budget=SETUP_SHARE * seconds)
    try:
        return _measure(workload, setups, meter, seed, seconds, trace, quick)
    finally:
        workload.close()


def _set_up(cls, seed: int, quick: bool, started: float,
            meter: calibrate.Speedometer, budget: float):
    """Set the workload up several times (``SETUP_REPEATS`` or more, for
    ``budget`` seconds); the last one serves.

    Returns the workload and each set-up's seconds at reference speed.
    The first runs from process start, so it also pays the imports, BLAS
    initialisation and the cold model load (the zoo memoises a loaded
    model); the others pay model fetch, engine build, whatever the
    workload prepares (``offline_quant_eval`` quantizes 13b) and the
    warm-up round.  One set-up is a second or less, too short to hold a
    bound on a shared machine, hence the median of several.
    """
    setups = []
    begin = started
    while True:
        workload = cls(seed, quick)
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        elapsed = time.perf_counter() - started
        setups.append(elapsed / meter.refresh())
        started = time.perf_counter()
        if len(setups) >= SETUP_REPEATS and started - begin >= budget:
            return workload, setups
        workload.close()


def _measure(workload, setups: list[float], meter: calibrate.Speedometer,
             seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    name = workload.name
    tracer = Tracer() if trace else None
    rounds, traced = [], []
    budget = seconds * workload.round_share
    begin = time.perf_counter()
    last = 0.0
    while not rounds or _keep_going(time.perf_counter() - begin, budget, last):
        mark = time.perf_counter()
        rounds.append(meter.around(workload.round))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.round(tracer))
            finally:
                tracer.restore()
            meter.refresh()
        last = time.perf_counter() - mark
    workload.tail(seconds - budget, tracer)

    attempted, failed = workload.check(rounds + traced)
    specs = metrics.gated()
    end_to_end = workload.end_to_end(rounds)
    end_to_end["setup_s"] = {"value": float(np.median(setups)),
                             "samples": len(setups), "rounds": setups,
                             "supported": True}
    for metric, entry in end_to_end.items():
        entry["unit"] = specs[metric]["unit"]
    result = {
        "workload": name, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "rounds": len(rounds), "end_to_end": end_to_end,
        "provenance": provenance(seed, seconds, quick,
                                 workload.journal_dir),
    }
    # Timings above are at reference speed; times ``machine_speed``
    # gives back (about) what the wall clock showed.
    result["provenance"]["machine_speed"] = meter.median_speed()
    if tracer is not None:
        layers = workload.layers(rounds, traced, tracer, end_to_end)
        walls = [r.wall_s for r in rounds]
        traced_wall = sum(r.wall_s for r in traced)
        layers["perfbench.trace_overhead_x"] = float(
            np.median([r.wall_s for r in traced]) / np.median(walls))
        layers["perfbench.trace_coverage"] = sum(
            tracer.table(*r.span_range).root_s() for r in traced
        ) / traced_wall
        layers["perfbench.warm_ratio"] = float(
            walls[0] / np.median(walls[1:])) if len(walls) > 1 else 1.0
        layers["perfbench.cold_setup_s"] = setups[0]
        result["per_layer"] = layers
        spans_path = metrics.OUT_DIR / f"{name}-seed{seed}.spans.npz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(metrics.ROOT))
    return result


# ---------------------------------------------------------------------- #
# presentation
# ---------------------------------------------------------------------- #
def driver_line(result: dict, trace: bool) -> str:
    """The one-line JSON object the driver reads."""
    if trace:
        specs = metrics.per_layer()
        layers = result["per_layer"]
        unknown = sorted(set(layers) - set(specs))
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: "
                           f"{unknown}")
        # A layer a workload never enters did no work: zero.
        payload = {name: {"value": float(layers.get(name, 0.0)),
                          "unit": spec["unit"]}
                   for name, spec in specs.items()}
    else:
        specs = metrics.end_to_end()
        payload = {name: {"value": result["end_to_end"][name]["value"],
                          "unit": spec["unit"]}
                   for name, spec in specs.items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": payload})


def print_table(result: dict) -> None:
    name = result["workload"]
    ratio = result["failed"] / result["attempted"]
    print(f"== {name}: {result['rounds']} timed rounds, "
          f"{result['attempted']} operations, fail_ratio {ratio:.4f}")
    for metric, entry in result["end_to_end"].items():
        note = "" if entry.get("supported", True) else \
            "  (fewer than ten samples beyond this percentile)"
        print(f"  {metric:<22} {entry['value']:>14.4f} {entry['unit']:<12}"
              f" n={entry['samples']}{note}")
    specs = metrics.per_layer()
    for metric, value in sorted(result.get("per_layer", {}).items()):
        unit = specs[metric]["unit"] if metric in specs else "?"
        print(f"  {metric:<46} {value:>16.6f} {unit}")
