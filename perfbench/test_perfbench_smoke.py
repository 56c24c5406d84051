"""Smoke test of the benchmark itself (collected by the tier-1 suite).

Runs every workload once in ``--quick`` shape (untrained tiny models),
traced, in this process, and checks the contract the driver relies on:
every metric ``BENCHMARK.json`` names is emitted, finite and well named;
the trace covers the timed wall; and tracing leaves no wrapper behind.
"""

from __future__ import annotations

import json
import math
import re
import sys

import pytest

from perfbench import metrics

if str(metrics.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(metrics.ROOT / "src"))

from perfbench import compare, runner  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _is_original(owner, attr: str, original) -> bool:
    current = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
    return current is original


@pytest.fixture(scope="module")
def originals():
    """``(owner, attribute, original)`` of everything tracing wraps."""
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    tracer.restore()
    assert patched and all(_is_original(*patch) for patch in patched)
    return patched


def test_benchmark_json_is_well_formed():
    spec = metrics.spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = metrics.end_to_end()["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(metrics.gated_workloads()) <= set(runner.registry())


@pytest.mark.parametrize("name", list(runner.registry()))
def test_workload_emits_every_metric(name, originals):
    result = runner.run_workload(name, seed=3, seconds=0.15, trace=True,
                                 quick=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    for trace in (False, True):
        line = json.loads(runner.driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        wanted = metrics.per_layer() if trace else metrics.end_to_end()
        assert set(line["metrics"]) == set(wanted)
        for metric, entry in line["metrics"].items():
            assert math.isfinite(entry["value"]), metric
            assert entry["unit"] == wanted[metric]["unit"]
    end_to_end = json.loads(runner.driver_line(result, False))["metrics"]
    assert all(entry["value"] != 0 for entry in end_to_end.values())

    assert result["per_layer"]["perfbench.trace_coverage"] >= 0.95
    assert (metrics.ROOT / result["spans_file"]).exists()
    assert all(_is_original(*patch) for patch in originals)


def test_corrupted_token_fails_the_check():
    workload = runner.registry()["chat_paged"](seed=5, quick=True)
    workload.setup()
    rounds = [workload.round(), workload.round()]
    assert workload.check(rounds)[1] == 0
    log = rounds[1].logs[0]
    log.tokens[2] = (log.tokens[2] + 1) % 512
    attempted, failed = workload.check(rounds)
    assert failed == len(rounds[1].logs)          # the whole round fails
    rounds[0].logs[0].tokens[2] = log.tokens[2]   # same digest again...
    assert workload.check(rounds)[1] >= 1         # ...but not generate's


def test_compare_verdicts():
    def entry(value, rounds=()):
        return {"value": value, "rounds": list(rounds)}

    assert compare.verdict(entry(100), entry(85), "higher", 0.10)[1] == "worse"
    assert compare.verdict(entry(100), entry(115), "higher", 0.10)[1] == \
        "better"
    assert compare.verdict(entry(10.0), entry(10.5), "lower", 0.10)[1] == \
        "same"
    noisy = entry(10.0, [7.0, 9.0, 10.0, 11.0, 14.0])
    assert compare.verdict(noisy, entry(10.5), "lower", 0.10)[1] == \
        "unresolved"
    assert compare.verdict(entry(2.5), entry(2.5), "lower", 0.0)[1] == "same"


def test_compare_files_missing_and_exact(tmp_path, capsys):
    def result(seed, **values):
        return {"workload": "w", "attempted": 10, "failed": 0,
                "provenance": {"seed": seed, "seconds": 10.0, "quick": False},
                "end_to_end": {name: {"value": value, "rounds": []}
                               for name, value in values.items()}}

    def run(base, new):
        for name, results in (("base", base), ("new", new)):
            (tmp_path / name).write_text(json.dumps({"results": results}))
        code = compare.compare_files(str(tmp_path / "base"),
                                     str(tmp_path / "new"))
        return code, capsys.readouterr().out

    full = result(0, out_tok_s=100.0, bits_per_weight=2.5)
    assert run([full], [full])[0] == 0
    assert run([full], [])[0] == 1                       # workload dropped
    code, table = run([full], [result(0, bits_per_weight=2.5)])
    assert code == 1 and "missing" in table              # metric dropped
    # An exact-repeat metric may not move at all at the same seed...
    moved = result(0, out_tok_s=100.0, bits_per_weight=2.501)
    assert run([full], [moved])[0] == 1
    # ...and gets BENCHMARK.json's bound across seeds.
    other = result(1, out_tok_s=100.0, bits_per_weight=2.501)
    assert run([full], [other])[0] == 0
    quick = dict(full, provenance={"seed": 0, "seconds": 10.0, "quick": True})
    assert run([full], [quick])[0] == 2
