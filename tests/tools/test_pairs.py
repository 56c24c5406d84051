"""``tools/pairs.py``'s parsing and statistics, on canned result lines
(no perfbench run)."""
import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [{"name": "out_tok_s", "unit": "tok/s", "better": "higher",
               "bound": 0.25},
              {"name": "tpot_ms_p50", "unit": "ms", "better": "lower",
               "bound": 0.25},
              {"name": "kv_bytes_per_token", "unit": "B/token",
               "better": "lower", "bound": 0.05}]


def line(tok_s, tpot, failed=0, attempted=100, kv_bytes=1272.0):
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": {
                           "out_tok_s": {"value": tok_s, "unit": "tok/s"},
                           "tpot_ms_p50": {"value": tpot, "unit": "ms"},
                           "kv_bytes_per_token": {"value": kv_bytes,
                                                  "unit": "B/token"}}})


def test_parse_line_takes_the_last_line():
    stdout = "== table\n  out_tok_s 600\n" + line(600.0, 8.0) + "\n\n"
    run = pairs.parse_line(stdout)
    assert run["metrics"]["tpot_ms_p50"]["value"] == 8.0
    with pytest.raises(ValueError):
        pairs.parse_line("== table only\n")
    with pytest.raises(ValueError):
        pairs.parse_line("")


def test_summary_medians_iqr_and_wins():
    parent = [pairs.parse_line(line(t, p)) for t, p in
              [(600, 8.0), (620, 7.8), (610, 8.2), (590, 8.1)]]
    change = [pairs.parse_line(line(t, p)) for t, p in
              [(650, 7.1), (615, 7.9), (640, 7.5), (660, 7.3)]]
    rows = {row["metric"]: row
            for row in pairs.summarize(parent, change, END_TO_END)}
    tok = rows["out_tok_s"]
    assert (tok["parent"], tok["change"]) == (605.0, 645.0)
    assert tok["parent_iqr"] == pytest.approx(612.5 - 597.5)
    assert (tok["wins"], tok["pairs"], tok["equal"]) == (3, 4, False)
    tpot = rows["tpot_ms_p50"]
    assert tpot["parent"] == pytest.approx(8.05)
    assert tpot["wins"] == 3                  # lower is better; 7.9 > 7.8
    assert tpot["delta"] == pytest.approx((7.4 - 8.05) / 8.05)
    exact = rows["kv_bytes_per_token"]
    assert exact["equal"] and exact["wins"] == 0
    table = pairs.format_table(list(rows.values()), parent, change)
    assert "parent failed/attempted: 0/400" in table
    assert "change failed/attempted: 0/400" in table
    assert table.splitlines()[3].split()[-2:] == ["=", "5%"]
    assert not any(row["worse"] for row in rows.values())
    assert "WORSE" not in table


def test_metrics_worse_than_their_bound_are_marked():
    """A change median worse than the parent's by more than the metric's
    bound — in its own direction — is marked; better, or worse inside
    the bound, is not."""
    parent = [pairs.parse_line(line(t, p)) for t, p in
              [(600, 8.0), (620, 8.0), (610, 8.0)]]
    change = [pairs.parse_line(line(t, p, kv_bytes=kv)) for t, p, kv in
              [(440, 10.1, 1336.0), (450, 10.0, 1336.0), (460, 9.9, 1337.0)]]
    rows = {row["metric"]: row
            for row in pairs.summarize(parent, change, END_TO_END)}
    # out_tok_s 610 -> 450: -26%, past its 25% bound.
    assert rows["out_tok_s"]["worse"]
    # tpot_ms_p50 8.0 -> 10.0: +25%, worse but not past the bound.
    assert not rows["tpot_ms_p50"]["worse"]
    # kv_bytes_per_token 1272 -> 1336: +5.03%, past its 5% bound.
    assert rows["kv_bytes_per_token"]["worse"]
    table = pairs.format_table(list(rows.values()), parent, change)
    marked = [row.split()[0] for row in table.splitlines()
              if row.endswith("WORSE")]
    assert marked == ["out_tok_s", "kv_bytes_per_token"]
    better = {row["metric"]: row
              for row in pairs.summarize(change, parent, END_TO_END)}
    assert not any(row["worse"] for row in better.values())


def test_single_pair_has_no_spread():
    rows = pairs.summarize([pairs.parse_line(line(600, 8.0))],
                           [pairs.parse_line(line(600, 8.0, failed=2))],
                           END_TO_END)
    assert all(row["parent_iqr"] == 0.0 for row in rows)
    table = pairs.format_table(rows, [], [pairs.parse_line(
        line(600, 8.0, failed=2))])
    assert "change failed/attempted: 2/100" in table
