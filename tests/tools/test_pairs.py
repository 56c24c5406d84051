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

END_TO_END = [{"name": "out_tok_s", "unit": "tok/s", "better": "higher"},
              {"name": "tpot_ms_p50", "unit": "ms", "better": "lower"},
              {"name": "kv_bytes_per_token", "unit": "B/token",
               "better": "lower"}]


def line(tok_s, tpot, failed=0, attempted=100):
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": {
                           "out_tok_s": {"value": tok_s, "unit": "tok/s"},
                           "tpot_ms_p50": {"value": tpot, "unit": "ms"},
                           "kv_bytes_per_token": {"value": 1272.0,
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
    assert table.splitlines()[3].split()[-1] == "="


def test_single_pair_has_no_spread():
    rows = pairs.summarize([pairs.parse_line(line(600, 8.0))],
                           [pairs.parse_line(line(600, 8.0, failed=2))],
                           END_TO_END)
    assert all(row["parent_iqr"] == 0.0 for row in rows)
    table = pairs.format_table(rows, [], [pairs.parse_line(
        line(600, 8.0, failed=2))])
    assert "change failed/attempted: 2/100" in table
