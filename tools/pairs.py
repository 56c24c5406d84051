"""Alternating perfbench pairs: a parent checkout against a change.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed S]
                          [--pairs N] [--json FILE]

Each pair runs ``python -m perfbench run --workload W --seed S`` once in
each checkout, one after the other (the pair's first run alternates, so
slow drift of the host lands on both sides), and parses the JSON line
each run prints last.  For every end-to-end metric of ``BENCHMARK.json``
the table gives the parent's and the change's median, the change's
median delta, the parent's interquartile range (a delta inside it is
noise), and how many pairs the change won — strictly better, in the
metric's ``better`` direction; ``=`` marks a metric equal in every
pair.  The ``bound`` column is the metric's ``BENCHMARK.json`` bound, and
``WORSE`` marks a metric whose change median is worse than the parent's
by more than it: the rule a change is rejected on.  ``failed/attempted``
sums the operations of each side.  ``--json`` keeps every run's parsed
line.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def parse_line(stdout: str) -> dict:
    """The JSON result line — the last non-empty line perfbench printed."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    run = json.loads(lines[-1])
    if not {"attempted", "failed", "metrics"} <= set(run):
        raise ValueError(f"not a perfbench result line: {lines[-1][:80]}")
    return run


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent: list[dict], change: list[dict],
              end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the paired runs
    (``parent[i]`` against ``change[i]``)."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        p_med, c_med = statistics.median(before), statistics.median(after)
        delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
        rows.append({
            "metric": name, "unit": spec["unit"], "parent": p_med,
            "change": c_med, "parent_iqr": iqr(before), "wins": wins,
            "pairs": len(before), "equal": before == after,
            "delta": delta, "bound": spec["bound"],
            "worse": sign * delta < -spec["bound"]})
    return rows


def format_table(rows: list[dict], parent: list[dict],
                 change: list[dict]) -> str:
    out = [f"{'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} "
           f"{'parent IQR':>11} {'wins':>6} {'bound':>6}"]
    for row in rows:
        wins = "=" if row["equal"] else f"{row['wins']}/{row['pairs']}"
        out.append(f"{row['metric']:<20} {row['parent']:>12.4f} "
                   f"{row['change']:>12.4f} {row['delta']:>+8.2%} "
                   f"{row['parent_iqr']:>11.4f} {wins:>6} "
                   f"{row['bound']:>6.0%}" + ("  WORSE" if row["worse"]
                                             else ""))
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        out.append(f"{side} failed/attempted: {failed}/{attempted}")
    return "\n".join(out)


def run_once(checkout: str, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", workload,
         "--seed", str(seed)], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs: perfbench failed in {checkout}:\n"
                 f"{done.stderr[-2000:]}")
    return parse_line(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    spec = json.loads((pathlib.Path(args.change) / "BENCHMARK.json")
                      .read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        if args.json:
            pathlib.Path(args.json).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, **runs}))
    print(f"== {args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(format_table(summarize(runs["parent"], runs["change"],
                                 spec["end_to_end"]),
                       runs["parent"], runs["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
