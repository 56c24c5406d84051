"""Command line: ``python -m perfbench {run,compare} ...``.

``run --workload NAME`` measures in this process; without ``--workload``
it starts one fresh child per workload, one after another.  The driver
of ``BENCHMARK.json`` appends ``--seconds <run_seconds> --trace <0|1>``
to its command, so both spellings are accepted; the run length itself
is not an option (see :func:`_run_seconds`).  BLAS/OpenMP
threads are pinned to one before numpy loads (two cores here: one for
the load generator's process, none to spare for a thread pool) and the
setting is recorded in every result.
"""

import os
import time

_PROCESS_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _require_program() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing
    to run, and saying so beats an import error half way in."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perfbench: src/repro not found next to perfbench/; "
                 "run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _trace_flag(text: str) -> bool:
    """``--trace`` alone, or the driver's ``--trace 0`` / ``--trace 1``."""
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return text == "1"


def _run_seconds(given: float | None) -> float:
    """Timed seconds per workload: ``run_seconds`` of ``BENCHMARK.json``.

    Run length is fixed by the benchmark so that any two result files
    compare.  ``--seconds`` exists because the driver passes it; a value
    other than the benchmark's own is refused.
    """
    from perfbench import metrics

    seconds = float(metrics.spec()["run_seconds"])
    if given is not None and given != seconds:
        sys.exit(f"perfbench: run length is fixed at {seconds:g} s "
                 f"(run_seconds of BENCHMARK.json), not {given:g}")
    return seconds


def _parser() -> argparse.ArgumentParser:
    from perfbench.workloads import DEFAULT_SEED

    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", default=None,
                     help="one workload (default: all, a child each)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="workload-generation seed")
    run.add_argument("--seconds", type=float, default=None,
                     help="passed by the driver; must equal run_seconds "
                          "of BENCHMARK.json")
    run.add_argument("--trace", nargs="?", const=True, default=False,
                     type=_trace_flag,
                     help="record spans and report per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="tiny untrained models, small shapes (smoke test)")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write full results (per-round values, "
                          "provenance) as JSON")
    compare = commands.add_parser(
        "compare", help="judge NEW against BASE, metric by metric")
    compare.add_argument("base")
    compare.add_argument("new")
    return parser


def _run_all(args) -> list[dict]:
    """One fresh child per workload, sequentially."""
    from perfbench import metrics, runner

    metrics.OUT_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    for name in runner.registry():
        part = metrics.OUT_DIR / f"result-{name}.json"
        command = [sys.executable, "-m", "perfbench", "run", "--workload",
                   name, "--seed", str(args.seed), "--out", str(part)]
        command += ["--trace"] * args.trace + ["--quick"] * args.quick
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        # The child's table, minus its driver line.
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {name} failed")
        results.extend(json.loads(part.read_text())["results"])
        part.unlink()
    return results


def main(argv: list[str] | None = None) -> int:
    _require_program()
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from perfbench.compare import compare_files
        return compare_files(args.base, args.new)

    from perfbench import runner

    seconds = _run_seconds(args.seconds)
    if args.workload is None:
        results = _run_all(args)
        line = None
    else:
        if args.workload not in runner.registry():
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {sorted(runner.registry())}")
        result = runner.run_workload(
            args.workload, args.seed, seconds, args.trace, quick=args.quick,
            process_start=_PROCESS_START)
        runner.print_table(result)
        results = [result]
        line = runner.driver_line(result, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps({"results": results}, indent=1))
    if line is not None:
        print(line)
    # A completed measurement exits 0; wrong outputs are in ``correct``.
    return 0


if __name__ == "__main__":
    sys.exit(main())
