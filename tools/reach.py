"""Reachability ledger: which ``src/repro`` functions does a command enter?

    python tools/reach.py run OUT -- python -m perfbench run     # collect
    python tools/reach.py report PRODUCT_OUT TIER1_OUT           # the table

``run`` puts an env-gated ``sitecustomize`` on ``PYTHONPATH``, so the
command *and every python child it starts* profile themselves
(``sys.setprofile`` + ``threading.setprofile``) and each writes
``OUT/<pid>.txt``, one ``file:co_firstlineno:co_qualname`` per function
entered.  ``report`` prints, per package, the function-body lines the
first directory (the product) entered, the second only (tier-1), and
neither, then names every function outside the first.  Confirm a
"neither" by grep: ``pytest-benchmark`` switches the hook off inside
benchmark bodies, and a process that dies by ``os._exit`` writes nothing.
"""
import ast
import atexit
import collections
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = "src/repro/"


def install(out: str) -> None:
    seen = set()

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and SRC in code.co_filename:
            seen.add(f"{code.co_filename.rpartition(SRC)[2]}:"
                     f"{code.co_firstlineno}:{code.co_qualname}")

    atexit.register(lambda: pathlib.Path(out, f"{os.getpid()}.txt")
                    .write_text("\n".join(sorted(seen))))
    threading.setprofile(hook)
    sys.setprofile(hook)


def run(out: str, command: list[str]) -> int:
    pathlib.Path(out).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as hookdir:
        pathlib.Path(hookdir, "sitecustomize.py").write_text(
            "import os, reach\nreach.install(os.environ['REACH_OUT'])\n")
        path = [hookdir, str(ROOT / "tools"), os.environ.get("PYTHONPATH")]
        return subprocess.run(command, env={
            **os.environ, "REACH_OUT": os.path.abspath(out),
            "PYTHONPATH": os.pathsep.join(filter(None, path))}).returncode


def functions(node, file: str, prefix: str = ""):
    """``("file:firstline:qualname", body lines)`` of every ``def``."""
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min(d.lineno for d in [*child.decorator_list, child])
            yield (f"{file}:{first}:{prefix}{child.name}",
                   child.end_lineno - child.lineno + 1)
            inner = f"{prefix}{child.name}.<locals>."
        elif isinstance(child, ast.ClassDef):
            inner = f"{prefix}{child.name}."
        yield from functions(child, file, inner)


def report(product_dir: str, tier1_dir: str) -> None:
    product, tier1 = ({line for f in pathlib.Path(d).glob("*.txt")
                       for line in f.read_text().splitlines()}
                      for d in (product_dir, tier1_dir))
    table = collections.defaultdict(lambda: [0, 0, 0])
    names = ([], [])
    for path in sorted((ROOT / SRC).rglob("*.py")):
        file = path.relative_to(ROOT / SRC).as_posix()
        package = file.partition("/")[0] if "/" in file else "(top)"
        for key, lines in functions(ast.parse(path.read_text()), file):
            where = 0 if key in product else 1 if key in tier1 else 2
            table[package][where] += lines
            table["total"][where] += lines
            if where:
                names[where - 1].append(f"  {key} ({lines})")
    print("package | product | tier-1 only | neither")
    for package, row in sorted(table.items(), key=lambda kv: kv[0] == "total"):
        print(package, *row, sep=" | ")
    for title, keys in zip(("tier-1 only", "neither"), names):
        print(f"\n{title}:", *keys, sep="\n")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        sys.exit(run(sys.argv[2], sys.argv[sys.argv.index("--") + 1:]))
    report(sys.argv[2], sys.argv[3])
