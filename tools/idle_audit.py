"""Which functions under ``src/repro`` does no documented flow enter?

Runs every line of ``tools/flows.txt`` (the argument list of ``python``;
``{tmp}`` is a scratch directory) in a child interpreter under ``sys.setprofile``
+ ``threading.setprofile``, maps the code objects that were called to ``ast``
function definitions, and exits non-zero on any function no flow entered that
``tools/idle_allowlist.txt`` does not name with a reason.  Flow exit codes are
ignored: wall-clock assertions of benchmarks fail under the profiler, and a
flow that broke shows up as idle functions.
"""

from __future__ import annotations

import ast
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from fnmatch import fnmatchcase

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
REASONS = ("test reference", "synchronisation / fault path", "paper §", "__repr__/debug",
           "CLI subcommand")


def child(out: str, argv: list[str]) -> None:
    """Run one flow in this interpreter; append the code objects it entered."""
    seen: set = set()

    def hook(frame, _event, _arg):  # whatever the event, its frame was entered
        seen.add(frame.f_code)

    sys.path.insert(0, ROOT)  # where `python -m` starts looking; a script's folder replaces it
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.setprofile(None)
        rows = [f"{c.co_filename}:{c.co_firstlineno}\n" for c in tuple(seen)]  # a thread may add
        with open(out, "a") as handle:
            handle.writelines(row for row in rows if row.startswith(SRC))


def definitions() -> dict[str, tuple[str, int]]:
    """``file:first line -> (path::qualname, lines)`` of every function under
    src/repro.  A code object's first line is its first decorator's; a body of
    docstring, ``...``, ``pass`` or ``raise NotImplementedError`` declares an
    interface and holds no code to be idle."""
    found = {}

    def walk(node, prefix, full):
        for item in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}{item.name}."
                declares = isinstance(item, ast.ClassDef) or all(
                    isinstance(stmt, ast.Pass)
                    or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                    or (isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.dump(stmt))
                    for stmt in item.body
                )
                if not declares:
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    name = f"{os.path.relpath(full, ROOT)}::{prefix}{item.name}"
                    found[f"{full}:{first}"] = (name, item.end_lineno - first + 1)
            walk(item, inner, full)

    for folder, _dirs, files in os.walk(SRC):
        for name in (n for n in files if n.endswith(".py")):
            with open(os.path.join(folder, name)) as handle:
                walk(ast.parse(handle.read()), "", os.path.join(folder, name))
    return found


def main() -> int:
    with open(os.path.join(ROOT, "tools", "flows.txt")) as handle:
        flows = [line.strip() for line in handle if line.strip() and not line.startswith("#")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), REPRO_BENCH_SCALE="tiny")
    with tempfile.TemporaryDirectory(prefix="idle-audit-") as tmp:
        out = os.path.join(tmp, "entered.txt")
        for number, flow in enumerate(flows, 1):
            words = shlex.split(flow.replace("{tmp}", tmp))
            done = subprocess.run(
                [sys.executable, __file__, "--child", out, *words],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            print(f"[{number}/{len(flows)}] exit {done.returncode}: {flow}", flush=True)
        with open(out) as handle:
            entered = set(handle.read().splitlines())
    with open(os.path.join(ROOT, "tools", "idle_allowlist.txt")) as handle:
        pairs = (line.partition("#") for line in handle)
        allowed = {name.strip(): reason.strip() for name, _, reason in pairs if name.strip()}
    found = definitions()
    idle = {name: lines for key, (name, lines) in sorted(found.items()) if key not in entered}
    covered = {name: [p for p in allowed if fnmatchcase(name, p)] for name in idle}
    used = {p for patterns in covered.values() for p in patterns}
    problems = [
        *(f"entered by no flow and not allowlisted: {n}" for n, ps in covered.items() if not ps),
        *(f"allowlisted without one of the five reasons: {p}"
          for p, reason in allowed.items() if not reason.startswith(REASONS)),
        *(f"allowlisted but entered by a flow, or gone: {p}" for p in sorted(set(allowed) - used)),
    ]
    summary = f"{len(found)} functions, {len(idle)} idle ({sum(idle.values())} lines)"
    print(*problems, summary, sep="\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2], sys.argv[3:]) if sys.argv[1:2] == ["--child"] else main())
