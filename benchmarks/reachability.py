"""Which ``src/repro`` functions the system's entry points run.

Runs every entry point of the system under a ``sys.settrace`` hook and
lists each function under ``src/repro`` that none of them entered.  A
function is a ``def`` in a module body or a class body (methods of
nested classes included, functions nested in functions counted as part
of their parent); an interface stub whose body is only a docstring,
``...``, ``pass`` or ``raise NotImplementedError`` has no behaviour to
reach and is left out.

Entry points (``ENTRY_POINTS``): the ledger smoke over all four
workloads (each run untraced and traced, in its own subprocess), every
``examples/*.py``, ``python -m repro.plan`` with each ``--baseline``,
and every smoke benchmark ``run_tier1.sh`` runs.  ``--full`` adds the
``run_tier1.sh --full`` sweeps (``FULL_ENTRY_POINTS``, ~7 min traced
on 2 CPUs), which CI's check leaves out, and notes every function only
they reach: the smoke check flags it, yet deleting it breaks a sweep.
``NOT_ENTRY_POINTS`` names the scripts of ``run_tier1.sh`` that are no
entry point.  An entry point that raises fails the check; one that
exits non-zero because its own gate failed does not (tracing slows its
timed gates, and ``run_tier1.sh`` runs them untraced).

Every Python process an entry point starts is traced, not only the
entry point itself: a ``sitecustomize`` on ``PYTHONPATH`` installs the
hook at interpreter start-up, and a forked child writes what it
entered when it leaves through ``os._exit``.

An unreached function stays in ``src/repro`` only if ``KEPT_PATH``
lists it with one of the reasons in ``REASONS``; the check fails on any
other.  A kept function that some entry point did reach is reported,
so the list can shrink, but does not fail the check: error paths are
reached or not depending on thread timing.

``Tracer`` is the one trace hook of ``benchmarks/``:
``pipeline_coverage.py`` uses its line mode for the pipeline coverage
gate.

Usage::

    PYTHONPATH=src python benchmarks/reachability.py         # check
    PYTHONPATH=src python benchmarks/reachability.py --list  # + every
                                                             #   unreached
    PYTHONPATH=src python benchmarks/reachability.py --full  # + the full
                                                             #   sweeps
"""

from __future__ import annotations

import argparse
import ast
import atexit
import functools
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")
KEPT_PATH = os.path.join(REPO_ROOT, "benchmarks", "reachability_kept.txt")

#: Why an unreached function may stay, by the tag the kept-list uses.
REASONS = {
    "safety": "error or recovery handling, a fault path, a check on "
    "outside input",
    "oracle": "tests compare against it as a reference implementation",
    "ledger": "the frozen ledger imports it",
}

#: Where a traced process writes what it entered (set for children).
OUT_ENV = "REPRO_REACHABILITY_OUT"

#: argv after ``python``; ``{out}`` is a scratch directory for outputs.
ENTRY_POINTS: List[List[str]] = [
    ["benchmarks/ledger/run.py", "--smoke", "--out", "{out}/ledger.json"],
    *(
        [os.path.relpath(path, REPO_ROOT)]
        for path in sorted(glob.glob(os.path.join(REPO_ROOT, "examples",
                                                  "*.py")))
    ),
    *(
        [
            "-m", "repro.plan", "--seqlens", "16384", "4096", "2048",
            "--mask", "lambda", "--machines", "2", "--devices", "4",
            "--block-size", "1024", "--baseline", baseline,
            "--trace", "{out}/plan_trace.json",
        ]
        for baseline in ("rfa_ring", "rfa_zigzag", "loongtrain", "te")
    ),
    ["benchmarks/bench_planner_hotpath.py", "--smoke",
     "--output", "{out}/planner.json"],
    ["benchmarks/bench_overlap_pipeline.py", "--smoke",
     "--output", "{out}/overlap.json"],
    ["benchmarks/bench_overlap_pipeline.py", "--streaming", "--smoke",
     "--output", "{out}/streaming.json"],
    ["benchmarks/bench_plan_service.py", "--smoke",
     "--output", "{out}/service.json"],
    ["benchmarks/bench_chaos.py", "--smoke", "--output", "{out}/chaos.json"],
    ["benchmarks/bench_scenarios.py", "--smoke",
     "--output", "{out}/scenarios.json"],
    ["benchmarks/bench_overlap_pipeline.py", "--obs", "--smoke",
     "--output", "{out}/obs.json"],
    ["benchmarks/check_docs.py"],
]

#: The ``run_tier1.sh --full`` sweeps.  Each rewrites a tracked
#: ``BENCH_*.json`` (the obs sweep ``TRACE_obs.json`` too), so ``--full``
#: runs every entry point in a copy of the tree.
FULL_ENTRY_POINTS: List[List[str]] = [
    ["benchmarks/bench_planner_hotpath.py"],
    ["benchmarks/bench_overlap_pipeline.py"],
    ["benchmarks/bench_overlap_pipeline.py", "--streaming"],
    ["benchmarks/bench_plan_service.py"],
    ["benchmarks/bench_chaos.py"],
    ["benchmarks/bench_scenarios.py"],
    ["benchmarks/bench_overlap_pipeline.py", "--obs"],
]

#: Scripts ``run_tier1.sh`` runs that are not entry points, and why.
#: ``tests/test_reachability.py`` checks that every other benchmark
#: invocation of ``run_tier1.sh`` is in ``ENTRY_POINTS`` or
#: ``FULL_ENTRY_POINTS`` and that each of those is in ``run_tier1.sh``.
NOT_ENTRY_POINTS = {
    "benchmarks/pipeline_coverage.py": "runs the test suite",
    "benchmarks/check_bench_floors.py": "reads the smoke outputs and "
    "calls nothing under src/repro",
    "benchmarks/reachability.py": "this check, which re-runs the others",
}


class Tracer:
    """Global trace hook: every function entry, and line events under *root*.

    With ``root=None`` it records only which code objects were entered
    and turns off line tracing in every frame, which keeps the cost to
    one call per Python function call.  Threads started after
    ``install`` are traced too; ``uninstall`` puts back the hooks that
    were there before (a coverage tool's, say).
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        self.entered: Set[object] = set()
        self.executed: Dict[str, Set[int]] = {}

    def _local(self, frame, event, _arg):
        if event == "line":
            self.executed.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno
            )
        return self._local

    def __call__(self, frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        self.entered.add(code)
        if self.root is None or not code.co_filename.startswith(self.root):
            return None
        return self._local(frame, event, arg)

    def install(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self)
        sys.settrace(self)

    def uninstall(self) -> None:
        previous, previous_threads = self._previous
        sys.settrace(previous)
        threading.settrace(previous_threads)

    def entries(self, root: str) -> Set[Tuple[str, int]]:
        """``(path, first line)`` of every entered code object under *root*."""
        root = os.path.realpath(root) + os.sep
        found = set()
        for code in list(self.entered):
            path = os.path.realpath(code.co_filename)
            if path.startswith(root):
                found.add((path, code.co_firstlineno))
        return found


def trace_this_process() -> None:
    """Trace this process when ``OUT_ENV`` names a directory (start-up hook).

    Writes ``path<TAB>line`` per entered code object under the root the
    environment names to a new file in that directory at exit, and from
    a forked child when it leaves through ``os._exit``.
    """
    spec = os.environ.get(OUT_ENV)
    if not spec:
        return
    out_dir, root = spec.split(os.pathsep, 1)
    tracer = Tracer()

    def dump() -> None:
        fd, _path = tempfile.mkstemp(dir=out_dir, prefix=f"{os.getpid()}-")
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(
                f"{file}\t{line}\n" for file, line in tracer.entries(root)
            )

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    atexit.register(dump)
    os._exit = exit_after_dump
    tracer.install()


_BOOT = """\
import importlib.util as _util
import sys as _sys
_spec = _util.spec_from_file_location("_reachability", {path!r})
_module = _sys.modules["_reachability"] = _util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.trace_this_process()
"""


def run_entry_points(
    entry_points: Sequence[Sequence[str]],
    root: str,
    cwd: str = REPO_ROOT,
    pythonpath: Sequence[str] = (os.path.join(REPO_ROOT, "src"),),
) -> Tuple[Set[Tuple[str, int]], List[Tuple[str, int, float, bool]]]:
    """Run each entry point traced; return what they entered and how each ran.

    The second value is ``(command, exit code, seconds, raised)`` per entry
    point; ``raised`` is true when it ended on an uncaught exception.
    """
    scratch = tempfile.mkdtemp(prefix="reachability-")
    boot_dir = os.path.join(scratch, "boot")
    out_dir = os.path.join(scratch, "entered")
    os.makedirs(boot_dir)
    os.makedirs(out_dir)
    with open(os.path.join(boot_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as handle:
        handle.write(_BOOT.format(path=os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([boot_dir, *pythonpath])
    env[OUT_ENV] = out_dir + os.pathsep + root
    runs = []
    try:
        for argv in entry_points:
            argv = [arg.format(out=scratch) for arg in argv]
            traced = len(os.listdir(out_dir))
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, *argv], cwd=cwd, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            command = " ".join(argv).replace(scratch, "<out>")
            raised = "Traceback (most recent call last)" in done.stdout
            runs.append((command, done.returncode,
                         time.perf_counter() - start, raised))
            if done.returncode:
                sys.stderr.write(done.stdout[-2000:])
            if len(os.listdir(out_dir)) == traced:
                raise RuntimeError(f"{command} was not traced: "
                                   f"{done.stdout[-2000:]}")
        reached = set()
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                for row in handle:
                    path, line = row.rstrip("\n").split("\t")
                    reached.add((path, int(line)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return reached, runs


@dataclass(frozen=True)
class Function:
    key: str  # "<package>/<module path>::<qualname>"
    path: str  # real path of the file
    first: int  # first line: the first decorator's, else the def's
    lines: int


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in (
            ast.unparse(stmt.exc) if stmt.exc is not None else ""
        ):
            continue
        return False
    return True


def _defs(body: Iterable[ast.stmt], prefix: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_stub(node):
                yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.If, ast.Try)):
            nested = [*node.body, *node.orelse]
            for handler in getattr(node, "handlers", ()):
                nested.extend(handler.body)
            yield from _defs(nested, prefix)


def functions(root: str) -> List[Function]:
    """Every function under the package directory *root*, in file order."""
    base = os.path.dirname(os.path.realpath(root))
    found = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        path = os.path.realpath(path)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        rel = os.path.relpath(path, base).replace(os.sep, "/")
        for qualname, node in _defs(tree.body, ""):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            found.append(Function(f"{rel}::{qualname}", path, first,
                                  node.end_lineno - first + 1))
    return found


def load_kept(path: str = KEPT_PATH) -> Dict[str, Tuple[str, str]]:
    """``key -> (reason tag, reason)`` from a kept-list file.

    One function a line: ``<key> <tag> <reason>``; ``#`` starts a comment.
    Raises ``ValueError`` on an unknown tag, a missing reason or a key
    listed twice.
    """
    kept: Dict[str, Tuple[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for number, row in enumerate(handle, start=1):
            row = row.strip()
            if not row or row.startswith("#"):
                continue
            parts = row.split(None, 2)
            if len(parts) < 3 or parts[1] not in REASONS:
                raise ValueError(
                    f"{path}:{number}: want '<key> <tag> <reason>' with a "
                    f"tag from {sorted(REASONS)}: {row!r}"
                )
            if parts[0] in kept:
                raise ValueError(f"{path}:{number}: {parts[0]} listed twice")
            kept[parts[0]] = (parts[1], parts[2])
    return kept


def unreached(
    universe: Sequence[Function], reached: Set[Tuple[str, int]]
) -> List[Function]:
    return [f for f in universe if (f.path, f.first) not in reached]


def _by_package(funcs: Iterable[Function]) -> Dict[str, int]:
    lines: Dict[str, int] = {}
    for func in funcs:
        parts = func.key.split("::")[0].split("/")
        package = "/".join(parts[:2]) if len(parts) > 2 else parts[0]
        lines[package] = lines.get(package, 0) + func.lines
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function, kept or not")
    parser.add_argument("--full", action="store_true",
                        help="also run FULL_ENTRY_POINTS, in a copy of the "
                        "tree (~9 min)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    kept = load_kept()
    tree = REPO_ROOT
    if args.full:
        tree = tempfile.mkdtemp(prefix="reachability-tree-")
        shutil.copytree(REPO_ROOT, tree, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
    package_dir = os.path.join(tree, "src", "repro")
    run = functools.partial(run_entry_points, root=package_dir, cwd=tree,
                            pythonpath=(os.path.join(tree, "src"),))
    try:
        universe = functions(package_dir)
        reached, runs = run(ENTRY_POINTS)
        full_reached, full_runs = set(), []
        if args.full:
            full_reached, full_runs = run(FULL_ENTRY_POINTS)
    finally:
        if args.full:
            shutil.rmtree(tree, ignore_errors=True)
    runs += full_runs
    for command, code, seconds, raised in runs:
        status = "" if code == 0 else f"  (exit {code})"
        if raised:
            status += "  (raised)"
        print(f"{seconds:7.1f} s  {command}{status}")
    missed = unreached(universe, reached)

    total = _by_package(universe)
    dead = _by_package(missed)
    print(f"\n{'package':<22} {'unreached':>9} {'lines':>6}")
    for package in sorted(total):
        print(f"{package:<22} {dead.get(package, 0):>9} {total[package]:>6}")
    print(f"{'TOTAL':<22} {sum(dead.values()):>9} {sum(total.values()):>6}"
          f"  ({len(missed)} of {len(universe)} functions unreached)")

    if args.list:
        for func in missed:
            tag = kept.get(func.key, ("-", ""))[0]
            print(f"{func.lines:5} {tag:<7} {func.key}")
    missed_keys = {func.key for func in missed}
    for key in sorted(set(kept) - missed_keys):
        print(f"note: kept but reached: {key}")
    for func in missed:
        if (func.path, func.first) in full_reached:
            print(f"note: reached only by a --full sweep: {func.key}")
    failures = [func for func in missed if func.key not in kept]
    for func in failures:
        print(f"FAIL: unreached and not kept: {func.key} "
              f"({os.path.relpath(func.path, tree)}:{func.first})")
    crashed = [command for command, _code, _seconds, raised in runs
               if raised]
    for command in crashed:
        print(f"FAIL: entry point raised: {command}")
    print(f"reachability: {time.perf_counter() - start:.0f} s")
    if crashed:
        return 1
    if failures:
        print(f"{len(failures)} unreached function(s): delete them, move "
              f"them beside their only caller, or list them in "
              f"{os.path.relpath(KEPT_PATH, REPO_ROOT)} with a reason")
        return 1
    print("ok: every unreached function is kept for a stated reason")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
