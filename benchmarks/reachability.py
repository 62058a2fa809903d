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
hook at interpreter start-up.

The same pass builds the options table.  At every entry into a reached
public function (no ``_``-prefixed part in its qualified name, an
``__init__`` counting as its class) the hook records which defaulted
parameters the caller set to something other than the default: not
``is`` the default, or for a ``None`` / ``bool`` / ``int`` / ``float``
/ ``str`` / ``bytes`` default (or a tuple of them) not ``==`` it.  A
parameter that some call under ``benchmarks/`` passes by keyword or by
position counts as varied too (``static_options``): the frozen ledger
and the figure benchmarks that CI does not run set options that way.  A
parameter no entry point varies is *unvaried*: its default is the code.

The table also holds the defaulted fields of the configuration
dataclasses (``CONFIG_CLASSES``).  A field is varied when an entry point
builds an instance (``replace`` included: it calls the class) with a
value that is not the field's default by the same rule, a frozen
dataclass of such values comparing with ``==`` too, so a
``default_factory`` field compares with what its factory makes; or
when a call under ``benchmarks/`` passes it to the class by keyword or
by position, or by keyword to ``replace`` or a forwarder
(``FORWARDERS``).  The hook knows a dataclass's ``__init__`` by its
code's file ``"<string>"`` and the class of its ``self``.

And it holds the ``argparse`` flags of every script ``run_tier1.sh``
runs (``tier1_invocations``, either mode; the frozen ledger's own
command line is left out): a flag is varied when some invocation there
passes it with a value that is not its default.

An unreached function, or an unvaried parameter, field or flag, stays
only if ``KEPT_PATH`` lists it with one of the reasons in ``REASONS``;
the check fails on any other.  A kept function that some entry point
did reach, or a kept option one did vary, is reported, so the list can
shrink, but does not fail the check: error paths are reached or not
depending on thread timing.

``Tracer`` is the one trace hook of ``benchmarks/``:
``pipeline_coverage.py`` uses its line mode for the pipeline coverage
gate.

Usage::

    PYTHONPATH=src python benchmarks/reachability.py         # check
    PYTHONPATH=src python benchmarks/reachability.py --full  # + the full
                                                             #   sweeps
"""

from __future__ import annotations

import argparse
import ast
import atexit
import dataclasses
import functools
import glob
import os
import shlex
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
TIER1_PATH = os.path.join(REPO_ROOT, "benchmarks", "run_tier1.sh")

#: The configuration dataclasses whose defaulted fields the options
#: table holds.
CONFIG_CLASSES = (
    "repro/bench/harness.py::BenchScale",
    "repro/blocks/data_blocks.py::AttentionSpec",
    "repro/core/config.py::DCPConfig",
    "repro/placement/hierarchical.py::PlacementConfig",
    "repro/sim/cluster.py::ClusterSpec",
    "repro/model/gpt.py::GPTConfig",
    "repro/parallel/hybrid.py::HybridConfig",
    "repro/parallel/topology.py::RankTopology",
    "repro/data/datasets.py::LengthDistribution",
    "repro/hypergraph/graph.py::BalanceConstraint",
)

#: Calls that hand their keywords to a configuration class's fields, by
#: the class they reach (``None``: whichever class has the field).
FORWARDERS = {"replace": None, "sweep": "BenchScale",
              "dcp_config": "DCPConfig"}

#: Scripts of ``run_tier1.sh`` whose flags the options table leaves out.
FLAGS_LEFT_OUT = {
    "benchmarks/ledger/run.py": "the frozen ledger's command line, which "
    "the benchmark contract drives",
}

#: Why an unreached function or an unvaried parameter may stay, by the
#: tag the kept-list uses.
REASONS = {
    "safety": "error or recovery handling, a fault path, a check on "
    "outside input",
    "oracle": "tests compare against it as a reference implementation",
    "ledger": "the frozen ledger imports it, or passes the parameter in "
    "a form the static scan of benchmarks/ cannot see",
    "fake": "a test hands a fake through the parameter",
}

#: Where a traced process writes what it entered (set for children).
OUT_ENV = "REPRO_REACHABILITY_OUT"
#: The ``CONFIG_CLASSES`` a traced process watches, comma-separated.
CONFIGS_ENV = "REPRO_REACHABILITY_CONFIGS"

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
    one call per Python function call.  With *options* (a package
    directory) it also records, per entry into a public function under
    it or into the ``__init__`` of one of its *configs* classes, the
    defaulted parameters the caller set to something other than the
    default (``varied``: ``(path, first line, parameter)``, a class's
    first line for a field); a parameter is checked only until it is
    first seen varied.  Threads started after ``install`` are traced
    too; ``uninstall`` puts back the hooks that were there before (a
    coverage tool's, say).
    """

    def __init__(self, root: Optional[str] = None,
                 options: Optional[str] = None,
                 configs: Sequence[str] = ()) -> None:
        self.root = root
        self.entered: Set[object] = set()
        self.executed: Dict[str, Set[int]] = {}
        self.options = (None if options is None
                        else os.path.realpath(options) + os.sep)
        self.configs = set(configs)
        self.varied: Set[Tuple[str, int, str]] = set()
        # code -> (path, first line, {parameter: defaults}) still
        # unvaried, or None
        self._watch: Dict[object, Optional[Tuple[str, int, Dict]]] = {}
        self._files: Dict[str, Dict[object, "Function"]] = {}

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
        if self.options is not None:
            watch = self._watch.get(code, self)
            if watch is self:
                watch = self._watch[code] = self._defaults(frame)
            if watch:
                self._check(frame, code, *watch)
        if self.root is None or not code.co_filename.startswith(self.root):
            return None
        return self._local(frame, event, arg)

    def _declared(self, path: str) -> Dict[object, "Function"]:
        """The module at *path*'s functions by first line, and its
        *configs* classes by qualified name."""
        if path not in self._files:
            base = os.path.dirname(os.path.dirname(self.options))
            found = {func.first: func for func in _file_functions(path, base)}
            found.update((func.qualname, func) for func in
                         _file_configs(path, base, self.configs))
            self._files[path] = found
        return self._files[path]

    def _defaults(self, frame):
        """``(path, first line, {parameter: defaults})`` of the public
        function, or the configuration class's ``__init__``, that *frame*
        runs; a field made by a ``default_factory`` has two defaults,
        the ``__init__``'s marker and what the factory makes."""
        code = frame.f_code
        if code.co_filename == "<string>":  # what @dataclass generates
            if code.co_name != "__init__" or "self" not in frame.f_locals:
                return None
            owner = next((cls for cls in type(frame.f_locals["self"]).__mro__
                          if getattr(vars(cls).get("__init__"), "__code__",
                                     None) is code), None)
            module = sys.modules.get(getattr(owner, "__module__", None))
            path = os.path.realpath(getattr(module, "__file__", None) or "/")
            if owner is None or not path.startswith(self.options):
                return None
            func = self._declared(path).get(owner.__qualname__)
            function = owner.__init__
            factories = {f.name: f.default_factory()
                         for f in dataclasses.fields(owner)
                         if f.default_factory is not dataclasses.MISSING}
        else:
            path = os.path.realpath(code.co_filename)
            if not path.startswith(self.options):
                return None
            func = self._declared(path).get(code.co_firstlineno)
            if func is None or not func.public:
                return None
            function = _resolve(frame.f_globals, func.qualname.split("."),
                                code)
            factories = {}
        if func is None or not func.options or function is None:
            return None
        positional = code.co_varnames[:code.co_argcount]
        defaults = function.__defaults__ or ()
        watch = dict(zip(positional[len(positional) - len(defaults):],
                         defaults))
        watch.update(function.__kwdefaults__ or {})
        watch = {name: (default, factories[name]) if name in factories
                 else (default,) for name, default in watch.items()}
        return (path, func.first, watch) if watch else None

    def _check(self, frame, code, path: str, first: int,
               watch: Dict[str, Tuple[object, ...]]) -> None:
        passed = frame.f_locals
        for name, defaults in list(watch.items()):
            value = passed.get(name, defaults[0])
            if not any(_same(value, default) for default in defaults):
                watch.pop(name, None)
                self.varied.add((path, first, name))
        if not watch:
            self._watch[code] = None

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


#: Defaults compared with ``==`` rather than ``is``.
_VALUES = (type(None), bool, int, float, str, bytes)


def _is_value(default: object) -> bool:
    if isinstance(default, tuple):
        return all(_is_value(item) for item in default)
    if dataclasses.is_dataclass(default) and not isinstance(default, type):
        return default.__dataclass_params__.frozen and all(
            _is_value(getattr(default, f.name))
            for f in dataclasses.fields(default))
    return isinstance(default, _VALUES)


def _same(passed: object, default: object) -> bool:
    """Whether *passed* is the default, by the options table's rule: a
    value default (``_VALUES``, or a tuple or frozen dataclass of them)
    by ``==``, any other by identity."""
    if passed is default:
        return True
    if not _is_value(default):
        return False
    try:
        return bool(passed == default)
    except Exception:  # an array against a scalar default, say
        return False


def _resolve(namespace: Dict[str, object], parts: Sequence[str], code):
    """The function object whose code is *code*, by qualified name."""
    found: object = namespace.get(parts[0])
    for part in parts[1:]:
        found = vars(found).get(part) if isinstance(found, type) else None
    while found is not None:
        if isinstance(found, (staticmethod, classmethod)):
            found = found.__func__
        if getattr(found, "__code__", None) is code:
            return found
        found = getattr(found, "__wrapped__", None)
    return None


def trace_this_process() -> None:
    """Trace this process when ``OUT_ENV`` names a directory (start-up hook).

    Writes ``path<TAB>line`` per entered code object under the root the
    environment names, and ``path<TAB>line<TAB>parameter`` per varied
    parameter, to a new file in that directory at exit.
    """
    spec = os.environ.get(OUT_ENV)
    if not spec:
        return
    out_dir, root = spec.split(os.pathsep, 1)
    configs = os.environ.get(CONFIGS_ENV, "")
    tracer = Tracer(options=root, configs=configs.split(",") if configs
                    else ())

    def dump() -> None:
        fd, _path = tempfile.mkstemp(dir=out_dir, prefix=f"{os.getpid()}-")
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(
                f"{file}\t{line}\n" for file, line in tracer.entries(root)
            )
            handle.writelines(
                f"{file}\t{line}\t{name}\n"
                for file, line, name in list(tracer.varied)
            )

    atexit.register(dump)
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
    configs: Sequence[str] = CONFIG_CLASSES,
) -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, int, str]],
           List[Tuple[str, int, float, bool]]]:
    """Run each entry point traced; return what they entered and set, and
    how each ran.

    The values are the ``(path, first line)`` of every entered function,
    the ``(path, first line, parameter)`` of every varied parameter (or
    field of one of the *configs* classes), and
    ``(command, exit code, seconds, raised)`` per entry point; ``raised``
    is true when it ended on an uncaught exception.
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
    env[CONFIGS_ENV] = ",".join(configs)
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
        reached, varied = set(), set()
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                for row in handle:
                    path, line, *param = row.rstrip("\n").split("\t")
                    if param:
                        varied.add((path, int(line), param[0]))
                    else:
                        reached.add((path, int(line)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return reached, varied, runs


@dataclass(frozen=True)
class Function:
    """A ``def``, or a configuration class (``config``), whose options
    are its defaulted fields and whose positional parameters are its
    ``__init__``'s."""

    key: str  # "<package>/<module path>::<qualname>"
    path: str  # real path of the file
    first: int  # first line: the first decorator's, else the def's
    lines: int
    options: Tuple[str, ...] = ()  # the defaulted parameters
    positional: Tuple[str, ...] = ()  # positional parameters a call fills
    config: bool = False

    @property
    def qualname(self) -> str:
        return self.key.split("::", 1)[1]

    @property
    def public(self) -> bool:
        """No ``_``-prefixed part; an ``__init__`` counts as its class."""
        *outer, name = self.qualname.split(".")
        return not any(part.startswith("_") for part in outer) and (
            name == "__init__" or not name.startswith("_")
        )

    def option_key(self, param: str) -> str:
        if self.config:
            return f"{self.key}.{param}"
        return f"{self.key}({param})"


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


def _signature(node: ast.AST, method: bool):
    """``(defaulted, positional)`` parameter names of a ``def``.

    *positional* leaves out the ``self`` / ``cls`` a method call binds.
    """
    args = node.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [arg.arg for arg, default in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                  if default is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    return tuple(defaulted), tuple(positional)


def _defs(body: Iterable[ast.stmt], prefix: str, method: bool = False):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_stub(node):
                yield prefix + node.name, node, method
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, (ast.If, ast.Try)):
            nested = [*node.body, *node.orelse]
            for handler in getattr(node, "handlers", ()):
                nested.extend(handler.body)
            yield from _defs(nested, prefix, method)


def _file_functions(path: str, base: str) -> List[Function]:
    """Every function of the module at real *path*, keyed relative to *base*."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    rel = os.path.relpath(path, base).replace(os.sep, "/")
    found = []
    for qualname, node, method in _defs(tree.body, ""):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found.append(Function(f"{rel}::{qualname}", path, first,
                              node.end_lineno - first + 1,
                              *_signature(node, method)))
    return found


def _fields(node: ast.ClassDef) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(defaulted, positional)`` ``__init__`` fields of a dataclass."""
    defaulted, positional = [], []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id",
                                                   None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            has_default = bool({"default", "default_factory"} & set(keywords))
        else:
            has_default = value is not None
        positional.append(stmt.target.id)
        if has_default:
            defaulted.append(stmt.target.id)
    return tuple(defaulted), tuple(positional)


def _file_configs(path: str, base: str, keys: Iterable[str]) -> List[Function]:
    """The module-level classes of the module at real *path* that *keys*
    name, keyed relative to *base*, as configuration entries."""
    rel = os.path.relpath(path, base).replace(os.sep, "/")
    wanted = {key.split("::", 1)[1] for key in keys
              if key.split("::", 1)[0] == rel}
    if not wanted:
        return []
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in wanted:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found.append(Function(f"{rel}::{node.name}", path, first,
                                  node.end_lineno - first + 1,
                                  *_fields(node), config=True))
    return found


def configs(root: str, keys: Sequence[str] = CONFIG_CLASSES) -> List[Function]:
    """The configuration classes *keys* name under the package *root*.

    Raises ``ValueError`` on a key that names no module-level class.
    """
    base = os.path.dirname(os.path.realpath(root))
    found = []
    for rel in sorted({key.split("::", 1)[0] for key in keys}):
        path = os.path.realpath(os.path.join(base, rel))
        if os.path.exists(path):
            found.extend(_file_configs(path, base, keys))
    missing = set(keys) - {func.key for func in found}
    if missing:
        raise ValueError(f"no such configuration class: {sorted(missing)}")
    return sorted(found, key=lambda func: keys.index(func.key))


def functions(root: str) -> List[Function]:
    """Every function under the package directory *root*, in file order."""
    base = os.path.dirname(os.path.realpath(root))
    found = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        found.extend(_file_functions(os.path.realpath(path), base))
    return found


def _callee(call: ast.Call) -> Optional[str]:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def static_options(universe: Sequence[Function], scripts: str) -> Set[str]:
    """Option keys that a call under *scripts* passes by keyword or position.

    Calls are matched by name only (``f(...)`` and ``x.f(...)`` both
    match every function ``f``; a class name matches its ``__init__``,
    or its fields for a configuration class),
    except that nothing matches ``m.f(...)`` on a module ``m`` the script
    imports from outside ``repro`` (``subprocess.run``, say) or ``f(...)``
    of an ``f`` the script itself defines or assigns; and ``*args`` /
    ``**kwargs`` count as passing every parameter they could fill, so
    the scan errs towards varied.  A configuration class's fields are
    also set by the keywords of a call to one of ``FORWARDERS``.
    """
    calls: Dict[str, List[ast.Call]] = {}
    every: Dict[str, List[ast.Call]] = {}  # local names' calls too
    for path in glob.glob(os.path.join(scripts, "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        foreign = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if not alias.name.startswith("repro")
        }
        local = {
            node.name if hasattr(node, "name") else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and not (
                isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) in foreign
            ):
                every.setdefault(_callee(node), []).append(node)
                if getattr(node.func, "id", None) not in local:
                    calls.setdefault(_callee(node), []).append(node)
    varied = set()
    for func in universe:
        *outer, name = func.qualname.split(".")
        if name == "__init__" and outer:
            name = outer[-1]
        for call in calls.get(name, ()) if func.options else ():
            passed = {k.arg for k in call.keywords}
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            for param in func.options:
                index = (func.positional.index(param)
                         if param in func.positional else None)
                if param in passed or None in passed or (
                    index is not None and (starred or index < len(call.args))
                ):
                    varied.add(func.option_key(param))
        for forwarder, target in FORWARDERS.items():
            if not func.config or target not in (None, name):
                continue
            for call in every.get(forwarder, ()):
                passed = {k.arg for k in call.keywords}
                varied.update(func.option_key(param) for param in func.options
                              if param in passed or None in passed)
    return varied


def options(
    universe: Sequence[Function], reached: Set[Tuple[str, int]]
) -> List[Tuple[Function, str]]:
    """Every defaulted parameter of a reached public function, and every
    defaulted field of a configuration class."""
    return [
        (func, param)
        for func in universe
        if func.config or func.public and (func.path, func.first) in reached
        for param in func.options
    ]


def unvaried(
    universe: Sequence[Function],
    reached: Set[Tuple[str, int]],
    varied: Set[Tuple[str, int, str]],
    static: Set[str],
) -> List[str]:
    """Option keys of reached public functions that nothing ever set."""
    return [
        func.option_key(param)
        for func, param in options(universe, reached)
        if (func.path, func.first, param) not in varied
        and func.option_key(param) not in static
    ]


#: ``argparse`` actions that take no value: passing the flag varies it.
_NO_VALUE = {"store_true", "store_false", "store_const", "count",
             "append_const", "help", "version"}

#: A default the static scan cannot evaluate: any passed value varies it.
_UNKNOWN = object()


@dataclass(frozen=True)
class Flag:
    """An ``argparse`` argument of a script."""

    key: str  # "<script>::<first long option>", or the positional's name
    names: Tuple[str, ...]  # option strings; () for a positional
    takes_value: bool
    default: object  # the literal default, or _UNKNOWN
    convert: type = str  # what argparse makes of a passed word

    def same(self, word: str) -> bool:
        """Whether passing *word* leaves the default."""
        if self.default is _UNKNOWN:
            return False
        try:
            return _same(self.convert(word), self.default)
        except ValueError:
            return False


def tier1_invocations(path: str = TIER1_PATH) -> List[List[str]]:
    """argv after ``python`` of every benchmark script ``run_tier1.sh``
    runs, with or without ``--full``."""
    with open(path, encoding="utf-8") as handle:
        script = handle.read().replace("\\\n", " ")
    runs = []
    for line in script.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] in (["python"], ["python3"]) and len(words) > 1 \
                and words[1].startswith("benchmarks/"):
            runs.append(words[1:])
    return runs


def script_flags(path: str, script: str) -> List[Flag]:
    """Every ``add_argument`` of the script at *path*, keyed by *script*."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"):
            continue
        words = [arg.value for arg in node.args
                 if isinstance(arg, ast.Constant)]
        keywords = {k.arg: k.value for k in node.keywords}
        action = getattr(keywords.get("action"), "value", "store")
        default = False if action == "store_true" else None
        if "default" in keywords:
            try:
                default = ast.literal_eval(keywords["default"])
            except ValueError:
                default = _UNKNOWN
        names = tuple(word for word in words if word.startswith("-"))
        name = next((word for word in names if word.startswith("--")),
                    words[0])
        convert = {"int": int, "float": float}.get(
            getattr(keywords.get("type"), "id", None), str)
        found.append(Flag(f"{script}::{name}", names,
                          action not in _NO_VALUE, default, convert))
    return found


def passed_flags(flags: Sequence[Flag], argv: Sequence[str]) -> Set[str]:
    """Keys of *flags* that *argv* passes with a value not the default.

    A word that names no option goes to the first positional, which is
    taken to accept every such word (``nargs="*"``).
    """
    by_name = {name: flag for flag in flags for name in flag.names}
    positional = [flag for flag in flags if not flag.names]
    varied = set()
    words = list(argv)
    while words:
        word = words.pop(0)
        name, equals, value = word.partition("=")
        flag = by_name.get(name) if word.startswith("-") else None
        if flag is None:
            if word.startswith("-") or not positional:
                continue
            flag, value = positional[0], word
        elif not flag.takes_value:
            varied.add(flag.key)
            continue
        elif not equals:
            value = words.pop(0) if words else ""
        if not flag.same(value):
            varied.add(flag.key)
    return varied


def benchmark_flags(
    repo: str = REPO_ROOT, tier1: str = TIER1_PATH
) -> Tuple[List[Flag], Set[str]]:
    """Every flag of the scripts ``run_tier1.sh`` runs (but
    ``FLAGS_LEFT_OUT``), and the keys of those some invocation varies."""
    scripts: Dict[str, List[Flag]] = {}
    varied: Set[str] = set()
    for script, *argv in tier1_invocations(tier1):
        if script in FLAGS_LEFT_OUT:
            continue
        if script not in scripts:
            scripts[script] = script_flags(os.path.join(repo, script), script)
        varied |= passed_flags(scripts[script], argv)
    return [flag for found in scripts.values() for flag in found], varied


def load_kept(path: str = KEPT_PATH) -> Dict[str, Tuple[str, str]]:
    """``key -> (reason tag, reason)`` from a kept-list file.

    One function or parameter a line: ``<key> <tag> <reason>``, where a
    parameter's key is its function's followed by ``(<parameter>)``;
    ``#`` starts a comment.
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
    return [f for f in universe
            if not f.config and (f.path, f.first) not in reached]


def problems(
    universe: Sequence[Function],
    reached: Set[Tuple[str, int]],
    varied: Set[Tuple[str, int, str]],
    static: Set[str],
    kept: Dict[str, Tuple[str, str]],
    unset_flags: Sequence[str] = (),
) -> List[str]:
    """What fails the check: every unreached function, and every unvaried
    parameter, field or flag (*unset_flags*), that *kept* does not keep."""
    return [
        f"unreached and not kept: {func.key} (line {func.first})"
        for func in unreached(universe, reached) if func.key not in kept
    ] + [
        f"unvaried and not kept: {key}"
        for key in [*unvaried(universe, reached, varied, static),
                    *unset_flags]
        if key not in kept
    ]


def _package(key: str) -> str:
    parts = key.split("::")[0].split("/")
    return "/".join(parts[:2]) if len(parts) > 2 else parts[0]


def _by_package(funcs: Iterable[Function]) -> Dict[str, int]:
    lines: Dict[str, int] = {}
    for func in funcs:
        package = _package(func.key)
        lines[package] = lines.get(package, 0) + func.lines
    return lines


def _print_table(title: str, total: str, rows: Iterable[Tuple[str, str]],
                 unset: Set[str], note: str) -> None:
    """Per group of ``(group, key)`` *rows*: how many keys are *unset*."""
    counts: Dict[str, List[int]] = {}
    for group, key in rows:
        count = counts.setdefault(group, [0, 0])
        count[0] += key in unset
        count[1] += 1
    width = max([22, *map(len, counts)])
    print(f"\n{title:<{width}} {'unvaried':>9} {total:>7}")
    for group in sorted(counts):
        print(f"{group:<{width}} {counts[group][0]:>9} {counts[group][1]:>7}")
    print(f"{'TOTAL':<{width}} {sum(c[0] for c in counts.values()):>9} "
          f"{sum(c[1] for c in counts.values()):>7}  ({note})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
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
        universe = functions(package_dir) + configs(package_dir)
        static = static_options(universe, os.path.join(tree, "benchmarks"))
        flags, flags_varied = benchmark_flags(
            tree, os.path.join(tree, "benchmarks", "run_tier1.sh"))
        reached, varied, runs = run(ENTRY_POINTS)
        full_reached, full_varied, full_runs = set(), set(), []
        if args.full:
            full_reached, full_varied, full_runs = run(FULL_ENTRY_POINTS)
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
    unset = unvaried(universe, reached, varied, static)
    unset_flags = [flag.key for flag in flags
                   if flag.key not in flags_varied]

    total = _by_package(func for func in universe if not func.config)
    dead = _by_package(missed)
    print(f"\n{'package':<22} {'unreached':>9} {'lines':>6}")
    for package in sorted(total):
        print(f"{package:<22} {dead.get(package, 0):>9} {total[package]:>6}")
    print(f"{'TOTAL':<22} {sum(dead.values()):>9} {sum(total.values()):>6}"
          f"  ({len(missed)} of {sum(not f.config for f in universe)} "
          f"functions unreached)")
    for func in missed:
        print(f"  {func.lines:5} {kept.get(func.key, ('-', ''))[0]:<7} "
              f"{func.key}")

    table = options(universe, reached)
    _print_table("package", "options",
                 ((_package(func.key), func.option_key(param))
                  for func, param in table if not func.config),
                 set(unset), "defaulted parameters of reached public "
                 "functions")
    _print_table("configuration class", "fields",
                 ((func.qualname, func.option_key(param))
                  for func, param in table if func.config),
                 set(unset), "defaulted fields of CONFIG_CLASSES")
    _print_table("script", "flags",
                 ((flag.key.split("::")[0], flag.key) for flag in flags),
                 set(unset_flags), "flags of the scripts run_tier1.sh runs")
    for key in unset + unset_flags:
        print(f"  {kept.get(key, ('-', ''))[0]:<7} {key}")

    missed_keys = {func.key for func in missed} | set(unset) | set(unset_flags)
    for key in sorted(set(kept) - missed_keys):
        print(f"note: kept but reached or varied: {key}")
    for func in missed:
        if (func.path, func.first) in full_reached:
            print(f"note: reached only by a --full sweep: {func.key}")
    with_full = set(unvaried(universe, reached, varied | full_varied,
                             static))
    for key in unset:
        if key not in with_full:
            print(f"note: varied only by a --full sweep: {key}")
    failures = problems(universe, reached, varied, static, kept, unset_flags)
    for failure in failures:
        print(f"FAIL: {failure}")
    crashed = [command for command, _code, _seconds, raised in runs
               if raised]
    for command in crashed:
        print(f"FAIL: entry point raised: {command}")
    print(f"reachability: {time.perf_counter() - start:.0f} s")
    if crashed:
        return 1
    if failures:
        print(f"{len(failures)} unreached function(s) or unvaried "
              f"parameter(s), field(s) or flag(s): delete them (an option's "
              f"default becomes the code), move a function beside its only "
              f"caller, or list them in "
              f"{os.path.relpath(KEPT_PATH, REPO_ROOT)} with a reason")
        return 1
    print("ok: every unreached function and unvaried parameter, field and "
          "flag is kept for a stated reason")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
