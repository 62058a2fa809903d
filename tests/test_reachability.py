"""The reachability check (benchmarks/reachability.py) on a toy package.

One subprocess runs a toy entry point under the start-up tracer; the
check must flag the functions it never calls, must not flag a function
the kept-list names, and must see what the entry point ran in a thread
and in a forked worker process.
"""

import importlib.util
import os
import shlex
import sys
import textwrap
import threading

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_REPO, "benchmarks", "reachability.py")
_spec = importlib.util.spec_from_file_location("reachability", _PATH)
reachability = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("reachability", reachability)
_spec.loader.exec_module(reachability)

TOY = '''
import functools


def used():
    return helper() + 1


def helper():
    return 1


def unused():
    return 2


def kept():
    return 3


class Box:
    """A class with one method called and one not."""

    @property
    def size(self):
        return 4

    def unused_method(self):
        return 5

    def stub(self):
        raise NotImplementedError


@functools.lru_cache(maxsize=None)
def cached():
    return 6


def in_thread():
    return 7


def in_child():
    return 8


if True:
    def conditional():
        return 9


class Outer:
    class Inner:
        def method(self):
            return 10
'''

MAIN = '''
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

from toypkg.mod import Box, Outer, cached, conditional, in_child, in_thread, used

used()
Box().size
cached()
conditional()
Outer.Inner().method()
thread = threading.Thread(target=in_thread)
thread.start()
thread.join()
context = multiprocessing.get_context("fork")
with ProcessPoolExecutor(1, mp_context=context) as pool:
    assert pool.submit(in_child).result() == 8
'''


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    package = root / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    (root / "main.py").write_text(textwrap.dedent(MAIN))
    (root / "kept.txt").write_text(
        "# one kept function\n"
        "toypkg/mod.py::kept  oracle  tests compare against it\n"
    )
    reached, runs = reachability.run_entry_points(
        [["main.py"]], str(package), cwd=str(root), pythonpath=[str(root)]
    )
    return root, package, reached, runs


def test_entry_point_ran(toy):
    _root, _package, _reached, runs = toy
    [(command, code, _seconds, raised)] = runs
    assert command == "main.py" and code == 0 and not raised


def test_unreached_functions_are_flagged(toy):
    root, package, reached, _runs = toy
    universe = reachability.functions(str(package))
    keys = {func.key for func in universe}
    assert "toypkg/mod.py::Box.stub" not in keys  # a stub has no behaviour
    missed = reachability.unreached(universe, reached)
    kept = reachability.load_kept(str(root / "kept.txt"))
    flagged = {func.key for func in missed if func.key not in kept}
    assert flagged == {
        "toypkg/mod.py::unused",
        "toypkg/mod.py::Box.unused_method",
    }
    assert "toypkg/mod.py::kept" in {func.key for func in missed}


def reached_keys(toy):
    _root, package, reached, _runs = toy
    universe = reachability.functions(str(package))
    missed = {func.key for func in reachability.unreached(universe, reached)}
    return {func.key for func in universe} - missed


@pytest.mark.parametrize("name", [
    "in_thread",  # a thread started after the hook
    "in_child",  # a forked worker, which leaves through os._exit
    "cached",  # a decorated function: its code starts at the decorator
    "conditional",  # a def under a module-level if
    "Outer.Inner.method",  # a method of a nested class
    "Box.size",  # a property
])
def test_entries_the_entry_point_made_are_seen(toy, name):
    assert f"toypkg/mod.py::{name}" in reached_keys(toy)


def test_an_untraced_entry_point_is_an_error(toy):
    root, package, _reached, _runs = toy
    # -S skips site, and with it the sitecustomize that installs the hook.
    with pytest.raises(RuntimeError, match="was not traced"):
        reachability.run_entry_points(
            [["-S", "main.py"]], str(package), cwd=str(root),
            pythonpath=[str(root)],
        )


def test_a_raising_entry_point_is_told_from_a_failed_gate(toy):
    root, package, _reached, _runs = toy
    (root / "raises.py").write_text("import toypkg.mod\nraise KeyError(1)\n")
    (root / "gate.py").write_text("import sys\nsys.exit('below floor')\n")
    _reached, runs = reachability.run_entry_points(
        [["raises.py"], ["gate.py"]], str(package), cwd=str(root),
        pythonpath=[str(root)],
    )
    assert [(code, raised) for _c, code, _s, raised in runs] == [
        (1, True), (1, False)
    ]


def test_kept_list_rejects_unknown_tags(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text("toypkg/mod.py::kept  because  reasons\n")
    with pytest.raises(ValueError, match="tag from"):
        reachability.load_kept(str(kept))


def test_kept_list_rejects_a_key_listed_twice(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text(
        "toypkg/mod.py::kept  oracle  tests compare against it\n"
        "toypkg/mod.py::kept  safety  and it handles errors\n"
    )
    with pytest.raises(ValueError, match="listed twice"):
        reachability.load_kept(str(kept))


def test_line_mode_records_lines_under_its_root_only(tmp_path):
    """The coverage gate's mode: lines under the root, threads too; and
    uninstalling hands tracing back to whoever had it."""
    module = tmp_path / "lines.py"
    module.write_text("def work(x):\n    y = x + 1\n    return y * 2\n")
    spec = importlib.util.spec_from_file_location("lines", module)
    lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lines)
    before = sys.gettrace()
    tracer = reachability.Tracer(root=str(tmp_path))
    tracer.install()
    try:
        thread = threading.Thread(target=lines.work, args=(1,))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        tracer.uninstall()
    assert sys.gettrace() is before
    assert tracer.executed[str(module)] == {2, 3}
    assert not any(path.startswith(os.path.dirname(_PATH))
                   for path in tracer.executed)


def test_start_up_hook_is_inert_without_its_variable(monkeypatch):
    monkeypatch.delenv(reachability.OUT_ENV, raising=False)
    before = sys.gettrace()
    reachability.trace_this_process()
    assert sys.gettrace() is before


def invocation(argv):
    """An invocation's script and flags, without its output paths."""
    script, *rest = argv
    flags = []
    while rest:
        word = rest.pop(0)
        if word in ("--output", "--out"):
            rest.pop(0)
        else:
            flags.append(word)
    return script, tuple(sorted(flags))


def test_entry_points_are_the_benchmarks_tier1_runs():
    """Every benchmark run_tier1.sh runs is an entry point, and back."""
    with open(os.path.join(_REPO, "benchmarks", "run_tier1.sh")) as handle:
        script = handle.read().replace("\\\n", " ")
    runs = set()
    for line in script.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] in (["python"], ["python3"]) and len(words) > 1:
            if words[1].startswith("benchmarks/"):
                runs.add(invocation(words[1:]))
    assert "for example in examples/*.py" in script
    traced = {
        invocation(argv)
        for argv in reachability.ENTRY_POINTS + reachability.FULL_ENTRY_POINTS
        if argv[0].startswith("benchmarks/")
    }
    assert {run for run in runs
            if run[0] not in reachability.NOT_ENTRY_POINTS} == traced
