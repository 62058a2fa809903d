"""The reachability check (benchmarks/reachability.py) on a toy package.

One subprocess runs a toy entry point under the start-up tracer; the
check must flag the functions it never calls and the parameters and
configuration fields no call sets, must not flag a function, parameter
or field the kept-list names, and must see what the entry point ran in
a thread.  The flags table runs on a toy ``run_tier1.sh``.
"""

import importlib.util
import os
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
from dataclasses import dataclass, field


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


def tuned(varied=1, default_only=(2, None), scripted=3, kept_option=4):
    return varied


class Knob:
    def __init__(self, level=1, shared=[]):
        self.level = level


def _private(option=1):
    return option


if True:
    def conditional():
        return 9


class Outer:
    class Inner:
        def method(self):
            return 10


@dataclass(frozen=True)
class Part:
    size: int = 1


@dataclass(frozen=True)
class Conf:
    name: str
    by_keyword: int = 1
    by_position: int = 2
    by_replace: int = 3
    at_default: int = 4
    kept_field: int = 5
    part: Part = field(default_factory=Part)
    scripted: int = 6
'''

MAIN = '''
import threading

from dataclasses import replace

from toypkg.mod import (
    Box, Conf, Knob, Outer, Part, _private, cached, conditional, in_thread,
    tuned, used,
)

used()
Box().size
cached()
conditional()
Outer.Inner().method()
thread = threading.Thread(target=in_thread)
thread.start()
thread.join()
tuned()
tuned(varied=5, default_only=(2, None))
Knob(2, shared=[])
_private()
conf = Conf("a", by_keyword=10, at_default=4)
Conf("b", 1, 20)
replace(conf, by_replace=30)
Conf("c", part=Part())
'''

#: A script under the toy's ``benchmarks/``: it passes ``scripted`` by
#: keyword, which no traced call does.
SCRIPT = '''
from toypkg.mod import Conf, tuned

tuned(scripted=7)
Conf("d", scripted=8)
'''

#: The toy's configuration classes.
CONFIGS = ("toypkg/mod.py::Conf",)

KEPT = (
    "# one kept function and one kept parameter\n"
    "toypkg/mod.py::kept  oracle  tests compare against it\n"
    "toypkg/mod.py::tuned(kept_option)  fake  a test hands a fake through it\n"
    "toypkg/mod.py::Conf.kept_field  ledger  the frozen ledger reads it\n"
)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    package = root / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    (root / "main.py").write_text(textwrap.dedent(MAIN))
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "drive.py").write_text(textwrap.dedent(SCRIPT))
    (root / "kept.txt").write_text(KEPT)
    reached, varied, runs = reachability.run_entry_points(
        [["main.py"]], str(package), cwd=str(root), pythonpath=[str(root)],
        configs=CONFIGS,
    )
    return root, package, reached, varied, runs


def test_entry_point_ran(toy):
    *_, runs = toy
    [(command, code, _seconds, raised)] = runs
    assert command == "main.py" and code == 0 and not raised


def test_unreached_functions_are_flagged(toy):
    root, package, reached, _varied, _runs = toy
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


def option_check(toy, kept_text):
    """The toy's options table and the check's parameter failures."""
    root, package, reached, varied, _runs = toy
    universe = reachability.functions(str(package))
    static = reachability.static_options(universe, str(root / "benchmarks"))
    (root / "kept_now.txt").write_text(kept_text)
    kept = reachability.load_kept(str(root / "kept_now.txt"))
    table = reachability.unvaried(universe, reached, varied, static)
    failed = [problem.split(": ", 1)[1]
              for problem in reachability.problems(
                  universe, reached, varied, static, kept)
              if problem.startswith("unvaried")]
    return table, failed


def test_unvaried_parameters_are_flagged(toy):
    """Varied by a call, by a benchmarks/ script or kept: not flagged."""
    table, failed = option_check(toy, KEPT)
    assert table == [
        "toypkg/mod.py::tuned(default_only)",  # passed, but == the default
        "toypkg/mod.py::tuned(kept_option)",
    ]
    assert failed == ["toypkg/mod.py::tuned(default_only)"]


def test_an_unkept_unvaried_parameter_fails_the_check(toy):
    table, failed = option_check(toy, KEPT.replace(
        "toypkg/mod.py::tuned(kept_option)", "# "))
    assert failed == table


def field_check(toy, kept_text):
    """The toy's unvaried fields and the check's failures on them."""
    root, package, reached, varied, _runs = toy
    universe = reachability.configs(str(package), CONFIGS)
    static = reachability.static_options(universe, str(root / "benchmarks"))
    (root / "kept_fields.txt").write_text(kept_text)
    kept = reachability.load_kept(str(root / "kept_fields.txt"))
    table = reachability.unvaried(universe, reached, varied, static)
    failed = [problem.split(": ", 1)[1]
              for problem in reachability.problems(
                  universe, reached, varied, static, kept)]
    return table, failed


def test_unvaried_fields_are_flagged(toy):
    """``Conf`` fields set by keyword, by position, through ``replace``
    or by a benchmarks/ script are varied; one passed only at its
    default, or equal to what its factory makes, is not, and fails the
    check unless kept."""
    table, failed = field_check(toy, KEPT)
    assert table == [
        "toypkg/mod.py::Conf.at_default",
        "toypkg/mod.py::Conf.kept_field",
        "toypkg/mod.py::Conf.part",
    ]
    assert failed == [
        "toypkg/mod.py::Conf.at_default",
        "toypkg/mod.py::Conf.part",
    ]


def test_a_field_whose_kept_line_goes_fails_the_check(toy):
    _table, failed = field_check(toy, KEPT.replace(
        "toypkg/mod.py::Conf.kept_field", "# "))
    assert "toypkg/mod.py::Conf.kept_field" in failed


def test_fields_of_a_config_class(toy):
    root, package, *_ = toy
    [conf] = reachability.configs(str(package), CONFIGS)
    assert conf.options == ("by_keyword", "by_position", "by_replace",
                            "at_default", "kept_field", "part", "scripted")
    assert conf.positional[0] == "name"
    assert conf.option_key("part") == "toypkg/mod.py::Conf.part"
    with pytest.raises(ValueError, match="no such configuration class"):
        reachability.configs(str(package), ("toypkg/mod.py::Gone",))


def test_static_scan_follows_forwarders(toy, tmp_path):
    """Keywords reach a config's fields through ``replace`` and through
    a forwarder aimed at another class, which sets none of this one's;
    a ``def`` that merely takes ``**kwargs`` forwards nothing."""
    _root, package, *_ = toy
    (tmp_path / "script.py").write_text(
        "from dataclasses import replace\n"
        "def scaled(**overrides):\n"
        "    return BASE\n"
        "replace(BASE, by_replace=1)\n"
        "scaled(at_default=2)\n"
        "BASE.dcp_config(kept_field=3)\n"
    )
    universe = reachability.configs(str(package), CONFIGS)
    assert reachability.static_options(universe, str(tmp_path)) == {
        "toypkg/mod.py::Conf.by_replace",
    }


TOOL = '''
import argparse

parser = argparse.ArgumentParser()
parser.add_argument("--smoke", action="store_true")
parser.add_argument("--rate", type=float, default=85.0)
parser.add_argument("--never", default="x")
parser.add_argument("--output", default=OUTPUT_PATH)
parser.add_argument("tests", nargs="*", default=None)
'''

TIER1 = '''
python benchmarks/tool.py --smoke --rate 85 \\
    --output "$REPO_ROOT/out.json"
if [[ "${1:-}" == "--full" ]]; then
    python benchmarks/tool.py --rate=90
fi
python3 benchmarks/ledger/run.py --smoke
'''


def flag_check(tmp_path, tier1):
    (tmp_path / "benchmarks").mkdir(exist_ok=True)
    (tmp_path / "benchmarks" / "tool.py").write_text(TOOL)
    (tmp_path / "run_tier1.sh").write_text(tier1)
    flags, varied = reachability.benchmark_flags(
        str(tmp_path), str(tmp_path / "run_tier1.sh"))
    return [flag.key for flag in flags if flag.key not in varied]


def test_flags_never_passed_or_passed_at_their_default_are_flagged(
        tmp_path):
    """The frozen ledger's command line is left out; a flag passed in
    either mode with another value is varied."""
    assert flag_check(tmp_path, TIER1) == [
        "benchmarks/tool.py::--never",
        "benchmarks/tool.py::tests",
    ]
    only_default = TIER1.replace("--rate=90", "--smoke")
    assert flag_check(tmp_path, only_default) == [
        "benchmarks/tool.py::--rate",
        "benchmarks/tool.py::--never",
        "benchmarks/tool.py::tests",
    ]
    assert flag_check(tmp_path, TIER1 + "python benchmarks/tool.py a\n") \
        == ["benchmarks/tool.py::--never"]


def test_an_unkept_unvaried_flag_fails_the_check(toy, tmp_path):
    _root, package, reached, varied, _runs = toy
    unset = flag_check(tmp_path, TIER1)
    (tmp_path / "kept.txt").write_text(
        "benchmarks/tool.py::tests  safety  a developer narrows the run\n")
    kept = reachability.load_kept(str(tmp_path / "kept.txt"))
    failed = [problem.split(": ", 1)[1]
              for problem in reachability.problems(
                  [], reached, varied, set(), kept, unset)]
    assert failed == ["benchmarks/tool.py::--never"]


def test_static_scan_skips_foreign_modules_and_local_names(toy, tmp_path):
    """``m.tuned(...)`` on a non-``repro`` module and the script's own
    ``tuned`` pass nothing to toypkg's; ``x.tuned(...)`` on anything
    else does.  The script is only parsed."""
    _root, package, *_ = toy
    (tmp_path / "script.py").write_text(
        "import textwrap\n"
        "def tuned(default_only=None):\n"
        "    return default_only\n"
        "tuned(default_only=1)\n"
        "textwrap.tuned(default_only=1)\n"
        "pipeline.tuned(kept_option=2)\n"
    )
    universe = reachability.functions(str(package))
    assert reachability.static_options(universe, str(tmp_path)) == {
        "toypkg/mod.py::tuned(kept_option)"
    }


def test_options_of_classes_and_private_functions(toy):
    """``Knob(2, shared=[])``: positional counts, an equal list is not
    its default; a private function has no options in the table."""
    _root, package, reached, varied, _runs = toy
    universe = reachability.functions(str(package))
    keys = {key for func, param in reachability.options(universe, reached)
            for key in [func.option_key(param)]}
    assert {"toypkg/mod.py::Knob.__init__(level)",
            "toypkg/mod.py::Knob.__init__(shared)"} <= keys
    assert not any("_private" in key for key in keys)
    table = reachability.unvaried(universe, reached, varied, set())
    assert not any("Knob" in key for key in table)



class _NoCompare:
    def __eq__(self, other):
        raise TypeError("an array against a scalar default, say")


_SENTINEL = object()


@pytest.mark.parametrize("passed, default, same", [
    pytest.param(3, 3, True, id="equal-int"),
    pytest.param(3.0, 3, True, id="equal-float-for-int"),
    pytest.param(tuple([2, None]), (2, None), True, id="equal-value-tuple"),
    pytest.param("b", "a", False, id="other-str"),
    pytest.param([], [], False, id="equal-list-is-not-the-default"),
    pytest.param(_SENTINEL, _SENTINEL, True, id="the-default-object"),
    pytest.param(_NoCompare(), 1, False, id="uncomparable"),
])
def test_the_default_rule(passed, default, same):
    """Value defaults (and tuples of them) compare with ``==``, any
    other default by identity; a failing ``==`` counts as varied."""
    assert reachability._same(passed, default) is same


@pytest.mark.parametrize("qualname, public", [
    ("Box.size", True),
    ("Box.__init__", True),  # counts as its class
    ("Box.__repr__", False),
    ("_Inner.method", False),
])
def test_the_public_rule(qualname, public):
    func = reachability.Function(
        key=f"toypkg/mod.py::{qualname}", path="mod.py", first=1, lines=1
    )
    assert func.public is public


def test_tracer_records_varied_parameters_in_process(tmp_path):
    """The options mode without a subprocess: only a parameter some call
    sets away from its default is recorded, and a private function's
    parameters are not watched."""
    package = tmp_path / "optpkg"
    package.mkdir()
    module = package / "opts.py"
    module.write_text(
        "def tuned(a, b=1, c=(2, None), *, d='x'):\n"
        "    return a\n"
        "\n"
        "def _private(e=1):\n"
        "    return e\n"
    )
    spec = importlib.util.spec_from_file_location("optpkg_opts", module)
    opts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opts)
    tracer = reachability.Tracer(options=str(package))
    tracer.install()
    try:
        opts.tuned(0)
        opts.tuned(0, 1, (2, None), d="x")
        opts.tuned(0, d="y")
        opts._private(5)
    finally:
        tracer.uninstall()
    assert tracer.varied == {(os.path.realpath(module), 1, "d")}

def reached_keys(toy):
    _root, package, reached, _varied, _runs = toy
    universe = reachability.functions(str(package))
    missed = {func.key for func in reachability.unreached(universe, reached)}
    return {func.key for func in universe} - missed


@pytest.mark.parametrize("name", [
    "in_thread",  # a thread started after the hook
    "cached",  # a decorated function: its code starts at the decorator
    "conditional",  # a def under a module-level if
    "Outer.Inner.method",  # a method of a nested class
    "Box.size",  # a property
])
def test_entries_the_entry_point_made_are_seen(toy, name):
    assert f"toypkg/mod.py::{name}" in reached_keys(toy)


def test_an_untraced_entry_point_is_an_error(toy):
    root, package, *_ = toy
    # -S skips site, and with it the sitecustomize that installs the hook.
    with pytest.raises(RuntimeError, match="was not traced"):
        reachability.run_entry_points(
            [["-S", "main.py"]], str(package), cwd=str(root),
            pythonpath=[str(root)],
        )


def test_a_raising_entry_point_is_told_from_a_failed_gate(toy):
    root, package, *_ = toy
    (root / "raises.py").write_text("import toypkg.mod\nraise KeyError(1)\n")
    (root / "gate.py").write_text("import sys\nsys.exit('below floor')\n")
    *_, runs = reachability.run_entry_points(
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
    with open(reachability.TIER1_PATH) as handle:
        assert "for example in examples/*.py" in handle.read()
    runs = {invocation(argv) for argv in reachability.tier1_invocations()}
    traced = {
        invocation(argv)
        for argv in reachability.ENTRY_POINTS + reachability.FULL_ENTRY_POINTS
        if argv[0].startswith("benchmarks/")
    }
    assert {run for run in runs
            if run[0] not in reachability.NOT_ENTRY_POINTS} == traced
