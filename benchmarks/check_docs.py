"""CI gate: the docs tree must track the code and benchmark surface.

Nine checks, all cheap and dependency-free:

* every *tracked* benchmark report at the repo root (``BENCH_*.json``,
  excluding ``*.smoke.json`` scratch outputs) is mentioned somewhere
  under ``docs/`` — a new benchmark must document its schema and floors
  in ``docs/benchmarks.md``;
* every package under ``src/repro/`` (a directory with an
  ``__init__.py``) is mentioned under ``docs/`` — a new subsystem must
  appear in ``docs/architecture.md``'s subsystem map;
* every relative markdown link in ``docs/*.md`` and ``README.md``
  resolves to an existing file, so the docs tree cannot silently rot as
  files move (links that escape the repo root — e.g. GitHub badge
  URLs relative to the hosted repo — are skipped);
* every backticked symbol reference in ``docs/*.md`` and ``README.md``
  — a dotted ``repro.…`` name, or a CamelCase name with optional
  ``.attribute`` — still resolves against the importable ``repro``
  package, so a deleted or renamed class cannot linger in the docs;
* every keyword in a backticked call — ``Name(…, kw=…)`` whose callee
  resolves to a ``repro`` callable without ``**kwargs`` — is a
  parameter that callable accepts, so a deleted option cannot linger
  either;
* every backticked ``*.py`` path resolves under the repo root,
  ``src/repro/``, ``benchmarks/``, ``tests/`` or ``examples/``, and
  every backticked ``path.py:name`` names a ``def``, ``class`` or
  assignment in that file, so a deleted file or function cannot
  linger in the docs;
* every Sphinx cross-reference to a ``repro.…`` name in the source
  (``:func:``, ``:class:``, ``:mod:``, ``:meth:``, ``:data:``,
  ``:attr:`` or ``:exc:``) resolves by import and attribute lookup, so
  a deletion cannot leave a docstring pointing at nothing;
* every name in a ``repro`` module's ``__all__`` is bound in that
  module, so a deletion cannot leave an export pointing at nothing;
* every entry of ``benchmarks/reachability_kept.txt`` names a function
  that still exists under ``src/repro`` with one of
  ``reachability.REASONS``, so the kept-list cannot outlive its code.

Usage::

    python benchmarks/check_docs.py
"""

from __future__ import annotations

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import sys
from types import ModuleType
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")

#: ``[text](target)`` with an optional ``#fragment``; bare ``#`` anchors
#: and external schemes are filtered by the caller.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")

#: Backticked spans that claim a symbol: ``repro.a.b`` dotted names, and
#: CamelCase names (two humps or more) with optional ``.attr`` parts; a
#: trailing call ``(...)`` is ignored.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
DOTTED_RE = re.compile(r"^repro(?:\.\w+)+$")
CAMEL_RE = re.compile(r"^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+(?:\.\w+)*$")
#: A span that is one call, ``callee(args)``; a keyword is a ``name=``
#: in its own argument list (nested calls are stripped first).
CALL_RE = re.compile(r"^([\w.]+)\((.*)\)$")
NESTED_CALL_RE = re.compile(r"\([^()]*\)")
KEYWORD_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*=(?!=)")
#: A ``.py`` path inside a backticked span (a span may be a command),
#: with an optional ``:name``; a pytest ``::node`` suffix names no
#: symbol.
PY_PATH_RE = re.compile(r"(?<![\w./*-])([\w./-]+\.py)\b(?::(\w+))?")
#: Where a docs-relative ``.py`` path may live.
PY_ROOTS = ("", "src/repro", "benchmarks", "tests", "examples")
#: A Sphinx cross-reference to a ``repro`` name, e.g.
#: ``:func:`~repro.scheduling.build_schedule```.
XREF_RE = re.compile(
    r":(?:func|class|mod|meth|data|attr|exc):`[~!]?(repro(?:\.\w+)+)`"
)


def _doc_files() -> List[str]:
    return sorted(glob.glob(os.path.join(DOCS_DIR, "**", "*.md"),
                            recursive=True))


def _docs_text() -> str:
    chunks = []
    for path in _doc_files():
        with open(path, encoding="utf-8") as handle:
            chunks.append(handle.read())
    return "\n".join(chunks)


def tracked_bench_files() -> List[str]:
    names = sorted(
        os.path.basename(path)
        for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    )
    return [name for name in names if not name.endswith(".smoke.json")]


def repro_packages() -> List[str]:
    root = os.path.join(REPO_ROOT, "src", "repro")
    return sorted(
        entry
        for entry in os.listdir(root)
        if os.path.isfile(os.path.join(root, entry, "__init__.py"))
    )


def missing_bench_mentions(text: str) -> List[str]:
    return [name for name in tracked_bench_files() if name not in text]


def missing_package_mentions(text: str) -> List[str]:
    """Packages with neither a ``repro.pkg`` nor ``repro/pkg`` mention."""
    return [
        pkg
        for pkg in repro_packages()
        if f"repro.{pkg}" not in text and f"repro/{pkg}" not in text
    ]


def broken_links() -> List[str]:
    """Relative links in docs/ and README.md that do not resolve."""
    broken: List[str] = []
    for path in _doc_files() + [os.path.join(REPO_ROOT, "README.md")]:
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        base = os.path.dirname(path)
        for target in LINK_RE.findall(text):
            target = target.split("#", 1)[0]
            if not target or target.startswith(EXTERNAL):
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not resolved.startswith(REPO_ROOT + os.sep):
                # Escapes the checkout (e.g. a badge URL relative to
                # the hosted repo page) — not ours to verify.
                continue
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO_ROOT)
                broken.append(f"{rel}: link target {target!r} not found")
    return broken


def _src_on_path() -> None:
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _repro_modules() -> List[ModuleType]:
    """The ``repro`` package and every module under it."""
    _src_on_path()
    import repro

    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")  # entry points run on import
    ]


def _repro_names() -> Dict[str, object]:
    """Every name bound at the top level of any ``repro`` module."""
    names: Dict[str, object] = {}
    for module in _repro_modules():
        for name, value in vars(module).items():
            names.setdefault(name, value)
    return names


def stale_all_entries(
    modules: Optional[Sequence[ModuleType]] = None,
) -> List[str]:
    """``module: name`` for every ``__all__`` name its module lacks."""
    if modules is None:
        modules = _repro_modules()
    return [
        f"{module.__name__}: {name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]


def _resolves(obj, parts: Sequence[str]) -> bool:
    """Whether ``obj.<parts...>`` names something that exists.

    An attribute counts when it is set on the module/class, declared
    as a dataclass field, or assigned as ``self.<name>`` in the class
    body (instance attributes are not reachable without an instance —
    resolution stops there).
    """
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        return inspect.isclass(obj) and (
            part in getattr(obj, "__annotations__", {})
            or f"self.{part}" in inspect.getsource(obj)
        )
    return True


def _module_prefix(parts: Sequence[str]):
    """``(module, remaining parts)`` for the longest importable prefix
    of a dotted name, or ``None`` when not even its head imports."""
    for cut in range(len(parts), 0, -1):
        try:
            return importlib.import_module(".".join(parts[:cut])), parts[cut:]
        except ImportError:
            continue
    return None


def stale_symbols(text: str, names: Optional[Dict[str, object]] = None):
    """Backticked symbol references in ``text`` that no longer resolve."""
    if names is None:
        names = _repro_names()
    stale: List[str] = []
    for span in sorted(set(CODE_SPAN_RE.findall(text))):
        symbol = re.sub(r"\(.*\)$", "", span)
        parts = symbol.split(".")
        if DOTTED_RE.match(symbol):
            found = _module_prefix(parts)
            if found is None or not _resolves(*found):
                stale.append(span)
        elif CAMEL_RE.match(symbol):
            if parts[0] not in names or not _resolves(
                names[parts[0]], parts[1:]
            ):
                stale.append(span)
    return stale


def _callee(symbol: str, names: Dict[str, object]):
    """The ``repro`` callable ``symbol`` names, or ``None``."""
    parts = symbol.split(".")
    if DOTTED_RE.match(symbol):
        obj, parts = _module_prefix(parts) or (None, ())
    else:
        obj, parts = names.get(parts[0]), parts[1:]
    for part in parts:
        obj = getattr(obj, part, None)
    module = getattr(obj, "__module__", None) or ""
    if not callable(obj) or not module.startswith("repro"):
        return None
    return obj


def stale_keywords(text: str, names: Optional[Dict[str, object]] = None):
    """``(span, keyword)`` for call keywords the callee does not accept."""
    if names is None:
        names = _repro_names()
    stale: List[str] = []
    for span in sorted(set(CODE_SPAN_RE.findall(text))):
        call = CALL_RE.match(span)
        callee = _callee(call.group(1), names) if call else None
        if callee is None:
            continue
        try:
            parameters = inspect.signature(callee).parameters
        except (TypeError, ValueError):
            continue
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            continue
        arguments = call.group(2)
        while NESTED_CALL_RE.search(arguments):
            arguments = NESTED_CALL_RE.sub("", arguments)
        stale.extend(
            (span, keyword)
            for keyword in KEYWORD_RE.findall(arguments)
            if keyword not in parameters
        )
    return stale


def _py_file(path: str) -> Optional[str]:
    for root in PY_ROOTS:
        candidate = os.path.join(REPO_ROOT, root, path)
        if os.path.isfile(candidate):
            return candidate
    return None


def _defined_names(path: str) -> set:
    """Every name a ``def``, ``class`` or assignment binds in ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                names.update(
                    name.id for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
    return names


def stale_py_paths(text: str) -> List[str]:
    """Backticked ``*.py`` paths and ``path.py:name`` references in
    ``text`` whose file or name does not exist."""
    stale: List[str] = []
    for span in sorted(set(CODE_SPAN_RE.findall(text))):
        for path, name in PY_PATH_RE.findall(span):
            found = _py_file(path)
            if found is None:
                stale.append(f"{path}: no such file")
            elif name and name not in _defined_names(found):
                stale.append(f"{path}:{name}: not defined there")
    return stale


def stale_symbol_references() -> List[str]:
    """Stale symbols and call keywords per file across docs/ and
    README.md."""
    names = _repro_names()
    failures: List[str] = []
    for path in _doc_files() + [os.path.join(REPO_ROOT, "README.md")]:
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, REPO_ROOT)
        for span in stale_symbols(text, names):
            failures.append(
                f"{rel}: `{span}` does not resolve against the repro "
                f"package (deleted or renamed?)"
            )
        for span, keyword in stale_keywords(text, names):
            failures.append(
                f"{rel}: `{span}` passes `{keyword}=`, which its callee "
                f"does not accept (deleted or renamed option?)"
            )
        for reference in stale_py_paths(text):
            failures.append(
                f"{rel}: `{reference}` (deleted or renamed file or name?)"
            )
    return failures


def stale_xrefs(text: str) -> List[str]:
    """``repro.…`` targets of Sphinx cross-references in ``text`` that
    no longer resolve."""
    _src_on_path()
    stale: List[str] = []
    for target in sorted(set(XREF_RE.findall(text))):
        found = _module_prefix(target.split("."))
        if found is None or not _resolves(*found):
            stale.append(target)
    return stale


def stale_source_xrefs() -> List[str]:
    """Stale cross-references per file across ``src/repro``."""
    failures: List[str] = []
    pattern = os.path.join(REPO_ROOT, "src", "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, REPO_ROOT)
        failures.extend(
            f"{rel}: `{target}` does not resolve (deleted or renamed?)"
            for target in stale_xrefs(text)
        )
    return failures


def stale_kept_entries(path: Optional[str] = None) -> List[str]:
    """Entries of the reachability kept-list that name no function."""
    spec = importlib.util.spec_from_file_location(
        "reachability", os.path.join(REPO_ROOT, "benchmarks", "reachability.py")
    )
    reach = importlib.util.module_from_spec(spec)
    sys.modules["reachability"] = reach
    spec.loader.exec_module(reach)
    path = path or reach.KEPT_PATH
    rel = os.path.relpath(path, REPO_ROOT)
    try:
        kept = reach.load_kept(path)
    except ValueError as exc:
        return [str(exc)]
    names = {func.key for func in reach.functions(reach.PACKAGE_DIR)}
    return [
        f"{rel}: {key} names no function under src/repro "
        f"(deleted or renamed?)"
        for key in kept
        if key not in names
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    failures: List[str] = []
    if not os.path.isdir(DOCS_DIR) or not _doc_files():
        failures.append("docs/ tree is missing (or holds no .md files)")
        text = ""
    else:
        text = _docs_text()
        for name in missing_bench_mentions(text):
            failures.append(
                f"tracked benchmark {name} is not documented anywhere "
                f"under docs/ (document its schema, floors, and "
                f"regeneration command in docs/benchmarks.md)"
            )
        for pkg in missing_package_mentions(text):
            failures.append(
                f"package src/repro/{pkg} is not documented anywhere "
                f"under docs/ (add it to docs/architecture.md)"
            )
    failures.extend(broken_links())
    failures.extend(stale_symbol_references())
    failures.extend(stale_source_xrefs())
    failures.extend(
        f"{entry} is in __all__ but not defined (deleted or renamed?)"
        for entry in stale_all_entries()
    )
    failures.extend(stale_kept_entries())

    if failures:
        print(f"{len(failures)} docs freshness check(s) FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"docs ok: {len(tracked_bench_files())} tracked benchmark files "
        f"and {len(repro_packages())} repro packages documented, all "
        f"relative links, symbol references, call keywords, .py "
        f"paths, source cross-references, __all__ entries and kept-list "
        f"entries resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
