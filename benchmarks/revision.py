"""The git revision a benchmark report was produced at.

``git_revision()`` stamps ``<short sha>``, or ``<short sha>-dirty`` when
a tracked file differs from ``HEAD`` (untracked files do not count), so
a report measured on uncommitted edits says so.  Outside a git checkout
it returns ``None``.
"""

from __future__ import annotations

import os
import subprocess
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(root: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_revision(root: str = REPO_ROOT) -> Optional[str]:
    """The checkout at *root*'s short ``HEAD``, ``-dirty`` if it has
    uncommitted changes to tracked files."""
    sha = _git(root, "rev-parse", "--short", "HEAD")
    if not sha:
        return None
    changed = _git(root, "status", "--porcelain", "--untracked-files=no")
    return f"{sha}-dirty" if changed else sha
