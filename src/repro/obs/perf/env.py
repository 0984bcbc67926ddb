"""Environment fingerprinting for benchmark attribution.

A benchmark number is meaningless without the build that produced it:
the comparator refuses to attribute a wall-clock delta to a code
change when the interpreter or the machine changed underneath it, and
``service.snapshot()`` stamps every metrics scrape with the same
fingerprint so dashboards can segment by build.

The git SHA is read once per process (a subprocess per scrape would
dwarf the metrics it annotates) and is ``None`` outside a work tree —
e.g. an installed wheel — rather than an error.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

__all__ = ["environment_fingerprint", "git_dirty", "git_revision"]

_GIT_CACHE: Dict[str, Optional[str]] = {}
_DIRTY_CACHE: Dict[str, Optional[bool]] = {}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current ``HEAD`` SHA, or ``None`` when not in a git tree.

    Cached per working directory for the life of the process.
    """
    key = cwd or os.getcwd()
    if key in _GIT_CACHE:
        return _GIT_CACHE[key]
    sha: Optional[str] = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            timeout=5,
        )
        if out.returncode == 0:
            decoded = out.stdout.decode("ascii", "replace").strip()
            if decoded:
                sha = decoded
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    _GIT_CACHE[key] = sha
    return sha


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files differ from ``HEAD`` (``None`` outside a
    git tree).  A run measured on a dirty tree measured code that
    ``git_revision`` does not name.

    Cached per working directory for the life of the process.
    """
    key = cwd or os.getcwd()
    if key in _DIRTY_CACHE:
        return _DIRTY_CACHE[key]
    dirty: Optional[bool] = None
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd,
            capture_output=True,
            timeout=5,
        )
        if out.returncode == 0:
            dirty = bool(out.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        dirty = None
    _DIRTY_CACHE[key] = dirty
    return dirty


def environment_fingerprint(
    profile: Optional[str] = None,
    extras: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One JSON-serialisable dict identifying the measuring build.

    ``profile`` names the benchmark scale profile (or trace/fault
    profile) the numbers were produced under; ``extras`` merge on top
    for caller-specific attribution (suite name, chaos seed, ...).
    """
    fingerprint: Dict[str, Any] = {
        "git_sha": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "executable": sys.executable,
    }
    if profile is not None:
        fingerprint["profile"] = profile
    if extras:
        fingerprint.update(extras)
    return fingerprint
