"""Provenance helpers shared by the campaign DB and synth witnesses.

Both stamp persisted results with the git revision they were produced
under, so a cached result can never be silently served for a different
code version, and a witness records the code that minimized it.

The revision is resolved once per process, whatever the outcome: long-
running consumers (the leakcheck service constructs one campaign engine
per job) would otherwise fork a ``git`` subprocess on every task, and
neither the revision nor the absence of a checkout can change under a
running process.
"""

from __future__ import annotations

import functools
import pathlib
import subprocess


@functools.cache
def git_rev() -> str:
    """The repository HEAD revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()
