"""Structured run manifests: what produced this output, exactly.

A *manifest* is a small JSON file written next to an artifact (a figure
export, a bench report, a sweep) recording everything needed to
reproduce or audit the run: the command line, the git revision, the
host/python environment, every ``REPRO_*`` knob's effective value and
where it came from (:func:`repro.settings.effective`), wall-clock
timings, quarantine counts and a metrics snapshot of the process-wide
registry.  ``repro stats <manifest>`` renders one back
(see ``docs/OBSERVABILITY.md``).

Manifests are best-effort observers: a missing git binary or a read-only
directory must never fail the run that produced the artifact, so
:func:`write_manifest` swallows environment errors and returns ``None``
instead of raising.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Union

from repro import settings
from repro.obs.registry import registry as default_registry

logger = logging.getLogger("repro.obs.manifest")

MANIFEST_VERSION = "1"
MANIFEST_SUFFIX = ".manifest.json"


def manifest_path_for(output: Union[str, Path]) -> Path:
    """Where the manifest for artifact ``output`` lives (sibling file)."""
    output = Path(output)
    return output.with_name(output.name + MANIFEST_SUFFIX)


def git_revision() -> Optional[str]:
    """The repository's HEAD commit, or ``None`` when unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(
    command: Optional[str] = None,
    started: Optional[float] = None,
    finished: Optional[float] = None,
    config: Optional[Dict] = None,
    outputs: Optional[Dict] = None,
    failures: Optional[int] = None,
    metrics: Optional[Dict] = None,
    surrogate_error: Optional[Dict] = None,
) -> Dict:
    """Assemble the manifest dict (no I/O; callers can extend it)."""
    manifest: Dict = {
        "manifest_version": MANIFEST_VERSION,
        "command": command if command is not None else " ".join(sys.argv),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "settings": settings.effective(),
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }
    if started is not None:
        manifest["started_at_unix"] = started
    if started is not None and finished is not None:
        manifest["wall_seconds"] = finished - started
    if config is not None:
        manifest["config"] = config
    if outputs is not None:
        manifest["outputs"] = outputs
    if failures is not None:
        manifest["quarantined_cases"] = failures
    if surrogate_error is not None:
        # The surrogate verification contract's achieved statistics
        # (error bound, held-out errors, frontier verification); see
        # docs/SURROGATE.md.
        manifest["surrogate_error"] = surrogate_error
    manifest["metrics"] = (
        metrics if metrics is not None else default_registry().snapshot()
    )
    return manifest


def write_manifest(
    output: Optional[Union[str, Path]] = None,
    path: Optional[Union[str, Path]] = None,
    **kwargs,
) -> Optional[Path]:
    """Write a run manifest; its path, or ``None`` when the environment
    refused (never raises).

    Pass ``output`` to place the manifest next to that artifact
    (``<output>.manifest.json``), or ``path`` to name the manifest file
    itself (runs with no single artifact, e.g. ``repro report``).
    """
    if path is None:
        if output is None:
            raise ValueError("write_manifest needs output= or path=")
        path = manifest_path_for(output)
    path = Path(path)
    manifest = build_manifest(**kwargs)
    try:
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        logger.warning("could not write run manifest %s: %s", path, exc)
        return None
    return path


def read_manifest(path: Union[str, Path]) -> Dict:
    """Load a manifest (or bare metrics snapshot) JSON file."""
    with open(path) as handle:
        return json.load(handle)
