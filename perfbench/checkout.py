"""Locate the checkout this benchmark belongs to and import ppmproj from it.

The benchmark must measure the sources next to it, never an installed copy,
so the package is imported from ``<checkout>/src`` and its origin is checked.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no importable ppmproj sources."""


def load_ppmproj():
    """Import ``ppmproj`` from the checkout's ``src`` directory."""
    if not (SRC / "ppmproj" / "__init__.py").is_file():
        raise MissingProgram(f"no ppmproj sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("ppmproj")
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"ppmproj was imported from {origin}, not from {SRC}")
    return module


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"
