"""File formats: parent-array trees, CSV frequency matrices, JSON results.

Numbers are serialized at 17 significant digits so write-then-read is
lossless for doubles.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .tree import RootedTree, TreeInputError


class ParseError(ValueError):
    """Input file error carrying 1-based line/column positions."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        where = ""
        if path is not None:
            where = str(path)
            if line is not None:
                where += f":{line}"
                if column is not None:
                    where += f":{column}"
            where += ": "
        super().__init__(where + message)


def load_tree(path) -> RootedTree:
    """Read a tree from the one-line parent-array format.

    The file holds q space-separated integers; entry i is the parent of
    node i, with 0 marking the root.  Blank lines and '#' comments are
    ignored.
    """
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parents = []
            for match in re.finditer(r"\S+", raw):
                tok = match.group()
                try:
                    parents.append(int(tok))
                except ValueError:
                    raise ParseError(f"expected an integer, got {tok!r}",
                                     path, lineno, match.start() + 1) from None
            try:
                return RootedTree.from_parent_array(parents)
            except TreeInputError as exc:
                raise ParseError(str(exc), path, lineno) from None
    raise ParseError("no tree line found", path)


def save_tree(tree: RootedTree, path):
    with open(path, "w") as fh:
        fh.write(tree.to_text() + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a q-by-p CSV frequency matrix (rows = positions, cols = samples).

    Lines starting with '#' are header comments.  Raises ParseError with
    line/column positions for non-numeric or non-finite entries and for
    ragged rows.
    """
    rows = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            values = []
            start = 0
            for tok in raw.rstrip("\n").split(","):
                try:
                    value = float(tok)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    # Point at the token's first non-blank character, or at
                    # the field itself when it is blank.
                    lead = len(tok) - len(tok.lstrip()) if tok.strip() else 0
                    raise ParseError(
                        f"expected a finite number, got {tok.strip()!r}",
                        path, lineno, start + lead + 1)
                values.append(value)
                start += len(tok) + 1
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"row has {len(values)} entries, expected {width}",
                    path, lineno)
            rows.append(values)
    if not rows:
        raise ParseError("no data rows found", path)
    return np.array(rows, dtype=float)


def save_matrix(mat, path, header=None):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in mat:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def frequency_warnings(fhat) -> list:
    """Convention checks on a frequency matrix (warnings, not errors).

    Frequencies are fractions, so values outside [0, 1] are suspicious; and
    since every mutant carries the root mutation, row 1 should be maximal in
    each column.
    """
    fhat = np.atleast_2d(np.asarray(fhat, dtype=float))
    notes = []
    if np.any((fhat < 0.0) | (fhat > 1.0)):
        notes.append("matrix has entries outside [0, 1]; "
                     "frequencies are normally fractions")
    bad_cols = [s + 1 for s in range(fhat.shape[1])
                if fhat[0, s] < fhat[:, s].max()]
    if bad_cols:
        notes.append("row 1 is not maximal in column(s) "
                     f"{bad_cols}; the root mutation is carried by every mutant")
    return notes


def projection_payload(results, total_cost):
    """JSON-ready dict for a per-column projection run."""
    return {
        "t_star": [r.t_star for r in results],
        "cost_per_column": [r.cost for r in results],
        "total_cost": total_cost,
        "m_star": np.column_stack([r.m_star for r in results]).tolist(),
        "f_star": np.column_stack([r.f_star for r in results]).tolist(),
    }


def report_payload(report, include_solutions=False):
    """JSON-ready dict for a search report."""
    ranked = []
    for entry in report.ranked:
        item = {
            "prufer_code": list(entry.code),
            "objective": entry.objective,
            "cost": entry.cost,
        }
        if include_solutions:
            item["m_star"] = entry.m_star.tolist()
            item["f_star"] = entry.f_star.tolist()
        ranked.append(item)
    return {
        "trees_evaluated": report.trees_evaluated,
        "trees_swept": report.trees_swept,
        "trees_rescored": report.trees_rescored,
        "nodes_bounded": report.nodes_bounded,
        "elapsed_sec": report.elapsed,
        "ranked": ranked,
    }


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
