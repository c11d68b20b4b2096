"""Reference outputs of each workload and the check against them.

A run's output directory is summarized file by file: JSON files as parsed,
``rates.csv`` as rows of numbers, and ``fields.vtk`` as the row count,
sum and Euclidean norm of each data block.  The check then requires the
same keys, the same strings, booleans and integers (so ``passed: true``
and converged flags hold), ``null`` where the reference has ``null`` (so a
skipped check stays skipped), and floats within

    |got - ref| <= RTOL * |ref| + ATOL.get(key, 0)

The relative tolerance covers O(1) quantities; the absolute one covers
rounding-level defects and residuals, whose last digits carry no meaning.

Regenerate a reference, after a change that is meant to alter outputs,
from an output directory of the program:

    python3 perfbench/reference.py <workload> <output directory>
"""

import csv
import json
import math
import os
import sys

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

RTOL = 1e-6
ATOL = {
    "balance_defect_rel": 1e-12,
    "max_balance_defect_rel": 1e-12,
    "compensation_residual": 1e-12,
    "residuals": 1e-12,
    "energy_distance": 1e-12,
    # nonlinear residuals sit below the solver tolerance of 1e-10
    "residual": 1e-10,
    # two-start distance; the seed changes only its rounding digits
    "relative_distance": 1e-10,
}


def _vtk_summary(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = {}
    rows = 0
    i = 0
    while i < len(lines):
        head = lines[i].split()
        i += 1
        if not head:
            continue
        if head[0] in ("POINTS", "CELLS", "CELL_TYPES", "CELL_DATA",
                       "POINT_DATA"):
            rows = int(head[1])
            if head[0] in ("CELL_DATA", "POINT_DATA"):
                continue
            name = head[0].lower()
        elif head[0] in ("VECTORS", "SCALARS"):
            name = head[1]
            if lines[i].startswith("LOOKUP_TABLE"):
                i += 1
        else:
            continue
        values = [float(v) for line in lines[i:i + rows]
                  for v in line.split()]
        i += rows
        out[name] = {"rows": rows, "sum": math.fsum(values),
                     "norm": math.sqrt(math.fsum(v * v for v in values))}
    return out


def _csv_rows(path):
    with open(path, newline="") as fh:
        return [[float(c) if c else None for c in row]
                for row in list(csv.reader(fh))[1:]]


def summarize(out_dir):
    """Comparable summary of every file the program wrote to ``out_dir``."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path) as fh:
                out[name] = json.load(fh)
        elif name.endswith(".csv"):
            out[name] = _csv_rows(path)
        elif name.endswith(".vtk"):
            out[name] = _vtk_summary(path)
        else:
            out[name] = None
    return out


def compare(ref, got, where="", key=None):
    """Mismatches between a reference summary and a run's summary."""
    if ref is None:
        return [] if got is None else [f"{where}: expected null, got {got!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from the reference"]
        return [m for k in sorted(ref)
                for m in compare(ref[k], got[k], f"{where}/{k}", k)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs from the reference"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in compare(r, g, f"{where}[{i}]", key)]
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= RTOL * abs(ref) + ATOL.get(key, 0.0):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    if type(got) is type(ref) and got == ref:
        return []
    return [f"{where}: {got!r} differs from reference {ref!r}"]


def check_outputs(workload, out_dir):
    with open(os.path.join(REFERENCE_DIR, workload + ".json")) as fh:
        ref = json.load(fh)
    return compare(ref, summarize(out_dir))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, sys.argv[1] + ".json"), "w") as fh:
        json.dump(summarize(sys.argv[2]), fh, indent=1, sort_keys=True)
        fh.write("\n")
