"""Compare two ``tools/snapshot_outputs.py`` directories, allowing last-digit moves in CSVs.

Usage::

    python3 tools/compare_snapshots.py A B

A and B are OUTDIRs of ``tools/snapshot_outputs.py``, say from the parent
commit and from a change. The tool lists each file that is in one directory
only or whose bytes differ. For a differing CSV whose header and ``n`` column
are the same on both sides, it prints the largest absolute difference of each
other column. It uses the standard library only.

The exit status is 0 if every file is byte-identical or a CSV whose columns
differ by at most ``TOL`` (1e-12), and 1 otherwise: a file in one directory
only, any other file that differs, a CSV whose header, ``n`` column or row
count differs, or a cell that is no number on one side and differs. So a
change whose values move in the last digit can show everything else
byte-identical.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

TOL = 1e-12


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def cell_difference(a: str, b: str) -> float:
    """|a - b| for two numbers; inf if they differ and either is no number."""
    if a == b:
        return 0.0
    try:
        diff = abs(float(a) - float(b))
    except ValueError:
        return math.inf
    return diff if not math.isnan(diff) else math.inf


def csv_differences(a: Path, b: Path) -> tuple[dict[str, float] | None, str]:
    """The largest |difference| of each column but ``n``, or None and why the CSVs do not compare."""
    rows_a, rows_b = read_csv(a), read_csv(b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return None, "headers differ"
    header = rows_a[0]
    if "n" not in header:
        return None, "no n column"
    if len(rows_a) != len(rows_b):
        return None, f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"
    n = header.index("n")
    if [r[n] for r in rows_a[1:]] != [r[n] for r in rows_b[1:]]:
        return None, "n columns differ"
    diffs = {name: 0.0 for i, name in enumerate(header) if i != n}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(header) or len(rb) != len(header):
            return None, "a row has another number of cells than the header"
        for i, name in enumerate(header):
            if i != n:
                diffs[name] = max(diffs[name], cell_difference(ra[i], rb[i]))
    return diffs, ""


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    for root in (a, b):
        if not root.is_dir():
            print(f"error: {root} is not a directory")
            return 2
    in_a, in_b = files(a), files(b)
    failed = False
    for name in sorted(in_a ^ in_b):
        print(f"only in {a if name in in_a else b}: {name}")
        failed = True
    for name in sorted(in_a & in_b):
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        if not name.endswith(".csv"):
            print(f"differs: {name}")
            failed = True
            continue
        diffs, why = csv_differences(a / name, b / name)
        if diffs is None:
            print(f"differs: {name} ({why})")
            failed = True
            continue
        moved = ", ".join(f"{col} {d:.3g}" for col, d in diffs.items() if d > 0.0)
        print(f"differs: {name}: largest |difference| {moved or 'none'}")
        failed |= any(d > TOL for d in diffs.values())
    print("FAIL" if failed else f"OK: every difference is at most {TOL:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
