"""Print the largest relative move per numeric JSON key and CSV column.

    python3 tools/column_moves.py OLD NEW [--identical GLOB]... \
        [--bound 'KEY=RTOL']...

OLD and NEW are directories of program outputs with the same file names,
for instance two ``tools/output_digest.py --keep DIR`` runs on two trees.
Each file present in both is compared value by value:

* a ``.json`` file by its numeric leaves, keyed by their path with list
  indices dropped (``rows[].kappa``, ``fits.l2_inner.slope``);
* a ``.csv`` file by column, the first line naming the columns.

A value's relative move is |new - old| / |old|; an old 0 that moved, or a
NaN on one side only, moves by inf.  Per key the report gives the number
of values compared, how many moved, the largest move, and the file where
it occurs.  Files whose bytes are equal, files in one directory only and
non-numeric values that differ are listed too.

Two options turn the report into a check; each may be given more than
once, and the command exits 1 if any check fails, naming each failure
after the report:

* ``--identical GLOB``: every file whose name matches the shell pattern
  (in either directory) must be in both and byte-identical, and the
  pattern must match at least one file;
* ``--bound KEY=RTOL``: the largest move of the report key KEY (as
  printed, ``'csv lambda_oracle'``, ``'json fits.l2_inner.slope'``) must
  not exceed RTOL, and KEY must have at least one value compared.

For instance ``--identical 'artifact*' --bound 'csv lambda_oracle=1e-12'``
checks that no artifact changed and no oracle eigenvalue moved by more
than 1e-12 relative.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import json
import math
import sys
from pathlib import Path


def relative_move(old, new):
    """|new - old| / |old|, 0 for equal values (NaN included), else inf
    where old is 0 or exactly one side is NaN."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if math.isnan(old) or math.isnan(new) or old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_pairs(old, new, key=""):
    """Yield (key, old, new) over the leaves of two parsed JSON documents;
    a leaf present on one side only pairs with None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in list(old) + [k for k in new if k not in old]:
            yield from json_pairs(old.get(k), new.get(k),
                                  f"{key}.{k}" if key else str(k))
    elif isinstance(old, list) and isinstance(new, list) and \
            len(old) == len(new):
        for a, b in zip(old, new):
            yield from json_pairs(a, b, f"{key}[]")
    else:
        yield key, old, new


def csv_pairs(old_text, new_text):
    """Yield (column, old, new) cell by cell over two CSV texts."""
    old_rows = list(csv.reader(old_text.splitlines()))
    new_rows = list(csv.reader(new_text.splitlines()))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] or \
            len(old_rows) != len(new_rows):
        yield "(table shape)", len(old_rows), len(new_rows)
        return
    header = old_rows[0]
    for a_row, b_row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(header, a_row, b_row):
            yield column, _cell(a), _cell(b)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def compare(old_dir, new_dir):
    """{"moves": {kind key: entry}, "identical": [...], "differing":
    [...], "only_old": [...], "only_new": [...], "changed": [(file, key,
    old, new)]}; an entry holds the count of values, the count moved, the
    largest move and its file."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    old_names = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_names = {p.name for p in new_dir.iterdir() if p.is_file()}
    out = {"moves": {}, "identical": [], "differing": [], "changed": [],
           "only_old": sorted(old_names - new_names),
           "only_new": sorted(new_names - old_names)}
    for name in sorted(old_names & new_names):
        old_bytes = (old_dir / name).read_bytes()
        new_bytes = (new_dir / name).read_bytes()
        if old_bytes == new_bytes:
            out["identical"].append(name)
            continue
        out["differing"].append(name)
        if name.endswith(".json"):
            kind, pairs = "json", json_pairs(json.loads(old_bytes),
                                             json.loads(new_bytes))
        elif name.endswith(".csv"):
            kind, pairs = "csv", csv_pairs(old_bytes.decode(),
                                           new_bytes.decode())
        else:
            out["changed"].append((name, "(bytes)", None, None))
            continue
        for key, a, b in pairs:
            if _is_number(a) and _is_number(b):
                move = relative_move(float(a), float(b))
                entry = out["moves"].setdefault(
                    f"{kind} {key}",
                    {"values": 0, "moved": 0, "largest": 0.0, "file": None})
                entry["values"] += 1
                entry["moved"] += move > 0.0
                if move > entry["largest"] or entry["file"] is None:
                    entry["largest"], entry["file"] = move, name
            elif a != b:
                out["changed"].append((name, key, a, b))
    return out


def format_report(result):
    lines = [f"{'key':40s} {'values':>7s} {'moved':>6s} {'largest':>10s}  file"]
    for key, e in sorted(result["moves"].items()):
        lines.append(f"{key:40s} {e['values']:7d} {e['moved']:6d} "
                     f"{e['largest']:10.3g}  {e['file']}")
    lines.append(f"byte-identical files: {len(result['identical'])}")
    for name in result["identical"]:
        lines.append(f"  {name}")
    for side in ("only_old", "only_new"):
        for name in result[side]:
            lines.append(f"{side.replace('_', ' ')}: {name}")
    for name, key, a, b in result["changed"]:
        lines.append(f"non-numeric change in {name}: {key}: {a!r} -> {b!r}")
    return "\n".join(lines)


def parse_bound(text):
    """'KEY=RTOL' -> (KEY, RTOL); KEY may hold '=' itself."""
    key, sep, rtol = text.rpartition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=RTOL, got {text!r}")
    try:
        return key, float(rtol)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"RTOL of {text!r} is not a number") from None


def check(result, identical=(), bounds=()):
    """The failures of the --identical patterns and --bound pairs against
    a ``compare`` result, one line each; empty when every check holds."""
    names = [name for part in ("identical", "differing", "only_old",
                               "only_new") for name in result[part]]
    failures = []
    for pattern in identical:
        matched = sorted(fnmatch.filter(names, pattern))
        if not matched:
            failures.append(f"--identical {pattern}: no file matches")
        for name in matched:
            if name not in result["identical"]:
                failures.append(f"--identical {pattern}: {name} differs "
                                "or is in one directory only")
    for key, rtol in bounds:
        entry = result["moves"].get(key)
        if entry is None:
            failures.append(f"--bound {key}: no value compared")
        elif not entry["largest"] <= rtol:
            failures.append(f"--bound {key}: moved {entry['largest']:.3g} "
                            f"> {rtol:.3g} in {entry['file']}")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--identical", action="append", default=[],
                    metavar="GLOB")
    ap.add_argument("--bound", action="append", default=[], type=parse_bound,
                    metavar="KEY=RTOL")
    args = ap.parse_args(argv)
    for path in (args.old, args.new):
        if not path.is_dir():
            ap.error(f"not a directory: {path}")
    result = compare(args.old, args.new)
    print(format_report(result))
    failures = check(result, args.identical, args.bound)
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
