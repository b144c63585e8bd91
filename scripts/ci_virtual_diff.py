#!/usr/bin/env python3
"""Diff the deterministic parts of two BENCH_*.json documents.

Strips every object keyed "host" (at any depth — wall-clock and memory
measurements are machine-dependent) and compares the rest byte for
byte.  Two identically-seeded bench runs must agree on everything that
survives the strip; any difference is a determinism bug.

Each --drop KEY.PATH also removes that dotted path from both documents,
for sections one of the runs skipped or shortened.

Usage: ci_virtual_diff.py [--drop KEY.PATH]... A.json B.json
       (exit 0 identical, 1 not)
"""

import argparse
import json
import sys


def strip_host(doc):
    if isinstance(doc, dict):
        return {k: strip_host(v) for k, v in doc.items() if k != "host"}
    if isinstance(doc, list):
        return [strip_host(v) for v in doc]
    return doc


def drop(doc, path):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(doc, dict):
        doc.pop(last, None)


def load(path, drops):
    with open(path) as f:
        doc = strip_host(json.load(f))
    for d in drops:
        drop(doc, d)
    return json.dumps(doc, sort_keys=True, indent=1)


def main():
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--drop", action="append", default=[])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()
    sa = load(args.a, args.drop)
    sb = load(args.b, args.drop)
    if sa == sb:
        print("virtual sections identical")
        return 0
    import difflib
    for line in difflib.unified_diff(sa.splitlines(), sb.splitlines(),
                                     fromfile=args.a, tofile=args.b,
                                     lineterm=""):
        print(line)
    return 1


if __name__ == "__main__":
    sys.exit(main())
