#!/usr/bin/env python3
"""List the library exports nothing else names.

Prints every `val` declared in lib/*/*.mli (nested signatures
included) whose name appears in no other .ml, .mli or .t file under
lib, bench, bin, test, perfbench or examples, outside comments; the
val's own .ml and .mli do not count.  The test is a whole-word name
match, so it can miss a dead export whose name is common, but every
name it prints is dead outside its module.  Then prints the line count
of the .ml and .mli files under lib, bench and bin.

Usage: scripts/dead_exports.py  (run from the repository root;
       exit 0 when no export is unreferenced, 1 otherwise)
"""

import pathlib
import re
import sys

SEARCHED = ["lib", "bench", "bin", "test", "perfbench", "examples"]
COUNTED = ["lib", "bench", "bin"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z0-9_']+")


def strip_comments(text):
    """Drop (nested) OCaml comments."""
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def sources(dirs, suffixes):
    for d in dirs:
        for path in sorted(pathlib.Path(d).rglob("*")):
            if path.suffix in suffixes and "_build" not in path.parts:
                yield path


def main():
    words = {}
    for path in sources(SEARCHED, {".ml", ".mli", ".t"}):
        text = path.read_text(errors="replace")
        if path.suffix != ".t":
            text = strip_comments(text)
        words[path] = set(WORD.findall(text))
    dead = []
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        for name in VAL.findall(mli.read_text()):
            if not any(name in ws for p, ws in words.items() if p not in own):
                dead.append(f"{mli}: {name}")
    for line in dead:
        print(line)
    lines = sum(
        len(p.read_text().splitlines()) for p in sources(COUNTED, {".ml", ".mli"})
    )
    print(f"{len(dead)} unreferenced exports; lib + bench + bin: {lines} lines")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
