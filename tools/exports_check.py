#!/usr/bin/env python3
"""Fail when a library export has no user.

Every `val` declared in a `lib/**/*.mli` must be named by at least one
other `.ml` file under lib/, bin/, bench/, perfbench/, examples/ or
test/. The module's own `.ml` does not count: a value only its own
module uses belongs out of the interface. The check is textual (the
identifier as a whole word, comments stripped), so it is conservative:
a common name used elsewhere for something else still counts as a use.

Usage: python3 tools/exports_check.py   (from the repository root)
Exit 1, naming each unused export, if any is found.
"""

import os
import re
import sys

SCANNED = ["lib", "bin", "bench", "perfbench", "examples", "test"]

# Exports kept without a caller, each with its reason.
ALLOWED = {
    ("lib/dsig/sign.mli", "verify_cost_us"):
        "the client-side signature check of ROADMAP's trust-loop item "
        "charges it",
}

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
CHAR = re.compile(r"'(?:\\.|[^\\'])'")


def strip_comments(src):
    """Drop OCaml comments (nested), keeping string literals intact."""
    src = CHAR.sub("' '", src)  # so that '"' opens no string
    out = []
    depth = 0
    i = 0
    n = len(src)
    while i < n:
        if depth == 0 and src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(src[i:j + 1])
            i = j + 1
        elif src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def sources(ext):
    found = []
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            found += [os.path.join(dirpath, f)
                      for f in filenames if f.endswith(ext)]
    return sorted(found)


def main():
    texts = {f: strip_comments(open(f).read()) for f in sources(".ml")}
    unused = []
    total = 0
    for mli in sources(".mli"):
        if not mli.startswith("lib/"):
            continue
        own = mli[:-1]
        for name in VAL.findall(strip_comments(open(mli).read())):
            total += 1
            word = re.compile(r"(?<![\w'])" + re.escape(name) + r"(?![\w'])")
            if any(word.search(t) for f, t in texts.items() if f != own):
                continue
            if (mli, name) not in ALLOWED:
                unused.append((mli, name))
    for mli, name in unused:
        print(f"{mli}: val {name} is named by no other .ml file",
              file=sys.stderr)
    print(f"exports: {total} vals in lib/**/*.mli, {len(unused)} unused, "
          f"{len(ALLOWED)} allowed")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
