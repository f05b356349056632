#!/usr/bin/env python3
"""Count the code lines in lib/.

A code line is a line of a `.ml` or `.mli` file under lib/ that still
holds something other than whitespace once comments are removed.
Comments nest; string literals (plain and quoted, `{|...|}` or
`{id|...|id}`) are kept, in code and skipped whole inside comments, so
a comment marker in a string neither opens nor closes a comment; a
character literal such as '"' opens no string. Blank lines and
comment-only lines do not count.

Usage: python3 tools/loc.py   (from the repository root; no flags)
Prints each lib/ directory's `.ml`, `.mli` and total code lines, then
the sums.
"""

import os
import re

ROOT = "lib"
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip_comments(src):
    """The source with every comment blanked out, newlines kept."""
    out = []
    depth = 0
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        m = CHAR.match(src, i) if c == "'" else None
        q = QUOTED.match(src, i) if c == "{" else None
        if m:
            end = m.end()
        elif q:
            close = src.find("|" + q.group(1) + "}", q.end())
            end = n if close < 0 else close + len(q.group(1)) + 2
        elif c == '"':
            end = i + 1
            while end < n and src[end] != '"':
                end += 2 if src[end] == "\\" else 1
            end += 1
        elif src.startswith("(*", i):
            depth += 1
            end = i + 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
            continue
        else:
            end = i + 1
        text = src[i:end]
        out.append(re.sub(r"[^\n]", " ", text) if depth else text)
        i = end
    return "".join(out)


def code_lines(path):
    with open(path) as f:
        src = f.read()
    return sum(1 for line in strip_comments(src).split("\n") if line.strip())


def main():
    per_dir = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d != "_build")
        for name in filenames:
            ext = os.path.splitext(name)[1]
            if ext in (".ml", ".mli"):
                counts = per_dir.setdefault(dirpath, {".ml": 0, ".mli": 0})
                counts[ext] += code_lines(os.path.join(dirpath, name))
    ml = sum(c[".ml"] for c in per_dir.values())
    mli = sum(c[".mli"] for c in per_dir.values())
    print(f"{'directory':<20} {'.ml':>7} {'.mli':>7} {'total':>7}")
    for d in sorted(per_dir):
        c = per_dir[d]
        print(f"{d:<20} {c['.ml']:>7} {c['.mli']:>7} {c['.ml'] + c['.mli']:>7}")
    print(f"{'lib/ (all)':<20} {ml:>7} {mli:>7} {ml + mli:>7}")


if __name__ == "__main__":
    main()
