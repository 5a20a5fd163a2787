#!/usr/bin/env python3
"""Report public names that no flow reaches.

For every function and type named in a `src/<module>/include` header, count
its whole-word references outside that module, split by area (`src`,
`bench`, `examples`, `repobench`, `tests`), and inside the module apart
from its declaration (`own`).  A name is a *candidate* when src, bench,
examples and repobench never name it and its own module names it at most
once (its out-of-line definition): then only its tests reach it.  Comments and
private members (trailing `_`) are ignored.  The scan is a heuristic (a
name shared by several scopes hides a candidate; a virtual or a callback
shows up as a false one), so it reports and never fails.

Usage: python3 tools/unreached_scan.py [repo-root]
"""
import collections
import pathlib
import re
import sys

AREAS = ("src", "bench", "examples", "repobench", "tests")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
WORD = re.compile(r"\b[A-Za-z_]\w*\b")
TYPE = re.compile(r"\b(?:class|struct|enum class|enum)\s+(\w+)\s*[:{]"
                  r"|\busing\s+(\w+)\s*=")
FUNC = re.compile(r"^\s*(?:[\w:<>,*&]+\s+)+[*&]*(\w+)\s*\(", re.M)
SKIP = {"return", "if", "for", "while", "switch", "throw", "case", "else",
        "new", "delete", "operator", "sizeof", "static_assert", "decltype"}


def sources(root, area):
    for ext in ("*.cpp", "*.hpp", "*.h"):
        yield from (root / area).rglob(ext)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    # words[(area, module)] counts every identifier outside comments.
    words = collections.defaultdict(collections.Counter)
    declared = {}  # name -> (module, header)
    for area in AREAS:
        for path in sources(root, area):
            rel = path.relative_to(root)
            module = rel.parts[1] if area == "src" else None
            header = area == "src" and "include" in rel.parts
            text = COMMENT.sub(" ", path.read_text(errors="replace"))
            words[(area if not header else "hdr", module)].update(
                WORD.findall(text))
            if header:
                names = {a or b for a, b in TYPE.findall(text)}
                names |= set(FUNC.findall(text))
                for name in sorted(names - SKIP):
                    if not name.endswith("_"):
                        declared.setdefault(name, (module, str(rel)))

    candidates = []
    for name, (module, header) in sorted(declared.items()):
        refs = dict.fromkeys(("own",) + AREAS, 0)
        for (area, mod), counter in words.items():
            if mod == module:
                area = "own"
            elif area == "hdr":
                area = "src"
            refs[area] += counter[name]
        refs["own"] -= 1  # the declaration itself
        if refs["own"] <= 1 and sum(refs[a] for a in AREAS[:4]) == 0:
            candidates.append((header, name, refs["own"], refs["tests"]))

    print(f"{'header':<48} {'name':<28} own tests")
    for header, name, own, tests in sorted(candidates):
        print(f"{header:<48} {name:<28} {own:>3} {tests:>5}")
    print(f"{len(candidates)} candidates of {len(declared)} public names")


if __name__ == "__main__":
    main()
