#!/usr/bin/env python3
"""List functions defined inline in src/ headers that nothing calls.

A function defined inline in a header is emitted only where it is used,
so a coverage build never lists one that nothing calls. This script finds
them from the source instead: each function defined inline in
src/**/*.hpp whose call-shaped uses (`name(` or `&Class::name`, comments
and string literals stripped) across src/, tests/, bench/, examples/ and
cctpbench/ are only its own definitions.

It matches by name only, so a name defined twice is listed only when both
definitions are uncalled, and a function used only as a value without
`&Class::` (say, passed to std::function) is a false positive.

Run it from the repository root. It prints `name  (defining headers)` per
uncalled function and exits 1 if it printed any, else 0.
"""
import pathlib
import re
import sys

DIRS = ["src", "tests", "bench", "examples", "cctpbench"]
KEYWORDS = {"if", "for", "while", "switch", "return", "catch", "sizeof",
            "alignof", "decltype", "static_assert", "noexcept", "requires",
            "operator", "defined"}
# An inline definition: name(params) [qualifiers] { -- the body opens on
# the same statement, so a declaration ending in ';' never matches.
DEFINE = re.compile(
    r"(?<![\w~.>:])(\w+)\s*\((?:[^()]|\([^()]*\))*\)\s*"
    r"(?:const\s*|override\s*|final\s*|noexcept\s*|&\s*)*\{")


def code(path):
    text = path.read_text(errors="replace")
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)


def main():
    files = [p for d in DIRS for p in pathlib.Path(d).rglob("*")
             if p.suffix in (".hpp", ".cpp", ".h")]
    sources = {p: code(p) for p in files}
    defined = {}
    for p, text in sources.items():
        if p.parts[0] == "src" and p.suffix == ".hpp":
            for m in DEFINE.finditer(text):
                name = m.group(1)
                # Constructors are capitalized; members (name_) are
                # initializers.
                if name not in KEYWORDS and not name[0].isupper() \
                        and not name.endswith("_"):
                    defined.setdefault(name, []).append(str(p))
    uncalled = []
    for name in sorted(defined):
        use = re.compile(r"(?<![\w~])" + name + r"\s*\(|::" + name +
                         r"\b(?!\s*\()")
        uses = sum(len(use.findall(t)) for t in sources.values())
        if uses <= len(defined[name]):
            uncalled.append(name)
            print(f"{name}  ({', '.join(sorted(set(defined[name])))})")
    return 1 if uncalled else 0


if __name__ == "__main__":
    sys.exit(main())
