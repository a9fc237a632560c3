#!/usr/bin/env python3
"""Flags the names in a Markdown doc that no code or file defines.

    python3 scripts/docnames.py DOC...

Prints one line per unknown name, `DOC:LINE: \`name\``, and exits 1 if
there is any. DOCs are paths from the current directory; the repository
is the script's parent directory, whatever the current one is. Three
kinds of backticked name are checked:
- `Type::name`: a type and an item (fn, const, static, associated
  type, field or variant) defined under crates/*/src or benchmark/src.
  The match is by name, not by owner: a rename or deletion is caught,
  an item moved between types is not;
- `module::item` (lower-case head, any depth, `{a, b}` for several):
  the head is a crate (`market`, `proteus_market`, `proteus-market`) or
  a module (`name.rs`, `name/`, or an inline `mod name {`), the next
  segment is an item, type or `mod` defined in the head's files, and
  any later one is that or a field or variant there;
- repo file paths (`dir/file.rs`, `dir/`): they resolve beside the doc,
  at the root, under crates/, or under crates/*/ or crates/*/src/ (a
  path a sentence gives inside one crate).
`ALLOWED` holds the exact strings that name something else on purpose:
std items, and a deleted item that a sentence names as history.
"""

import glob
import os
import re
import sys

ALLOWED = {
    "Arc::new", "Arc::make_mut",  # std
    "std::sync", "std::sync::mpsc", "std::time", "std::arch::x86_64",  # std
    "f64::total_cmp", "u32::MAX",  # std
    "Objective::ThroughputUnderBudget",  # DESIGN.md: a deleted objective, as history
}

SEGMENT = r"(?:[A-Za-z_]\w*|\{[^}]*\})"


class Code:
    """What the repository's sources define, file by file."""

    def __init__(self):
        self.sources = glob.glob("crates/*/src/**/*.rs", recursive=True)
        self.sources += glob.glob("benchmark/src/**/*.rs", recursive=True)
        self.types, self.items, self.text = set(), set(), {}
        # Per file: items, types and mods; fields and variants.
        self.declared, self.members = {}, {}
        kinds = r"fn|const|static|type|struct|enum|trait|union|mod"
        for path in self.sources:
            self.text[path] = open(path).read()
            names, inner = self.declared[path], self.members[path] = set(), set()
            for line in self.text[path].splitlines():
                self.types.update(re.findall(r"\b(?:struct|enum|trait|type|union)\s+([A-Za-z_]\w*)", line))
                self.items.update(re.findall(r"\b(?:fn|const|static|type)\s+([A-Za-z_]\w*)", line))
                field = re.match(r"\s*(?:pub(?:\([^)]*\))?\s+)?([a-z_]\w*)\s*:[^:]", line)
                variant = re.match(r"\s*([A-Z]\w*)\s*(?:[({,=]|$)", line)
                self.items.update(m.group(1) for m in (field, variant) if m)
                names.update(re.findall(rf"\b(?:{kinds})\s+([A-Za-z_]\w*)", line))
                inner.update(m.group(1) for m in (field, variant) if m)

    def scope(self, head):
        """The files a lower-case path head names: a crate's, or a module's."""
        crate = re.sub(r"^proteus[_-]", "", head)
        if glob.glob(f"crates/{crate}/src"):
            return [p for p in self.sources if p.startswith(f"crates/{crate}/src/")]
        inline = re.compile(rf"\bmod\s+{head}\s*\{{")
        return [p for p in self.sources if re.search(rf"/{head}(\.rs$|/)", p) or inline.search(self.text[p])]


def parts(segment):
    return [re.match(r"\s*(\w*)", p).group(1) for p in segment.strip("{}").split(",")]


def unknown_in(span, code, bases):
    """The names in one backticked span that nothing defines."""
    # `Type::name`, or `Type::{a, b}` naming several.
    for ty, rest in re.findall(r"\b([A-Z]\w*)::(\{[^}]*\}|[A-Za-z_]\w*)", span):
        for name in parts(rest):
            path = f"{ty}::{name}"
            if path not in ALLOWED and (ty not in code.types or name not in code.items):
                yield path
    # `module::item`, `crate::module::Type::item`, `module::{a, b}`.
    for m in re.finditer(rf"(?<![\w:./-])([a-z_][\w-]*)((?:::{SEGMENT})+)", span):
        path = m.group(0)
        if path in ALLOWED:
            continue
        files = code.scope(m.group(1))
        names = set().union(*(code.declared[p] for p in files))
        first, *rest = re.findall(SEGMENT, m.group(2))
        found = files and all(name in names for name in parts(first))
        names |= set().union(*(code.members[p] for p in files))
        if not found or any(name not in names for s in rest for name in parts(s)):
            yield path
    # Repo paths: lower-case directories, then a file or nothing.
    for m in re.finditer(r"(?<![\w./-])(?:[a-z0-9_.*-]+/)+[A-Za-z0-9_.-]*", span):
        if not any(glob.glob(base + m.group(0)) for base in bases):
            yield m.group(0)


def main(docs):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    docs = [os.path.relpath(os.path.abspath(doc), root) for doc in docs]
    os.chdir(root)
    code = Code()
    flagged = False
    for doc in docs:
        here = os.path.dirname(doc)
        bases = [here + "/" if here else "", "", "crates/", "crates/*/", "crates/*/src/"]
        for n, line in enumerate(open(doc), 1):
            for span in re.findall(r"`([^`]+)`", line):
                for name in unknown_in(span, code, bases):
                    print(f"{doc}:{n}: `{name}`")
                    flagged = True
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
