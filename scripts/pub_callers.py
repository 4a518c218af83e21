#!/usr/bin/env python3
"""No-caller audit of the workspace crates' public items.

Usage: python3 scripts/pub_callers.py [repo-root]

Lists every `pub` fn, struct, enum, union, trait, type alias, const or
static declared under `<repo-root>/crates/*/src` (default: the checkout
this script lives in) that nothing outside its own tests names:

* its name appears in no other `.rs` file of the repository (`target/`,
  `vendor/` and hidden directories skipped), not counting a crate
  root's `pub use` re-export; and
* in its own file, the name appears only on its definition line or in
  `#[cfg(test)]` items.

A mention is the name as a word in a line's code: comments, doc comments
and the examples in them do not count. Matching is by name, not by path:
an item that shares its name with another item elsewhere is never listed.
A clean run is therefore not a proof that every item has a caller, only
that no new item is plainly without one.

Exits 1 when a listed item is not in `ALLOW` below, or when an `ALLOW`
entry is no longer listed (a ratchet: the list only shrinks). Needs
python3 only; comment and `#[cfg(test)]` handling are `code_lines.py`'s.
"""

import os
import re
import sys

from code_lines import classify, crate_files

# Items kept without a caller outside their tests, each with its reason.
# Keys are `Type::method` for methods, the bare name otherwise.
ALLOW = {
    "Graph::edge_count": "the size accessor beside len(); the graph "
    "generator tests assert each family's edge count with it",
    "Graph::is_connected": "the generator tests' oracle: every family they "
    "build is asserted connected, Cybenko's first condition",
    "DiffusionMatrix::satisfies_cybenko": "the diffusion-matrix tests' "
    "oracle for Cybenko's second condition: every self weight positive",
}

DEFINITION = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|union|trait|type|const|static)\s+(?:mut\s+)?(\w+)"
)
IMPL = re.compile(r"^\s*impl\b(?:\s*<[^>]*>)?\s+(?:[\w:]+(?:<[^>]*>)?\s+for\s+)?(?:[\w]+::)*(\w+)")
WORD = re.compile(r"\w+")
SKIP_DIRS = {"target", "vendor"}


def rust_files(root):
    for dirpath, dirs, names in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS and not d.startswith("."))
        for name in sorted(names):
            if name.endswith(".rs"):
                yield os.path.normpath(os.path.join(dirpath, name))


def mentions(path, all_test):
    """(line number, words, in test) for every line of one file, a crate
    root's `pub use` statements left out."""
    root = os.path.basename(path) == "lib.rs" and os.path.basename(os.path.dirname(path)) == "src"
    in_use = False
    for number, text, _, _, in_test in classify(path, all_test):
        if root and (in_use or text.lstrip().startswith("pub use ")):
            in_use = ";" not in text
            continue
        yield number, set(WORD.findall(text)), in_test


def definitions(path, all_test):
    """(line number, kind, shown name, name) of the public items of one
    file outside its test items; a method is shown as `Type::name`."""
    depth = 0
    impls = []  # [brace depth at the impl line, type name, body opened]
    for number, text, _, delta, in_test in classify(path, all_test):
        while impls and impls[-1][2] and depth <= impls[-1][0]:
            impls.pop()
        if not in_test:
            found = IMPL.match(text)
            if found:
                impls.append([depth, found.group(1), False])
            found = DEFINITION.match(text)
            if found:
                kind, name = found.groups()
                method = kind == "fn" and impls and impls[-1][2] and depth == impls[-1][0] + 1
                yield number, kind, f"{impls[-1][1]}::{name}" if method else name, name
        depth += delta
        if impls and depth > impls[-1][0]:
            impls[-1][2] = True


def main():
    root = os.path.normpath(
        sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    )
    sources = {}  # crate source file -> compiled only under test
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        if os.path.isdir(src):
            for path, all_test in crate_files(src):
                sources[os.path.normpath(path)] = all_test

    files_naming = {}  # word -> files that name it
    own_lines = {}  # crate source file -> word -> non-test lines that name it
    for path in rust_files(root):
        own = own_lines.setdefault(path, {}) if path in sources else None
        for number, words, in_test in mentions(path, sources.get(path, False)):
            for word in words:
                files_naming.setdefault(word, set()).add(path)
                if own is not None and not in_test:
                    own.setdefault(word, set()).add(number)

    listed = []
    for path, all_test in sources.items():
        for number, kind, shown, name in definitions(path, all_test):
            elsewhere = files_naming.get(name, set()) - {path}
            here = own_lines[path].get(name, set()) - {number}
            if not elsewhere and not here:
                listed.append((os.path.relpath(path, root), number, kind, shown))

    failures = 0
    for rel, number, kind, shown in listed:
        reason = ALLOW.get(shown)
        print(f"{rel}:{number}: {kind} {shown}" + (f"  (allowed: {reason})" if reason else ""))
        failures += reason is None
    stale = sorted(set(ALLOW) - {shown for *_, shown in listed})
    for shown in stale:
        print(f"ALLOW entry {shown} has a caller now or is gone: remove it from ALLOW")
    if failures or stale:
        print(f"FAIL: {failures} public item(s) without a caller, {len(stale)} stale ALLOW entry(ies)")
        sys.exit(1)
    print(f"OK: every public item has a caller outside its tests ({len(listed)} allowed)")


if __name__ == "__main__":
    main()
